"""Max-min relation calculus: composition laws and residual updates."""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import grid, identity, ones, random_values
from fuzzykripke.algebra import Algebra, AlgebraError
from fuzzykripke.fixtures import load_pair
from fuzzykripke import levels
from fuzzykripke.bisim import DIRECTIONS
from fuzzykripke.fuzzrel import RESIDUAL_UPDATES, FuzzyMat, FuzzyVec, nonzero_profile

GODEL = Algebra.godel()


def rand_mat(rng, alg, k, m) -> FuzzyMat:
    vals = random_values(rng, alg, k * m)
    return FuzzyMat(alg, (vals[i * m : (i + 1) * m] for i in range(k)))


def rand_vec(rng, alg, k) -> FuzzyVec:
    return FuzzyVec(alg, random_values(rng, alg, k))


def rand_dims(rng, lo=1, hi=3):
    return rng.randint(lo, hi)


def mm_oracle(a: FuzzyMat, b: FuzzyMat) -> list:
    """Reference max-min product, written independently of FuzzyMat.compose."""
    k, n = a.shape
    n2, m = b.shape
    assert n == n2
    return [
        [max(min(a.rows[i][t], b.rows[t][j]) for t in range(n)) for j in range(m)]
        for i in range(k)
    ]


# -- composition against the reference product --------------------------------


def test_compose_matches_reference_product(rng):
    for _ in range(500):
        k, n, m = rand_dims(rng), rand_dims(rng), rand_dims(rng)
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        assert list(map(list, a.compose(b).rows)) == mm_oracle(a, b)


def test_compose_associativity(rng):
    for _ in range(500):
        k, n, m, q = (rand_dims(rng) for _ in range(4))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        c = rand_mat(rng, GODEL, m, q)
        assert a.compose(b).compose(c).rows == a.compose(b.compose(c)).rows


def test_compose_associativity_vector_forms(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        f = rand_vec(rng, GODEL, k)
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        g = rand_vec(rng, GODEL, m)
        # (f o a) o b == f o (a o b)  and  a o (b o g) == (a o b) o g
        assert f.compose_mat(a).compose_mat(b).values == f.compose_mat(a.compose(b)).values
        assert a.compose_vec(b.compose_vec(g)).values == a.compose(b).compose_vec(g).values
        # scalar bracketing: (f o a) o g == f o (a o g)
        h = rand_vec(rng, GODEL, n)
        assert f.compose_mat(a).compose_vec(h) == f.compose_vec(a.compose_vec(h))


def test_compose_monotone(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        a2 = a.join(rand_mat(rng, GODEL, k, n))
        b2 = b.join(rand_mat(rng, GODEL, n, m))
        assert a.leq(a2) and b.leq(b2)
        assert a.compose(b).leq(a2.compose(b2))


def test_inverse_reverses_composition(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        assert a.compose(b).inverse().rows == b.inverse().compose(a.inverse()).rows


def test_compose_distributes_over_join(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        c = rand_mat(rng, GODEL, n, m)
        d = rand_mat(rng, GODEL, k, n)
        assert a.compose(b.join(c)).rows == a.compose(b).join(a.compose(c)).rows
        assert a.join(d).compose(b).rows == a.compose(b).join(d.compose(b)).rows


def test_inverse_of_join(rng):
    for _ in range(500):
        k, m = rand_dims(rng), rand_dims(rng)
        a = rand_mat(rng, GODEL, k, m)
        b = rand_mat(rng, GODEL, k, m)
        assert a.join(b).inverse().rows == a.inverse().join(b.inverse()).rows


def test_vector_matrix_exchange(rng):
    # f o phi == phi^-1 o f  and  g o phi^-1 == phi o g, for any phi
    for _ in range(500):
        k, m = rand_dims(rng), rand_dims(rng)
        phi = rand_mat(rng, GODEL, k, m)
        f = rand_vec(rng, GODEL, k)
        g = rand_vec(rng, GODEL, m)
        assert f.compose_mat(phi).values == phi.inverse().compose_vec(f).values
        assert g.compose_mat(phi.inverse()).values == phi.compose_vec(g).values


def test_every_arity_matches_the_reference_product(rng):
    # a vector on the left is one row and a vector on the right one column
    def row(f):
        return FuzzyMat(f.algebra, [f.values])

    def column(g):
        return FuzzyMat(g.algebra, [[v] for v in g.values])

    for _ in range(300):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a, b = rand_mat(rng, GODEL, k, n), rand_mat(rng, GODEL, n, m)
        f, g, h = rand_vec(rng, GODEL, k), rand_vec(rng, GODEL, n), rand_vec(rng, GODEL, n)
        cases = [
            (a.compose(b), FuzzyMat, mm_oracle(a, b)),
            (f.compose_mat(a), FuzzyVec, mm_oracle(row(f), a)[0]),
            (a.compose_vec(g), FuzzyVec, [r[0] for r in mm_oracle(a, column(g))]),
            (h.compose_vec(g), Fraction, mm_oracle(row(h), column(g))[0][0]),
        ]
        for got, kind, want in cases:
            assert type(got) is kind
            if kind is FuzzyMat:
                got = list(map(list, got.rows))
            elif kind is FuzzyVec:
                got = list(got.values)
            assert got == want


def test_mixed_algebras_raise_before_a_bad_inner_dimension():
    one = Fraction(1)
    mat, vec = FuzzyMat(GODEL, [[one, one]]), FuzzyVec(GODEL, [one] * 3)
    for other in (Algebra.boolean(), GODEL):
        arities = [
            (lambda: mat.compose(FuzzyMat(other, [[one]])), "(1, 2) o (1, 1)"),
            (lambda: vec.compose_mat(FuzzyMat(other, [[one]])), "(3,) o (1, 1)"),
            (lambda: mat.compose_vec(FuzzyVec(other, [one] * 3)), "(1, 2) o (3,)"),
            (lambda: vec.compose_vec(FuzzyVec(other, [one])), "(3,) o (1,)"),
        ]
        for compose, shapes in arities:
            if other is GODEL:
                with pytest.raises(ValueError, match=rf"^dimension mismatch: {re.escape(shapes)}$"):
                    compose()
            else:
                with pytest.raises(AlgebraError, match="^mixed algebras: godel vs boolean$"):
                    compose()


# -- residual updates: greatest-solution characterizations ---------------------

CHAIN3 = Algebra.chain(3)


def all_small_mats(alg, k, m):
    carrier = alg.carrier()
    for combo in itertools.product(carrier, repeat=k * m):
        yield FuzzyMat(alg, (combo[i * m : (i + 1) * m] for i in range(k)))


def constraint_holders(tag, r, rp, chi, phi):
    """The inequality each update is adjoint to, spelled out directly."""
    if tag == "fwd":
        return chi.inverse().compose(r).leq(rp.compose(phi.inverse()))
    if tag == "bwd":
        return r.compose(chi).leq(phi.compose(rp))
    if tag == "fwd_inv":
        return chi.compose(rp).leq(r.compose(phi))
    if tag == "bwd_inv":
        return rp.compose(chi.inverse()).leq(phi.inverse().compose(r))
    raise AssertionError(tag)


def level_update(tag, rs, rps, phi) -> FuzzyMat:
    """The level update of direction ``tag`` for the stacks of the exact
    relations ``rs`` and ``rps``, decoded to an exact matrix: the forward
    update on the arguments oriented by the row of ``bisim.DIRECTIONS``."""
    transpose, swap = DIRECTIONS[tag].transpose, DIRECTIONS[tag].swap
    universe = levels.union(x.universe for x in (*rs, *rps, phi))

    def stack(mats):
        lv = np.stack([universe.recode(x.universe, x.levels) for x in mats])
        return lv.swapaxes(-1, -2) if transpose else lv

    lv = universe.recode(phi.universe, phi.levels)
    r, rp = (stack(rps), stack(rs)) if swap else (stack(rs), stack(rps))
    chi = RESIDUAL_UPDATES["fwd"](r, rp, lv.T if swap else lv, universe.top)
    return FuzzyMat(phi.algebra, universe.decode(chi.T if swap else chi))


# the four directions, named as the updates they compute
UPDATES = {
    "update_forward": "fwd",
    "update_backward": "bwd",
    "update_forward_inv": "fwd_inv",
    "update_backward_inv": "bwd_inv",
}


@pytest.mark.parametrize("update", UPDATES)
def test_update_is_greatest_solution(update):
    # chi <= update(r, rp, phi)  iff  the associated inequality holds:
    # checked exhaustively over every candidate chi on a three-level chain
    tag = UPDATES[update]
    rng = random.Random(sum(map(ord, update)))
    for _ in range(25):
        r = rand_mat(rng, CHAIN3, 2, 2)
        rp = rand_mat(rng, CHAIN3, 2, 2)
        phi = rand_mat(rng, CHAIN3, 2, 2)
        u = level_update(tag, [r], [rp], phi)
        assert constraint_holders(tag, r, rp, u, phi)
        for chi in all_small_mats(CHAIN3, 2, 2):
            assert chi.leq(u) == constraint_holders(tag, r, rp, chi, phi)


@pytest.mark.parametrize("tag", list(UPDATES.values()))
def test_update_of_a_stack_is_the_meet_of_its_slices(tag, rng):
    # one call on a stack of relation pairs gives the greatest chi meeting
    # every slice's inequality: the meet of the one-slice updates
    for _ in range(60):
        k, m, s = rand_dims(rng, 1, 4), rand_dims(rng, 1, 4), rand_dims(rng, 1, 3)
        rs = [rand_mat(rng, GODEL, k, k) for _ in range(s)]
        rps = [rand_mat(rng, GODEL, m, m) for _ in range(s)]
        phi = rand_mat(rng, GODEL, k, m)
        whole = level_update(tag, rs, rps, phi)
        meet = level_update(tag, rs[:1], rps[:1], phi)
        for r, rp in zip(rs[1:], rps[1:]):
            meet = meet.meet(level_update(tag, [r], [rp], phi))
        assert whole == meet
        for chi in (whole, whole.join(phi)):
            holds = all(constraint_holders(tag, r, rp, chi, phi) for r, rp in zip(rs, rps))
            assert holds == chi.leq(whole)


# -- frozen worked results ------------------------------------------------------


def test_showcase_forward_simulation_intermediates():
    from fuzzykripke import SimType, greatest_pre

    a, b = load_pair("sim_showcase")
    rep = greatest_pre(a, b, SimType("fs"))
    phi = rep.matrix
    assert grid(phi) == [["0.9", "0.3", "0.2"], ["1", "1", "0.2"], ["0.9", "0.3", "1"]]
    left = phi.inverse().compose(a.relations[1])
    right = b.relations[1].compose(phi.inverse())
    # both sides recomputed with the reference product, then frozen
    assert list(map(list, left.rows)) == mm_oracle(phi.inverse(), a.relations[1])
    assert list(map(list, right.rows)) == mm_oracle(b.relations[1], phi.inverse())
    assert grid(left) == [["0.9", "0.9", "0.9"], ["0.3", "0.3", "0.7"], ["0.9", "1", "0.4"]]
    assert grid(right) == [["0.9", "0.9", "1"], ["0.3", "0.3", "0.7"], ["0.9", "1", "0.9"]]
    assert left.leq(right)


def test_nonzero_profiles_of_bundled_models():
    a, b = load_pair("backward_only")
    assert nonzero_profile(a.relations[1]) == ((3, 3, 3), (3, 3, 3))
    assert nonzero_profile(a.relations[2]) == ((3, 2, 3), (3, 2, 3))
    assert nonzero_profile(b.relations[1]) == ((2, 2), (2, 2))
    sa, sb = load_pair("sim_showcase")
    assert nonzero_profile(sb.relations[1]) == ((3, 2, 3), (2, 3, 3))


# -- containers and validation ---------------------------------------------------


def test_matrix_constructors_and_lattice_ops():
    ident = identity(GODEL, 3)
    assert grid(ident) == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    zeros = FuzzyMat.zeros(GODEL, (2, 3))
    full = ones(GODEL, (2, 3))
    assert zeros.is_zero() and not full.is_zero()
    assert zeros.leq(full)
    half = FuzzyMat.constant(GODEL, (2, 3), Fraction(1, 2))
    assert half.meet(full).rows == half.rows
    assert half.join(zeros).rows == half.rows
    assert ident.compose(ident).rows == ident.rows


def test_identity_is_a_unit(rng):
    for _ in range(100):
        k, m = rand_dims(rng), rand_dims(rng)
        a = rand_mat(rng, GODEL, k, m)
        assert identity(GODEL, k).compose(a).rows == a.rows
        assert a.compose(identity(GODEL, m)).rows == a.rows


def test_dimension_mismatches_raise():
    a = FuzzyMat(GODEL, [[Fraction(1)]])
    b = FuzzyMat(GODEL, [[Fraction(1), Fraction(0)]])
    v = FuzzyVec(GODEL, [Fraction(1), Fraction(0)])
    with pytest.raises(ValueError):
        b.compose(b)
    with pytest.raises(ValueError):
        a.compose_vec(v)
    with pytest.raises(ValueError):
        v.compose_mat(a)
    with pytest.raises(ValueError):
        v.compose_vec(FuzzyVec(GODEL, [Fraction(1)]))
    with pytest.raises(ValueError):
        a.meet(b)
    with pytest.raises(ValueError):
        FuzzyMat(GODEL, [[Fraction(1)], [Fraction(0), Fraction(1)]])


def test_mixed_algebras_raise():
    a = FuzzyMat(GODEL, [[Fraction(1)]])
    b = FuzzyMat(Algebra.boolean(), [[Fraction(1)]])
    with pytest.raises(AlgebraError):
        a.compose(b)


def test_empty_vectors_are_refused_and_entries_are_read_by_position():
    with pytest.raises(ValueError, match="^fuzzy vector must be nonempty$"):
        FuzzyVec(GODEL, [])
    mat = FuzzyMat(GODEL, [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(1, 3)]])
    assert [mat[i, j] for i in range(2) for j in range(2)] == [1, Fraction(1, 2), 0, Fraction(1, 3)]
    assert mat.inverse()[0, 1] == 0 and mat[-1, -1] == Fraction(1, 3)


def test_matrices_and_vectors_are_immutable():
    mat = FuzzyMat(GODEL, [[Fraction(1, 2)]])
    vec = FuzzyVec(GODEL, [Fraction(1, 2)])
    for x, name in ((mat, "FuzzyMat"), (vec, "FuzzyVec")):
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            x.levels = np.zeros(1, np.uint8)
    assert mat.rows == ((Fraction(1, 2),),) and vec.values == (Fraction(1, 2),)


def test_off_carrier_entries_rejected():
    with pytest.raises(AlgebraError):
        FuzzyMat(Algebra.chain(3), [[Fraction(1, 3)]])
    with pytest.raises(AlgebraError):
        FuzzyVec(Algebra.boolean(), [Fraction(1, 2)])


def test_each_distinct_value_is_checked_once_per_matrix(monkeypatch):
    checked = []
    check = Algebra.check_value
    monkeypatch.setattr(
        Algebra, "check_value", lambda self, value: checked.append(value) or check(self, value)
    )
    chain3 = Algebra.chain(3)
    # distinct but equal objects are one value: checked once, and still checked
    halves = [[Fraction(1, 2) for _ in range(4)] for _ in range(4)]
    assert FuzzyMat(chain3, halves).rows == ((Fraction(1, 2),) * 4,) * 4
    assert checked == [Fraction(1, 2)]
    with pytest.raises(AlgebraError, match="3/10"):
        FuzzyMat(chain3, [[Fraction(3, 10) for _ in range(4)] for _ in range(4)])
    # an off-carrier value after many valid copies, in the last row or entry
    n = 40
    half = Fraction(1, 2)
    rows = [[half] * n for _ in range(n - 1)] + [[half] * (n - 1) + [Fraction(1, 4)]]
    with pytest.raises(AlgebraError, match="1/4"):
        FuzzyMat(chain3, rows)
    with pytest.raises(AlgebraError, match="1/4"):
        FuzzyVec(chain3, rows[-1])
    # the library builds its own matrices from levels: nothing is checked again
    checked.clear()
    mat = FuzzyMat(chain3, [[Fraction(0), half], [Fraction(1), half]])
    assert len(checked) == 3
    mat.inverse().meet(mat).join(mat).compose(mat)
    assert len(checked) == 3


def test_one_element_blocks_give_the_same_answers(monkeypatch):
    # every (k, n, m) broadcast of the kernel is cut into blocks of at most
    # BATCH elements along its contracted axis; the smallest blocks must
    # give the answers of whole-array blocks
    from fuzzykripke import SimType, greatest_pre, hm_check, levels

    a, b = load_pair("sim_showcase")

    def answers():
        return (
            [greatest_pre(a, b, t).to_dict() for t in SimType],
            hm_check(a, b, "plus", max_depth=1).to_dict(),
        )

    whole = answers()
    monkeypatch.setattr(levels, "BATCH", 1)
    assert answers() == whole


# -- the constructors against the value table they replaced -------------------


def encode_rows(algebra, rows):
    """The constructors' own value table before they built through
    ``levels.Universe``: the rows as value indices, with the distinct
    values in order of first occurrence.  Every entry is type-checked
    (integers, booleans among them, become ``Fraction``) and each distinct
    value is checked against the carrier once."""
    index, values, out = {}, [], []
    for row in rows:
        ids = []
        for v in row:
            if not isinstance(v, Fraction):
                if not isinstance(v, int):
                    raise TypeError(f"truth values must be Fraction, got {type(v).__name__}")
                v = Fraction(v)
            key = v.as_integer_ratio()
            i = index.get(key)
            if i is None:
                algebra.check_value(v)
                i = index[key] = len(values)
                values.append(v)
            ids.append(i)
        out.append(ids)
    return out, values


def table_built(algebra, rows, vector: bool):
    """The level array and universe that ``FuzzyVec`` (one row) or
    ``FuzzyMat`` built through :func:`encode_rows`, refusing what they
    refused in the order they refused it."""
    ids, table = encode_rows(algebra, rows)
    if vector:
        [ids] = ids
        if not ids:
            raise ValueError("fuzzy vector must be nonempty")
    else:
        lengths = list(map(len, ids))
        if not lengths:
            raise ValueError("fuzzy matrix must have at least one row")
        width = lengths[0]
        if width == 0 or lengths.count(width) != len(lengths):
            raise ValueError("fuzzy matrix rows must be nonempty and equally long")
        flat = list(itertools.chain.from_iterable(ids))
        ids = np.asarray(flat, dtype=np.intp).reshape(len(lengths), width)
    universe = levels.Universe(table)
    return universe.encode(table)[ids], universe


def constructed(algebra, rows, vector: bool):
    x = FuzzyVec(algebra, rows[0]) if vector else FuzzyMat(algebra, rows)
    return x.levels, x.universe


def outcome(build, *args):
    """What a construction gives: its levels (values and dtype) and the
    values of its universe, or its exception's type and message."""
    try:
        lv, universe = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return lv.tolist(), lv.dtype, universe.values


class NotABool:
    """An entry whose type is named ``bool`` but is not ``bool``: the value
    table refused it like any other non-number, and the constructors now
    refuse a real ``bool`` the same way."""


NotABool.__name__ = "bool"


def carrier_sample(algebra) -> list:
    """Carrier values to draw entries from: some sevenths on Godel."""
    return list(algebra.carrier()) if algebra.kind != "godel" else [Fraction(k, 7) for k in range(8)]


def constructor_entry(rng, algebra):
    """A carrier value, as a new ``Fraction`` object or as an ``int``, or,
    now and then, an entry the constructors refuse or once read as 0 or 1."""
    if rng.random() < 0.06:
        return rng.choice([
            Fraction(1, 4), Fraction(3, 2), Fraction(-1, 3), 0.5, 1.0, np.int64(1),
            np.float64(0.5), np.uint8(0), "0.5", None, True, False,
        ])
    v = rng.choice(carrier_sample(algebra))
    if v.denominator == 1 and rng.random() < 0.5:
        return int(v)
    return Fraction(v.numerator, v.denominator)


def constructor_input(rng, algebra):
    """Rows for a vector (one row) or a matrix: mostly small, sometimes
    empty or ragged, sometimes 30 x 30 with one bad entry in the second
    half, and sometimes of more than 256 distinct values."""
    shape = rng.random()
    if shape < 0.1 and algebra.kind == "godel":
        many = [Fraction(k, 331) for k in range(332)]
        rng.shuffle(many)
        return [many] if rng.random() < 0.5 else [many[k:k + 83] for k in range(0, 332, 83)]
    if shape < 0.2:
        n = 30
        rows = [[Fraction(v.numerator, v.denominator) for v in rng.choices(carrier_sample(algebra), k=n)]
                for _ in range(n)]
        bad = rng.choice([Fraction(3, 2), Fraction(-1, 4), 0.25, True])
        rows[rng.randrange(n // 2, n)][rng.randrange(n)] = bad
        return rows
    k, m = rng.randint(0, 4), rng.randint(0, 4)
    rows = [[constructor_entry(rng, algebra) for _ in range(m)] for _ in range(k)]
    if rows and rng.random() < 0.15:
        rows[rng.randrange(k)] = [constructor_entry(rng, algebra) for _ in range(rng.randint(0, 5))]
    return rows


def test_constructors_equal_the_value_table_they_replaced():
    """On seeded inputs, ``FuzzyVec`` and ``FuzzyMat`` build the level
    arrays (values and dtype) and universes of the old value table, and
    raise its exceptions with its messages.  The one difference is a
    ``bool`` entry: the table read it as 0 or 1; the constructors refuse
    it as the table refused any other entry of a type named ``bool``."""
    rng = random.Random("constructors")
    seen, bools_read = set(), 0
    for trial in range(2000):
        algebra = Algebra.from_spec(rng.choice(["boolean", "chain:3", "chain:5", "godel"]))
        rows = constructor_input(rng, algebra)
        vector = rng.random() < 0.4
        if vector:
            rows = [list(itertools.chain.from_iterable(rows))]
        refused = [[NotABool() if type(v) is bool else v for v in row] for row in rows]
        new = outcome(constructed, algebra, rows, vector)
        assert new == outcome(table_built, algebra, refused, vector), (trial, rows)
        if refused != rows:
            bools_read += outcome(table_built, algebra, rows, vector) != new
        seen.add(new[0] if isinstance(new[0], type) else new[1].name)
    assert seen == {TypeError, ValueError, AlgebraError, "uint8", "uint16"}
    assert bools_read > 100


def test_booleans_are_not_truth_values():
    chain3 = Algebra.chain(3)
    refused = [
        lambda: FuzzyVec(GODEL, [True]),
        lambda: FuzzyMat(GODEL, [[False]]),
        lambda: FuzzyVec(chain3, [Fraction(1, 2), 1, np.bool_(True)]),
        lambda: FuzzyMat(chain3, [[0, 1], [Fraction(1, 2), True]]),
        lambda: FuzzyMat.constant(GODEL, (2, 2), False),
    ]
    for build in refused:
        with pytest.raises(TypeError, match="^truth values must be Fraction, got bool$"):
            build()
    # the first bad entry in row-major order is still the one reported
    with pytest.raises(AlgebraError, match="value 1/4 is not in the chain:3 carrier"):
        FuzzyMat(chain3, [[Fraction(1), Fraction(1, 4)], [True, 0]])
    assert FuzzyVec(GODEL, [1, 0]).values == (Fraction(1), Fraction(0))


def test_a_ragged_matrix_of_too_many_values_reports_the_universe_size_first():
    # as the loader does: the values are checked and put in one universe
    # before the rows are shaped into a matrix
    many = [Fraction(1, k) for k in range(2, 65_537)]
    with pytest.raises(levels.ModelError, match="^value universe of 65537 values is too large$"):
        FuzzyMat(GODEL, [many[:2], many[2:]])
