"""Greatest (pre)simulations and (pre)bisimulations of all seven kinds."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import grid, ones, random_pair, random_values
from fuzzykripke import bisim
from fuzzykripke.algebra import ONE, ZERO, Algebra, format_value
from fuzzykripke.bisim import (
    SimType,
    _violations,
    check_conditions,
    greatest_pre,
)
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.levels import Universe, union
from fuzzykripke.model import KripkeModel

ALL_TYPES = [SimType(t) for t in ("fs", "bs", "fb", "bb", "fbb", "bfb", "rb")]
BISIM_TYPES = [SimType(t) for t in ("fb", "bb", "fbb", "bfb", "rb")]

# reversing both models swaps each kind with its mirror image
DUAL_TYPE = {
    "fs": "bs",
    "bs": "fs",
    "fb": "bb",
    "bb": "fb",
    "fbb": "bfb",
    "bfb": "fbb",
    "rb": "rb",
}


# -- frozen greatest relations on the showcase pair ------------------------------

SHOWCASE_EXPECTED = {
    "fs": ([["0.9", "0.3", "0.2"], ["1", "1", "0.2"], ["0.9", "0.3", "1"]], 2),
    "bs": ([["0.9", "0.4", "0.2"], ["1", "0.8", "0.2"], ["1", "0.8", "1"]], 2),
    "fb": ([["0.8", "0.3", "0.2"], ["0.3", "1", "0.2"], ["0.2", "0.2", "0.8"]], 3),
    "bb": ([["0.9", "0.4", "0.2"], ["0.4", "0.8", "0.2"], ["0.2", "0.2", "0.9"]], 2),
    "fbb": ([["0.8", "0.3", "0.2"], ["0.4", "1", "0.2"], ["0.2", "0.2", "0.8"]], 3),
    "bfb": ([["0.9", "0.4", "0.2"], ["0.3", "0.8", "0.2"], ["0.2", "0.2", "0.9"]], 2),
    "rb": ([["0.8", "0.3", "0.2"], ["0.3", "0.8", "0.2"], ["0.2", "0.2", "0.8"]], 3),
}


def test_showcase_greatest_relations_are_frozen():
    a, b = load_pair("sim_showcase")
    for sim_type in ALL_TYPES:
        rep = greatest_pre(a, b, sim_type)
        want_matrix, want_iters = SHOWCASE_EXPECTED[sim_type.value]
        assert grid(rep.matrix) == want_matrix, sim_type.value
        assert rep.iterations == want_iters
        assert rep.exists and rep.nonempty and rep.satisfies_condition1
        assert rep.row_worlds == a.worlds and rep.col_worlds == b.worlds


def test_showcase_report_serialization():
    a, b = load_pair("sim_showcase")
    doc = greatest_pre(a, b, SimType("fs")).to_dict()
    assert doc["type"] == "fs"
    assert doc["matrix"] == SHOWCASE_EXPECTED["fs"][0]
    assert doc["exists"] is True
    assert all(c["holds"] for c in doc["conditions"])


# -- existence patterns on the other bundled pairs --------------------------------


def test_backward_only_pair_existence():
    a, b = load_pair("backward_only")
    outcomes = {t.value: greatest_pre(a, b, t) for t in BISIM_TYPES}
    assert {t: rep.exists for t, rep in outcomes.items()} == {
        "fb": False,
        "bb": True,
        "fbb": True,
        "bfb": False,
        "rb": False,
    }
    bb_matrix = [["1", "0.3"], ["0.3", "1"], ["1", "0.3"]]
    assert grid(outcomes["bb"].matrix) == bb_matrix
    assert grid(outcomes["fbb"].matrix) == bb_matrix
    # the failed kinds collapse to a constant matrix below every threshold
    assert grid(outcomes["rb"].matrix) == [["0.3", "0.3"]] * 3


def test_backward_only_pair_flips_under_reversal():
    a, b = load_pair("backward_only")
    ra, rb_model = a.reverse(), b.reverse()
    flags = {t.value: greatest_pre(ra, rb_model, t).exists for t in BISIM_TYPES}
    assert flags == {"fb": True, "bb": False, "fbb": False, "bfb": True, "rb": False}
    rep = greatest_pre(ra, rb_model, SimType("fb"))
    assert grid(rep.matrix) == [["1", "0.3"], ["0.3", "1"], ["1", "0.3"]]


def test_fully_equivalent_pair_existence():
    a, b = load_pair("fully_equivalent")
    for t in BISIM_TYPES:
        assert greatest_pre(a, b, t).exists, t.value
    assert grid(greatest_pre(a, b, SimType("rb")).matrix) == [
        ["1", "0.2"],
        ["0.2", "1"],
        ["1", "0.2"],
    ]


def test_crisp_pair_kinds_coincide():
    a, b = load_pair("crisp_pair")
    want = [["1", "0"], ["0", "1"], ["0", "1"], ["1", "0"]]
    for t in BISIM_TYPES:
        rep = greatest_pre(a, b, t)
        assert rep.exists and grid(rep.matrix) == want and rep.iterations == 1


# -- structural properties ----------------------------------------------------------


def test_reversal_duality_on_fixtures():
    for name in ("sim_showcase", "backward_only", "fully_equivalent", "crisp_pair"):
        a, b = load_pair(name)
        ra, rb_model = a.reverse(), b.reverse()
        for t in ALL_TYPES:
            if name != "sim_showcase" and t.value in ("fs", "bs"):
                continue
            mirrored = greatest_pre(ra, rb_model, SimType(DUAL_TYPE[t.value]))
            assert mirrored.matrix.rows == greatest_pre(a, b, t).matrix.rows


def test_reversal_duality_on_random_pairs(rng):
    for algebra in (Algebra.boolean(), Algebra.chain(3), Algebra.godel()):
        for _ in range(25):
            a, b = random_pair(rng, algebra)
            ra, rb_model = a.reverse(), b.reverse()
            for t in ALL_TYPES:
                mirrored = greatest_pre(ra, rb_model, SimType(DUAL_TYPE[t.value]))
                assert mirrored.matrix.rows == greatest_pre(a, b, t).matrix.rows


def test_greatest_matrix_satisfies_its_conditions(rng):
    for _ in range(40):
        a, b = random_pair(rng, Algebra.godel())
        for t in ALL_TYPES:
            rep = greatest_pre(a, b, t)
            cond1 = [c.holds for c in rep.conditions if "-1[" in c.name]
            assert rep.satisfies_condition1 == all(cond1)
            for check in rep.conditions:
                if "-1[" not in check.name:
                    assert check.holds, (t.value, check.name)


def test_report_conditions_equal_checking_the_matrix(rng, monkeypatch):
    # greatest_pre checks its own level matrix in the value universe it
    # already built, which is the left model's own universe when that holds
    # every value of the right one; the verdicts must be those of the
    # public check
    import fuzzykripke.levels as levels

    built = []
    universe = levels.Universe
    monkeypatch.setattr(levels, "Universe", lambda values: built.append(1) or universe(values))
    for _ in range(20):
        a, b = random_pair(rng, Algebra.godel())
        merged = not set(b.universe.values) <= set(a.universe.values)
        for t in ALL_TYPES:
            built.clear()
            rep = greatest_pre(a, b, t)
            assert len(built) == merged
            direct = check_conditions(a, b, rep.matrix, t)
            assert [c.to_dict() for c in rep.conditions] == [c.to_dict() for c in direct]


def test_check_conditions_reports_first_violation():
    a, b = load_pair("sim_showcase")
    checks = check_conditions(a, b, ones(a.algebra, (len(a.worlds), len(b.worlds))), SimType("rb"))
    failed = [c for c in checks if not c.holds]
    assert failed, "the all-ones relation cannot satisfy every condition"
    v = failed[0].violation
    assert v is not None and {"pair", "lhs", "rhs"} <= set(v)
    from fuzzykripke.algebra import parse_value

    assert parse_value(v["lhs"]) > parse_value(v["rhs"])


def test_first_violation_reports_entry():
    # the one stacked search that every condition check reports from
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    u = Universe([half, quarter])
    a = np.array([u.encode([half, ZERO]), u.encode([ONE, ONE])])
    b = np.array([u.encode([half, ONE]), u.encode([quarter, ONE])])
    # vector slices name a world; a clean slice gives None
    assert _violations(a, b, (("x", "y"),), u) == [
        None, {"world": "x", "lhs": "1", "rhs": "0.25"}
    ]
    # matrix slices name a pair: the first bad entry in row-major order,
    # also in a slice read transposed, which names (column, row) worlds
    c = np.array([u.encode([ZERO, ONE]), u.encode([half, ZERO])])
    zero = np.zeros_like(c)
    worlds = (("u", "v"), ("x", "y"))
    assert _violations(np.stack([b, c, c]), np.stack([b, zero, zero]), worlds, u, {2}) == [
        None,
        {"pair": ["u", "y"], "lhs": "1", "rhs": "0"},
        {"pair": ["x", "v"], "lhs": "0.5", "rhs": "0"},
    ]


def test_greatest_is_an_upper_bound_exhaustively():
    # chain(2), tiny models: every candidate satisfying the -2/-3 conditions
    # lies below the computed greatest matrix, which itself satisfies them
    alg = Algebra.boolean()
    carrier = alg.carrier()
    from conftest import random_model
    import random as _random

    rng = _random.Random(4242)
    for _ in range(10):
        a = random_model(rng, alg, 2)
        b = random_model(rng, alg, 2)
        for t in ALL_TYPES:
            top = greatest_pre(a, b, t).matrix
            for combo in itertools.product(carrier, repeat=4):
                phi = FuzzyMat(alg, [combo[:2], combo[2:]])
                ok = all(
                    c.holds
                    for c in check_conditions(a, b, phi, t)
                    if "-1[" not in c.name
                )
                if ok:
                    assert phi.leq(top), (t.value, phi.rows)


def test_self_comparison_contains_identity(rng):
    for _ in range(30):
        from conftest import random_model

        m = random_model(rng, Algebra.godel(), rng.randint(1, 3))
        rep = greatest_pre(m, m, SimType("rb"))
        assert rep.exists
        for i in range(len(m.worlds)):
            assert rep.matrix.rows[i][i] == Fraction(1)


def test_iteration_counts_respect_cap(monkeypatch):
    a, b = load_pair("sim_showcase")
    cap = bisim._sweep_cap(a, b, union([a.universe, b.universe]))
    assert cap >= 1
    for t in ALL_TYPES:
        assert greatest_pre(a, b, t).iterations <= cap
    monkeypatch.setattr(bisim, "_sweep_cap", lambda *args: 0)
    with pytest.raises(RuntimeError, match="^fixpoint failed to stabilize within 0 sweeps"):
        greatest_pre(a, b, SimType("rb"))


def test_incomparable_models_are_rejected():
    a, _ = load_pair("sim_showcase")
    c, _ = load_pair("crisp_pair")
    with pytest.raises(Exception):
        greatest_pre(a, c, SimType("fs"))


# -- differential test against a reference Jacobi fixpoint ------------------------
#
# The reference spells the iteration out with Fraction loops: the greatest
# solution of the -3 conditions as the start, then sweeps that meet the
# iterate with every residual update of the kind, each taken against the
# previous iterate, until a sweep changes nothing.  Matrix and sweep count
# must both agree, so a Gauss-Seidel slip (updates reading the partly
# updated iterate) or a missed stop is caught.

REFERENCE_DIRECTIONS = {
    "fs": ("fwd",),
    "bs": ("bwd",),
    "fb": ("fwd", "fwd_inv"),
    "bb": ("bwd", "bwd_inv"),
    "fbb": ("fwd", "bwd_inv"),
    "bfb": ("bwd", "fwd_inv"),
    "rb": ("fwd", "fwd_inv", "bwd", "bwd_inv"),
}


def _ref_compose(a, b):
    return [
        [max(min(a[i][t], b[t][j]) for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _ref_transpose(a):
    return [list(col) for col in zip(*a)]


def _ref_update(tag, res, r, rp, phi):
    k, m = len(r), len(rp)
    if tag == "fwd":
        bound = _ref_compose(rp, _ref_transpose(phi))
        return [[min(res(r[u][v], bound[up][v]) for v in range(k)) for up in range(m)]
                for u in range(k)]
    if tag == "fwd_inv":
        bound = _ref_compose(r, phi)
        return [[min(res(rp[up][vp], bound[u][vp]) for vp in range(m)) for up in range(m)]
                for u in range(k)]
    if tag == "bwd":
        bound = _ref_compose(phi, rp)
        return [[min(res(r[v][u], bound[v][up]) for v in range(k)) for up in range(m)]
                for u in range(k)]
    bound = _ref_compose(_ref_transpose(phi), r)
    return [[min(res(rp[vp][up], bound[vp][u]) for vp in range(m)) for up in range(m)]
            for u in range(k)]


def reference_greatest_pre(m1, m2, kind):
    """(matrix rows, sweeps) of the greatest pre-relation, by Fraction loops."""
    alg = m1.algebra
    op = alg.residuum if kind in ("fs", "bs") else alg.biimplication
    variables = sorted(m1.valuation)
    phi = [
        [
            min((op(m1.valuation[p][w], m2.valuation[p][wp]) for p in variables),
                default=Fraction(1))
            for wp in range(len(m2.worlds))
        ]
        for w in range(len(m1.worlds))
    ]
    sweeps = 0
    while True:
        new = [row[:] for row in phi]
        for tag in REFERENCE_DIRECTIONS[kind]:
            for i in m1.indices:
                chi = _ref_update(tag, alg.residuum, m1.relations[i].rows,
                                  m2.relations[i].rows, phi)
                new = [[min(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(new, chi)]
        sweeps += 1
        if new == phi:
            return phi, sweeps
        phi = new


def path_pair(rng, n):
    """Path-shaped Godel models s0 -> s1 -> ... -> s(n-1) with the same random
    edge weights, where ``p`` is 0 except at the last world (0.5 on the left,
    0.3 on the right): the fixpoint needs about n sweeps to carry that
    difference back along the path."""
    weights = [Fraction(rng.randint(1, 10), 10) for _ in range(n - 1)]

    def model(prefix, end):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for k, w in enumerate(weights):
            rows[k][k + 1] = w
        p = [Fraction(0)] * (n - 1) + [end]
        godel = Algebra.godel()
        return KripkeModel(godel, [f"{prefix}{k}" for k in range(n)],
                           {1: FuzzyMat(godel, rows)}, {"p": FuzzyVec(godel, p)})

    return model("s", Fraction(1, 2)), model("t", Fraction(3, 10))


def assert_matches_reference(a, b):
    for kind in REFERENCE_DIRECTIONS:
        rep = greatest_pre(a, b, SimType(kind))
        want, sweeps = reference_greatest_pre(a, b, kind)
        assert [list(row) for row in rep.matrix.rows] == want, (a, b, kind)
        assert rep.iterations == sweeps, (a, b, kind)


def test_fixpoint_matches_reference_jacobi_iteration():
    rng = random.Random(9061)
    algebras = (Algebra.boolean(), Algebra.chain(3), Algebra.chain(5), Algebra.godel())
    runs = 0
    for algebra in algebras:
        for _ in range(12):
            indices = (1,) if rng.random() < 0.5 else (1, 2)
            variables = ("p",) if rng.random() < 0.5 else ("p", "q")
            a, b = random_pair(rng, algebra, max_worlds=4, variables=variables,
                               indices=indices)
            assert_matches_reference(a, b)
            runs += 1
        # three indices (stacks of three and six relations a side), and none
        # (no update at all: the start is the answer, after one sweep)
        for indices in ((1, 2, 3), (1, 2, 3), ()):
            a, b = random_pair(rng, algebra, max_worlds=4, variables=("p", "q"),
                               indices=indices)
            assert_matches_reference(a, b)
            runs += 1
    assert runs == 4 * 15
    # pairs of different sizes, as a stack's slices are non-square
    shapes = set()
    while len(shapes) < 4:
        a, b = random_pair(rng, Algebra.godel(), max_worlds=4, indices=(1, 2))
        if len(a.worlds) != len(b.worlds) and (len(a.worlds), len(b.worlds)) not in shapes:
            shapes.add((len(a.worlds), len(b.worlds)))
            assert_matches_reference(a, b)
    # path-shaped pairs, where the sweep count grows with the path
    for n in (6, 8, 10):
        a, b = path_pair(rng, n)
        assert_matches_reference(a, b)
        assert greatest_pre(a, b, SimType("fs")).iterations >= n - 1


# -- models without relation indices ----------------------------------------------


def test_models_without_relation_indices():
    # no index means no -2 condition and no update: the greatest relation is
    # the greatest solution of the -3 conditions, found in one sweep
    def model(prefix, p):
        return KripkeModel.from_dict({
            "algebra": "godel", "worlds": [f"{prefix}0", f"{prefix}1"], "indices": [],
            "relations": {}, "valuation": {"p": p},
        })

    a, b = model("w", ["0.3", "0.7"]), model("v", ["0.3", "1"])
    fs = greatest_pre(a, b, SimType("fs"))
    assert grid(fs.matrix) == [["1", "1"], ["0.3", "1"]] and fs.iterations == 1
    rb = greatest_pre(a, b, SimType("rb"))
    assert grid(rb.matrix) == [["1", "0.3"], ["0.3", "0.7"]] and rb.iterations == 1
    assert [(c.name, c.holds) for c in rb.conditions] == [
        ("rb-1[fwd, p=p]", True),
        ("rb-1[fwd_inv, p=p]", False),
        ("rb-1[bwd, p=p]", True),
        ("rb-1[bwd_inv, p=p]", False),
        ("rb-3[fwd, p=p]", True),
        ("rb-3[fwd_inv, p=p]", True),
        ("rb-3[bwd, p=p]", True),
        ("rb-3[bwd_inv, p=p]", True),
    ]
    assert rb.conditions[1].violation == {"world": "v1", "lhs": "1", "rhs": "0.7"}
    for t in ALL_TYPES:
        rep = greatest_pre(a, b, t)
        assert rep.iterations == 1
        assert not any("-2[" in c.name for c in rep.conditions)
        assert [c.to_dict() for c in check_conditions(a, b, rep.matrix, t)] == [
            c.to_dict() for c in rep.conditions
        ]
        full = ones(a.algebra, (2, 2))
        assert [c.to_dict() for c in check_conditions(a, b, full, t)] == (
            reference_conditions(a, b, full, t.value))


# -- differential test of the condition checks against a per-condition loop -------
#
# The reference evaluates every condition on its own, literally as its
# statement reads, with one composition pair and one row-major search for a
# bad entry each; the library compares whole stacks of conditions at once.

REFERENCE_STATEMENTS = {
    1: {
        "fwd": "V_{p} <= V'_{p} o phi^-1",
        "fwd_inv": "V'_{p} <= V_{p} o phi",
        "bwd": "V_{p} <= phi o V'_{p}",
        "bwd_inv": "V'_{p} <= phi^-1 o V_{p}",
    },
    2: {
        "fwd": "phi^-1 o R{i} <= R'{i} o phi^-1",
        "fwd_inv": "phi o R'{i} <= R{i} o phi",
        "bwd": "R{i} o phi <= phi o R'{i}",
        "bwd_inv": "R'{i} o phi^-1 <= phi^-1 o R{i}",
    },
    3: {
        "fwd": "phi^-1 o V_{p} <= V'_{p}",
        "fwd_inv": "phi o V'_{p} <= V_{p}",
        "bwd": "V_{p} o phi <= V'_{p}",
        "bwd_inv": "V'_{p} o phi^-1 <= V_{p}",
    },
}


def reference_conditions(m1, m2, phi, kind):
    """The condition dicts of ``kind`` for ``phi``, one condition at a time."""
    p = [list(row) for row in phi.rows]
    pt = _ref_transpose(p)
    w1, w2 = m1.worlds, m2.worlds

    def column(values):
        return [[v] for v in values]

    def verdict(name, statement, lhs, rhs, rows, cols=None):
        out = {"name": name, "statement": statement, "holds": True}
        for i, (lrow, rrow) in enumerate(zip(lhs, rhs)):
            for j, (x, y) in enumerate(zip(lrow, rrow)):
                if x > y:
                    out["holds"] = False
                    where = {"world": rows[i]} if cols is None else {"pair": [rows[i], cols[j]]}
                    out["violation"] = {**where, "lhs": format_value(x), "rhs": format_value(y)}
                    return out
        return out

    def vector(family, tag, var):
        v1, v2 = column(m1.valuation[var].values), column(m2.valuation[var].values)
        inv = tag.endswith("inv")
        if family == 1:
            # V_p <= phi o V'_p over the left worlds, or its mirror image
            lhs, rhs, worlds = (v2, _ref_compose(pt, v1), w2) if inv else (
                v1, _ref_compose(p, v2), w1)
        else:
            # phi^-1 o V_p <= V'_p over the right worlds, or its mirror image
            lhs, rhs, worlds = (_ref_compose(p, v2), v1, w1) if inv else (
                _ref_compose(pt, v1), v2, w2)
        return verdict(f"{kind}-{family}[{tag}, p={var}]",
                       REFERENCE_STATEMENTS[family][tag].format(p=var), lhs, rhs, worlds)

    def relational(tag, i):
        r = [list(row) for row in m1.relations[i].rows]
        rp = [list(row) for row in m2.relations[i].rows]
        lhs, rhs, rows, cols = {
            "fwd": (_ref_compose(pt, r), _ref_compose(rp, pt), w2, w1),
            "fwd_inv": (_ref_compose(p, rp), _ref_compose(r, p), w1, w2),
            "bwd": (_ref_compose(r, p), _ref_compose(p, rp), w1, w2),
            "bwd_inv": (_ref_compose(rp, pt), _ref_compose(pt, r), w2, w1),
        }[tag]
        return verdict(f"{kind}-2[{tag}, i={i}]",
                       REFERENCE_STATEMENTS[2][tag].format(i=i), lhs, rhs, rows, cols)

    tags = REFERENCE_DIRECTIONS[kind]
    variables = sorted(m1.valuation)
    return (
        [vector(1, tag, var) for tag in tags for var in variables]
        + [relational(tag, i) for tag in tags for i in m1.indices]
        + [vector(3, tag, var) for tag in tags for var in variables]
    )


def test_check_conditions_match_the_per_condition_reference():
    rng = random.Random(7193)
    violated = 0
    for algebra in (Algebra.chain(3), Algebra.godel()):
        for _ in range(15):
            indices = rng.choice(((1,), (1, 2), (1, 2, 3)))
            variables = rng.choice((("p",), ("p", "q")))
            a, b = random_pair(rng, algebra, max_worlds=4, variables=variables,
                               indices=indices)
            shape = (len(a.worlds), len(b.worlds))
            # random relations violate many conditions, the greatest ones few
            candidates = [FuzzyMat(algebra, [random_values(rng, algebra, shape[1])
                                             for _ in range(shape[0])])
                          for _ in range(2)]
            candidates.append(ones(algebra, shape))
            for t in ALL_TYPES:
                for phi in (*candidates, greatest_pre(a, b, t).matrix):
                    got = [c.to_dict() for c in check_conditions(a, b, phi, t)]
                    assert got == reference_conditions(a, b, phi, t.value), (t, phi)
                    violated += sum(not c["holds"] for c in got)
    assert violated > 500
