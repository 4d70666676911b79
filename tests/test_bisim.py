"""Greatest (pre)simulations and (pre)bisimulations of all seven kinds."""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import grid, random_pair
from fuzzykripke.algebra import Algebra
from fuzzykripke.bisim import (
    SimType,
    check_conditions,
    exists_bisim,
    greatest_pre,
    iteration_cap,
)
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import FuzzyMat

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
    outcomes = {t.value: exists_bisim(a, b, t) for t in BISIM_TYPES}
    assert {t: flag for t, (flag, _) in outcomes.items()} == {
        "fb": False,
        "bb": True,
        "fbb": True,
        "bfb": False,
        "rb": False,
    }
    bb_matrix = [["1", "0.3"], ["0.3", "1"], ["1", "0.3"]]
    assert grid(outcomes["bb"][1].matrix) == bb_matrix
    assert grid(outcomes["fbb"][1].matrix) == bb_matrix
    # the failed kinds collapse to a constant matrix below every threshold
    assert grid(outcomes["rb"][1].matrix) == [["0.3", "0.3"]] * 3


def test_backward_only_pair_flips_under_reversal():
    a, b = load_pair("backward_only")
    ra, rb_model = a.reverse(), b.reverse()
    flags = {t.value: exists_bisim(ra, rb_model, t)[0] for t in BISIM_TYPES}
    assert flags == {"fb": True, "bb": False, "fbb": False, "bfb": True, "rb": False}
    rep = greatest_pre(ra, rb_model, SimType("fb"))
    assert grid(rep.matrix) == [["1", "0.3"], ["0.3", "1"], ["1", "0.3"]]


def test_fully_equivalent_pair_existence():
    a, b = load_pair("fully_equivalent")
    for t in BISIM_TYPES:
        flag, rep = exists_bisim(a, b, t)
        assert flag, t.value
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


def test_check_conditions_reports_first_violation():
    a, b = load_pair("sim_showcase")
    ones = FuzzyMat.ones(a.algebra, (len(a.worlds), len(b.worlds)))
    checks = check_conditions(a, b, ones, SimType("rb"))
    failed = [c for c in checks if not c.holds]
    assert failed, "the all-ones relation cannot satisfy every condition"
    v = failed[0].violation
    assert v is not None and {"pair", "lhs", "rhs"} <= set(v)
    from fuzzykripke.algebra import parse_value

    assert parse_value(v["lhs"]) > parse_value(v["rhs"])


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


def test_iteration_counts_respect_cap():
    a, b = load_pair("sim_showcase")
    cap = iteration_cap(a, b)
    assert cap >= 1
    for t in ALL_TYPES:
        assert greatest_pre(a, b, t).iterations <= cap
    with pytest.raises(RuntimeError):
        greatest_pre(a, b, SimType("rb"), max_iterations=0)


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
            for kind in REFERENCE_DIRECTIONS:
                rep = greatest_pre(a, b, SimType(kind))
                want, sweeps = reference_greatest_pre(a, b, kind)
                assert [list(row) for row in rep.matrix.rows] == want, (algebra, kind)
                assert rep.iterations == sweeps, (algebra, kind)
                runs += 1
    assert runs == 4 * 12 * 7
