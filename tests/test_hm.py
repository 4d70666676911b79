"""Depth-bounded expressivity harness: ladders, invariance, the counterexample."""

import dataclasses
from fractions import Fraction

import pytest

from conftest import GODEL_ENUM_POOL, expected, grid, path_model, random_pair
from fuzzykripke import fuzzrel
from fuzzykripke.algebra import Algebra, format_value
from fuzzykripke.bisim import SimType, greatest_pre
from fuzzykripke.fixtures import PAIRS, load_pair
from fuzzykripke.fuzzrel import FuzzyMat
from fuzzykripke.hm import (
    THETA_FOR_FRAGMENT,
    hm_check,
    invariance_check,
    noninvariance_demo,
)
from fuzzykripke.syntax import FormulaEnumeration, Fragment
from fuzzykripke.weak import enumerated_weak

FRAGMENTS = (Fragment.PLUS, Fragment.MINUS, Fragment.FULL)


@pytest.mark.parametrize("name", PAIRS)
def test_ladders_reach_the_strong_relations(name):
    a, b = load_pair(name)
    want = expected(name)["hm"]
    for fragment in FRAGMENTS:
        rep = hm_check(a, b, fragment, max_depth=4)
        frozen = want[fragment.value]
        assert rep.sim_type is THETA_FOR_FRAGMENT[fragment]
        assert rep.match is frozen["match"]
        assert rep.converged_at == frozen["converged_at"]
        assert grid(rep.steps[-1].matrix) == frozen["final"]
        assert rep.first_mismatch is None
        assert grid(rep.strong.matrix) == frozen["final"]


def test_ladder_steps_decrease_monotonically():
    a, b = load_pair("sim_showcase")
    for fragment in FRAGMENTS:
        rep = hm_check(a, b, fragment, max_depth=4)
        for earlier, later in zip(rep.steps, rep.steps[1:]):
            assert later.matrix.leq(earlier.matrix)
            assert later.class_count >= earlier.class_count
        # every step stays above the strong matrix it descends toward
        for step in rep.steps:
            assert rep.strong.matrix.leq(step.matrix)


def test_first_mismatch_is_the_first_differing_entry():
    # a ladder cut off at depth 0 ends above the strong matrix: the report
    # names the first differing entry in row-major order
    cut = 0
    for name in PAIRS:
        a, b = load_pair(name)
        for fragment in FRAGMENTS:
            rep = hm_check(a, b, fragment, max_depth=0)
            if rep.match:
                assert rep.first_mismatch is None
                continue
            cut += 1
            weak, strong = rep.steps[-1].matrix, rep.strong.matrix
            assert rep.first_mismatch == next(
                {
                    "pair": [a.worlds[w], b.worlds[wp]],
                    "weak": format_value(weak.rows[w][wp]),
                    "strong": format_value(strong.rows[w][wp]),
                }
                for w in range(len(a.worlds))
                for wp in range(len(b.worlds))
                if weak.rows[w][wp] != strong.rows[w][wp]
            )
    assert cut


def fresh_fold(a, b, fragment, depth):
    """E_depth folded over every class of a fresh enumeration to ``depth``."""
    enum = FormulaEnumeration(a, b, fragment).extend_to_depth(depth)
    return enumerated_weak(a, b, enum).prebisimulation


def test_depth_zero_equals_variable_fold():
    a, b = load_pair("sim_showcase")
    rep = hm_check(a, b, Fragment.FULL, max_depth=0)
    assert grid(rep.steps[0].matrix) == grid(fresh_fold(a, b, Fragment.FULL, 0))
    assert rep.converged_at is None or rep.converged_at == 0


def test_ladder_steps_match_fresh_enumeration():
    # a step folds only the generator classes of an enumeration that skips
    # the closure of its deepest level; every class of a fresh, fully closed
    # enumeration to the same depth must give the same E_d
    for name in ("fully_equivalent", "sim_showcase"):
        a, b = load_pair(name)
        for fragment in FRAGMENTS:
            rep = hm_check(a, b, fragment, max_depth=2)
            for step in rep.steps:
                assert not step.truncated
                assert fresh_fold(a, b, fragment, step.depth) == step.matrix


def test_small_budget_reports_truncation():
    a, b = load_pair("sim_showcase")
    rep = hm_check(a, b, Fragment.FULL, max_depth=3, budget=150)
    assert any(step.truncated for step in rep.steps)
    # degree-finiteness profiles of both models ride along in the report
    assert rep.finiteness["left"]["1"] == {"rows": [3, 3, 3], "cols": [3, 3, 3]}
    assert rep.finiteness["right"]["1"] == {"rows": [3, 2, 3], "cols": [2, 3, 3]}


def test_negative_depth_cap_and_empty_budget_are_rejected():
    a, b = load_pair("sim_showcase")
    with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
        hm_check(a, b, Fragment.PLUS, max_depth=-1)
    with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
        invariance_check(a, b, SimType.FB, Fragment.PLUS, -1)
    with pytest.raises(ValueError, match="^budget must be positive, got 0$"):
        hm_check(a, b, Fragment.PLUS, budget=0)


def test_random_pairs_match_across_linear_algebras(rng):
    # the depth-bounded ladder reaches the strong relation on every tried pair;
    # dense-carrier models share a small constant pool to keep the class space
    # of the enumeration tractable
    algebras = [Algebra.boolean(), Algebra.chain(3), Algebra.godel()]
    for k in range(18):
        alg = algebras[k % 3]
        pool = GODEL_ENUM_POOL if alg.kind == "godel" else None
        a, b = random_pair(rng, alg, pool=pool)
        for fragment in FRAGMENTS:
            rep = hm_check(a, b, fragment, max_depth=8)
            assert rep.match, (k, fragment.value, rep.first_mismatch)


def ladder_against_iterates(monkeypatch, a, b, fragment, budget):
    """The depths d of the ``hm_check`` steps not cut by the budget, each
    checked to have E_d equal to the d-th Jacobi iterate of the matched
    ``greatest_pre``: iterate 0 is the initial relation, and past the
    fixpoint the iterate is the fixpoint."""
    calls = []
    update = fuzzrel.RESIDUAL_UPDATES["fwd"]

    def record(r, rp, phi, top):
        calls.append(phi)
        return update(r, rp, phi, top)

    monkeypatch.setitem(fuzzrel.RESIDUAL_UPDATES, "fwd", record)
    rep = hm_check(a, b, fragment, max_depth=8, budget=budget)
    monkeypatch.undo()
    # every matched kind updates both sides; a sweep takes the unswapped
    # side first, on the iterate itself
    universe = rep.strong.matrix.universe
    iterates = [FuzzyMat._from_levels(a.algebra, phi, universe) for phi in calls[::2]]
    assert len(calls) == 2 * rep.strong.iterations and iterates[-1] == rep.strong.matrix
    depths = [step.depth for step in rep.steps if not step.truncated]
    for step in rep.steps[: len(depths)]:
        want = iterates[min(step.depth, len(iterates) - 1)]
        assert grid(step.matrix) == grid(want), (a, b, fragment.value, step.depth)
    return depths


def test_the_ladder_steps_are_the_fixpoint_iterates(monkeypatch, rng):
    # a graded Hennessy-Milner property: E_d is the d-th Jacobi iterate of
    # the matched kind, not only equal to its fixpoint in the limit
    for name in PAIRS:
        for fragment in FRAGMENTS:
            ladder_against_iterates(monkeypatch, *load_pair(name), fragment, 20_000)
    algebras = [Algebra.boolean(), Algebra.chain(3), Algebra.godel()]
    for k in range(30):
        alg = algebras[k % 3]
        pool = GODEL_ENUM_POOL if alg.kind == "godel" else None
        a, b = random_pair(rng, alg, variables=("p", "q")[: 1 + k % 2],
                           indices=(1, 2)[: 1 + k // 15], pool=pool)
        for fragment in FRAGMENTS:
            ladder_against_iterates(monkeypatch, a, b, fragment, 5_000)
    # path pairs need a sweep, and a depth, per world the difference crosses
    deepest = 0
    paths = (("boolean", 5, 4, "1", "1"), ("chain:3", 4, 3, "0.5", "1"),
             ("godel", 3, 4, "0.7", "0.3"))
    for algebra, n1, n2, weight, end in paths:
        a, b = path_model(algebra, n1, weight, end, "s"), path_model(algebra, n2, weight, end, "t")
        for fragment in FRAGMENTS:
            deepest = max(deepest, *ladder_against_iterates(monkeypatch, a, b, fragment, 5_000))
    assert deepest >= 3


def test_invariance_on_bundled_pairs():
    for name in PAIRS:
        a, b = load_pair(name)
        for fragment in FRAGMENTS:
            rep = invariance_check(a, b, THETA_FOR_FRAGMENT[fragment], fragment, depth=2)
            assert rep.holds and bool(rep)
            assert rep.violation is None
            assert rep.formulas_checked > 0


def test_invariance_on_random_pairs(rng):
    for _ in range(50):
        a, b = random_pair(rng, Algebra.chain(3))
        for fragment in FRAGMENTS:
            rep = invariance_check(a, b, THETA_FOR_FRAGMENT[fragment], fragment, depth=2)
            assert rep.holds, rep.violation


def test_invariance_blocks_report_the_first_violation(monkeypatch):
    # the full relation breaks the bound wherever a generator tells two
    # worlds apart; blocks of generators must report the first such
    # (generator, world, world) in row-major order, as one block does
    import fuzzykripke.hm as hm
    from fuzzykripke import levels
    from fuzzykripke.algebra import ONE
    from fuzzykripke.fuzzrel import FuzzyMat
    from fuzzykripke.syntax import FormulaEnumeration, to_text

    a, b = load_pair("sim_showcase")
    full = FuzzyMat(a.algebra, [[ONE] * len(b.worlds) for _ in a.worlds])
    real = hm.greatest_pre
    monkeypatch.setattr(
        hm, "greatest_pre", lambda m1, m2, t: dataclasses.replace(real(m1, m2, t), matrix=full)
    )
    enum = FormulaEnumeration(a, b, Fragment.PLUS).extend_generators(1)
    k, w, wp = next(
        (k, w, wp)
        for k in enum.generator_indices()
        for w in range(len(a.worlds))
        for wp in range(len(b.worlds))
        if a.eval_vec(enum.formula(k)).values[w] != b.eval_vec(enum.formula(k)).values[wp]
    )
    assert k > 2  # the first blocks of three generators hold no violation
    reports = []
    for batch in (levels.BATCH, 3 * len(full.rows) * len(b.worlds), 1):
        monkeypatch.setattr(levels, "BATCH", batch)
        rep = invariance_check(a, b, SimType.FB, Fragment.PLUS, depth=1)
        assert not rep.holds
        reports.append((rep.formulas_checked, rep.violation))
    assert reports[0] == reports[1] == reports[2]
    violation = reports[0][1]
    assert violation["formula"] == to_text(enum.formula(k))
    assert violation["pair"] == [a.worlds[w], b.worlds[wp]]


def test_invariance_rejects_mismatched_pairing():
    a, b = load_pair("sim_showcase")
    with pytest.raises(ValueError):
        invariance_check(a, b, SimType("fb"), Fragment.MINUS, depth=1)


def test_noninvariance_demo_on_dense_carrier():
    demo = noninvariance_demo(Algebra.godel())
    assert demo.applicable
    x1, y1, x2, y2 = demo.quadruple
    res = Algebra.godel().residuum
    assert demo.lhs == min(res(x1, y1), res(x2, y2))
    assert demo.rhs == min(res(x1, x2), res(y1, y2))
    assert demo.lhs > demo.rhs
    # the witness formula really breaks weak-simulation invariance
    left, right = demo.left_model, demo.right_model
    u, v = demo.pair
    fval = left.eval(u, demo.formula)
    gval = right.eval(v, demo.formula)
    assert demo.presim_value > res(fval, gval)
    assert demo.invariance_bound == res(fval, gval)
    doc = demo.to_dict()
    assert doc["applicable"] is True and "formula" in doc


def test_noninvariance_demo_on_three_level_chain():
    demo = noninvariance_demo(Algebra.chain(3))
    assert demo.applicable
    assert demo.lhs > demo.rhs


def test_noninvariance_demo_not_applicable_on_boolean():
    for algebra in (Algebra.boolean(), Algebra.chain(2)):
        demo = noninvariance_demo(algebra)
        assert not demo.applicable
        assert demo.reason
        assert demo.to_dict() == {"applicable": False, "reason": demo.reason}


def test_strong_matrices_in_reports_match_direct_computation():
    a, b = load_pair("backward_only")
    for fragment in FRAGMENTS:
        rep = hm_check(a, b, fragment, max_depth=3)
        direct = greatest_pre(a, b, THETA_FOR_FRAGMENT[fragment])
        assert rep.strong.matrix.rows == direct.matrix.rows


def test_propositional_fragment_has_no_pairing():
    a, b = load_pair("sim_showcase")
    with pytest.raises(ValueError, match=r"^no expressivity pairing for fragment 'prop'; "):
        hm_check(a, b, Fragment.PROPOSITIONAL)


def test_a_stabilized_ladder_above_the_strong_matrix_is_a_mismatch(monkeypatch):
    # with the strong matrix replaced by zeros the ladder can never match:
    # it runs one depth past the real match, finds E unchanged, and names
    # the first entry (row-major) where E is not zero
    import fuzzykripke.hm as hm
    from fuzzykripke.algebra import ZERO
    from fuzzykripke.fuzzrel import FuzzyMat

    a, b = load_pair("sim_showcase")
    real = hm_check(a, b, Fragment.PLUS)
    assert real.match and real.converged_at is not None
    zeros = FuzzyMat.zeros(a.algebra, (len(a.worlds), len(b.worlds)))
    greatest = hm.greatest_pre
    monkeypatch.setattr(
        hm, "greatest_pre", lambda m1, m2, t: dataclasses.replace(greatest(m1, m2, t), matrix=zeros)
    )
    rep = hm_check(a, b, Fragment.PLUS)
    assert not rep.match
    assert rep.converged_at == real.converged_at
    assert len(rep.steps) == len(real.steps) + 1
    assert rep.steps[-1].matrix == rep.steps[-2].matrix == real.strong.matrix
    weak = rep.steps[-1].matrix
    w, wp = next(
        (w, wp) for w in range(len(a.worlds)) for wp in range(len(b.worlds))
        if weak.rows[w][wp] != ZERO
    )
    assert rep.first_mismatch == {
        "pair": [a.worlds[w], b.worlds[wp]], "weak": format_value(weak.rows[w][wp]), "strong": "0",
    }
