"""Depth-bounded expressivity harness: ladders, invariance, the counterexample."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    GODEL_ENUM_POOL, differential_pairs, expected, grid, ones, path_model, random_pair,
)
import fuzzykripke.hm as hm
from fuzzykripke import fuzzrel
from fuzzykripke.algebra import Algebra, format_value
from fuzzykripke.bisim import SimType, _violations, greatest_pre
from fuzzykripke.fixtures import PAIRS, load_pair
from fuzzykripke.fuzzrel import FuzzyMat
from fuzzykripke.hm import (
    THETA_FOR_FRAGMENT,
    InvarianceReport,
    hm_check,
    invariance_check,
    noninvariance_demo,
)
from fuzzykripke.levels import biimplication, biimplication_fold
from fuzzykripke.syntax import BUDGET, FormulaEnumeration, Fragment, to_text
from fuzzykripke.weak import enumerated_weak, fragment_weak

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
    return enumerated_weak(enum).prebisimulation


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
    same_answers(rep, hm_check(a, b, Fragment.FULL, max_depth=3), 150)
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
    """The depths d of the ``hm_check`` steps, each checked to have E_d
    equal to the d-th Jacobi iterate of the matched ``greatest_pre``,
    whether or not the budget cut its count: iterate 0 is the initial
    relation, and past the fixpoint the iterate is the fixpoint."""
    calls = []
    update = fuzzrel.RESIDUAL_UPDATES["fwd"]

    def record(r, rp, phi, top):
        calls.append(phi)
        return update(r, rp, phi, top)

    # the iterates are recorded from greatest_pre alone: the ladder's own
    # sweeps on the union of the pair run the same update
    monkeypatch.setitem(fuzzrel.RESIDUAL_UPDATES, "fwd", record)
    strong = greatest_pre(a, b, THETA_FOR_FRAGMENT[fragment])
    monkeypatch.undo()
    rep = hm_check(a, b, fragment, max_depth=8, budget=budget)
    # every matched kind updates both sides; a sweep takes the unswapped
    # side first, on the iterate itself
    universe = strong.matrix.universe
    iterates = [FuzzyMat._from_levels(a.algebra, phi, universe) for phi in calls[::2]]
    assert len(calls) == 2 * strong.iterations and iterates[-1] == strong.matrix
    assert rep.strong.matrix == strong.matrix
    for step in rep.steps:
        want = iterates[min(step.depth, len(iterates) - 1)]
        assert grid(step.matrix) == grid(want), (a, b, fragment.value, step.depth)
    return [step.depth for step in rep.steps]


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


def enumeration_ladder(a, b, fragment, max_depth, budget):
    """The matrix grid and the class count of each step of the ladder to
    ``max_depth``, from one enumeration extended to each depth in turn, up
    to the first depth whose count passes ``budget``: E_d folds the
    generator classes (which never lowers it, see ``generator_indices``),
    and step d counts every class."""
    enum = FormulaEnumeration(a, b, fragment, budget)
    universe = enum.universe
    out = []
    for depth in range(max_depth + 1):
        lv1, lv2 = enum.extend_generators(depth).generator_vectors()
        if enum.truncated:
            break
        fold = biimplication_fold(lv1.T, lv2.T, universe.top)
        out.append((grid(FuzzyMat._from_levels(a.algebra, fold, universe)), len(enum)))
    return out


def same_answers(rep, whole, budget):
    """``rep`` is the run ``whole``, which no budget cut, at ``budget``:
    the same matrices and verdicts, and each count at most the budget,
    flagged when the whole count passes it."""
    assert not any(s.truncated for s in whole.steps)
    assert [(s.depth, grid(s.matrix), s.class_count, s.truncated) for s in rep.steps] == [
        (s.depth, grid(s.matrix), min(s.class_count, budget), s.class_count > budget)
        for s in whole.steps]
    assert (rep.converged_at, rep.match, rep.first_mismatch) == (
        whole.converged_at, whole.match, whole.first_mismatch)


def test_the_iterate_ladder_is_the_enumeration_ladder():
    """Read off the union iterates, every step has the matrix and the
    class count of an enumeration extended to its depth, for as long as
    the count fits the budget, and a step past the budget is flagged.  A
    run that the budget cuts is the run at the default budget, which cuts
    none of these, but for its counts.  The modal images are keyed by
    radix or by bytes, and in blocks of one class when the memory bound is
    small."""
    import fuzzykripke.syntax as sx
    from fuzzykripke import levels

    rng = random.Random("ladder")
    uncut = cut = 0
    for k in range(100):
        algebra = Algebra.from_spec(("boolean", "chain:3", "chain:5", "godel")[k % 4])
        pool = GODEL_ENUM_POOL if algebra.kind == "godel" and k % 8 < 4 else None
        a, b = random_pair(rng, algebra, 3, variables=("p", "q")[: 1 + k % 2],
                           indices=(1, 2)[: 1 + k // 50], pool=pool)
        wholes = [hm_check(a, b, fragment, max_depth=6) for fragment in FRAGMENTS]
        with pytest.MonkeyPatch.context() as m:
            if k % 3 == 1:
                m.setattr(sx, "_row_keys", lambda size, width: (None, False))
            elif k % 3 == 2:
                m.setattr(levels, "BATCH", 16)
            for fragment, whole in zip(FRAGMENTS, wholes):
                rep = hm_check(a, b, fragment, max_depth=6, budget=2_000)
                same_answers(rep, whole, 2_000)
                enumerated = enumeration_ladder(a, b, fragment, len(rep.steps) - 1, 2_000)
                assert len(enumerated) == sum(not s.truncated for s in rep.steps)
                assert enumerated == [(grid(s.matrix), s.class_count) for s in rep.steps[: len(enumerated)]]
                uncut += not rep.steps[-1].truncated
                cut += rep.steps[-1].truncated
    assert uncut >= 250 and cut >= 20


def test_an_uncut_ladder_enumerates_nothing(monkeypatch):
    """Not one enumeration is built on the bundled pairs and on a path
    pair whose full ladder reaches 68,452 classes, nor by a run that the
    budget cuts: the path pair of 5 against 6 worlds passes the default
    budget at step 5 and still matches there, and a cut step flags every
    later one."""
    built = []
    init = FormulaEnumeration.__init__

    def record(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FormulaEnumeration, "__init__", record)
    path = path_model("godel", 4, "0.7", "0.3", "s"), path_model("godel", 5, "0.7", "0.3", "t")
    for a, b in [*map(load_pair, PAIRS), path]:
        for fragment in FRAGMENTS:
            rep = hm_check(a, b, fragment, max_depth=20)
            assert not any(step.truncated for step in rep.steps)
    whole = hm_check(*path, Fragment.FULL, max_depth=20)
    same_answers(hm_check(*path, Fragment.FULL, max_depth=20, budget=100), whole, 100)
    longer = path_model("godel", 5, "0.7", "0.3", "s"), path_model("godel", 6, "0.7", "0.3", "t")
    rep = hm_check(*longer, Fragment.FULL, max_depth=20)
    assert rep.match and rep.converged_at == 5
    assert [(s.class_count, s.truncated) for s in rep.steps] == [
        (16, False), (32, False), (328, False), (4_744, False), (71_368, False), (BUDGET, True)]
    assert built == []


def test_a_budget_cut_ladder_is_the_uncut_ladder():
    """A budget below every count of the run changes nothing but the
    counts, which read the budget, and their flags, in the JSON too."""
    a, b = load_pair("sim_showcase")
    rep = hm_check(a, b, Fragment.FULL, budget=150)
    whole = hm_check(a, b, Fragment.FULL)
    assert all(step.truncated for step in rep.steps) and rep.match
    same_answers(rep, whole, 150)
    doc = whole.to_dict()
    for step in doc["steps"]:
        step.update(class_count=150, truncated=True)
    assert rep.to_dict() == doc


def test_invariance_on_bundled_pairs():
    for name in PAIRS:
        a, b = load_pair(name)
        for fragment in FRAGMENTS:
            rep = invariance_check(a, b, THETA_FOR_FRAGMENT[fragment], fragment, depth=2)
            assert rep.holds and bool(rep)
            assert rep.violation is None
            assert rep.formulas_checked > 0


def test_invariance_reports_a_budget_cut():
    # the count is the class count of plus/2, that of the closed
    # enumeration; a budget of 50 cuts only the count, not the verdict
    a, b = load_pair("sim_showcase")
    whole = invariance_check(a, b, SimType.FB, Fragment.PLUS, depth=2)
    count = len(FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(2))
    assert whole.holds and not whole.truncated and whole.formulas_checked == count == 950
    cut = invariance_check(a, b, SimType.FB, Fragment.PLUS, depth=2, budget=50)
    assert cut.holds and cut.truncated and cut.formulas_checked == 50


def test_invariance_on_random_pairs(rng):
    for _ in range(50):
        a, b = random_pair(rng, Algebra.chain(3))
        for fragment in FRAGMENTS:
            rep = invariance_check(a, b, THETA_FOR_FRAGMENT[fragment], fragment, depth=2)
            assert rep.holds, rep.violation


def generator_invariance(a, b, sim_type, fragment, depth, budget=BUDGET):
    """The invariance check as a walk over the generators of an
    enumeration, the oracle of ``invariance_check``: its report, which
    counts the generators and names the first violation in generator
    order, then row-major order, and E_depth, the meet of the generators'
    bounds, as a matrix."""
    strong = hm.greatest_pre(a, b, sim_type).matrix
    enum = FormulaEnumeration(a, b, fragment, budget=budget).extend_generators(depth)
    universe = enum.universe
    lv1, lv2 = enum.generator_vectors()
    gens = enum.generator_indices()
    strong_lv = universe.recode(strong.universe, strong.levels)
    fold = biimplication_fold(lv1.T, lv2.T, universe.top)
    violation = None
    if not (strong_lv <= fold).all():
        for k, index in enumerate(gens):
            bound = biimplication(lv1[k, :, None], lv2[k, None, :], universe.top)
            [broken] = _violations(strong_lv[None], bound[None], (a.worlds, b.worlds), universe)
            if broken is not None:
                violation = {"formula": to_text(enum.formula(index)), "pair": broken["pair"],
                             "relation": broken["lhs"], "bound": broken["rhs"]}
                break
    report = InvarianceReport(sim_type, fragment, len(gens), enum.truncated,
                              violation is None, violation)
    return report, FuzzyMat._from_levels(a.algebra, fold, universe)


def first_violation(a, b, relation, bound):
    """The first pair in row-major order where ``relation`` exceeds
    ``bound``, as an invariance report names it, or None."""
    return next(
        ({"pair": [a.worlds[w], b.worlds[wp]], "relation": format_value(relation.rows[w][wp]),
          "bound": format_value(bound.rows[w][wp])}
         for w in range(len(a.worlds))
         for wp in range(len(b.worlds))
         if relation.rows[w][wp] > bound.rows[w][wp]),
        None,
    )


def force_the_full_relation(monkeypatch):
    """Make ``hm`` read the full relation as the greatest prebisimulation,
    in the universe of the real matrix: that of the pair handed to
    ``greatest_pre``, which ``invariance_check`` shares with its bound."""
    real = hm.greatest_pre

    def full(m1, m2, sim_type, pair=None):
        report = real(m1, m2, sim_type, pair=pair)
        universe = report.matrix.universe
        top = np.full(report.matrix.shape, universe.top)
        return dataclasses.replace(report, matrix=FuzzyMat._from_levels(m1.algebra, top, universe))

    monkeypatch.setattr(hm, "greatest_pre", full)


def test_invariance_check_equals_the_generator_walk(monkeypatch):
    """On the bundled and seeded pairs, for each pairing and depths 0-2,
    with the greatest prebisimulation and with the full relation in its
    place: the verdict is the generator walk's, the bound its E_depth, the
    first violation the first pair where the relation exceeds E_depth,
    and the count that of the closed enumeration."""
    pairs = differential_pairs()
    verdicts = {False: [], True: []}
    for forced in (False, True):
        if forced:
            force_the_full_relation(monkeypatch)
        for a, b in pairs:
            for fragment in FRAGMENTS:
                sim_type = THETA_FOR_FRAGMENT[fragment]
                for depth in range(3):
                    old, fold = generator_invariance(a, b, sim_type, fragment, depth)
                    rep = invariance_check(a, b, sim_type, fragment, depth)
                    strong = hm.greatest_pre(a, b, sim_type).matrix
                    assert not old.truncated and not rep.truncated and rep.holds is old.holds
                    assert fragment_weak(a, b, fragment, depth).prebisimulation == fold
                    assert rep.violation == first_violation(a, b, strong, fold)
                    whole = FormulaEnumeration(a, b, fragment).extend_to_depth(depth)
                    assert rep.formulas_checked == len(whole)
                    verdicts[forced].append(old.holds)
    assert all(verdicts[False]) and True in verdicts[True] and False in verdicts[True]


def test_invariance_blocks_report_the_first_violation(monkeypatch):
    # the full relation breaks the bound wherever a formula tells two
    # worlds apart; at every block size of the kernel the report names the
    # first pair in row-major order where it exceeds E_1, the greatest weak
    # prebisimulation of the closed enumeration to depth 1
    from fuzzykripke import levels

    a, b = load_pair("sim_showcase")
    full = ones(a.algebra, (len(a.worlds), len(b.worlds)))
    force_the_full_relation(monkeypatch)
    enum = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    want = first_violation(a, b, full, enumerated_weak(enum).prebisimulation)
    assert want is not None
    reports = []
    for batch in (levels.BATCH, 3 * len(a.worlds) * len(b.worlds), 1):
        monkeypatch.setattr(levels, "BATCH", batch)
        rep = invariance_check(a, b, SimType.FB, Fragment.PLUS, depth=1)
        assert not rep.holds
        reports.append((rep.formulas_checked, rep.violation))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][1] == want


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


def test_noninvariance_demo_takes_the_first_three_carrier_values():
    for n in range(3, 7):
        algebra = Algebra.chain(n)
        demo = noninvariance_demo(algebra)
        a, b, c = algebra.carrier()[:3]
        assert demo.applicable
        assert demo.quadruple == (b, c, a, b)
        assert demo.lhs > demo.rhs
        assert demo.presim_value > demo.invariance_bound


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
        hm, "greatest_pre",
        lambda m1, m2, t, **kw: dataclasses.replace(greatest(m1, m2, t, **kw), matrix=zeros),
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
