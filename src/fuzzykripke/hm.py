"""Empirical Hennessy-Milner harness.

The expressivity theorems pair each modal fragment with one bisimulation
kind: plus-formulae with forward bisimulations (image-finite models),
minus-formulae with backward (domain-finite), the full language with
regular (degree-finite), over linearly ordered algebras.  This module
probes those statements on concrete model pairs: it computes the matched
greatest prebisimulation, then the greatest weak prebisimulation E_d for
the fragment formulae of modal depth <= d, for d = 0, 1, 2, ... until E
stabilizes or a depth cap is hit.

Every fragment formula is invariant under the matched prebisimulation, so
phi* <= E_d holds throughout and E_d can only decrease toward phi*; when
E_d == phi* the run is an exact match and deeper formulae cannot change
it.  A stabilized E_d above phi* is reported as a mismatch finding, never
silently accepted.  :func:`invariance_check` checks phi* <= E_d at one
depth, with E_d the prebisimulation of :func:`.weak.fragment_weak`.

No formula is enumerated.  E_d is the fold of the generators of depth
<= d, which is the (m1, m2) block of B_d, the d-th Jacobi iterate of the
matched kind on the disjoint union of the two models (see :mod:`.weak`);
the ladder steps it one sweep at a time.  The class count of step d is
what an enumeration extended to the modal classes of depth d holds: the
classes of depth <= d - 1, which are the B_{d-1}-extensional rows over the
seeded constants, and the images of those rows under the fragment's
modalities that are not among them (for d = 0, the classes of depth 0).
The rows are formed by the walk that counts them
(:func:`.syntax.class_rows`) and their images are counted by key.  The
budget bounds only the count, and with it the rows the count forms: a
step whose count passes it reports the budget as its count and is flagged
``truncated``, and so is every later step, whose count is not taken.  The
matrices, and every verdict read off them, stay exact.

The analogous statement for simulations fails on non-Boolean chains:
:func:`noninvariance_demo` realizes the standard three-valued witness (a
two-world model pair and an implication formula violating weak-simulation
invariance) on any linear algebra with at least three carrier values, and
reports "not applicable" on the two-element Boolean algebra, where the
witness pattern needs values that do not exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .algebra import Algebra, format_value
from .bisim import SimReport, SimType, _sweeps, _union, _violations, greatest_pre
from .fuzzrel import FuzzyMat, FuzzyVec, nonzero_profile
from .model import KripkeModel, LevelPair, level_pair
from .syntax import (
    BUDGET,
    Const,
    Formula,
    Fragment,
    Implies,
    Var,
    _check_budget,
    _check_depth,
    _open_count,
    class_rows,
    to_text,
)
from .weak import THETA_FOR_FRAGMENT, _fragment_weak

DEPTH_CAP = 4
"""The default depth cap of the ladder."""


@dataclass
class DepthStep:
    """One step of the ladder: E_d, and ``class_count``, the classes of
    depth <= d - 1 and the modal classes of depth d (the classes of depth
    0 at d = 0), at most the budget; ``truncated`` tells that the count
    passed the budget, which it then reads.  E_d is exact either way."""

    depth: int
    matrix: FuzzyMat
    class_count: int
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "matrix": self.matrix.format(),
            "class_count": self.class_count,
            "truncated": self.truncated,
        }


@dataclass
class HMReport:
    """Outcome of one empirical expressivity run."""

    fragment: Fragment
    sim_type: SimType
    strong: SimReport
    steps: list[DepthStep]
    converged_at: Optional[int]   # first depth where E stopped changing, or None
    match: bool                   # stabilized E equals the strong matrix
    first_mismatch: Optional[dict]
    finiteness: dict

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment.value,
            "type": self.sim_type.value,
            "strong": self.strong.to_dict(),
            "steps": [s.to_dict() for s in self.steps],
            "converged_at": self.converged_at,
            "match": self.match,
            "first_mismatch": self.first_mismatch,
            "finiteness": self.finiteness,
        }


def _finiteness(m1: KripkeModel, m2: KripkeModel) -> dict:
    out = {}
    for side, m in (("left", m1), ("right", m2)):
        profiles = {}
        for i, rel in sorted(m.relations.items()):
            rows, cols = nonzero_profile(rel)
            profiles[str(i)] = {"rows": list(rows), "cols": list(cols)}
        out[side] = profiles
    return out


def _ladder(pair: LevelPair, fragment: Fragment, max_depth: int, budget: int,
            strong_lv: np.ndarray):
    """Run the ladder until E_{d+1} == E_d, an exact match or ``max_depth``:
    the steps, the depth it converged at, whether it matched, and the last
    E_d.  E_d is the (m1, m2) block of the union iterate B_d, stepped one
    sweep at a time; the budget bounds only the class counts."""
    (m1, _), universe = pair.models, pair.universe
    n1, constants = len(m1.worlds), pair.constants
    b, sides = _union(pair, THETA_FOR_FRAGMENT[fragment])

    def rows(b):  # the classes of depth <= d as rows, from B_d; None past the budget
        return class_rows(np.searchsorted(constants, b).astype(b.dtype), len(constants) - 1, budget)

    classes = rows(b)
    count = budget + 1 if classes is None else len(classes)
    out, previous = [], None
    for depth in range(max_depth + 1):
        weak_lv = b[:n1, n1:]
        matrix = FuzzyMat._from_levels(m1.algebra, weak_lv, universe)
        out.append(DepthStep(depth, matrix, min(count, budget), count > budget))
        if np.array_equal(weak_lv, strong_lv):
            return out, depth, True, weak_lv
        if previous is not None and np.array_equal(weak_lv, previous):
            return out, depth - 1, False, weak_lv
        if depth == max_depth:
            break
        previous = weak_lv
        # step d + 1 counts the classes of depth <= d (step 0's at d = 0) and
        # their modal images; counts only grow with depth, so once a step
        # is cut every later one is, and is not counted
        if count <= budget:
            classes = classes if depth == 0 else rows(b)
            count = budget + 1 if classes is None else _open_count(
                pair, fragment, constants[classes], budget)
        b = _sweeps(b, sides, universe.top, 1)[0]
    return out, None, False, weak_lv


def hm_check(
    m1: KripkeModel,
    m2: KripkeModel,
    fragment: Fragment,
    max_depth: int = DEPTH_CAP,
    budget: int = BUDGET,
) -> HMReport:
    """Probe one fragment/bisimulation pairing on a model pair.

    Runs the depth ladder until E_{d+1} == E_d or ``max_depth``; stops early
    on an exact match with the strong matrix (sound because E can only
    decrease toward it).  ``match`` is False both for a stabilized mismatch
    and for a ladder cut off by the depth cap.  ``budget`` bounds only the
    class counts, and the rows they form (see the module docstring).
    """
    fragment = Fragment(fragment)
    if fragment not in THETA_FOR_FRAGMENT:
        raise ValueError(
            f"no expressivity pairing for fragment {fragment.value!r}; "
            "use plus, minus or full"
        )
    _check_depth(max_depth)
    sim_type = THETA_FOR_FRAGMENT[fragment]
    pair = level_pair(m1, m2)
    strong = greatest_pre(m1, m2, sim_type, pair=pair)
    _check_budget(budget)
    universe = pair.universe
    strong_lv = strong.matrix.levels
    steps, converged_at, match, weak_lv = _ladder(pair, fragment, max_depth, budget, strong_lv)

    mismatch = None
    if not match:
        # the first differing entry in row-major order
        w, wp = np.unravel_index(int(np.argmax(weak_lv != strong_lv)), weak_lv.shape)
        weak_text, strong_text = universe.format(np.array([weak_lv[w, wp], strong_lv[w, wp]]))
        mismatch = {"pair": [m1.worlds[w], m2.worlds[wp]], "weak": weak_text,
                    "strong": strong_text}
    return HMReport(
        fragment=fragment,
        sim_type=sim_type,
        strong=strong,
        steps=steps,
        converged_at=converged_at,
        match=match,
        first_mismatch=mismatch,
        finiteness=_finiteness(m1, m2),
    )


@dataclass
class InvarianceReport:
    """Fragment formulae against the matched prebisimulation bound:
    ``formulas_checked`` is the class count of the fragment to the depth,
    at most the budget, and ``truncated`` tells that the count passed it;
    the verdict is exact either way."""

    sim_type: SimType
    fragment: Fragment
    formulas_checked: int
    truncated: bool
    holds: bool
    violation: Optional[dict]  # the first broken pair in row-major order

    def __bool__(self):
        return self.holds


def invariance_check(
    m1: KripkeModel,
    m2: KripkeModel,
    sim_type: SimType,
    fragment: Fragment,
    depth: int,
    budget: int = BUDGET,
) -> InvarianceReport:
    """Check phi*(w, w') <= V_A(w) <-> V'_A(w') for all formulae to ``depth``.

    The bound is the invariance half of the expressivity theorems; the
    fragment must be the one matched to ``sim_type``.  The meet of the
    bounds over the fragment's formulae to ``depth`` is its greatest weak
    prebisimulation (:func:`.weak.fragment_weak`), so the check is that
    phi* lies below it.
    """
    sim_type = SimType(sim_type)
    fragment = Fragment(fragment)
    if THETA_FOR_FRAGMENT.get(fragment) != sim_type:
        raise ValueError(
            f"fragment {fragment.value!r} is not matched to {sim_type.value!r}"
        )
    pair = level_pair(m1, m2)
    strong = greatest_pre(m1, m2, sim_type, pair=pair).matrix
    _check_budget(budget)
    weak = _fragment_weak(pair, fragment, depth, budget)
    [broken] = _violations(strong.levels[None], weak.prebisimulation.levels[None],
                           (m1.worlds, m2.worlds), pair.universe)
    violation = broken and {
        "pair": broken["pair"], "relation": broken["lhs"], "bound": broken["rhs"]}
    return InvarianceReport(sim_type, fragment, weak.formula_count, weak.truncated,
                            broken is None, violation)


@dataclass
class DemoReport:
    """The weak-simulation noninvariance witness, or 'not applicable'."""

    applicable: bool
    reason: Optional[str] = None
    quadruple: Optional[tuple] = None       # (x1, y1, x2, y2)
    lhs: Optional[Fraction] = None          # (x1 -> y1) /\ (x2 -> y2)
    rhs: Optional[Fraction] = None          # (x1 -> x2) /\ (y1 -> y2)
    left_model: Optional[KripkeModel] = None
    right_model: Optional[KripkeModel] = None
    formula: Optional[Formula] = None
    pair: Optional[tuple[str, str]] = None
    presim_value: Optional[Fraction] = None
    invariance_bound: Optional[Fraction] = None

    def to_dict(self) -> dict:
        if not self.applicable:
            return {"applicable": False, "reason": self.reason}
        return {
            "applicable": True,
            "quadruple": [format_value(v) for v in self.quadruple],
            "lhs": format_value(self.lhs),
            "rhs": format_value(self.rhs),
            "formula": to_text(self.formula),
            "pair": list(self.pair),
            "presim_value": format_value(self.presim_value),
            "invariance_bound": format_value(self.invariance_bound),
        }


def noninvariance_demo(algebra: Optional[Algebra] = None) -> DemoReport:
    """Produce a concrete failure of weak-simulation invariance.

    Needs three strictly ordered carrier values a < b < c: with variable
    values (b, a) on the left worlds and (c, b) on the right, the greatest
    forward presimulation relates the first worlds to degree 1, yet the
    implication formula  p -> b  drops from 1 to b across the pair.  The
    triple is the first three carrier values of a finite algebra and 0.6,
    0.7, 0.8 on Godel; a carrier of two values has none, so the demo is
    reported as not applicable there.
    """
    if algebra is None:
        algebra = Algebra.godel()
    if algebra.is_finite:
        triple = algebra.carrier()[:3]
    else:
        triple = (Fraction(6, 10), Fraction(7, 10), Fraction(8, 10))
    if len(triple) < 3:
        return DemoReport(
            applicable=False,
            reason=(
                f"the {algebra.spec()} carrier has no three strictly ordered "
                "values, so the witness pattern cannot be realized"
            ),
        )
    a, b, c = triple

    x1, y1, x2, y2 = b, c, a, b
    lhs = algebra.meet(algebra.residuum(x1, y1), algebra.residuum(x2, y2))
    rhs = algebra.meet(algebra.residuum(x1, x2), algebra.residuum(y1, y2))

    zeros = FuzzyMat.zeros(algebra, (2, 2))
    left = KripkeModel(
        algebra, ("w1", "w2"), {1: zeros}, {"p": FuzzyVec(algebra, (b, a))}
    )
    right = KripkeModel(
        algebra, ("w1", "w2"), {1: zeros}, {"p": FuzzyVec(algebra, (c, b))}
    )
    formula = Implies(Var("p"), Const(b))
    presim = greatest_pre(left, right, SimType.FS).matrix
    value_left = left.eval(left.worlds[0], formula)
    value_right = right.eval(right.worlds[0], formula)
    bound = algebra.residuum(value_left, value_right)
    report = DemoReport(
        applicable=True,
        quadruple=(x1, y1, x2, y2),
        lhs=lhs,
        rhs=rhs,
        left_model=left,
        right_model=right,
        formula=formula,
        pair=(left.worlds[0], right.worlds[0]),
        presim_value=presim.rows[0][0],
        invariance_bound=bound,
    )
    assert report.presim_value > report.invariance_bound
    return report
