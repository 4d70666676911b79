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
silently accepted.

The analogous statement for simulations fails on non-Boolean chains:
:func:`noninvariance_demo` realizes the standard three-valued witness (a
two-world model pair and an implication formula violating weak-simulation
invariance) on any linear algebra with at least three carrier values, and
reports "not applicable" on the two-element Boolean algebra, where the
witness pattern needs values that do not exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .algebra import Algebra, format_value
from .bisim import SimReport, SimType, greatest_pre
from .fuzzrel import FuzzyMat, FuzzyVec, nonzero_profile
from .levels import biimplication, biimplication_fold, first_violation
from .model import KripkeModel, check_comparable
from .syntax import (
    Const,
    Formula,
    FormulaEnumeration,
    Fragment,
    Implies,
    Var,
    to_text,
)

THETA_FOR_FRAGMENT = {
    Fragment.PLUS: SimType.FB,
    Fragment.MINUS: SimType.BB,
    Fragment.FULL: SimType.RB,
}


def _ladder_matrix(enum: FormulaEnumeration) -> FuzzyMat:
    """The weak prebisimulation of the enumerated formulae, folded on levels.

    The fold skips the binary-connective rows, which never lower a
    biimplication fold (see :meth:`FormulaEnumeration.generator_indices`).
    """
    lv1, lv2 = enum.generator_vectors()
    levels = biimplication_fold(lv1.T, lv2.T, enum.universe.top)
    return FuzzyMat(enum.algebra, enum.universe.decode(levels))


def weak_by_depth(
    m1: KripkeModel,
    m2: KripkeModel,
    fragment: Fragment,
    depth: int,
    constants: Optional[Iterable[Fraction]] = None,
    budget: int = 200_000,
    include_boxes: bool = True,
) -> FuzzyMat:
    """Greatest weak prebisimulation over fragment formulae of depth <= d.

    The fold ranges over every fragment formula of modal depth <= d; it is
    computed from the atomic and modal classes alone, which give the same
    meet and spare the propositional closure of the deepest level.
    """
    check_comparable(m1, m2)
    enum = FormulaEnumeration(
        m1, m2, Fragment(fragment), constants=constants,
        budget=budget, include_boxes=include_boxes,
    )
    enum.extend_generators(depth)
    return _ladder_matrix(enum)


@dataclass
class DepthStep:
    depth: int
    matrix: FuzzyMat
    class_count: int
    truncated: bool

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "matrix": [[format_value(v) for v in row] for row in self.matrix.rows],
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


def hm_check(
    m1: KripkeModel,
    m2: KripkeModel,
    fragment: Fragment,
    max_depth: int = 4,
    constants: Optional[Iterable[Fraction]] = None,
    budget: int = 200_000,
    include_boxes: bool = True,
) -> HMReport:
    """Probe one fragment/bisimulation pairing on a model pair.

    Runs the depth ladder until E_{d+1} == E_d or ``max_depth``; stops early
    on an exact match with the strong matrix (sound because E can only
    decrease toward it).  ``match`` is False both for a stabilized mismatch
    and for a ladder cut off by the depth cap or the class budget.
    """
    fragment = Fragment(fragment)
    if fragment not in THETA_FOR_FRAGMENT:
        raise ValueError(
            f"no expressivity pairing for fragment {fragment.value!r}; "
            "use plus, minus or full"
        )
    check_comparable(m1, m2)
    sim_type = THETA_FOR_FRAGMENT[fragment]
    strong = greatest_pre(m1, m2, sim_type)

    enum = FormulaEnumeration(
        m1, m2, fragment, constants=constants,
        budget=budget, include_boxes=include_boxes,
    )
    n1, n2 = len(m1.worlds), len(m2.worlds)
    steps: list[DepthStep] = []
    converged_at = None
    match = False
    previous = None
    for depth in range(max_depth + 1):
        enum.extend_generators(depth)
        matrix = _ladder_matrix(enum)
        steps.append(DepthStep(depth, matrix, len(enum), enum.truncated))
        if matrix == strong.matrix:
            converged_at = depth
            match = True
            break
        if enum.truncated:
            break
        if previous is not None and matrix == previous:
            converged_at = depth - 1
            break
        previous = matrix

    final = steps[-1].matrix
    mismatch = None
    if not match:
        for w in range(n1):
            for wp in range(n2):
                if final.rows[w][wp] != strong.matrix.rows[w][wp]:
                    mismatch = {
                        "pair": [m1.worlds[w], m2.worlds[wp]],
                        "weak": format_value(final.rows[w][wp]),
                        "strong": format_value(strong.matrix.rows[w][wp]),
                    }
                    break
            if mismatch:
                break
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
    """Fragment formulae against the matched prebisimulation bound."""

    sim_type: SimType
    fragment: Fragment
    formulas_checked: int
    holds: bool
    violation: Optional[dict]

    def __bool__(self):
        return self.holds


def invariance_check(
    m1: KripkeModel,
    m2: KripkeModel,
    sim_type: SimType,
    fragment: Fragment,
    depth: int,
    budget: int = 200_000,
) -> InvarianceReport:
    """Check phi*(w, w') <= V_A(w) <-> V'_A(w') for all formulae to ``depth``.

    The bound is the invariance half of the expressivity theorems; the
    fragment must be the one matched to ``sim_type``.  Only the atomic and
    modal classes are tested directly: the biimplication bound of a binary
    combination dominates the meet of its parts' bounds, so it can neither
    fail first nor fail alone.
    """
    sim_type = SimType(sim_type)
    fragment = Fragment(fragment)
    if THETA_FOR_FRAGMENT.get(fragment) != sim_type:
        raise ValueError(
            f"fragment {fragment.value!r} is not matched to {sim_type.value!r}"
        )
    strong = greatest_pre(m1, m2, sim_type).matrix
    enum = FormulaEnumeration(m1, m2, fragment, budget=budget).extend_generators(depth)
    universe = enum.universe
    lv1, lv2 = enum.generator_vectors()
    bounds = biimplication(lv1[:, :, None], lv2[:, None, :], universe.top)
    checked = len(enum.generator_indices())
    strong_lv = np.broadcast_to(universe.encode(strong.rows), bounds.shape)
    broken = first_violation(strong_lv, bounds)
    if broken is not None:
        k, w, wp = broken
        idx = enum.generator_indices()[k]
        return InvarianceReport(
            sim_type, fragment, checked, False,
            {
                "formula": to_text(enum.formula(idx)),
                "pair": [m1.worlds[w], m2.worlds[wp]],
                "relation": format_value(strong.rows[w][wp]),
                "bound": format_value(universe.values[bounds[k, w, wp]]),
            },
        )
    return InvarianceReport(sim_type, fragment, checked, True, None)


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
    implication formula  p -> b  drops from 1 to b across the pair.  On the
    two-element Boolean algebra no such triple exists (checked exhaustively),
    so the demo is reported as not applicable there.
    """
    if algebra is None:
        algebra = Algebra.godel()

    if algebra.kind == "boolean" or (algebra.kind == "chain" and algebra.levels < 3):
        carrier = algebra.carrier()
        witnesses = [
            (a, b, c)
            for a in carrier for b in carrier for c in carrier
            if a < b < c
        ]
        assert not witnesses
        return DemoReport(
            applicable=False,
            reason=(
                f"the {algebra.spec()} carrier has no three strictly ordered "
                "values, so the witness pattern cannot be realized"
            ),
        )

    if algebra.kind == "godel":
        a, b, c = Fraction(6, 10), Fraction(7, 10), Fraction(8, 10)
    else:
        carrier = algebra.carrier()
        a, b, c = carrier[0], carrier[1], carrier[2]

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
