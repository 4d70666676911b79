"""Weak (pre)simulations and (pre)bisimulations for explicit formula sets.

Given a set Psi of formulae, the weak conditions constrain a relation phi
through formula values rather than through the model relations:

    ws-1:  V_A <= V'_A o phi^-1            (same shape as the fs-1 family)
    ws-2:  phi^-1 o V_A <= V'_A            for every A in Psi
    wb-1:  ws-1 and V'_A <= V_A o phi
    wb-2:  ws-2 and phi o V'_A <= V_A

The greatest weak pre-relations have closed forms, entrywise over pairs:

    presimulation(w, w')   = meet_A  V_A(w) ->  V'_A(w')
    prebisimulation(w, w') = meet_A  V_A(w) <-> V'_A(w')

Weak bisimulations are closed under union and under composition along a
chain of models; both closures are checkable here.  Reversing both models
while dualizing Psi leaves the closed forms unchanged, which
:func:`duality_transfer` verifies for fragment-generated sets.

A prebisimulation matrix also reads off formula-set equivalence of the two
models: they agree exactly when every row and every column contains 1.

The closed forms are folds over the level vectors of the formulae
(:mod:`.levels`); a set enumerated by :class:`FormulaEnumeration` is folded
from its class vectors directly, without rebuilding any formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import format_value
from .bisim import ConditionCheck, _check
from .fuzzrel import FuzzyMat
from .levels import Universe, biimplication_fold, compose, residual_fold
from .model import KripkeModel, check_comparable, formula_levels
from .syntax import (
    Formula,
    FormulaEnumeration,
    Fragment,
    dual,
    enumerate_formulas,
    to_text,
)


def psi_equivalent(prebisim: FuzzyMat) -> bool:
    """Formula-set equivalence read off a weak prebisimulation matrix:
    every row and every column must contain 1."""
    rows_ok = all(any(v == 1 for v in row) for row in prebisim.rows)
    cols_ok = all(
        any(prebisim.rows[i][j] == 1 for i in range(len(prebisim.rows)))
        for j in range(len(prebisim.rows[0]))
    )
    return rows_ok and cols_ok


@dataclass
class WeakReport:
    """Greatest weak pre-relations for one formula set."""

    formula_count: int
    row_worlds: tuple[str, ...]
    col_worlds: tuple[str, ...]
    presimulation: FuzzyMat
    prebisimulation: FuzzyMat
    presim_satisfies_condition1: bool
    prebisim_satisfies_condition1: bool
    presim_nonempty: bool
    prebisim_nonempty: bool
    equivalent: bool

    @property
    def simulation_exists(self) -> bool:
        return self.presim_satisfies_condition1 and self.presim_nonempty

    @property
    def bisimulation_exists(self) -> bool:
        return self.prebisim_satisfies_condition1 and self.prebisim_nonempty

    def to_dict(self) -> dict:
        return {
            "formula_count": self.formula_count,
            "row_worlds": list(self.row_worlds),
            "col_worlds": list(self.col_worlds),
            "presimulation": [
                [format_value(v) for v in row] for row in self.presimulation.rows
            ],
            "prebisimulation": [
                [format_value(v) for v in row] for row in self.prebisimulation.rows
            ],
            "presim_satisfies_condition1": self.presim_satisfies_condition1,
            "prebisim_satisfies_condition1": self.prebisim_satisfies_condition1,
            "simulation_exists": self.simulation_exists,
            "bisimulation_exists": self.bisimulation_exists,
            "equivalent": self.equivalent,
        }


def _weak_report(m1, m2, universe: Universe, lv1, lv2) -> WeakReport:
    """The report for a formula set given by its level vectors: row A of
    ``lv1`` (``lv2``) is the vector of formula A over the worlds of ``m1``
    (``m2``)."""
    top = universe.top
    x1, x2 = lv1.T, lv2.T
    presim = residual_fold(x1, x2, top)
    prebisim = biimplication_fold(x1, x2, top)

    def cond1(phi, both_sides: bool) -> bool:
        # V_A <= V'_A o phi^-1, and V'_A <= V_A o phi, for every A at once
        if not (x1 <= compose(phi, x2)).all():
            return False
        return not both_sides or bool((x2 <= compose(phi.T, x1)).all())

    def matrix(levels) -> FuzzyMat:
        return FuzzyMat(m1.algebra, universe.decode(levels))

    prebisim_matrix = matrix(prebisim)
    return WeakReport(
        formula_count=lv1.shape[0],
        row_worlds=m1.worlds,
        col_worlds=m2.worlds,
        presimulation=matrix(presim),
        prebisimulation=prebisim_matrix,
        presim_satisfies_condition1=cond1(presim, False),
        prebisim_satisfies_condition1=cond1(prebisim, True),
        presim_nonempty=bool(presim.any()),
        prebisim_nonempty=bool(prebisim.any()),
        equivalent=psi_equivalent(prebisim_matrix),
    )


def greatest_weak(
    m1: KripkeModel, m2: KripkeModel, formulas: Iterable[Formula]
) -> WeakReport:
    """Greatest weak presimulation and prebisimulation for ``formulas``."""
    check_comparable(m1, m2)
    formulas = list(formulas)
    if not formulas:
        raise ValueError("a weak relation needs a nonempty formula set")
    return _weak_report(m1, m2, *formula_levels(m1, m2, formulas))


def enumerated_weak(
    m1: KripkeModel, m2: KripkeModel, enum: FormulaEnumeration
) -> WeakReport:
    """:func:`greatest_weak` for every formula class of an enumeration over
    ``(m1, m2)``, folded from the class vectors.

    One representative per class gives the same folds as the whole class,
    because the formulae of a class have equal vectors on both models.
    """
    check_comparable(m1, m2)
    return _weak_report(m1, m2, enum.universe, *enum.level_vectors())


def check_weak(
    m1: KripkeModel,
    m2: KripkeModel,
    phi: FuzzyMat,
    formulas: Iterable[Formula],
    bisimulation: bool = True,
) -> list[ConditionCheck]:
    """Literal weak-condition verdicts for an arbitrary relation.

    With ``bisimulation`` False only the one-sided (ws) conditions are
    checked.  Each verdict carries the first violating entry, labelled with
    the offending formula.
    """
    check_comparable(m1, m2)
    m1.algebra.check_same(phi.algebra)
    if phi.shape != (len(m1.worlds), len(m2.worlds)):
        raise ValueError(
            f"relation shape {phi.shape} does not match world counts "
            f"{(len(m1.worlds), len(m2.worlds))}"
        )
    formulas = list(formulas)
    if not formulas:
        raise ValueError("a weak relation needs a nonempty formula set")
    kind = "wb" if bisimulation else "ws"
    universe, lv1, lv2 = formula_levels(m1, m2, formulas, phi)
    p = universe.encode(phi.rows)
    # row A: V'_A o phi^-1 = phi o V'_A over the left worlds, and
    # V_A o phi = phi^-1 o V_A over the right worlds
    left_image = compose(p, lv2.T).T
    right_image = compose(p.T, lv1.T).T
    conditions = [
        ("-1[fwd", "V_A <= V'_A o phi^-1", lv1, left_image, m1.worlds),
        ("-1[fwd_inv", "V'_A <= V_A o phi", lv2, right_image, m2.worlds),
        ("-2[fwd", "phi^-1 o V_A <= V'_A", right_image, lv2, m2.worlds),
        ("-2[fwd_inv", "phi o V'_A <= V_A", left_image, lv1, m1.worlds),
    ]
    if not bisimulation:
        conditions = conditions[::2]
    return [
        _check(f"{kind}{name}, A={label}]", statement, lhs[k], rhs[k], (worlds,), universe.values)
        for k, label in enumerate(map(to_text, formulas))
        for name, statement, lhs, rhs, worlds in conditions
    ]


def _require_weak(m1, m2, phi, formulas, bisimulation, who: str) -> None:
    failed = [c for c in check_weak(m1, m2, phi, formulas, bisimulation) if not c.holds]
    if failed:
        raise ValueError(
            f"{who} is not a weak {'bisimulation' if bisimulation else 'simulation'}: "
            f"{failed[0].name} fails"
        )


def check_union_closed(
    m1: KripkeModel,
    m2: KripkeModel,
    formulas: Iterable[Formula],
    phi1: FuzzyMat,
    phi2: FuzzyMat,
    bisimulation: bool = True,
) -> bool:
    """Verify the join of two weak relations is again one (it must be)."""
    formulas = list(formulas)
    _require_weak(m1, m2, phi1, formulas, bisimulation, "phi1")
    _require_weak(m1, m2, phi2, formulas, bisimulation, "phi2")
    joined = phi1.join(phi2)
    return all(c.holds for c in check_weak(m1, m2, joined, formulas, bisimulation))


def check_composition_closed(
    m1: KripkeModel,
    m2: KripkeModel,
    m3: KripkeModel,
    formulas: Iterable[Formula],
    phi12: FuzzyMat,
    phi23: FuzzyMat,
    bisimulation: bool = True,
) -> bool:
    """Verify the composition along m1 -> m2 -> m3 is weak between m1 and m3."""
    formulas = list(formulas)
    _require_weak(m1, m2, phi12, formulas, bisimulation, "phi12")
    _require_weak(m2, m3, phi23, formulas, bisimulation, "phi23")
    composed = phi12.compose(phi23)
    return all(c.holds for c in check_weak(m1, m3, composed, formulas, bisimulation))


@dataclass
class DualityVerdict:
    holds: bool
    forward: FuzzyMat   # closed form on (m1, m2) for the fragment set
    reversed_: FuzzyMat  # closed form on the reversed models for the dual set

    def __bool__(self):
        return self.holds


def duality_transfer(
    m1: KripkeModel,
    m2: KripkeModel,
    fragment: Fragment,
    depth: int,
    budget: int = 200_000,
) -> DualityVerdict:
    """Reversing both models while dualizing the formula set preserves the
    greatest weak prebisimulation; verified by direct evaluation."""
    enum = enumerate_formulas(m1, m2, Fragment(fragment), depth, budget=budget)
    formulas = enum.formulas()
    forward = greatest_weak(m1, m2, formulas).prebisimulation
    dual_formulas = [dual(f) for f in formulas]
    reversed_ = greatest_weak(m1.reverse(), m2.reverse(), dual_formulas).prebisimulation
    return DualityVerdict(forward == reversed_, forward, reversed_)
