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
:func:`duality_transfer` verifies for a fragment to a depth against its
dual fragment on the reversed models.

A prebisimulation matrix also reads off formula-set equivalence of the two
models: they agree exactly when every row and every column contains 1.

The closed forms are folds over the level vectors of the formulae
(:mod:`.levels`); a set enumerated by :class:`FormulaEnumeration` is folded
from its class vectors directly, without rebuilding any formula.

The formulae of a fragment to a depth need no enumeration at all
(:func:`fragment_weak`).  Let P be the worlds of both models, R_i the
block-diagonal relations of their disjoint union, and B_d the meet over
the generators g of depth <= d (constants, variables and modal classes)
of g(p) <-> g(q) on P x P.  The classes of depth <= d are
the B_d-extensional rows f, those with f(p) /\\ B_d(p, q) <= f(q) (see the
comment above ``syntax._CONNECTIVES``), so B_d is a min-transitive
similarity and each cut B_d >= a an equivalence.  B_0 is the fold of the
variables, and B_{d+1} is the Jacobi sweep of the matched kind (fb for
plus, bb for minus, rb for full) from B_d: B_d met with the -2 updates of
its directions (:func:`.bisim.union_iterate`, on the pair in levels from
:func:`.model.level_pair`).  The modal step, for fwd:
a modal generator of depth d + 1 is a modality of a class f of depth <= d,
and

    fwd(B)(p, q) = min_v  R(p, v) -> max_v' (R(q, v') /\\ B(v, v')).

Soundness: for f extensional under B = B_d, fwd(B)(p, q) <= <>f(p) ->
<>f(q), since R(p, v) /\\ f(v) /\\ fwd(B)(p, q) <= max_v' R(q, v') /\\
B(v, v') /\\ f(v) <= max_v' R(q, v') /\\ f(v') for every v.  Likewise
fwd(B)(p, q) <= []f(q) -> []f(p): []f(q) /\\ R(q, v') <= f(v') and
f(v') /\\ B(v', v) <= f(v) give []f(q) /\\ fwd(B)(p, q) /\\ R(p, v) <=
f(v) for every v.  So fwd covers <> forth and [] back; fwd_inv, which is
fwd at (q, p) since B is symmetric, covers the converse implications; and
bwd and bwd_inv do the same for <>- and []- on the transposed relations.
Hence the swept B_{d+1} is at most the meet over the new generators.
Completeness: the row chi_v(q) = B(v, q) is extensional (B is
min-transitive), so it is a class of depth <= d, and <>chi_v(p) >=
R(p, v) /\\ B(v, v) = R(p, v) while <>chi_v(q) = max_v' R(q, v') /\\
B(v, v').  As -> is antitone in its left argument, <>chi_v(p) <->
<>chi_v(q) <= R(p, v) -> <>chi_v(q), and the meet over v is fwd(B)(p, q):
the update is attained (<>-chi_v attains bwd).  The two halves give the
equality by induction on d; Fan (IEEE TFS 23(6), 2015) takes the same
graded step for Godel modal logic.

So everything the report of an uncut enumeration holds is a function of
the (m1, m2) block X of B_d and of the class count.  Both greatest weak
relations are X: the class chi_p attains X(p, q), and every class f has
f(p) -> f(q) >= X(p, q).  Condition -1 of the presimulation holds iff
every row of X holds 1: a world q with X(p, q) = 1 has f(q) = f(p) for
every class, and with none chi_p breaks the condition at p.  For the
prebisimulation every column must hold 1 as well, which is also formula
set equivalence.  The count is that of the B_d-extensional rows over the
chain of seeded constants (:func:`.syntax.class_count`); a budget bounds
only the count, which past it reads the budget.  The ladder of
:mod:`.hm` reads its steps off the same iterates: each step is a block of
B_d, and its count that of the B_{d-1}-extensional rows and their modal
images (:func:`.syntax.class_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bisim import (
    DIRECTIONS, ConditionCheck, SimType, _check_relation, _vector_violations, _verdict,
    union_iterate,
)
from .fuzzrel import FuzzyMat
from .levels import Universe, biimplication_fold, compose, residual_fold
from .model import KripkeModel, LevelPair, check_comparable, formula_levels, level_pair
from .syntax import (
    BUDGET,
    Formula,
    FormulaEnumeration,
    Fragment,
    _check_budget,
    _check_depth,
    class_count,
    to_text,
)

THETA_FOR_FRAGMENT = {
    Fragment.PLUS: SimType.FB,
    Fragment.MINUS: SimType.BB,
    Fragment.FULL: SimType.RB,
}


def psi_equivalent(prebisim: FuzzyMat) -> bool:
    """Formula-set equivalence read off a weak prebisimulation matrix:
    every row and every column must contain 1."""
    one = prebisim.levels == prebisim.universe.top
    return bool(one.any(axis=1).all() and one.any(axis=0).all())


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
    truncated: bool  # a budget cut the enumerated set, or only the count of fragment_weak

    @property
    def simulation_exists(self) -> bool:
        return self.presim_satisfies_condition1 and self.presim_nonempty

    @property
    def bisimulation_exists(self) -> bool:
        return self.prebisim_satisfies_condition1 and self.prebisim_nonempty

    def to_dict(self) -> dict:
        out = {
            "formula_count": self.formula_count,
            "row_worlds": list(self.row_worlds),
            "col_worlds": list(self.col_worlds),
            "presimulation": self.presimulation.format(),
            "prebisimulation": self.prebisimulation.format(),
            "presim_satisfies_condition1": self.presim_satisfies_condition1,
            "prebisim_satisfies_condition1": self.prebisim_satisfies_condition1,
            "simulation_exists": self.simulation_exists,
            "bisimulation_exists": self.bisimulation_exists,
            "equivalent": self.equivalent,
        }
        if self.truncated:
            out["truncated"] = True
        return out


def _nonempty(formulas):
    """``formulas`` (a list or an enumeration), if it holds any formula."""
    if not len(formulas):
        raise ValueError("a weak relation needs a nonempty formula set")
    return formulas


def _report(m1, m2, universe: Universe, presim, prebisim, formula_count: int,
            presim_cond1: bool, prebisim_cond1: bool, truncated: bool) -> WeakReport:
    """The one builder of a report: the greatest weak relations ``presim``
    and ``prebisim`` as level matrices of ``universe``, and their -1 verdicts."""
    presim_matrix, prebisim_matrix = (
        FuzzyMat._from_levels(m1.algebra, x, universe) for x in (presim, prebisim)
    )
    return WeakReport(
        formula_count=formula_count,
        row_worlds=m1.worlds,
        col_worlds=m2.worlds,
        presimulation=presim_matrix,
        prebisimulation=prebisim_matrix,
        presim_satisfies_condition1=presim_cond1,
        prebisim_satisfies_condition1=prebisim_cond1,
        presim_nonempty=bool(presim.any()),
        prebisim_nonempty=bool(prebisim.any()),
        equivalent=psi_equivalent(prebisim_matrix),
        truncated=truncated,
    )


def _weak_report(m1, m2, universe: Universe, lv1, lv2, truncated: bool = False) -> WeakReport:
    """The report for a formula set given by its level vectors: row A of
    ``lv1`` (``lv2``) is the vector of formula A over the worlds of ``m1``
    (``m2``); ``truncated`` tells that a budget cut the set short."""
    top = universe.top
    x1, x2 = lv1.T, lv2.T
    presim = residual_fold(x1, x2, top)
    prebisim = biimplication_fold(x1, x2, top)

    def cond1(phi, both_sides: bool) -> bool:
        # V_A <= V'_A o phi^-1, and V'_A <= V_A o phi, for every A at once
        if not (x1 <= compose(phi, x2)).all():
            return False
        return not both_sides or bool((x2 <= compose(phi.T, x1)).all())

    return _report(m1, m2, universe, presim, prebisim, lv1.shape[0],
                   cond1(presim, False), cond1(prebisim, True), truncated)


def greatest_weak(
    m1: KripkeModel, m2: KripkeModel, formulas: Iterable[Formula]
) -> WeakReport:
    """Greatest weak presimulation and prebisimulation for ``formulas``."""
    check_comparable(m1, m2)
    formulas = _nonempty(list(formulas))
    return _weak_report(m1, m2, *formula_levels(m1, m2, formulas))


def enumerated_weak(enum: FormulaEnumeration) -> WeakReport:
    """:func:`greatest_weak` for every formula class of an enumeration,
    over the pair ``enum.models``, folded from the class vectors.

    One representative per class gives the same folds as the whole class,
    because the formulae of a class have equal vectors on both models.
    The report is ``truncated`` when the enumeration is.
    """
    _nonempty(enum)
    return _weak_report(*enum.models, enum.universe, *enum.level_vectors(), enum.truncated)


def fragment_weak(
    m1: KripkeModel,
    m2: KripkeModel,
    fragment: Fragment,
    depth: int,
    budget: int = BUDGET,
) -> WeakReport:
    """The report of ``enumerated_weak(FormulaEnumeration(m1, m2,
    fragment, budget).extend_to_depth(depth))`` for a ``budget`` above the
    class count, in closed form from the union iterate and the count (see
    the module docstring).  ``budget`` bounds only the count: past it the
    report is the same but for ``formula_count``, which reads the budget,
    and ``truncated``."""
    # refused in the order an enumeration refuses them
    _check_budget(budget)
    return _fragment_weak(level_pair(m1, m2), fragment, depth, budget)


def _fragment_weak(pair: LevelPair, fragment: Fragment, depth: int, budget: int) -> WeakReport:
    """:func:`fragment_weak` on a level pair, once the budget is checked."""
    _check_depth(depth)
    fragment = Fragment(fragment)
    m1, m2 = pair.models
    b = union_iterate(pair, THETA_FOR_FRAGMENT.get(fragment), depth)
    constants = pair.constants
    count = class_count(np.searchsorted(constants, b), len(constants) - 1, budget)
    x = b[: len(m1.worlds), len(m1.worlds) :]
    one = x == pair.universe.top
    rows = bool(one.any(axis=1).all())
    return _report(m1, m2, pair.universe, x, x, min(count, budget), rows,
                   rows and bool(one.any(axis=0).all()), count > budget)


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
    _check_relation(m1, m2, phi)
    formulas = _nonempty(list(formulas))
    kind = "wb" if bisimulation else "ws"
    tags = ("fwd", "fwd_inv") if bisimulation else ("fwd",)
    universe, lv1, lv2 = formula_levels(m1, m2, formulas, phi)
    p = universe.recode(phi.universe, phi.levels)
    # the weak -1 and -2 conditions are the strong -1 and -3 vector atoms
    # with the formulae in place of the variables
    found = _vector_violations(lv1, lv2, p, (m1.worlds, m2.worlds), universe, tags)
    return [
        _verdict(f"{kind}-{weak}[{tag}, A={label}]",
                 getattr(DIRECTIONS[tag], f"cond{family}").format(p="A"), found[family, tag][k])
        for k, label in enumerate(map(to_text, formulas))
        for weak, family in ((1, 1), (2, 3))
        for tag in tags
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
    forward: FuzzyMat   # greatest weak prebisimulation on (m1, m2) for the fragment
    reversed_: FuzzyMat  # the same on the reversed models for the dual fragment
    truncated: bool  # a class count passed the budget; the matrices are exact

    def __bool__(self):
        return self.holds


def duality_transfer(
    m1: KripkeModel,
    m2: KripkeModel,
    fragment: Fragment,
    depth: int,
    budget: int = BUDGET,
) -> DualityVerdict:
    """Reversing both models while dualizing the formula set preserves the
    greatest weak prebisimulation: the :func:`fragment_weak` reports of the
    fragment and of its dual on the reversed models agree."""
    forward = fragment_weak(m1, m2, fragment, depth, budget)
    dual = {Fragment.PLUS: Fragment.MINUS, Fragment.MINUS: Fragment.PLUS}.get(fragment, fragment)
    reversed_ = fragment_weak(m1.reverse(), m2.reverse(), dual, depth, budget)
    x, y = forward.prebisimulation, reversed_.prebisimulation
    return DualityVerdict(x == y, x, y, forward.truncated or reversed_.truncated)
