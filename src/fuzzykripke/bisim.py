"""The seven (pre)simulation and (pre)bisimulation kinds between models.

A fuzzy relation phi between the worlds of two models is classified by
which of these inequalities it satisfies, for every variable p and index i:

    vector conditions (the -1 family, and the -3 family)
        fwd   -1: V_p <= V'_p o phi^-1        -3: phi^-1 o V_p <= V'_p
        bwd   -1: V_p <= phi o V'_p           -3: V_p o phi <= V'_p
        and the same two instantiated for phi^-1 in the other direction

    relational conditions (the -2 family)
        fwd      phi^-1 o R_i  <=  R'_i o phi^-1
        fwd_inv  phi  o R'_i   <=  R_i  o phi
        bwd      R_i  o phi    <=  phi  o R'_i
        bwd_inv  R'_i o phi^-1 <=  phi^-1 o R_i

The seven kinds select subsets: fs uses fwd; bs uses bwd; fb adds the
inverse direction to fs (fwd + fwd_inv), bb to bs; fbb mixes fwd with
bwd_inv, bfb mixes bwd with fwd_inv; rb takes all four, which makes both
-2 comparisons equalities.  A "pre" relation satisfies the -2 and -3
conditions; the relation proper additionally satisfies -1 and is nonempty.

The greatest pre-relation is computed by a decreasing fixpoint iteration:
start from the entrywise greatest solution of the -3 conditions (meet of
residua for fs/bs, meet of biimplications for the bisimulation kinds) and
repeatedly meet with the residual updates of the -2 conditions, all taken
against the previous iterate (Jacobi sweeps, so per-entry updates within a
sweep depend only on the previous iterate).  On a linear carrier every
update value stays inside the finite set of input values plus {0, 1} and
iterates strictly decrease until stable, so the loop terminates; a
monotonicity induction shows every solution stays below every iterate,
hence the limit is the greatest solution.

All of it runs on level arrays (:mod:`.levels`).  The four directions
are one residual update on reoriented arguments, and the conditions are
checked through the same orientation table, so the seven kinds are data:
the direction tuples of ``_THETA2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Optional

import numpy as np

from .algebra import format_value
from .fuzzrel import FuzzyMat, RESIDUAL_UPDATES
from .levels import (
    DIRECTIONS,
    Universe,
    biimplication_fold,
    compose,
    first_violation,
    orient,
    residual_fold,
)
from .model import KripkeModel, check_comparable


class SimType(str, Enum):
    FS = "fs"    # forward simulation
    BS = "bs"    # backward simulation
    FB = "fb"    # forward bisimulation
    BB = "bb"    # backward bisimulation
    FBB = "fbb"  # forward-backward bisimulation
    BFB = "bfb"  # backward-forward bisimulation
    RB = "rb"    # regular bisimulation

    def __str__(self):
        return self.value

    @property
    def is_simulation(self) -> bool:
        return self in (SimType.FS, SimType.BS)


# directions per kind: the relational (-2) conditions, and the vector atoms
# shared by the -1 and -3 families
_THETA2 = {
    SimType.FS: ("fwd",),
    SimType.BS: ("bwd",),
    SimType.FB: ("fwd", "fwd_inv"),
    SimType.BB: ("bwd", "bwd_inv"),
    SimType.FBB: ("fwd", "bwd_inv"),
    SimType.BFB: ("bwd", "fwd_inv"),
    SimType.RB: ("fwd", "fwd_inv", "bwd", "bwd_inv"),
}

_COND2_TEXT = {
    "fwd": "phi^-1 o R{i} <= R'{i} o phi^-1",
    "fwd_inv": "phi o R'{i} <= R{i} o phi",
    "bwd": "R{i} o phi <= phi o R'{i}",
    "bwd_inv": "R'{i} o phi^-1 <= phi^-1 o R{i}",
}

_COND1_TEXT = {
    "fwd": "V_{p} <= V'_{p} o phi^-1",
    "fwd_inv": "V'_{p} <= V_{p} o phi",
    "bwd": "V_{p} <= phi o V'_{p}",
    "bwd_inv": "V'_{p} <= phi^-1 o V_{p}",
}

_COND3_TEXT = {
    "fwd": "phi^-1 o V_{p} <= V'_{p}",
    "fwd_inv": "phi o V'_{p} <= V_{p}",
    "bwd": "V_{p} o phi <= V'_{p}",
    "bwd_inv": "V'_{p} o phi^-1 <= V_{p}",
}


@dataclass
class ConditionCheck:
    """One atomic inequality verdict with its first violating entry."""

    name: str
    statement: str
    holds: bool
    violation: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "statement": self.statement, "holds": self.holds}
        if self.violation is not None:
            out["violation"] = self.violation
        return out


def _check(name: str, statement: str, lhs, rhs, worlds, values) -> ConditionCheck:
    """The verdict on ``lhs <= rhs`` for two level arrays, with the first
    violating entry in row-major order named by ``worlds``, the world
    names of each axis."""
    bad = first_violation(lhs, rhs)
    violation = None
    if bad is not None:
        names = [side[i] for side, i in zip(worlds, bad)]
        violation = {"world": names[0]} if len(names) == 1 else {"pair": names}
        violation["lhs"] = format_value(values[lhs[bad]])
        violation["rhs"] = format_value(values[rhs[bad]])
    return ConditionCheck(name, statement, bad is None, violation)


def check_conditions(
    m1: KripkeModel, m2: KripkeModel, phi: FuzzyMat, sim_type: SimType
) -> list[ConditionCheck]:
    """Literal verdicts for every defining inequality of ``sim_type``.

    This is the dual route to the fixpoint construction: each condition is
    evaluated directly from compositions, so it can cross-check matrices
    produced by :func:`greatest_pre` (or any externally supplied relation).
    """
    sim_type = SimType(sim_type)
    check_comparable(m1, m2)
    m1.algebra.check_same(phi.algebra)
    if phi.shape != (len(m1.worlds), len(m2.worlds)):
        raise ValueError(
            f"relation shape {phi.shape} does not match world counts "
            f"{(len(m1.worlds), len(m2.worlds))}"
        )
    universe = Universe(chain(m1.entries(), m2.entries(), chain.from_iterable(phi.rows)))
    values = universe.values
    rels1, vals1 = m1.encoded(universe)
    rels2, vals2 = m2.encoded(universe)
    p = universe.encode(phi.rows)
    variables = sorted(m1.valuation)
    tags = _THETA2[sim_type]
    kind = sim_type.value

    def sides(tag):
        return (m2.worlds, m1.worlds) if DIRECTIONS[tag][1] else (m1.worlds, m2.worlds)

    # With sides (a, b) and q the relation from a to b (phi, or phi^-1 when
    # the direction swaps sides), the -1 atom is V_a <= q o V_b over the
    # a-worlds and the -3 atom q^-1 o V_a <= V_b over the b-worlds.  On
    # valuations fwd and bwd give the same atoms, and so do fwd_inv and
    # bwd_inv, so each is computed once per side swap.
    atoms = {}
    for tag in tags:
        swap = DIRECTIONS[tag][1]
        va, vb, q = (vals2, vals1, p.T) if swap else (vals1, vals2, p)
        wa, wb = sides(tag)
        for var in variables:
            if (1, swap, var) not in atoms:
                atoms[1, swap, var] = (va[var], compose(q, vb[var][:, None])[:, 0], (wa,))
                atoms[3, swap, var] = (compose(q.T, va[var][:, None])[:, 0], vb[var], (wb,))

    def vector_checks(family: int, texts: dict) -> list[ConditionCheck]:
        return [
            _check(f"{kind}-{family}[{tag}, p={var}]", texts[tag].format(p=var),
                   *atoms[family, DIRECTIONS[tag][1], var], values)
            for tag in tags
            for var in variables
        ]

    checks = vector_checks(1, _COND1_TEXT)
    for tag in tags:
        wa, wb = sides(tag)
        for i in m1.indices:
            # the forward condition  q^-1 o r <= rp o q^-1, transposed back
            # to the orientation of the statement
            r, rp, q = orient(tag, rels1[i], rels2[i], p)
            lhs, rhs, worlds = compose(q.T, r), compose(rp, q.T), (wb, wa)
            if DIRECTIONS[tag][0]:
                lhs, rhs, worlds = lhs.T, rhs.T, worlds[::-1]
            checks.append(_check(f"{kind}-2[{tag}, i={i}]", _COND2_TEXT[tag].format(i=i),
                                 lhs, rhs, worlds, values))
    return checks + vector_checks(3, _COND3_TEXT)


@dataclass
class SimReport:
    """The greatest pre-relation of one kind, with its verdicts."""

    sim_type: SimType
    matrix: FuzzyMat
    row_worlds: tuple[str, ...]
    col_worlds: tuple[str, ...]
    iterations: int
    satisfies_condition1: bool
    nonempty: bool
    exists: bool
    conditions: list[ConditionCheck] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "type": self.sim_type.value,
            "row_worlds": list(self.row_worlds),
            "col_worlds": list(self.col_worlds),
            "matrix": [[format_value(v) for v in row] for row in self.matrix.rows],
            "iterations": self.iterations,
            "satisfies_condition1": self.satisfies_condition1,
            "nonempty": self.nonempty,
            "exists": self.exists,
            "conditions": [c.to_dict() for c in self.conditions],
        }


def _initial_relation(v1: np.ndarray, v2: np.ndarray, top, sim_type: SimType) -> np.ndarray:
    """Entrywise greatest solution of the -3 conditions (by adjunction).

    That is the weak closed form over the variables, whose level vectors
    are the rows of ``v1`` and ``v2``: a meet of residua for the
    simulations, of biimplications for the bisimulations.
    """
    fold = residual_fold if sim_type.is_simulation else biimplication_fold
    return fold(v1.T, v2.T, top)


def iteration_cap(m1: KripkeModel, m2: KripkeModel) -> int:
    """Default sweep cap: generous, and only reachable on an internal error."""
    universe = Universe(chain(m1.entries(), m2.entries()))
    return 10 * len(m1.worlds) * len(m2.worlds) * len(universe) + 10


def greatest_pre(
    m1: KripkeModel,
    m2: KripkeModel,
    sim_type: SimType,
    max_iterations: Optional[int] = None,
) -> SimReport:
    """The greatest pre-simulation/bisimulation of the given kind.

    The returned matrix always satisfies the -2 and -3 conditions exactly;
    ``exists`` reports whether it is also nonempty and satisfies -1, i.e.
    whether a relation proper of this kind exists.
    """
    sim_type = SimType(sim_type)
    check_comparable(m1, m2)
    if max_iterations is None:
        max_iterations = iteration_cap(m1, m2)

    universe = Universe(chain(m1.entries(), m2.entries()))
    top = universe.top
    rels1, vals1 = m1.encoded(universe)
    rels2, vals2 = m2.encoded(universe)
    variables = sorted(m1.valuation)
    phi = _initial_relation(
        np.array([vals1[v] for v in variables], universe.dtype).reshape(-1, len(m1.worlds)),
        np.array([vals2[v] for v in variables], universe.dtype).reshape(-1, len(m2.worlds)),
        top,
        sim_type,
    )
    updates = [(tag, rels1[i], rels2[i]) for tag in _THETA2[sim_type] for i in m1.indices]
    iterations = 0
    while True:
        if iterations > max_iterations:
            raise RuntimeError(
                f"fixpoint failed to stabilize within {max_iterations} sweeps; "
                "this indicates an internal error"
            )
        new = phi
        for tag, r, rp in updates:
            new = np.minimum(new, RESIDUAL_UPDATES[tag](r, rp, phi, top))
        iterations += 1
        if np.array_equal(new, phi):
            break
        phi = new

    matrix = FuzzyMat(m1.algebra, universe.decode(phi))
    conditions = check_conditions(m1, m2, matrix, sim_type)
    cond1 = all(c.holds for c in conditions if "-1[" in c.name)
    nonempty = bool(phi.any())
    return SimReport(
        sim_type=sim_type,
        matrix=matrix,
        row_worlds=m1.worlds,
        col_worlds=m2.worlds,
        iterations=iterations,
        satisfies_condition1=cond1,
        nonempty=nonempty,
        exists=cond1 and nonempty,
        conditions=conditions,
    )


def exists_bisim(
    m1: KripkeModel, m2: KripkeModel, sim_type: SimType
) -> tuple[bool, SimReport]:
    """Whether a relation proper of this kind exists, with the full report."""
    report = greatest_pre(m1, m2, sim_type)
    return report.exists, report
