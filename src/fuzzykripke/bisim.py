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

All of it runs on level arrays (:mod:`.levels`).  The direction table
``DIRECTIONS`` makes each direction the forward one on transposed or
swapped arguments, so the four are one residual update and the seven
kinds are data: the direction tuples of ``_THETA2``.  Its rows also hold
the statements of the conditions, which :mod:`.weak` shares.  The
directions that keep the sides (fwd, bwd) and those that swap them
(fwd_inv, bwd_inv) form two stacks of relations in forward orientation,
so a sweep makes one update call per side.  Every condition check, the
weak ones and the invariance bound of :mod:`.hm` too, is one stacked
:func:`_violations`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .fuzzrel import FuzzyMat, RESIDUAL_UPDATES
from .levels import Universe, biimplication_fold, compose, residual_fold
from .model import KripkeModel, LevelPair, level_pair


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


class _Direction(NamedTuple):
    transpose: bool  # the relations enter transposed
    swap: bool       # the sides swap: phi^T, and the right model's relations first
    cond1: str       # the -1 statement, of variable {p}
    cond2: str       # the -2 statement, of index {i}
    cond3: str       # the -3 statement, of variable {p}


# The -2 directions as the forward one on reoriented arguments: with
# fwd(R, R', phi) the greatest chi with (phi /\ chi)^-1 o R <= R' o phi^-1,
#     bwd(R, R', phi)     = fwd(R^T, R'^T, phi)
#     fwd_inv(R, R', phi) = fwd(R', R, phi^T)^T
#     bwd_inv(R, R', phi) = fwd(R'^T, R^T, phi^T)^T
# so each direction is a row (transpose the relations, swap the sides),
# with the statements of its -1, -2 and -3 conditions.
DIRECTIONS = {
    "fwd": _Direction(
        False, False, "V_{p} <= V'_{p} o phi^-1",
        "phi^-1 o R{i} <= R'{i} o phi^-1", "phi^-1 o V_{p} <= V'_{p}"),
    "fwd_inv": _Direction(
        False, True, "V'_{p} <= V_{p} o phi",
        "phi o R'{i} <= R{i} o phi", "phi o V'_{p} <= V_{p}"),
    "bwd": _Direction(
        True, False, "V_{p} <= phi o V'_{p}",
        "R{i} o phi <= phi o R'{i}", "V_{p} o phi <= V'_{p}"),
    "bwd_inv": _Direction(
        True, True, "V'_{p} <= phi^-1 o V_{p}",
        "R'{i} o phi^-1 <= phi^-1 o R{i}", "V'_{p} o phi^-1 <= V_{p}"),
}

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


def _violations(lhs, rhs, worlds, universe: Universe, transposed=()) -> list[Optional[dict]]:
    """For each slice j of two stacks of level arrays of ``universe``: None
    when ``lhs[j] <= rhs[j]``, else its first violating entry in row-major
    order, named by ``worlds`` (the world names of each axis of a slice).
    The slices whose index is in ``transposed`` are read as their transposes.

    The stacks are compared in one call; only violated slices are searched.
    """
    bad = lhs > rhs
    out = []
    for j, hit in enumerate(bad.reshape(len(bad), -1).any(axis=1).tolist()):
        violation = None
        if hit:
            mask, left, right, names = bad[j], lhs[j], rhs[j], worlds
            if j in transposed:
                mask, left, right, names = mask.T, left.T, right.T, names[::-1]
            at = np.unravel_index(int(mask.argmax()), mask.shape)
            where = [side[i] for side, i in zip(names, at)]
            violation = {"world": where[0]} if len(where) == 1 else {"pair": where}
            violation["lhs"], violation["rhs"] = universe.format(np.array([left[at], right[at]]))
        out.append(violation)
    return out


def _verdict(name: str, statement: str, violation: Optional[dict]) -> ConditionCheck:
    # each check owns its violation: directions that share an atom share a search
    return ConditionCheck(name, statement, violation is None, violation and dict(violation))


def _vector_violations(v1, v2, p, worlds, universe: Universe, tags) -> dict:
    """The -1 and -3 vector atoms of the directions ``tags`` for each row
    of the level arrays ``v1`` and ``v2`` (the vectors of one variable, or
    one formula, on the two models) against the level matrix ``p`` of phi:
    ``{(family, tag): the _violations of the rows}``.

    With sides (a, b) and q the relation from a to b (phi, or phi^-1 when
    the direction swaps sides), the -1 atom is V_a <= q o V_b over the
    a-worlds and the -3 atom q^-1 o V_a <= V_b over the b-worlds.  fwd and
    bwd give the same atoms, and so do fwd_inv and bwd_inv, so each is
    searched once per side; the two sides share their compositions.
    """
    w1, w2 = worlds
    image1, image2 = compose(v2, p.T), compose(v1, p)
    atoms = {
        (1, False): (v1, image1, (w1,)),
        (3, False): (image2, v2, (w2,)),
        (1, True): (v2, image2, (w2,)),
        (3, True): (image1, v1, (w1,)),
    }
    swaps = {DIRECTIONS[tag].swap for tag in tags}
    found = {key: _violations(*atom, universe) for key, atom in atoms.items() if key[1] in swaps}
    return {(family, tag): found[family, DIRECTIONS[tag].swap] for tag in tags for family in (1, 3)}


# The -2 conditions and updates of a kind run side by side: a side is the
# swap flag of DIRECTIONS.  Its stacks hold the relations of every
# (direction, index) pair of the side in forward orientation, so the
# updates of one side are one forward update, on phi or, on the swapped
# side, on phi^T.


class _Side(NamedTuple):
    pairs: list[tuple[str, int]]
    r: np.ndarray
    rp: np.ndarray


def _sides(rels1: dict, rels2: dict, indices, tags) -> dict[bool, _Side]:
    """The sides of the directions ``tags`` that have a -2 condition (with
    no relation index there is none), for the relations ``rels1`` and
    ``rels2`` (level arrays by index): each with its (direction, index)
    pairs in condition order and the stacks of their relations in forward
    orientation, transposed for the bwd directions, and the right model's
    first on the swapped side."""
    sides = {}
    for swap in (False, True):
        pairs = [(tag, i) for tag in tags if DIRECTIONS[tag].swap == swap for i in indices]
        if pairs:
            r, rp = (
                np.array([rels[i].T if DIRECTIONS[tag].transpose else rels[i] for tag, i in pairs])
                for rels in ((rels2, rels1) if swap else (rels1, rels2))
            )
            sides[swap] = _Side(pairs, r, rp)
    return sides


def _check_relation(m1: KripkeModel, m2: KripkeModel, phi: FuzzyMat) -> None:
    """Reject a relation that does not fit between the worlds of the pair."""
    m1.algebra.check_same(phi.algebra)
    if phi.shape != (len(m1.worlds), len(m2.worlds)):
        raise ValueError(
            f"relation shape {phi.shape} does not match world counts "
            f"{(len(m1.worlds), len(m2.worlds))}"
        )


def check_conditions(
    m1: KripkeModel, m2: KripkeModel, phi: FuzzyMat, sim_type: SimType
) -> list[ConditionCheck]:
    """Literal verdicts for every defining inequality of ``sim_type``.

    This is the dual route to the fixpoint construction: each condition is
    evaluated directly from compositions, so it can cross-check matrices
    produced by :func:`greatest_pre` (or any externally supplied relation).
    """
    sim_type = SimType(sim_type)
    pair = level_pair(m1, m2, phi.universe)
    _check_relation(m1, m2, phi)
    sides = _sides(*pair.relations, m1.indices, _THETA2[sim_type])
    return _level_conditions(pair, sides, pair.universe.recode(phi.universe, phi.levels), sim_type)


def _level_conditions(
    pair: LevelPair, sides: dict[bool, _Side], p: np.ndarray, sim_type: SimType,
) -> list[ConditionCheck]:
    """:func:`check_conditions` on levels: ``sides`` are the :func:`_sides`
    of the relations of ``pair``, and ``p`` is the level matrix of the
    relation in the pair's universe.

    Each family of conditions is one comparison per side, of stacks; only
    the violated conditions are searched for their first bad entry.
    """
    (m1, m2), universe, (v1, v2) = pair.models, pair.universe, pair.valuations
    variables = sorted(m1.valuation)
    tags = _THETA2[sim_type]
    kind = sim_type.value
    w1, w2 = m1.worlds, m2.worlds

    # the vector atoms of every variable at once
    found = _vector_violations(v1, v2, p, (w1, w2), universe, tags) if variables else {}

    def vector_checks(family: int) -> list[ConditionCheck]:
        return [
            _verdict(f"{kind}-{family}[{tag}, p={var}]",
                     getattr(DIRECTIONS[tag], f"cond{family}").format(p=var), found[family, tag][j])
            for tag in tags
            for j, var in enumerate(variables)
        ]

    # the forward condition  q^-1 o r <= rp o q^-1  on each side's stacks,
    # with q = phi, or phi^T on the swapped side; each bwd slice is read
    # transposed, in the orientation of its statement
    relational = {}
    for swap, side in sides.items():
        q_inv = p if swap else p.T
        worlds = (w1, w2) if swap else (w2, w1)
        transposed = {j for j, (tag, _) in enumerate(side.pairs) if DIRECTIONS[tag].transpose}
        violations = _violations(
            compose(q_inv, side.r), compose(side.rp, q_inv), worlds, universe, transposed)
        for (tag, i), violation in zip(side.pairs, violations):
            relational[tag, i] = _verdict(
                f"{kind}-2[{tag}, i={i}]", DIRECTIONS[tag].cond2.format(i=i), violation)

    return (
        vector_checks(1)
        + [relational[tag, i] for tag in tags for i in m1.indices]
        + vector_checks(3)
    )


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
            "matrix": self.matrix.format(),
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


def _sweep_cap(m1: KripkeModel, m2: KripkeModel, universe: Universe) -> int:
    """The sweep cap of :func:`greatest_pre`: generous, and only reachable
    on an internal error."""
    return 10 * len(m1.worlds) * len(m2.worlds) * len(universe) + 10


def _sweeps(phi: np.ndarray, sides: dict[bool, _Side], top, most: int):
    """Jacobi sweeps of the -2 updates of ``sides`` from the level matrix
    ``phi``, each against the previous iterate, until one changes nothing
    or ``most`` have run: the last iterate, the sweeps run (the one that
    changed nothing among them), and whether it is the fixpoint."""
    for sweep in range(1, most + 1):
        new = phi
        for swap, side in sides.items():
            chi = RESIDUAL_UPDATES["fwd"](side.r, side.rp, phi.T if swap else phi, top)
            new = np.minimum(new, chi.T if swap else chi)
        if np.array_equal(new, phi):
            return phi, sweep, True
        phi = new
    return phi, most, False


def greatest_pre(
    m1: KripkeModel,
    m2: KripkeModel,
    sim_type: SimType,
    pair: Optional[LevelPair] = None,
) -> SimReport:
    """The greatest pre-simulation/bisimulation of the given kind.

    The returned matrix always satisfies the -2 and -3 conditions exactly;
    ``exists`` reports whether it is also nonempty and satisfies -1, i.e.
    whether a relation proper of this kind exists.  ``pair``, when given,
    is (m1, m2) in levels from :func:`.model.level_pair`.
    """
    sim_type = SimType(sim_type)
    pair = level_pair(m1, m2) if pair is None else pair
    cap = _sweep_cap(m1, m2, pair.universe)
    top = pair.universe.top
    sides = _sides(*pair.relations, m1.indices, _THETA2[sim_type])
    phi = _initial_relation(*pair.valuations, top, sim_type)
    # one sweep past the cap, to find that the cap was reached
    phi, iterations, stable = _sweeps(phi, sides, top, cap + 1)
    if not stable:
        raise RuntimeError(
            f"fixpoint failed to stabilize within {cap} sweeps; "
            "this indicates an internal error"
        )

    matrix = FuzzyMat._from_levels(m1.algebra, phi, pair.universe)
    conditions = _level_conditions(pair, sides, phi, sim_type)
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


def _union(pair: LevelPair, sim_type: Optional[SimType]) -> tuple[np.ndarray, dict[bool, _Side]]:
    """The start of :func:`union_iterate`: iterate 0, and the sides whose
    :func:`_sweeps` give the next iterates (none with no ``sim_type``)."""
    (m1, m2), universe, (rels1, rels2) = pair.models, pair.universe, pair.relations
    n1, n = len(m1.worlds), len(m1.worlds) + len(m2.worlds)
    rels = {}
    for i in m1.indices:
        rels[i] = np.zeros((n, n), universe.dtype)
        rels[i][:n1, :n1], rels[i][n1:, n1:] = rels1[i], rels2[i]
    v = np.concatenate(pair.valuations, axis=1)
    tags = _THETA2[SimType(sim_type)] if sim_type else ()
    return biimplication_fold(v.T, v.T, universe.top), _sides(rels, rels, m1.indices, tags)


def union_iterate(pair: LevelPair, sim_type: Optional[SimType], sweeps: int) -> np.ndarray:
    """The iterate of :func:`greatest_pre` after ``sweeps`` Jacobi sweeps,
    or its fixpoint if that comes sooner, for the disjoint union of the
    pair (m1, m2) against itself: a level matrix of the pair's universe
    over the worlds of m1 and then of m2 on both axes.  The union's
    relations are block-diagonal, so a block of an update reads only the
    same block of the previous iterate: the (m1, m2) block is the iterate
    of ``greatest_pre(m1, m2)``.  With no ``sim_type``, no sweep runs and
    this is the biimplication fold of the variables.  :mod:`.weak` reads
    the formula classes off it, and :mod:`.hm` steps it one sweep at a
    time from :func:`_union`.
    """
    phi, sides = _union(pair, sim_type)
    return _sweeps(phi, sides, pair.universe.top, sweeps)[0]
