"""The level-encoded max-min calculus: the numeric kernel of the library.

On a linearly ordered carrier, meet, join, the residuum and max-min
composition only compare and select values; they never make a new one.
So every computation over a model pair can run on *levels*: the ranks of
the values in the sorted set of values that occur (the value universe,
always holding 0 and 1).  Level arrays are small unsigned numpy integers;
:class:`Universe` encodes exact ``Fraction`` values into levels and
decodes them back, once, at the boundary.

On levels the residuum is ``where(x <= z, top, z)`` (``top`` is the level
of 1), composition is ``max`` over ``min``, and the greatest solutions of
relational inequalities are meets of residua.  Every broadcast block of
shape (k, n, m) is cut along the contracted axis so that it holds at most
:data:`BATCH` elements (more only when the result itself is larger).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .algebra import ONE, ZERO

BATCH = 1 << 23
"""Elements per broadcast block: bounds the memory of every (k, n, m) temporary."""


class Universe:
    """A sorted value universe with level encoding and decoding."""

    __slots__ = ("values", "dtype", "top", "_level", "_objects")

    def __init__(self, values: Iterable[Fraction]):
        # values are keyed by (numerator, denominator): hashing a Fraction
        # costs several times more than hashing that pair
        keys = {v.as_integer_ratio() for v in values}
        ordered = sorted({ZERO, ONE}.union(Fraction(*k) for k in keys))
        if len(ordered) > 1 << 16:
            raise ValueError(f"value universe of {len(ordered)} values is too large")
        self.values: tuple[Fraction, ...] = tuple(ordered)
        self.dtype = np.dtype(np.uint8 if len(ordered) <= 1 << 8 else np.uint16)
        self.top = self.dtype.type(len(ordered) - 1)
        self._level = {v.as_integer_ratio(): i for i, v in enumerate(ordered)}
        self._objects = np.array(ordered, dtype=object)

    def __len__(self):
        return len(self.values)

    def encode(self, rows) -> np.ndarray:
        """The level array of a value vector, or of a matrix given as rows."""
        level = self._level
        rows = list(rows)
        if rows and not isinstance(rows[0], Fraction):
            return np.array(
                [[level[v.as_integer_ratio()] for v in row] for row in rows], dtype=self.dtype
            )
        return np.array([level[v.as_integer_ratio()] for v in rows], dtype=self.dtype)

    def decode(self, levels: np.ndarray) -> list:
        """The values of a level array, as nested lists of the same shape."""
        return self._objects[levels].tolist()


def residuum(x: np.ndarray, z: np.ndarray, top) -> np.ndarray:
    """Entrywise ``x -> z``: the greatest y with ``min(x, y) <= z``."""
    return np.where(x <= z, top, z)


def biimplication(x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """Entrywise ``(x -> y) /\\ (y -> x)``."""
    return np.where(x == y, top, np.minimum(x, y))


def _step(k: int, m: int) -> int:
    return max(1, BATCH // max(1, k * m))


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-min composition ``(a o b)(i, j) = max_t min(a(i, t), b(t, j))``."""
    k, n = a.shape
    m = b.shape[1]
    out = np.zeros((k, m), dtype=a.dtype)
    step = _step(k, m)
    for lo in range(0, n, step):
        block = np.minimum(a[:, lo : lo + step, None], b[None, lo : lo + step, :])
        np.maximum(out, block.max(axis=1), out=out)
    return out


def residual_fold(x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """The meet of residua ``out(i, j) = min_v x(i, v) -> y(j, v)``.

    An empty contracted axis gives ``top`` everywhere, the empty meet.
    """
    k, n = x.shape
    m = y.shape[0]
    out = np.full((k, m), top, dtype=x.dtype)
    step = _step(k, m)
    for lo in range(0, n, step):
        block = residuum(x[:, None, lo : lo + step], y[None, :, lo : lo + step], top)
        np.minimum(out, block.min(axis=2), out=out)
    return out


def biimplication_fold(x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """The meet of biimplications ``out(i, j) = min_v x(i, v) <-> y(j, v)``."""
    return np.minimum(residual_fold(x, y, top), residual_fold(y, x, top).T)


def modal(op: str, rel: np.ndarray, vecs: np.ndarray, top) -> np.ndarray:
    """One modality with relation ``rel`` applied to every row of ``vecs``.

    ``op`` is ``diamond``, ``box``, ``diamondinv`` or ``boxinv``; row f of
    the result is the value vector of the operator applied to row f.
    """
    if op.endswith("inv"):
        rel = rel.T
    if op.startswith("box"):
        return residual_fold(rel, vecs, top).T
    return compose(vecs, rel.T)


def first_violation(lhs: np.ndarray, rhs: np.ndarray) -> Optional[tuple[int, ...]]:
    """The first index, in row-major order, where ``lhs > rhs``, or None."""
    bad = lhs > rhs
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))


# -- residual updates ------------------------------------------------------
#
# The forward update is the greatest chi with
#     (phi /\ chi)^-1 o R  <=  R' o phi^-1,
# which by adjunction is  chi(u, u') = min_v R(u, v) -> (R' o phi^-1)(u', v).
# The other three directions are the forward one on reoriented arguments:
#     bwd(R, R', phi)     = fwd(R^T, R'^T, phi)
#     fwd_inv(R, R', phi) = fwd(R', R, phi^T)^T
#     bwd_inv(R, R', phi) = fwd(R'^T, R^T, phi^T)^T
# so each direction is a row (transpose the relations, swap the sides).

DIRECTIONS = {
    "fwd": (False, False),
    "fwd_inv": (False, True),
    "bwd": (True, False),
    "bwd_inv": (True, True),
}


def orient(tag: str, r: np.ndarray, rp: np.ndarray, phi: np.ndarray):
    """The arguments of direction ``tag`` rewritten for the forward form."""
    transpose, swap = DIRECTIONS[tag]
    if transpose:
        r, rp = r.T, rp.T
    if swap:
        r, rp, phi = rp, r, phi.T
    return r, rp, phi


def forward_update(r: np.ndarray, rp: np.ndarray, phi: np.ndarray, top) -> np.ndarray:
    """Greatest chi with  ``(phi /\\ chi)^-1 o R  <=  R' o phi^-1``."""
    return residual_fold(r, compose(rp, phi.T), top)


def residual_update(tag: str, r: np.ndarray, rp: np.ndarray, phi: np.ndarray, top) -> np.ndarray:
    """The residual update of direction ``tag``, in the orientation of ``phi``."""
    chi = forward_update(*orient(tag, r, rp, phi), top)
    return chi.T if DIRECTIONS[tag][1] else chi
