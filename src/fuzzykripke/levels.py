"""The level-encoded max-min calculus: the numeric kernel of the library.

On a linearly ordered carrier, meet, join, the residuum and max-min
composition only compare and select values; they never make a new one.
So every computation over a model pair can run on *levels*: the ranks of
the values in the sorted set of values that occur (the value universe,
always holding 0 and 1).  Level arrays are small unsigned numpy integers;
:class:`Universe` maps exact ``Fraction`` values to levels and back, and
every vector and matrix carries its levels over a universe.  The
universe of several operands is the :func:`union` of theirs, and
:meth:`Universe.recode` moves a level array into it: an encode of the
source universe's values, then one take.  Values are formatted once per
universe.

On levels the residuum is top where ``x <= z`` and z elsewhere (``top``
is the level of 1), composition is ``max`` over ``min``, and the greatest
solutions of relational inequalities are meets of residua: the one
residual update here, :func:`forward_update`, serves every direction of
the -2 condition once :mod:`.bisim` has oriented its arguments.
Composition, the folds and the update take an optional leading stack
axis, so that one call serves every relation of a kind.  They run one
block loop: a broadcast of shape (s, k, m, n) is cut along the contracted
axis n into blocks of at most :data:`BATCH` elements (more only when the
stacked result itself is larger), so one that fits in a block is reduced
in one call.

The loop has two layouts.  The blocks are (s, k, m, n), n innermost,
unless an output axis is more than :data:`_LONG` times n, as when a
modality is applied to many formula classes of a small model.  Then that
axis goes innermost, (s, k, n, m) or, with the operands swapped, (s, m,
n, k), read from a contiguous copy of its operand (the size of the input,
not of a block), and n is reduced at axis -2, so numpy runs a few loops
of length m (or k), not k * m loops of length n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Iterable

import numpy as np

from .algebra import ONE, ZERO, format_value

BATCH = 1 << 23
"""Elements per broadcast block: bounds the memory of every (s, k, m, n) temporary."""

_LONG = 8
"""An output axis longer than this many times the contracted axis goes
innermost in the broadcast blocks.  On a box and a diamond over F classes
of a 3-world model (2-core Xeon, numpy 2.4.6), the long-axis layout breaks even near F = 24 (this
rule's edge) and takes 0.6-0.7 of the time at F = 64, 0.09 at F = 1,072;
below the edge its copy costs more than the longer loops save."""

MAX_VALUES = 1 << 16
"""The most values a universe holds, so that its levels fit in ``uint16``."""


class ModelError(ValueError):
    """A malformed model file or an ill-posed model operation."""


class Universe:
    """A sorted value universe with level encoding and decoding."""

    __slots__ = ("values", "dtype", "top", "_level", "_objects", "_texts")

    def __init__(self, values: Iterable[Fraction]):
        # values are keyed by (numerator, denominator): hashing a Fraction
        # costs several times more than hashing that pair
        by_key = {v.as_integer_ratio(): v for v in values}
        by_key.setdefault((0, 1), ZERO)
        by_key.setdefault((1, 1), ONE)
        if len(by_key) > MAX_VALUES:
            raise ModelError(f"value universe of {len(by_key)} values is too large")
        # int true division is correctly rounded, so the float is a monotone
        # key; values it cannot tell apart are ordered by exact comparison
        keys = sorted(by_key, key=lambda k: (k[0] / k[1], by_key[k]))
        self.values: tuple[Fraction, ...] = tuple(map(by_key.__getitem__, keys))
        self.dtype = np.dtype(np.uint8 if len(keys) <= 1 << 8 else np.uint16)
        self.top = self.dtype.type(len(keys) - 1)
        self._level = {key: i for i, key in enumerate(keys)}
        self._objects = np.array(self.values, dtype=object)
        self._texts = None

    def __len__(self):
        return len(self.values)

    def encode(self, values: Iterable[Fraction]) -> np.ndarray:
        """The level vector of ``values``, which must all be in the universe."""
        level = self._level
        return np.array([level[v.as_integer_ratio()] for v in values], dtype=self.dtype)

    def decode(self, levels: np.ndarray) -> list:
        """The values of a level array, as nested lists of the same shape."""
        return self._objects[levels].tolist()

    def format(self, levels: np.ndarray) -> list:
        """The values of a level array as exact decimal strings, in nested
        lists of the same shape; each value is formatted once per universe."""
        if self._texts is None:
            self._texts = np.array([format_value(v) for v in self.values], dtype=object)
        return self._texts[levels].tolist()

    def recode(self, source: "Universe", levels: np.ndarray) -> np.ndarray:
        """A level array of ``source`` as levels of this universe, which must
        hold every value of ``source``: an encode of the values of
        ``source``, then one take through that remap."""
        if source is self:
            return levels
        return self.encode(source.values)[levels]


def union(universes: Iterable[Universe], values: Iterable[Fraction] = ()) -> Universe:
    """The universe of every value of ``universes`` and of ``values``.

    When the first universe already holds them all it is returned itself,
    so that its level arrays need no remapping.  Otherwise the new one is
    built from the sorted tables one after the other, so its sort mostly
    merges sorted runs.
    """
    first, *rest = universes
    values = tuple(values)
    level = first._level
    if all(
        key in level for u in rest if u is not first for key in u._level
    ) and all(v.as_integer_ratio() in level for v in values):
        return first
    return Universe(chain(first.values, *(u.values for u in rest), values))


# Both select top where a comparison holds, written as a max with top times
# the comparison: numpy runs that several times faster than ``where`` with
# a scalar, on small broadcasts and on large arrays alike.


def residuum(x: np.ndarray, z: np.ndarray, top) -> np.ndarray:
    """Entrywise ``x -> z``: the greatest y with ``min(x, y) <= z``, that is
    top where ``x <= z`` and z elsewhere."""
    return np.maximum(z, np.multiply(x <= z, top, dtype=z.dtype))


def biimplication(x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """Entrywise ``(x -> y) /\\ (y -> x)``: top where ``x == y``, the meet
    elsewhere."""
    return np.maximum(np.minimum(x, y), np.multiply(x == y, top, dtype=x.dtype))


def _contract(pair, reduce, identity, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``out(i, j) = reduce_v pair(x(i, v), y(j, v))``, and ``identity`` for
    an empty v axis, in blocks of either layout of the module docstring.
    Either operand may carry a leading stack axis (both the same one): the
    result is then the stack of the slices' results."""
    *_, k, n = x.shape
    m = y.shape[-2]
    long = _LONG * n < max(k, m)
    if long and m < k:
        return _contract(lambda b, a: pair(a, b), reduce, identity, y, x).swapaxes(-1, -2)
    # elements of the broadcast per entry of the contracted axis
    size = max(math.prod(x.shape[:-2]), math.prod(y.shape[:-2])) * k * m
    step = max(1, BATCH // max(size, 1))
    if long:
        y, axis = np.ascontiguousarray(y.swapaxes(-1, -2)), -2
        blocks = lambda lo, hi: (x[..., lo:hi, None], y[..., None, lo:hi, :])
    else:
        axis = -1
        blocks = lambda lo, hi: (x[..., None, lo:hi], y[..., None, :, lo:hi])
    out = None
    # one pass at least, so that an empty v axis still gives the identity
    for lo in range(0, max(n, 1), step):
        part = reduce.reduce(pair(*blocks(lo, lo + step)), axis=axis, initial=identity)
        out = part if out is None else reduce(out, part, out=out)
    return out


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-min composition ``(a o b)(i, j) = max_t min(a(i, t), b(t, j))``.

    Either operand may carry a leading stack axis (both the same one):
    the result is then the stack of the compositions of the slices.
    """
    return _contract(np.minimum, np.maximum, 0, a, b.swapaxes(-1, -2))


def residual_fold(x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """The meet of residua ``out(i, j) = min_v x(i, v) -> y(j, v)``,
    stacked like :func:`compose`.

    An empty contracted axis gives ``top`` everywhere, the empty meet.
    """
    return _contract(partial(residuum, top=top), np.minimum, top, x, y)


def biimplication_fold(x: np.ndarray, y: np.ndarray, top) -> np.ndarray:
    """The meet of biimplications ``out(i, j) = min_v x(i, v) <-> y(j, v)``,
    stacked like :func:`compose`."""
    return _contract(partial(biimplication, top=top), np.minimum, top, x, y)


def modal(rel: np.ndarray, vecs: np.ndarray, top, *, box: bool, inverse: bool) -> np.ndarray:
    """One modality with relation ``rel`` applied to every row of ``vecs``:
    a box (meet of residua) or a diamond (join of meets), along ``rel`` or,
    when ``inverse``, along its converse.  Row f of the result is the value
    vector of the modality applied to row f."""
    if inverse:
        rel = rel.T
    if box:
        return residual_fold(rel, vecs, top).T
    return compose(vecs, rel.T)


def forward_update(r: np.ndarray, rp: np.ndarray, phi: np.ndarray, top) -> np.ndarray:
    """Greatest chi with  ``(phi /\\ chi)^-1 o R_s  <=  R'_s o phi^-1``  for
    every slice s of the stacks ``r`` and ``rp``: the meet of the per-slice
    updates, each by adjunction ``chi(u, u') = min_v R(u, v) -> (R' o
    phi^-1)(u', v)``.  The other -2 directions are this one on the
    arguments that :mod:`.bisim` orients."""
    return residual_fold(r, compose(rp, phi.T), top).min(axis=0)
