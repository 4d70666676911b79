"""Dense fuzzy vectors and matrices over a linear Heyting algebra.

A fuzzy relation between finite world sets is a matrix of truth values;
a fuzzy set over a world set is a vector.  Composition is max-min in all
four arities:

    (phi o psi)(a, c) = join_b  phi(a, b) /\\ psi(b, c)
    (f o phi)(b)      = join_a  f(a) /\\ phi(a, b)
    (phi o g)(a)      = join_b  phi(a, b) /\\ g(b)
    f o g             = join_a  f(a) /\\ g(a)

and the inverse of a relation is its transpose.  The module also holds
``RESIDUAL_UPDATES``, whose one entry ``"fwd"`` is the level residual
update of the greatest-(pre)simulation fixpoint (the other directions are
the same update on arguments that :mod:`.bisim` transposes or swaps): the
entrywise greatest chi such that phi /\\ chi satisfies the forward
inequality phi^-1 o R <= R' o phi^-1 against the current phi, for a whole
stack of relation pairs at once.  By adjunction it is a meet of residua:

    chi(u, u') = meet_v  R(u, v) -> (R' o phi^-1)(u', v)

All entries stay inside the (finite) set of input values plus {0, 1}, which
is what makes the downstream fixpoint iterations terminate.

A vector or matrix stores a ``uint8``/``uint16`` level array over a sorted
value table, a :class:`levels.Universe` that may hold values the entries do
not use.  ``values`` and ``rows`` decode to ``Fraction`` lazily, and
equality and hashing are by value.  Built from values, each entry is
type-checked (an ``int`` becomes a ``Fraction``; a ``bool`` is refused,
not read as 0 or 1) and each distinct value is checked against the
carrier once, in one pass that hands the values to the universe; inside
the library they are built from levels whose values are already checked,
with no pass over the entries.  Every operation runs in
:mod:`.levels` on the operands' levels in the union of their tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import levels
from .algebra import Algebra, ZERO


def _encode(algebra: Algebra, rows: Iterable[Iterable[Fraction]]) -> tuple:
    """The levels of the entries of ``rows`` in row-major order, the row
    lengths and the universe of the values.  Each entry is type-checked,
    and each distinct value is checked against the carrier once, in order
    of first occurrence, so the first bad entry is the one reported."""
    values, lengths, seen = [], [], set()
    for row in rows:
        start = len(values)
        for v in row:
            if not isinstance(v, Fraction):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TypeError(f"truth values must be Fraction, got {type(v).__name__}")
                v = Fraction(v)
            key = v.as_integer_ratio()
            if key not in seen:
                algebra.check_value(v)
                seen.add(key)
            values.append(v)
        lengths.append(len(values) - start)
    universe = levels.Universe(values)
    return universe.encode(values), lengths, universe


def _matrix_ids(flat, lengths: list) -> np.ndarray:
    """An array of indices or levels, read row by row, as rows of the given
    ``lengths`` (its dtype kept), once they are known to be a nonempty matrix."""
    if not lengths:
        raise ValueError("fuzzy matrix must have at least one row")
    width = lengths[0]
    if width == 0 or lengths.count(width) != len(lengths):
        raise ValueError("fuzzy matrix rows must be nonempty and equally long")
    return flat.reshape(len(lengths), width)


def _common(*operands) -> tuple:
    """The union universe of the operands and their levels in it."""
    universe = levels.union(x.universe for x in operands)
    return universe, [universe.recode(x.universe, x.levels) for x in operands]


class _Leveled:
    """A read-only level array over a value table: what vectors and
    matrices share."""

    __slots__ = ("algebra", "levels", "universe", "_decoded")

    def _init(self, algebra: Algebra, lv: np.ndarray, universe: levels.Universe) -> None:
        lv.flags.writeable = False
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "_decoded", None)

    @classmethod
    def _from_levels(cls, algebra: Algebra, lv: np.ndarray, universe: levels.Universe):
        """The vector or matrix of the nonempty level array ``lv`` of
        ``universe``, whose values the caller has checked against ``algebra``.

        Library use only: nothing here is checked, and ``lv`` is made
        read-only in place."""
        new = object.__new__(cls)
        new._init(algebra, lv, universe)
        return new

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _decode(self) -> tuple:
        if self._decoded is None:
            decoded = self.universe.decode(self.levels)
            if self.levels.ndim == 2:
                decoded = map(tuple, decoded)
            object.__setattr__(self, "_decoded", tuple(decoded))
        return self._decoded

    def format(self) -> list:
        """The entries as exact decimal strings, nested like ``levels``."""
        return self.universe.format(self.levels)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.algebra != other.algebra or self.levels.shape != other.levels.shape:
            return False
        _, (a, b) = _common(self, other)
        return bool(np.array_equal(a, b))

    def __hash__(self):
        return hash((self.algebra, self._decode()))

    def _compose(self, other):
        """Max-min composition in every arity: a vector on the left is read
        as one row, a vector on the right as one column.  Two matrices give
        a matrix, a vector and a matrix a vector, two vectors one value."""
        self.algebra.check_same(other.algebra)
        a, b = self.levels.shape, other.levels.shape
        if a[-1] != b[0]:
            raise ValueError(f"dimension mismatch: {a} o {b}")
        universe, (x, y) = _common(self, other)
        lv = levels.compose(x.reshape(-1, b[0]), y.reshape(b[0], -1)).reshape(a[:-1] + b[1:])
        if lv.ndim == 0:
            return universe.values[lv]
        return (FuzzyVec, FuzzyMat)[lv.ndim - 1]._from_levels(self.algebra, lv, universe)


class FuzzyVec(_Leveled):
    """A fuzzy set over a finite world set: an immutable value vector."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, values: Iterable[Fraction]):
        lv, _, universe = _encode(algebra, (values,))
        if not len(lv):
            raise ValueError("fuzzy vector must be nonempty")
        self._init(algebra, lv, universe)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return self._decode()

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, i) -> Fraction:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return f"FuzzyVec({[str(v) for v in self.values]})"

    compose_mat = compose_vec = _Leveled._compose


class FuzzyMat(_Leveled):
    """A fuzzy relation between two finite world sets: an immutable matrix."""

    __slots__ = ()

    def __init__(self, algebra: Algebra, rows: Iterable[Iterable[Fraction]]):
        lv, lengths, universe = _encode(algebra, rows)
        self._init(algebra, _matrix_ids(lv, lengths), universe)

    @classmethod
    def constant(cls, algebra: Algebra, shape: tuple[int, int], value: Fraction) -> "FuzzyMat":
        k, m = shape
        return cls(algebra, ((value,) * m for _ in range(k)))

    @classmethod
    def zeros(cls, algebra: Algebra, shape: tuple[int, int]) -> "FuzzyMat":
        return cls.constant(algebra, shape, ZERO)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._decode()

    @property
    def shape(self) -> tuple[int, int]:
        return self.levels.shape

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.universe.values[self.levels[i, j]]

    def __repr__(self):
        return f"FuzzyMat({[[str(v) for v in row] for row in self.rows]})"

    def _operands(self, other: "FuzzyMat") -> tuple:
        """``_common`` of two matrices of one algebra and one shape."""
        self.algebra.check_same(other.algebra)
        if self.shape != other.shape:
            raise ValueError(f"matrix shape mismatch: {self.shape} vs {other.shape}")
        return _common(self, other)

    def meet(self, other: "FuzzyMat") -> "FuzzyMat":
        universe, (a, b) = self._operands(other)
        return FuzzyMat._from_levels(self.algebra, np.minimum(a, b), universe)

    def join(self, other: "FuzzyMat") -> "FuzzyMat":
        universe, (a, b) = self._operands(other)
        return FuzzyMat._from_levels(self.algebra, np.maximum(a, b), universe)

    def leq(self, other: "FuzzyMat") -> bool:
        _, (a, b) = self._operands(other)
        return bool((a <= b).all())

    def inverse(self) -> "FuzzyMat":
        """The inverse relation: the transpose."""
        return FuzzyMat._from_levels(self.algebra, self.levels.T, self.universe)

    compose = compose_vec = _Leveled._compose

    def is_zero(self) -> bool:
        return not self.levels.any()


def nonzero_profile(phi: FuzzyMat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-row and per-column counts of nonzero entries.

    A relation is image-finite when every row count is finite, domain-finite
    when every column count is, and degree-finite when both are; for the
    dense matrices here all counts are finite, and the profile reports them.
    """
    nonzero = phi.levels != 0
    return tuple(nonzero.sum(axis=1).tolist()), tuple(nonzero.sum(axis=0).tolist())


# -- the residual update ----------------------------------------------------
#
# The fixpoint looks the update up in this table at call time, once per side
# and sweep, so that a tracer can wrap the table's value.

RESIDUAL_UPDATES: dict[str, Callable] = {"fwd": levels.forward_update}
