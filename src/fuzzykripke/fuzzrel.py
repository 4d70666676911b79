"""Dense fuzzy vectors and matrices over a linear Heyting algebra.

A fuzzy relation between finite world sets is a matrix of truth values;
a fuzzy set over a world set is a vector.  Composition is max-min in all
four arities:

    (phi o psi)(a, c) = join_b  phi(a, b) /\\ psi(b, c)
    (f o phi)(b)      = join_a  f(a) /\\ phi(a, b)
    (phi o g)(a)      = join_b  phi(a, b) /\\ g(b)
    f o g             = join_a  f(a) /\\ g(a)

and the inverse of a relation is its transpose.  The module also provides
the four residual updates used by the greatest-(pre)simulation fixpoint
iteration: each returns the entrywise greatest matrix chi such that
replacing phi by phi /\\ chi re-imposes one relational inequality with the
current phi on the right-hand side.  By adjunction that greatest solution
is a meet of residua, e.g. for phi^-1 o R <= R' o phi^-1:

    chi(u, u') = meet_v  R(u, v) -> (R' o phi^-1)(u', v)

All entries stay inside the (finite) set of input values plus {0, 1}, which
is what makes the downstream fixpoint iterations terminate.  The vectors
and matrices here are the exact boundary type: every composition and
update encodes its operands into levels and runs in :mod:`.levels`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Callable, Iterable

from . import levels
from .algebra import Algebra, ONE, ZERO


def _checked_rows(algebra: Algebra, rows: Iterable[Iterable[Fraction]]) -> tuple:
    """The rows as tuples of ``Fraction``, each distinct value checked once.

    Every entry is type-checked (integers become ``Fraction``), but
    ``algebra.check_value`` runs once per distinct value of the whole
    matrix, keyed by ``as_integer_ratio()`` as in :class:`levels.Universe`;
    the first bad entry in row-major order is still the one reported.
    """
    seen = set()
    out = []
    for row in rows:
        checked = []
        for v in row:
            if not isinstance(v, Fraction):
                if not isinstance(v, int):
                    raise TypeError(f"truth values must be Fraction, got {type(v).__name__}")
                v = Fraction(v)
            key = v.as_integer_ratio()
            if key not in seen:
                algebra.check_value(v)
                seen.add(key)
            checked.append(v)
        out.append(tuple(checked))
    return tuple(out)


class FuzzyVec:
    """A fuzzy set over a finite world set: an immutable value vector."""

    __slots__ = ("algebra", "values")

    def __init__(self, algebra: Algebra, values: Iterable[Fraction]):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "values", _checked_rows(algebra, (values,))[0])
        if len(self.values) == 0:
            raise ValueError("fuzzy vector must be nonempty")

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyVec is immutable")

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i) -> Fraction:
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other):
        if not isinstance(other, FuzzyVec):
            return NotImplemented
        return self.algebra == other.algebra and self.values == other.values

    def __hash__(self):
        return hash((self.algebra, self.values))

    def __repr__(self):
        return f"FuzzyVec({[str(v) for v in self.values]})"

    def _check_compatible(self, other: "FuzzyVec") -> None:
        self.algebra.check_same(other.algebra)
        if len(self) != len(other):
            raise ValueError(f"vector length mismatch: {len(self)} vs {len(other)}")

    def compose_mat(self, phi: "FuzzyMat") -> "FuzzyVec":
        """(self o phi)(b) = join_a self(a) /\\ phi(a, b)."""
        self.algebra.check_same(phi.algebra)
        if len(self) != phi.shape[0]:
            raise ValueError(f"dimension mismatch: vector {len(self)} vs matrix {phi.shape}")
        return FuzzyVec(self.algebra, _compose((self.values,), phi.rows)[0])

    def compose_vec(self, other: "FuzzyVec") -> Fraction:
        """self o other = join_a self(a) /\\ other(a)."""
        self._check_compatible(other)
        return _compose((self.values,), tuple(zip(other.values)))[0][0]


class FuzzyMat:
    """A fuzzy relation between two finite world sets: an immutable matrix."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra: Algebra, rows: Iterable[Iterable[Fraction]]):
        checked = _checked_rows(algebra, rows)
        if not checked:
            raise ValueError("fuzzy matrix must have at least one row")
        width = len(checked[0])
        if width == 0 or any(len(r) != width for r in checked):
            raise ValueError("fuzzy matrix rows must be nonempty and equally long")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "rows", checked)

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyMat is immutable")

    @classmethod
    def constant(cls, algebra: Algebra, shape: tuple[int, int], value: Fraction) -> "FuzzyMat":
        k, m = shape
        return cls(algebra, ((value,) * m for _ in range(k)))

    @classmethod
    def zeros(cls, algebra: Algebra, shape: tuple[int, int]) -> "FuzzyMat":
        return cls.constant(algebra, shape, ZERO)

    @classmethod
    def ones(cls, algebra: Algebra, shape: tuple[int, int]) -> "FuzzyMat":
        return cls.constant(algebra, shape, ONE)

    @classmethod
    def identity(cls, algebra: Algebra, size: int) -> "FuzzyMat":
        return cls(
            algebra,
            ((ONE if i == j else ZERO for j in range(size)) for i in range(size)),
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, FuzzyMat):
            return NotImplemented
        return self.algebra == other.algebra and self.rows == other.rows

    def __hash__(self):
        return hash((self.algebra, self.rows))

    def __repr__(self):
        return f"FuzzyMat({[[str(v) for v in row] for row in self.rows]})"

    def _check_compatible(self, other: "FuzzyMat") -> None:
        self.algebra.check_same(other.algebra)
        if self.shape != other.shape:
            raise ValueError(f"matrix shape mismatch: {self.shape} vs {other.shape}")

    def meet(self, other: "FuzzyMat") -> "FuzzyMat":
        self._check_compatible(other)
        return FuzzyMat(
            self.algebra,
            ((min(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def join(self, other: "FuzzyMat") -> "FuzzyMat":
        self._check_compatible(other)
        return FuzzyMat(
            self.algebra,
            ((max(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
        )

    def leq(self, other: "FuzzyMat") -> bool:
        self._check_compatible(other)
        return all(
            a <= b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def inverse(self) -> "FuzzyMat":
        """The inverse relation: the transpose."""
        return FuzzyMat(self.algebra, zip(*self.rows))

    def compose(self, other: "FuzzyMat") -> "FuzzyMat":
        """(self o other)(a, c) = join_b self(a, b) /\\ other(b, c)."""
        self.algebra.check_same(other.algebra)
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"dimension mismatch: {self.shape} o {other.shape}")
        return FuzzyMat(self.algebra, _compose(self.rows, other.rows))

    def compose_vec(self, g: FuzzyVec) -> FuzzyVec:
        """(self o g)(a) = join_b self(a, b) /\\ g(b)."""
        self.algebra.check_same(g.algebra)
        if len(g) != self.shape[1]:
            raise ValueError(f"dimension mismatch: matrix {self.shape} vs vector {len(g)}")
        column = _compose(self.rows, tuple(zip(g.values)))
        return FuzzyVec(self.algebra, (row[0] for row in column))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def min_value(self) -> Fraction:
        return min(v for row in self.rows for v in row)

    def values_used(self) -> set[Fraction]:
        return {v for row in self.rows for v in row}


def nonzero_profile(phi: FuzzyMat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-row and per-column counts of nonzero entries.

    A relation is image-finite when every row count is finite, domain-finite
    when every column count is, and degree-finite when both are; for the
    dense matrices here all counts are finite, and the profile reports them.
    """
    rows = tuple(sum(1 for v in row if v != 0) for row in phi.rows)
    cols = tuple(
        sum(1 for i in range(len(phi.rows)) if phi.rows[i][j] != 0)
        for j in range(len(phi.rows[0]))
    )
    return rows, cols


def _compose(a_rows, b_rows) -> list:
    """Max-min product of two row-major value matrices, through the kernel."""
    universe = levels.Universe(chain(chain.from_iterable(a_rows), chain.from_iterable(b_rows)))
    return universe.decode(levels.compose(universe.encode(a_rows), universe.encode(b_rows)))


# -- residual updates ------------------------------------------------------
#
# Each update takes the two endo-relations R (on the left-hand worlds) and
# Rp (on the right-hand worlds) plus the current iterate phi, and returns
# the greatest chi making the indicated inequality hold for phi /\ chi
# against compositions of the current phi.  The table holds the level
# updates the fixpoint calls each sweep; the public functions below take
# and return exact matrices and go through it.

RESIDUAL_UPDATES: dict[str, Callable] = {
    tag: partial(levels.residual_update, tag) for tag in levels.DIRECTIONS
}


def _update(tag: str, r: FuzzyMat, rp: FuzzyMat, phi: FuzzyMat) -> FuzzyMat:
    r.algebra.check_same(rp.algebra)
    r.algebra.check_same(phi.algebra)
    k, k2 = r.shape
    m, m2 = rp.shape
    if k != k2 or m != m2:
        raise ValueError("relation matrices must be square")
    if phi.shape != (k, m):
        raise ValueError(f"phi shape {phi.shape} does not match relations {(k, m)}")
    universe = levels.Universe(chain.from_iterable(r.rows + rp.rows + phi.rows))
    encode = universe.encode
    chi = RESIDUAL_UPDATES[tag](encode(r.rows), encode(rp.rows), encode(phi.rows), universe.top)
    return FuzzyMat(phi.algebra, universe.decode(chi))


def update_forward(r: FuzzyMat, rp: FuzzyMat, phi: FuzzyMat) -> FuzzyMat:
    """Greatest chi for:  (phi /\\ chi)^-1 o R  <=  R' o phi^-1."""
    return _update("fwd", r, rp, phi)


def update_forward_inv(r: FuzzyMat, rp: FuzzyMat, phi: FuzzyMat) -> FuzzyMat:
    """Greatest chi for:  (phi /\\ chi) o R'  <=  R o phi."""
    return _update("fwd_inv", r, rp, phi)


def update_backward(r: FuzzyMat, rp: FuzzyMat, phi: FuzzyMat) -> FuzzyMat:
    """Greatest chi for:  R o (phi /\\ chi)  <=  phi o R'."""
    return _update("bwd", r, rp, phi)


def update_backward_inv(r: FuzzyMat, rp: FuzzyMat, phi: FuzzyMat) -> FuzzyMat:
    """Greatest chi for:  R' o (phi /\\ chi)^-1  <=  phi^-1 o R."""
    return _update("bwd_inv", r, rp, phi)
