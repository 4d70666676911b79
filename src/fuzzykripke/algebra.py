"""Linearly ordered complete Heyting algebras with exact rational arithmetic.

Three structures are supported, all carried by rationals in [0, 1]:

* ``boolean``   -- the two-element algebra {0, 1},
* ``chain(n)``  -- n equally spaced levels 0 < 1/(n-1) < ... < 1,
* ``godel``     -- the Godel structure on all rationals in [0, 1].

On a linear order the lattice operations collapse to min/max and the
residuum is forced by adjunction:

    x -> z = 1 if x <= z, else z

which is discontinuous at x = z.  Floating point would therefore corrupt
every fixpoint computation built on top of this module, so all values are
`fractions.Fraction` and every operation is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

KINDS = ("boolean", "chain", "godel")


class AlgebraError(ValueError):
    """A value outside the carrier, or operands from different algebras."""


class Algebra:
    """A linearly ordered complete Heyting algebra on rationals in [0, 1].

    Instances are immutable and compare by structure, so two ``chain(5)``
    objects are interchangeable.  Operations assume their operands belong
    to the carrier; membership is enforced at the boundaries (model
    loading, matrix construction, CLI input) via :meth:`check_value`.
    """

    __slots__ = ("kind", "levels")

    def __init__(self, kind: str, levels: int | None = None):
        if kind not in KINDS:
            raise AlgebraError(f"unknown algebra kind {kind!r}")
        if kind == "chain":
            if not isinstance(levels, int) or levels < 2:
                raise AlgebraError("chain algebra needs an integer level count >= 2")
        elif levels is not None:
            raise AlgebraError(f"{kind} algebra takes no level count")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "levels", levels)

    def __setattr__(self, name, value):
        raise AttributeError("Algebra is immutable")

    @classmethod
    def boolean(cls) -> "Algebra":
        return cls("boolean")

    @classmethod
    def chain(cls, levels: int) -> "Algebra":
        return cls("chain", levels)

    @classmethod
    def godel(cls) -> "Algebra":
        return cls("godel")

    @classmethod
    def from_spec(cls, text: str) -> "Algebra":
        """Parse an algebra descriptor: ``boolean``, ``chain:<n>`` or ``godel``."""
        text = text.strip()
        if text == "boolean":
            return cls.boolean()
        if text == "godel":
            return cls.godel()
        if text.startswith("chain:"):
            try:
                n = int(text[len("chain:"):])
            except ValueError:
                raise AlgebraError(f"bad chain level count in {text!r}") from None
            return cls.chain(n)
        raise AlgebraError(f"unknown algebra descriptor {text!r}")

    def spec(self) -> str:
        """The descriptor string accepted by :meth:`from_spec`."""
        if self.kind == "chain":
            return f"chain:{self.levels}"
        return self.kind

    def __eq__(self, other):
        if not isinstance(other, Algebra):
            return NotImplemented
        return self.kind == other.kind and self.levels == other.levels

    def __hash__(self):
        return hash((self.kind, self.levels))

    def __repr__(self):
        return f"Algebra({self.spec()!r})"

    # -- carrier ----------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return self.kind != "godel"

    def carrier(self) -> tuple[Fraction, ...]:
        """All carrier values in ascending order (finite algebras only)."""
        if self.kind == "boolean":
            return (ZERO, ONE)
        if self.kind == "chain":
            n = self.levels
            return tuple(Fraction(k, n - 1) for k in range(n))
        raise AlgebraError("the godel carrier is infinite")

    def contains(self, value: Fraction) -> bool:
        if not isinstance(value, Fraction):
            return False
        # tested on the reduced integer pair (den > 0): Fraction arithmetic
        # and comparisons cost several times more
        num, den = value.as_integer_ratio()
        if num < 0 or num > den:
            return False
        if self.kind == "boolean":
            return num == 0 or num == den
        if self.kind == "chain":
            return num * (self.levels - 1) % den == 0
        return True

    def check_value(self, value: Fraction) -> Fraction:
        """Return ``value`` if it belongs to the carrier, else raise."""
        if not self.contains(value):
            raise AlgebraError(f"value {value} is not in the {self.spec()} carrier")
        return value

    def check_same(self, other: "Algebra") -> None:
        if self != other:
            raise AlgebraError(
                f"mixed algebras: {self.spec()} vs {other.spec()}"
            )

    # -- operations -------------------------------------------------------
    #
    # On a linear order these are total and closed: meet/join return one of
    # their operands and the residuum returns 1 or its second operand.

    def meet(self, x: Fraction, y: Fraction) -> Fraction:
        return x if x <= y else y

    def join(self, x: Fraction, y: Fraction) -> Fraction:
        return x if x >= y else y

    def residuum(self, x: Fraction, z: Fraction) -> Fraction:
        """The greatest y with meet(x, y) <= z."""
        return ONE if x <= z else z

    def biimplication(self, x: Fraction, y: Fraction) -> Fraction:
        return self.meet(self.residuum(x, y), self.residuum(y, x))


VALUE_PATTERN = r"\d+(?:\.\d+|/\d+)?"
"""How a truth value is spelled, in model files and formula constants alike."""

# VALUE_PATTERN with its integer part, decimals and denominator as groups
_VALUE = re.compile(r"(\d+)(?:\.(\d+)|/(\d+))?")


def parse_value(text: str) -> Fraction:
    """Parse an exact decimal (or p/q) truth value string, spelled as
    :data:`VALUE_PATTERN` says; surrounding whitespace is ignored.

    ``"0.3"`` becomes Fraction(3, 10) exactly; no float ever enters.  The
    digit groups are converted one by one, as ``Fraction(text)`` converts
    them, so a group of more digits than Python converts to an integer is
    refused here exactly where ``Fraction`` would refuse it.
    """
    text = text.strip()
    match = _VALUE.fullmatch(text)
    if match is None:
        raise AlgebraError(f"malformed truth value {text!r}")
    whole, decimals, denominator = match.groups()
    try:
        num = int(whole)
        if denominator is not None:
            den = int(denominator)
        elif decimals is None:
            den = 1
        else:
            den = 10 ** len(decimals)
            num = num * den + int(decimals)
    except ValueError:  # more digits than Python converts to an integer
        raise AlgebraError(f"malformed truth value {text!r}") from None
    if den == 0:
        raise AlgebraError(f"truth value {text!r} has a zero denominator")
    if num > den:
        raise AlgebraError(f"truth value {text!r} is outside [0, 1]")
    return Fraction(num, den)


def format_value(value: Fraction) -> str:
    """Render a Fraction as the shortest exact decimal, or p/q if impossible."""
    den = value.denominator
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{value.numerator}/{den}"
    digits = max(twos, fives)
    if digits == 0:
        return str(value.numerator)
    scaled = value.numerator * 10**digits // den
    text = str(scaled).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"
