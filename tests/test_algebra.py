"""Arithmetic laws of the linear Heyting carriers, with independent oracles."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzykripke.algebra import (
    ONE,
    ZERO,
    Algebra,
    AlgebraError,
    format_value,
    parse_value,
)

GODEL = Algebra.godel()
CHAIN5 = Algebra.chain(5)


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 60), 60)


def random_samples(n: int) -> list:
    rng = random.Random(5711)
    return [rational(rng) for _ in range(n)]


# -- adjunction ---------------------------------------------------------------


def adjunction_holds(alg, x, y, z) -> bool:
    return (alg.meet(x, y) <= z) == (x <= alg.residuum(y, z))


def test_adjunction_exhaustive_on_chain5():
    carrier = CHAIN5.carrier()
    assert len(carrier) == 5
    for x, y, z in itertools.product(carrier, repeat=3):
        assert adjunction_holds(CHAIN5, x, y, z)


def test_adjunction_on_random_rationals():
    samples = random_samples(3200)  # > 1000 triples
    triples = list(zip(samples[0::3], samples[1::3], samples[2::3]))
    assert len(triples) >= 1000
    for x, y, z in triples:
        assert adjunction_holds(GODEL, x, y, z)


def test_residuum_is_the_greatest_adjoint_solution():
    # r = y -> z must satisfy min(r, y) <= z and dominate every other solution
    rng = random.Random(97)
    for _ in range(500):
        y, z = rational(rng), rational(rng)
        r = GODEL.residuum(y, z)
        assert GODEL.meet(r, y) <= z
        for _ in range(20):
            x = rational(rng)
            assert (GODEL.meet(x, y) <= z) == (x <= r)


def test_residuum_against_brute_force_on_small_chains():
    # on a finite chain the residuum is computable by exhaustive search
    for n in (2, 3, 4, 5):
        alg = Algebra.chain(n)
        carrier = alg.carrier()
        for y, z in itertools.product(carrier, repeat=2):
            best = max(x for x in carrier if alg.meet(x, y) <= z)
            assert alg.residuum(y, z) == best


# -- the Heyting identities and linearity ------------------------------------


def identity_suite(alg, x, y, z):
    res, meet, join = alg.residuum, alg.meet, alg.join
    assert res(x, x) == ONE
    assert meet(res(x, y), y) == y
    assert meet(x, res(x, y)) == meet(x, y)
    assert res(x, meet(y, z)) == meet(res(x, y), res(x, z))
    assert res(join(x, y), z) == meet(res(x, z), res(y, z))
    assert join(res(x, y), res(y, x)) == ONE  # linearity


def test_identities_exhaustive_on_chain5():
    for x, y, z in itertools.product(CHAIN5.carrier(), repeat=3):
        identity_suite(CHAIN5, x, y, z)


def test_identities_on_random_rationals():
    samples = random_samples(3000)
    for x, y, z in zip(samples[0::3], samples[1::3], samples[2::3]):
        identity_suite(GODEL, x, y, z)


def test_biimplication_shape_on_chains():
    # 1 when equal, otherwise the smaller value; and always the two-residua meet
    rng = random.Random(12)
    for _ in range(800):
        x, y = rational(rng), rational(rng)
        b = GODEL.biimplication(x, y)
        assert b == GODEL.meet(GODEL.residuum(x, y), GODEL.residuum(y, x))
        if x == y:
            assert b == ONE
        else:
            assert b == min(x, y)


def test_implication_exchange_inequality_fails():
    # (x1 -> y1) /\ (x2 -> y2) <= (x1 -> x2) /\ (y1 -> y2) has a witness
    # against it: the quadruple below gives 1 on the left, 0.6 on the right
    x1, y1, x2, y2 = map(Fraction, ("0.7", "0.8", "0.6", "0.7"))
    lhs = GODEL.meet(GODEL.residuum(x1, y1), GODEL.residuum(x2, y2))
    rhs = GODEL.meet(GODEL.residuum(x1, x2), GODEL.residuum(y1, y2))
    assert lhs == ONE
    assert rhs == Fraction("0.6")
    assert not lhs <= rhs


# -- carriers and validation --------------------------------------------------


def test_chain_carrier_is_equidistant():
    assert Algebra.chain(3).carrier() == (ZERO, Fraction(1, 2), ONE)
    assert Algebra.boolean().carrier() == (ZERO, ONE)
    assert CHAIN5.carrier() == tuple(Fraction(k, 4) for k in range(5))


def test_chain_rejects_off_carrier_values():
    alg = Algebra.chain(3)
    assert alg.contains(Fraction(1, 2))
    assert not alg.contains(Fraction(1, 3))
    with pytest.raises(AlgebraError):
        alg.check_value(Fraction(1, 3))


def test_godel_accepts_any_unit_rational():
    assert GODEL.contains(Fraction(7, 13))
    with pytest.raises(AlgebraError):
        GODEL.check_value(Fraction(3, 2))


def test_algebra_spec_round_trip():
    for spec in ("boolean", "godel", "chain:7"):
        assert Algebra.from_spec(spec).spec() == spec
    with pytest.raises(AlgebraError):
        Algebra.from_spec("lukasiewicz")
    with pytest.raises(AlgebraError):
        Algebra.from_spec("chain:1")


def test_mixed_algebra_operations_are_rejected():
    with pytest.raises(AlgebraError):
        GODEL.check_same(Algebra.chain(3))


# -- value parsing and printing ----------------------------------------------


def test_parse_value_is_exact():
    assert parse_value("0.3") == Fraction(3, 10)
    assert parse_value("1") == ONE
    assert parse_value("0.25") == Fraction(1, 4)
    assert parse_value("2/3") == Fraction(2, 3)
    for bad in ("1.5", "-0.1", "x", "", "1/0"):
        with pytest.raises(AlgebraError):
            parse_value(bad)
    # surrounding whitespace is stripped; the spelling itself is digits with
    # a fraction part or a denominator, as a formula constant is spelled
    assert parse_value(" 0.50 ") == Fraction(1, 2)
    assert parse_value("3/6") == Fraction(1, 2)
    assert parse_value("0/7") == ZERO
    for bad in ("1e-200000", "5e-1", "-0", "+0.5", "1_0", "0.1_0", ".5", "5.", "1/ 2", "0x1"):
        with pytest.raises(AlgebraError, match=r"^malformed truth value"):
            parse_value(bad)
    with pytest.raises(AlgebraError, match=r"^truth value '1/0' has a zero denominator$"):
        parse_value("1/0")
    with pytest.raises(AlgebraError, match=r"^truth value '3/2' is outside \[0, 1\]$"):
        parse_value("3/2")
    # more digits than Python converts to an integer
    with pytest.raises(AlgebraError, match=r"^malformed truth value"):
        parse_value("0." + "1" * 5000)


def test_format_value_prefers_short_decimals():
    assert format_value(Fraction(3, 10)) == "0.3"
    assert format_value(ONE) == "1"
    assert format_value(ZERO) == "0"
    assert format_value(Fraction(1, 4)) == "0.25"
    assert format_value(Fraction(1, 8)) == "0.125"
    assert format_value(Fraction(1, 3)) == "1/3"


@given(
    st.fractions(
        min_value=0, max_value=1, max_denominator=10**6
    )
)
@settings(max_examples=300)
def test_format_parse_round_trip(value):
    assert parse_value(format_value(value)) == value


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=200),
    st.fractions(min_value=0, max_value=1, max_denominator=200),
    st.fractions(min_value=0, max_value=1, max_denominator=200),
)
@settings(max_examples=400)
def test_adjunction_property(x, y, z):
    assert adjunction_holds(GODEL, x, y, z)


def test_malformed_algebras_and_the_godel_carrier_are_refused():
    with pytest.raises(AlgebraError, match="^unknown algebra kind 'foo'$"):
        Algebra("foo")
    with pytest.raises(AlgebraError, match="^godel algebra takes no level count$"):
        Algebra("godel", 3)
    with pytest.raises(AlgebraError, match="^the godel carrier is infinite$"):
        GODEL.carrier()


def test_an_algebra_is_immutable():
    with pytest.raises(AttributeError, match="^Algebra is immutable$"):
        CHAIN5.levels = 3
    assert CHAIN5 == Algebra.chain(5)
