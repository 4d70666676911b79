"""Shared helpers: frozen expectations, random generators, formatting."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fuzzykripke.algebra import Algebra, format_value
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.model import KripkeModel

EXPECTED_DIR = Path(__file__).resolve().parents[1] / "src" / "fuzzykripke" / "fixtures" / "expected"


def expected(name: str) -> dict:
    """The frozen results bundle for one fixture pair."""
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8"))


def grid(mat: FuzzyMat) -> list:
    """A FuzzyMat as nested decimal strings, the form used in frozen files."""
    return [[format_value(v) for v in row] for row in mat.rows]


def vec_strs(vec) -> list:
    return [format_value(v) for v in vec]


def fr(text: str) -> Fraction:
    return Fraction(text)


def ones(algebra: Algebra, shape: tuple) -> FuzzyMat:
    """The full relation: 1 everywhere."""
    return FuzzyMat.constant(algebra, shape, Fraction(1))


def identity(algebra: Algebra, size: int) -> FuzzyMat:
    """The identity relation on ``size`` worlds."""
    return FuzzyMat(algebra, [[Fraction(int(i == j)) for j in range(size)] for i in range(size)])


# dense-carrier sampling pool for tests that enumerate formula classes: the
# class space grows with the number of distinct values, so those tests share
# one small set of constants instead of drawing fresh ones per model
GODEL_ENUM_POOL = (Fraction(0), Fraction(3, 10), Fraction(7, 10), Fraction(1))


def random_values(rng: random.Random, algebra: Algebra, count: int, pool=None) -> list:
    """Sample ``count`` carrier values, biased toward reusing a small pool."""
    if pool is None:
        if algebra.kind == "godel":
            pool = [Fraction(0), Fraction(1)] + [
                Fraction(rng.randint(1, 9), 10) for _ in range(3)
            ]
        else:
            pool = list(algebra.carrier())
    return [rng.choice(pool) for _ in range(count)]


def random_model(
    rng: random.Random,
    algebra: Algebra,
    n_worlds: int,
    variables=("p",),
    indices=(1,),
    pool=None,
) -> KripkeModel:
    worlds = [f"s{k}" for k in range(n_worlds)]
    relations = {}
    for i in indices:
        vals = random_values(rng, algebra, n_worlds * n_worlds, pool)
        rows = [vals[k * n_worlds : (k + 1) * n_worlds] for k in range(n_worlds)]
        relations[i] = FuzzyMat(algebra, rows)
    valuation = {
        p: FuzzyVec(algebra, random_values(rng, algebra, n_worlds, pool))
        for p in variables
    }
    return KripkeModel(algebra, worlds, relations, valuation)


def random_pair(
    rng: random.Random,
    algebra: Algebra,
    max_worlds: int = 3,
    variables=("p",),
    indices=(1,),
    pool=None,
):
    n1 = rng.randint(1, max_worlds)
    n2 = rng.randint(1, max_worlds)
    m1 = random_model(rng, algebra, n1, variables, indices, pool)
    m2 = random_model(rng, algebra, n2, variables, indices, pool)
    # distinct world names on the right, as with two separate systems
    m2 = KripkeModel(
        algebra,
        [f"t{k}" for k in range(n2)],
        m2.relations,
        m2.valuation,
    )
    return m1, m2


def path_model(algebra, n, weight, end, prefix):
    """Worlds 0 -> 1 -> ... -> n-1 along relation 1, with p only at the end:
    each depth of formulas tells apart one more world from the end."""
    alg = Algebra.from_spec(algebra)
    rows = [[Fraction(weight) if j == i + 1 else Fraction(0) for j in range(n)] for i in range(n)]
    p = [Fraction(end) if i == n - 1 else Fraction(0) for i in range(n)]
    return KripkeModel(alg, [f"{prefix}{i}" for i in range(n)],
                       {1: FuzzyMat(alg, rows)}, {"p": FuzzyVec(alg, p)})


@pytest.fixture
def rng():
    return random.Random(20260814)
