"""Max-min relation calculus: composition laws and residual updates."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import grid, random_values
from fuzzykripke.algebra import Algebra, AlgebraError
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import (
    FuzzyMat,
    FuzzyVec,
    nonzero_profile,
    update_backward,
    update_backward_inv,
    update_forward,
    update_forward_inv,
)
from fuzzykripke.levels import Universe, first_violation

GODEL = Algebra.godel()


def rand_mat(rng, alg, k, m) -> FuzzyMat:
    vals = random_values(rng, alg, k * m)
    return FuzzyMat(alg, (vals[i * m : (i + 1) * m] for i in range(k)))


def rand_vec(rng, alg, k) -> FuzzyVec:
    return FuzzyVec(alg, random_values(rng, alg, k))


def rand_dims(rng, lo=1, hi=3):
    return rng.randint(lo, hi)


def mm_oracle(a: FuzzyMat, b: FuzzyMat) -> list:
    """Reference max-min product, written independently of FuzzyMat.compose."""
    k, n = a.shape
    n2, m = b.shape
    assert n == n2
    return [
        [max(min(a.rows[i][t], b.rows[t][j]) for t in range(n)) for j in range(m)]
        for i in range(k)
    ]


# -- composition against the reference product --------------------------------


def test_compose_matches_reference_product(rng):
    for _ in range(500):
        k, n, m = rand_dims(rng), rand_dims(rng), rand_dims(rng)
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        assert list(map(list, a.compose(b).rows)) == mm_oracle(a, b)


def test_compose_associativity(rng):
    for _ in range(500):
        k, n, m, q = (rand_dims(rng) for _ in range(4))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        c = rand_mat(rng, GODEL, m, q)
        assert a.compose(b).compose(c).rows == a.compose(b.compose(c)).rows


def test_compose_associativity_vector_forms(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        f = rand_vec(rng, GODEL, k)
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        g = rand_vec(rng, GODEL, m)
        # (f o a) o b == f o (a o b)  and  a o (b o g) == (a o b) o g
        assert f.compose_mat(a).compose_mat(b).values == f.compose_mat(a.compose(b)).values
        assert a.compose_vec(b.compose_vec(g)).values == a.compose(b).compose_vec(g).values
        # scalar bracketing: (f o a) o g == f o (a o g)
        h = rand_vec(rng, GODEL, n)
        assert f.compose_mat(a).compose_vec(h) == f.compose_vec(a.compose_vec(h))


def test_compose_monotone(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        a2 = a.join(rand_mat(rng, GODEL, k, n))
        b2 = b.join(rand_mat(rng, GODEL, n, m))
        assert a.leq(a2) and b.leq(b2)
        assert a.compose(b).leq(a2.compose(b2))


def test_inverse_reverses_composition(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        assert a.compose(b).inverse().rows == b.inverse().compose(a.inverse()).rows


def test_compose_distributes_over_join(rng):
    for _ in range(500):
        k, n, m = (rand_dims(rng) for _ in range(3))
        a = rand_mat(rng, GODEL, k, n)
        b = rand_mat(rng, GODEL, n, m)
        c = rand_mat(rng, GODEL, n, m)
        d = rand_mat(rng, GODEL, k, n)
        assert a.compose(b.join(c)).rows == a.compose(b).join(a.compose(c)).rows
        assert a.join(d).compose(b).rows == a.compose(b).join(d.compose(b)).rows


def test_inverse_of_join(rng):
    for _ in range(500):
        k, m = rand_dims(rng), rand_dims(rng)
        a = rand_mat(rng, GODEL, k, m)
        b = rand_mat(rng, GODEL, k, m)
        assert a.join(b).inverse().rows == a.inverse().join(b.inverse()).rows


def test_vector_matrix_exchange(rng):
    # f o phi == phi^-1 o f  and  g o phi^-1 == phi o g, for any phi
    for _ in range(500):
        k, m = rand_dims(rng), rand_dims(rng)
        phi = rand_mat(rng, GODEL, k, m)
        f = rand_vec(rng, GODEL, k)
        g = rand_vec(rng, GODEL, m)
        assert f.compose_mat(phi).values == phi.inverse().compose_vec(f).values
        assert g.compose_mat(phi.inverse()).values == phi.compose_vec(g).values


# -- residual updates: greatest-solution characterizations ---------------------

CHAIN3 = Algebra.chain(3)


def all_small_mats(alg, k, m):
    carrier = alg.carrier()
    for combo in itertools.product(carrier, repeat=k * m):
        yield FuzzyMat(alg, (combo[i * m : (i + 1) * m] for i in range(k)))


def constraint_holders(update, r, rp, chi, phi):
    """The inequality each update is adjoint to, spelled out directly."""
    if update is update_forward:
        return chi.inverse().compose(r).leq(rp.compose(phi.inverse()))
    if update is update_backward:
        return r.compose(chi).leq(phi.compose(rp))
    if update is update_forward_inv:
        return chi.compose(rp).leq(r.compose(phi))
    if update is update_backward_inv:
        return rp.compose(chi.inverse()).leq(phi.inverse().compose(r))
    raise AssertionError(update)


@pytest.mark.parametrize(
    "update", [update_forward, update_backward, update_forward_inv, update_backward_inv]
)
def test_update_is_greatest_solution(update):
    # chi <= update(r, rp, phi)  iff  the associated inequality holds:
    # checked exhaustively over every candidate chi on a three-level chain
    rng = random.Random(sum(map(ord, update.__name__)))
    for _ in range(25):
        r = rand_mat(rng, CHAIN3, 2, 2)
        rp = rand_mat(rng, CHAIN3, 2, 2)
        phi = rand_mat(rng, CHAIN3, 2, 2)
        u = update(r, rp, phi)
        assert constraint_holders(update, r, rp, u, phi)
        for chi in all_small_mats(CHAIN3, 2, 2):
            assert chi.leq(u) == constraint_holders(update, r, rp, chi, phi)


def test_updates_reject_bad_shapes(rng):
    r = rand_mat(rng, GODEL, 2, 2)
    rp = rand_mat(rng, GODEL, 3, 3)
    with pytest.raises(ValueError):
        update_forward(r, rp, rand_mat(rng, GODEL, 3, 2))
    with pytest.raises(ValueError):
        update_backward(r, rp, rand_mat(rng, GODEL, 2, 2))


# -- frozen worked results ------------------------------------------------------


def test_showcase_forward_simulation_intermediates():
    from fuzzykripke import SimType, greatest_pre

    a, b = load_pair("sim_showcase")
    rep = greatest_pre(a, b, SimType("fs"))
    phi = rep.matrix
    assert grid(phi) == [["0.9", "0.3", "0.2"], ["1", "1", "0.2"], ["0.9", "0.3", "1"]]
    left = phi.inverse().compose(a.relations[1])
    right = b.relations[1].compose(phi.inverse())
    # both sides recomputed with the reference product, then frozen
    assert list(map(list, left.rows)) == mm_oracle(phi.inverse(), a.relations[1])
    assert list(map(list, right.rows)) == mm_oracle(b.relations[1], phi.inverse())
    assert grid(left) == [["0.9", "0.9", "0.9"], ["0.3", "0.3", "0.7"], ["0.9", "1", "0.4"]]
    assert grid(right) == [["0.9", "0.9", "1"], ["0.3", "0.3", "0.7"], ["0.9", "1", "0.9"]]
    assert left.leq(right)


def test_nonzero_profiles_of_bundled_models():
    a, b = load_pair("backward_only")
    assert nonzero_profile(a.relations[1]) == ((3, 3, 3), (3, 3, 3))
    assert nonzero_profile(a.relations[2]) == ((3, 2, 3), (3, 2, 3))
    assert nonzero_profile(b.relations[1]) == ((2, 2), (2, 2))
    sa, sb = load_pair("sim_showcase")
    assert nonzero_profile(sb.relations[1]) == ((3, 2, 3), (2, 3, 3))


# -- containers and validation ---------------------------------------------------


def test_matrix_constructors_and_lattice_ops():
    ident = FuzzyMat.identity(GODEL, 3)
    assert grid(ident) == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    zeros = FuzzyMat.zeros(GODEL, (2, 3))
    ones = FuzzyMat.ones(GODEL, (2, 3))
    assert zeros.is_zero() and not ones.is_zero()
    assert zeros.leq(ones)
    half = FuzzyMat.constant(GODEL, (2, 3), Fraction(1, 2))
    assert half.meet(ones).rows == half.rows
    assert half.join(zeros).rows == half.rows
    assert half.min_value() == Fraction(1, 2)
    assert ident.values_used() == {Fraction(0), Fraction(1)}
    assert ident.compose(ident).rows == ident.rows


def test_identity_is_a_unit(rng):
    for _ in range(100):
        k, m = rand_dims(rng), rand_dims(rng)
        a = rand_mat(rng, GODEL, k, m)
        assert FuzzyMat.identity(GODEL, k).compose(a).rows == a.rows
        assert a.compose(FuzzyMat.identity(GODEL, m)).rows == a.rows


def test_first_violation_reports_entry():
    # the kernel's search, which condition checks report violations from
    u = Universe([Fraction(1, 2), Fraction(1, 4)])
    a = u.encode([[Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(1)]])
    b = u.encode([[Fraction(1, 2), Fraction(1)], [Fraction(1, 4), Fraction(1)]])
    assert first_violation(a, b) == (1, 0)
    assert (u.values[a[1, 0]], u.values[b[1, 0]]) == (Fraction(1), Fraction(1, 4))
    assert first_violation(b, b) is None
    # row-major order, on vectors and on stacks alike
    assert first_violation(a[1], b[1]) == (0,)
    assert first_violation(np.stack([b, a, a.T]), np.stack([b, b, b])) == (1, 1, 0)


def test_dimension_mismatches_raise():
    a = FuzzyMat(GODEL, [[Fraction(1)]])
    b = FuzzyMat(GODEL, [[Fraction(1), Fraction(0)]])
    v = FuzzyVec(GODEL, [Fraction(1), Fraction(0)])
    with pytest.raises(ValueError):
        b.compose(b)
    with pytest.raises(ValueError):
        a.compose_vec(v)
    with pytest.raises(ValueError):
        v.compose_mat(a)
    with pytest.raises(ValueError):
        v.compose_vec(FuzzyVec(GODEL, [Fraction(1)]))
    with pytest.raises(ValueError):
        a.meet(b)
    with pytest.raises(ValueError):
        FuzzyMat(GODEL, [[Fraction(1)], [Fraction(0), Fraction(1)]])


def test_mixed_algebras_raise():
    a = FuzzyMat(GODEL, [[Fraction(1)]])
    b = FuzzyMat(Algebra.boolean(), [[Fraction(1)]])
    with pytest.raises(AlgebraError):
        a.compose(b)


def test_off_carrier_entries_rejected():
    with pytest.raises(AlgebraError):
        FuzzyMat(Algebra.chain(3), [[Fraction(1, 3)]])
    with pytest.raises(AlgebraError):
        FuzzyVec(Algebra.boolean(), [Fraction(1, 2)])


def test_one_element_blocks_give_the_same_answers(monkeypatch):
    # every (k, n, m) broadcast of the kernel is cut into blocks of at most
    # BATCH elements along its contracted axis; the smallest blocks must
    # give the answers of whole-array blocks
    from fuzzykripke import SimType, greatest_pre, hm_check, levels

    a, b = load_pair("sim_showcase")

    def answers():
        return (
            [greatest_pre(a, b, t).to_dict() for t in SimType],
            hm_check(a, b, "plus", max_depth=1).to_dict(),
        )

    whole = answers()
    monkeypatch.setattr(levels, "BATCH", 1)
    assert answers() == whole
