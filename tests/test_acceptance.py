"""Acceptance gate: nine end-to-end checks, one pass/fail line each.

Every check re-derives its expectations independently where possible (brute
force, direct double loops) and compares with exact rational equality.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from conftest import GODEL_ENUM_POOL, grid, random_model, random_pair, vec_strs
from fuzzykripke.algebra import ONE, Algebra
from fuzzykripke.bisim import SimType, greatest_pre
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.hm import THETA_FOR_FRAGMENT, hm_check, invariance_check
from fuzzykripke.syntax import Fragment


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, f"runtime {elapsed:.2f}s exceeded the {budget}s budget"
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS [{elapsed:.2f}s]")


# -- 1: the showcase pair ------------------------------------------------------


def test_acceptance_1_showcase_greatest_relations():
    with criterion(1, "showcase pair: seven greatest relations", budget=1.0):
        a, b = load_pair("sim_showcase")
        want = {
            "fs": [["0.9", "0.3", "0.2"], ["1", "1", "0.2"], ["0.9", "0.3", "1"]],
            "bs": [["0.9", "0.4", "0.2"], ["1", "0.8", "0.2"], ["1", "0.8", "1"]],
            "fb": [["0.8", "0.3", "0.2"], ["0.3", "1", "0.2"], ["0.2", "0.2", "0.8"]],
            "bb": [["0.9", "0.4", "0.2"], ["0.4", "0.8", "0.2"], ["0.2", "0.2", "0.9"]],
            "fbb": [["0.8", "0.3", "0.2"], ["0.4", "1", "0.2"], ["0.2", "0.2", "0.8"]],
            "bfb": [["0.9", "0.4", "0.2"], ["0.3", "0.8", "0.2"], ["0.2", "0.2", "0.9"]],
            "rb": [["0.8", "0.3", "0.2"], ["0.3", "0.8", "0.2"], ["0.2", "0.2", "0.8"]],
        }
        reports = {t: greatest_pre(a, b, SimType(t)) for t in want}
        for t, frozen in want.items():
            assert grid(reports[t].matrix) == frozen, t
            assert reports[t].exists, t
        phi = reports["fs"].matrix
        left = phi.inverse().compose(a.relations[1])
        right = b.relations[1].compose(phi.inverse())
        assert grid(left) == [["0.9", "0.9", "0.9"], ["0.3", "0.3", "0.7"], ["0.9", "1", "0.4"]]
        assert grid(right) == [["0.9", "0.9", "1"], ["0.3", "0.3", "0.7"], ["0.9", "1", "0.9"]]
        assert left.leq(right)


# -- 2: the backward-only pair ---------------------------------------------------


def test_acceptance_2_backward_only_existence_pattern():
    with criterion(2, "backward-only pair: existence pattern", budget=1.0):
        a, b = load_pair("backward_only")
        fb = greatest_pre(a, b, SimType("fb"))
        assert grid(fb.matrix) == [["0.3", "0.3"]] * 3
        assert not fb.exists and fb.nonempty and not fb.satisfies_condition1
        assert any(
            not c.holds for c in fb.conditions if c.name.startswith("fb-1")
        )
        frozen = [["1", "0.3"], ["0.3", "1"], ["1", "0.3"]]
        for t in ("bb", "fbb"):
            rep = greatest_pre(a, b, SimType(t))
            assert grid(rep.matrix) == frozen and rep.exists, t
        for t in ("bfb", "rb"):
            assert not greatest_pre(a, b, SimType(t)).exists, t
        ra, rb_model = a.reverse(), b.reverse()
        assert greatest_pre(ra, rb_model, SimType("fb")).exists
        assert not greatest_pre(ra, rb_model, SimType("bb")).exists


# -- 3: the fully-equivalent pair -------------------------------------------------


def test_acceptance_3_fully_equivalent_pair_and_ladder():
    with criterion(3, "fully-equivalent pair: bisimulations and ladder", budget=30.0):
        a, b = load_pair("fully_equivalent")
        want = {
            "fb": [["1", "0.2"], ["0.2", "1"], ["1", "0.2"]],
            "bb": [["1", "0.4"], ["0.4", "1"], ["1", "0.4"]],
            "fbb": [["1", "0.4"], ["0.2", "1"], ["1", "0.4"]],
            "bfb": [["1", "0.2"], ["0.4", "1"], ["1", "0.2"]],
            "rb": [["1", "0.2"], ["0.2", "1"], ["1", "0.2"]],
        }
        for t, frozen in want.items():
            rep = greatest_pre(a, b, SimType(t))
            assert rep.exists and grid(rep.matrix) == frozen, t
        ladder = hm_check(a, b, Fragment.FULL, max_depth=4)
        assert ladder.match and ladder.converged_at is not None
        assert ladder.converged_at <= 4
        assert grid(ladder.steps[-1].matrix) == [["1", "0.2"], ["0.2", "1"], ["1", "0.2"]]


# -- 4: the crisp pair -------------------------------------------------------------


def test_acceptance_4_crisp_pair_and_ladder():
    with criterion(4, "crisp pair: bisimulations and ladder", budget=5.0):
        a, b = load_pair("crisp_pair")
        frozen = [["1", "0"], ["0", "1"], ["0", "1"], ["1", "0"]]
        for t in ("fb", "bb", "fbb", "bfb", "rb"):
            rep = greatest_pre(a, b, SimType(t))
            assert rep.exists and grid(rep.matrix) == frozen, t
        ladder = hm_check(a, b, Fragment.FULL, max_depth=4)
        assert ladder.match
        assert grid(ladder.steps[-1].matrix) == frozen


# -- 5: algebra laws ------------------------------------------------------------------


def test_acceptance_5_algebra_law_suite():
    with criterion(5, "algebra law suite"):
        godel = Algebra.godel()
        chain5 = Algebra.chain(5)

        def laws(alg, x, y, z):
            res, meet, join = alg.residuum, alg.meet, alg.join
            assert (meet(x, y) <= z) == (x <= res(y, z))  # adjunction
            assert res(x, x) == ONE
            assert meet(res(x, y), y) == y
            assert meet(x, res(x, y)) == meet(x, y)
            assert res(x, meet(y, z)) == meet(res(x, y), res(x, z))
            assert res(join(x, y), z) == meet(res(x, z), res(y, z))
            assert join(res(x, y), res(y, x)) == ONE  # linearity

        exhaustive = 0
        for x, y, z in itertools.product(chain5.carrier(), repeat=3):
            laws(chain5, x, y, z)
            exhaustive += 1
        assert exhaustive == 125

        rng = random.Random(1405)
        sampled = 0
        for _ in range(1200):
            x, y, z = (Fraction(rng.randint(0, 90), 90) for _ in range(3))
            laws(godel, x, y, z)
            sampled += 1
        assert sampled >= 1000

        # the implication-exchange inequality has an explicit counterexample
        x1, y1, x2, y2 = map(Fraction, ("0.7", "0.8", "0.6", "0.7"))
        lhs = min(godel.residuum(x1, y1), godel.residuum(x2, y2))
        rhs = min(godel.residuum(x1, x2), godel.residuum(y1, y2))
        assert lhs == ONE and rhs == Fraction("0.6") and not lhs <= rhs


# -- 6: relation laws -----------------------------------------------------------------


def test_acceptance_6_relation_law_suite():
    with criterion(6, "relation law suite"):
        godel = Algebra.godel()
        rng = random.Random(2304)
        pool = [Fraction(k, 10) for k in range(11)]

        def mat(k, m):
            return FuzzyMat(godel, [[rng.choice(pool) for _ in range(m)] for _ in range(k)])

        def vec(k):
            return FuzzyVec(godel, [rng.choice(pool) for _ in range(k)])

        per_law = 500
        for _ in range(per_law):
            k, n, m, q = (rng.randint(1, 3) for _ in range(4))
            a, b, c = mat(k, n), mat(n, m), mat(m, q)
            assert a.compose(b).compose(c).rows == a.compose(b.compose(c)).rows
            f, g = vec(k), vec(m)
            assert f.compose_mat(a).compose_mat(b).values == f.compose_mat(a.compose(b)).values
            assert a.compose_vec(b.compose_vec(g)).values == a.compose(b).compose_vec(g).values
        for _ in range(per_law):
            k, n, m = (rng.randint(1, 3) for _ in range(3))
            a, b = mat(k, n), mat(n, m)
            a2, b2 = a.join(mat(k, n)), b.join(mat(n, m))
            assert a.compose(b).leq(a2.compose(b2))  # monotonicity
            assert a.compose(b).inverse().rows == b.inverse().compose(a.inverse()).rows
        for _ in range(per_law):
            k, n, m = (rng.randint(1, 3) for _ in range(3))
            a, b, c, d = mat(k, n), mat(n, m), mat(n, m), mat(k, n)
            assert a.compose(b.join(c)).rows == a.compose(b).join(a.compose(c)).rows
            assert a.join(d).compose(b).rows == a.compose(b).join(d.compose(b)).rows
            assert a.join(d).inverse().rows == a.inverse().join(d.inverse()).rows
        for _ in range(per_law):
            k, m = rng.randint(1, 3), rng.randint(1, 3)
            phi, f, g = mat(k, m), vec(k), vec(m)
            assert f.compose_mat(phi).values == phi.inverse().compose_vec(f).values
            assert g.compose_mat(phi.inverse()).values == phi.compose_vec(g).values


# -- 7: maximality against brute force -------------------------------------------------


def _mm_right(batch, fixed):
    # (m, a, b) o (b, c) -> (m, a, c) by max-min
    return np.minimum(batch[:, :, :, None], fixed[None, None, :, :]).max(axis=2)


def _mm_left(fixed, batch):
    # (a, b) o (m, b, c) -> (m, a, c) by max-min
    return np.minimum(fixed[None, :, :, None], batch[:, None, :, :]).max(axis=2)


def _rel_vec(batch, v):
    # (m, a, b) o (b,) -> (m, a) by max-min
    return np.minimum(batch, v[None, None, :]).max(axis=2)


def _condition_mask(sim_type, cands, rels, vals):
    """Literal translation of the defining inequalities, vectorized over cands."""
    finv = cands.transpose(0, 2, 1)
    m = cands.shape[0]
    mask = np.ones(m, dtype=bool)
    both = np.logical_and
    for r, s in rels:
        fwd = (_mm_right(finv, r) <= _mm_left(s, finv)).all(axis=(1, 2))
        bwd = (_mm_left(r, cands) <= _mm_right(cands, s)).all(axis=(1, 2))
        fwd_inv = (_mm_right(cands, s) <= _mm_left(r, cands)).all(axis=(1, 2))
        bwd_inv = (_mm_left(s, finv) <= _mm_right(finv, r)).all(axis=(1, 2))
        part = {
            "fs": fwd,
            "bs": bwd,
            "fb": both(fwd, fwd_inv),
            "bb": both(bwd, bwd_inv),
            "fbb": both(fwd, bwd_inv),
            "bfb": both(bwd, fwd_inv),
            "rb": both(
                (_mm_right(finv, r) == _mm_left(s, finv)).all(axis=(1, 2)),
                (_mm_right(cands, s) == _mm_left(r, cands)).all(axis=(1, 2)),
            ),
        }[sim_type]
        mask &= part
    for vp, vq in vals:
        fwd3 = (_rel_vec(finv, vp) <= vq[None, :]).all(axis=1)
        mask &= fwd3
        if sim_type not in ("fs", "bs"):
            back3 = (_rel_vec(cands, vq) <= vp[None, :]).all(axis=1)
            mask &= back3
    return mask


def test_acceptance_7_maximality_against_brute_force():
    with criterion(7, "greatest relations equal the brute-force maxima", budget=300.0):
        alg = Algebra.chain(3)
        level = {v: i for i, v in enumerate(alg.carrier())}
        rng = random.Random(7319)
        pairs_done = 0
        for _ in range(200):
            n_idx = rng.choice((1, 2))
            varnames = ("p",) if rng.random() < 0.5 else ("p", "q")
            a, b = random_pair(
                rng, alg, max_worlds=3, variables=varnames, indices=tuple(range(1, n_idx + 1))
            )
            n1, n2 = len(a.worlds), len(b.worlds)
            cands = np.array(
                list(itertools.product(range(3), repeat=n1 * n2)), dtype=np.int8
            ).reshape(-1, n1, n2)
            rels = [
                (
                    np.array([[level[v] for v in row] for row in a.relations[i].rows], np.int8),
                    np.array([[level[v] for v in row] for row in b.relations[i].rows], np.int8),
                )
                for i in a.indices
            ]
            vals = [
                (
                    np.array([level[v] for v in a.valuation[p].values], np.int8),
                    np.array([level[v] for v in b.valuation[p].values], np.int8),
                )
                for p in varnames
            ]
            for t in ("fs", "bs", "fb", "bb", "fbb", "bfb", "rb"):
                mask = _condition_mask(t, cands, rels, vals)
                assert mask.any()  # the zero relation always qualifies
                best = cands[mask].max(axis=0)
                got = np.array(
                    [[level[v] for v in row] for row in greatest_pre(a, b, SimType(t)).matrix.rows],
                    np.int8,
                )
                assert np.array_equal(best, got), (t, a.to_dict(), b.to_dict())
                # and the returned matrix itself satisfies the conditions
                assert _condition_mask(t, got[None, :, :], rels, vals)[0]
            pairs_done += 1
        assert pairs_done >= 200


# -- 8: invariance bounds ---------------------------------------------------------------


def test_acceptance_8_invariance_bound_suite():
    with criterion(8, "invariance bound suite"):
        pairings = [
            (SimType("fb"), Fragment.PLUS),
            (SimType("bb"), Fragment.MINUS),
            (SimType("rb"), Fragment.FULL),
        ]
        checked = 0
        for name in ("sim_showcase", "backward_only", "fully_equivalent"):
            a, b = load_pair(name)
            for sim_type, fragment in pairings:
                rep = invariance_check(a, b, sim_type, fragment, depth=2)
                assert rep.holds, (name, fragment.value, rep.violation)
                checked += rep.formulas_checked
        rng = random.Random(6028)
        for k in range(50):
            alg = (Algebra.boolean(), Algebra.chain(3), Algebra.godel())[k % 3]
            pool = GODEL_ENUM_POOL if alg.kind == "godel" else None
            a, b = random_pair(rng, alg, pool=pool)
            for sim_type, fragment in pairings:
                rep = invariance_check(a, b, sim_type, fragment, depth=2)
                assert rep.holds, (k, fragment.value, rep.violation)
                checked += rep.formulas_checked
        assert checked > 0


# -- 9: randomized expressivity ------------------------------------------------------------


def test_acceptance_9_randomized_expressivity_suite():
    with criterion(9, "randomized expressivity suite"):
        rng = random.Random(9021)
        algebras = [Algebra.boolean(), Algebra.chain(3), Algebra.chain(5), Algebra.godel()]
        for k in range(50):
            alg = algebras[k % 4]
            pool = GODEL_ENUM_POOL if alg.kind == "godel" else None
            a, b = random_pair(rng, alg, pool=pool)
            for fragment in (Fragment.PLUS, Fragment.MINUS, Fragment.FULL):
                rep = hm_check(a, b, fragment, max_depth=10, budget=300_000)
                assert rep.match, (k, fragment.value, rep.first_mismatch)
