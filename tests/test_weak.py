"""Weak (pre)simulations over given formula sets: closed forms and closure laws."""

from fractions import Fraction

import pytest

from conftest import grid, random_model, random_pair
from fuzzykripke.algebra import Algebra
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import FuzzyMat
from fuzzykripke.syntax import Fragment, enumerate_formulas, parse
from fuzzykripke.weak import (
    check_composition_closed,
    check_union_closed,
    check_weak,
    duality_transfer,
    enumerated_weak,
    greatest_weak,
    psi_equivalent,
)

GODEL = Algebra.godel()


def closed_form_oracle(m1, m2, formulas, combine):
    """Entrywise fold of ``combine`` over the evaluation vectors, spelled out."""
    vecs = [(m1.eval_vec(f).values, m2.eval_vec(f).values) for f in formulas]
    return [
        [
            min(combine(va[u], vb[up]) for va, vb in vecs)
            for up in range(len(m2.worlds))
        ]
        for u in range(len(m1.worlds))
    ]


def test_frozen_weak_relations_for_two_variables():
    a, b = load_pair("fully_equivalent")
    formulas = [parse("p"), parse("q")]
    rep = greatest_weak(a, b, formulas)
    assert rep.formula_count == 2
    assert grid(rep.presimulation) == [["1", "0.4"], ["0.8", "1"], ["1", "0.4"]]
    assert grid(rep.prebisimulation) == [["1", "0.4"], ["0.4", "1"], ["1", "0.4"]]
    assert rep.simulation_exists and rep.bisimulation_exists
    assert rep.equivalent
    doc = rep.to_dict()
    assert doc["equivalent"] is True
    assert doc["prebisimulation"] == [["1", "0.4"], ["0.4", "1"], ["1", "0.4"]]


def test_closed_forms_match_direct_fold(rng):
    for _ in range(60):
        a, b = random_pair(rng, GODEL, variables=("p", "q"), indices=(1,))
        formulas = [parse(t) for t in ("p", "q", "<>_1 p", "p -> q")]
        rep = greatest_weak(a, b, formulas)
        res, bi = a.algebra.residuum, a.algebra.biimplication
        assert [list(r) for r in rep.presimulation.rows] == closed_form_oracle(
            a, b, formulas, res
        )
        assert [list(r) for r in rep.prebisimulation.rows] == closed_form_oracle(
            a, b, formulas, bi
        )


def test_closed_form_is_the_greatest_weak_relation(rng):
    # every relation that passes the literal conditions lies below the closed
    # form, checked exhaustively over a boolean candidate space
    import itertools

    alg = Algebra.boolean()
    carrier = alg.carrier()
    for _ in range(8):
        a = random_model(rng, alg, 2)
        b = random_model(rng, alg, 2)
        formulas = [parse("p"), parse("<>_1 p")]
        rep = greatest_weak(a, b, formulas)
        for bisim, top in ((False, rep.presimulation), (True, rep.prebisimulation)):
            for combo in itertools.product(carrier, repeat=4):
                phi = FuzzyMat(alg, [combo[:2], combo[2:]])
                checks = check_weak(a, b, phi, formulas, bisimulation=bisim)
                passes = all(c.holds for c in checks if "-2[" in c.name)
                if passes:
                    assert phi.leq(top)
        assert all(
            c.holds
            for c in check_weak(a, b, rep.prebisimulation, formulas)
            if "-2[" in c.name
        )


def test_psi_equivalent_needs_matches_both_ways():
    alg = GODEL
    half = Fraction(1, 2)
    assert psi_equivalent(FuzzyMat(alg, [[Fraction(1), half], [half, Fraction(1)]]))
    # a row with no full match
    assert not psi_equivalent(FuzzyMat(alg, [[half, half], [Fraction(1), half]]))
    # a column with no full match
    assert not psi_equivalent(
        FuzzyMat(alg, [[Fraction(1), half], [Fraction(1), half]])
    )


def test_check_weak_flags_violations():
    a, b = load_pair("fully_equivalent")
    formulas = [parse("p"), parse("q")]
    ones = FuzzyMat.ones(a.algebra, (len(a.worlds), len(b.worlds)))
    checks = check_weak(a, b, ones, formulas)
    failed = [c for c in checks if not c.holds]
    assert failed and all("-2[" in c.name for c in failed)
    assert failed[0].violation is not None


def crisp_part(phi: FuzzyMat) -> FuzzyMat:
    one, zero = Fraction(1), Fraction(0)
    return FuzzyMat(
        phi.algebra, [[one if v == one else zero for v in row] for row in phi.rows]
    )


def test_weak_union_and_composition_closure():
    a, b = load_pair("fully_equivalent")
    formulas = [parse("p"), parse("q"), parse("<>_1 p")]
    rep_ab = greatest_weak(a, b, formulas)
    rep_ba = greatest_weak(b, a, formulas)
    for bisim in (True, False):
        phi1 = rep_ab.prebisimulation if bisim else rep_ab.presimulation
        # the crisp kernel of the closed form is itself a weak relation here
        phi2 = crisp_part(rep_ab.prebisimulation)
        assert check_union_closed(a, b, formulas, phi1, phi2, bisimulation=bisim)
        phi23 = rep_ba.prebisimulation if bisim else rep_ba.presimulation
        assert check_composition_closed(
            a, b, a, formulas, phi1, phi23, bisimulation=bisim
        )


def test_weak_closure_on_self_comparison(rng):
    for _ in range(25):
        m = random_model(rng, GODEL, rng.randint(1, 3))
        formulas = [parse("p"), parse("<>_1 p"), parse("[]-_1 p")]
        rep = greatest_weak(m, m, formulas)
        ident = FuzzyMat.identity(GODEL, len(m.worlds))
        for bisim in (True, False):
            top = rep.prebisimulation if bisim else rep.presimulation
            assert check_union_closed(m, m, formulas, ident, top, bisimulation=bisim)
            assert check_composition_closed(
                m, m, m, formulas, top, top, bisimulation=bisim
            )


def test_empty_formula_set_is_rejected():
    a, b = load_pair("fully_equivalent")
    with pytest.raises(ValueError):
        greatest_weak(a, b, [])
    with pytest.raises(ValueError):
        check_weak(a, b, FuzzyMat.ones(a.algebra, (3, 2)), [])


def test_check_weak_validates_shape():
    a, b = load_pair("fully_equivalent")
    with pytest.raises(ValueError):
        check_weak(a, b, FuzzyMat.ones(a.algebra, (2, 2)), [parse("p")])


def test_duality_transfer_on_fixture_pairs():
    for name in ("sim_showcase", "fully_equivalent", "crisp_pair"):
        a, b = load_pair(name)
        for fragment in (Fragment.PLUS, Fragment.MINUS):
            verdict = duality_transfer(a, b, fragment, depth=1)
            assert verdict.holds and bool(verdict)
            assert verdict.forward.rows == verdict.reversed_.rows


def test_duality_transfer_on_random_pairs(rng):
    for _ in range(10):
        a, b = random_pair(rng, Algebra.chain(3))
        verdict = duality_transfer(a, b, Fragment.PLUS, depth=1)
        assert verdict.holds


def test_enumerated_weak_matches_evaluating_every_representative(rng):
    # folding the class vectors must give the report that rebuilding and
    # evaluating one representative formula per class gives
    pairs = [load_pair(name) for name in ("sim_showcase", "backward_only", "crisp_pair")]
    pairs += [random_pair(rng, Algebra.chain(3), variables=("p", "q"), indices=(1, 2))
              for _ in range(6)]
    for a, b in pairs:
        for fragment in (Fragment.PLUS, Fragment.MINUS, Fragment.FULL):
            enum = enumerate_formulas(a, b, fragment, 1, budget=4000)
            folded = enumerated_weak(a, b, enum)
            assert folded.to_dict() == greatest_weak(a, b, enum.formulas()).to_dict()
