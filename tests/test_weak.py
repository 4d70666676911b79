"""Weak (pre)simulations over given formula sets: closed forms and closure laws."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    GODEL_ENUM_POOL, differential_pairs, grid, identity, ones, path_model, random_model,
    random_pair,
)
from test_syntax import oracle_cases
from fuzzykripke import cli
from fuzzykripke.algebra import Algebra
from fuzzykripke.bisim import SimType, check_conditions, greatest_pre, union_iterate
from fuzzykripke.fixtures import load_pair
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.hm import THETA_FOR_FRAGMENT, hm_check, invariance_check
from fuzzykripke.levels import Universe
from fuzzykripke.model import KripkeModel, ModelError, level_pair
from fuzzykripke.syntax import BUDGET, FormulaEnumeration, Fragment, dual, parse
from fuzzykripke.weak import (
    DualityVerdict,
    _weak_report,
    check_composition_closed,
    check_union_closed,
    check_weak,
    duality_transfer,
    enumerated_weak,
    fragment_weak,
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
    checks = check_weak(a, b, ones(a.algebra, (len(a.worlds), len(b.worlds))), formulas)
    failed = [c for c in checks if not c.holds]
    assert failed and all("-2[" in c.name for c in failed)
    assert failed[0].violation is not None


def test_weak_condition_names_and_statements():
    """Every weak verdict's name and statement, in order, for a relation that
    fails some of each family: the statements are the strong -1 and -3
    statements of the direction, with the formula A in place of p."""
    a, b = load_pair("fully_equivalent")
    one, zero = Fraction(1), Fraction(0)
    phi = FuzzyMat(a.algebra, [[one, one], [zero, one], [zero, one]])
    formulas = [parse("p"), parse("<>_1 q")]
    wb = [
        ("wb-1[fwd, A=p]", "V_A <= V'_A o phi^-1", False),
        ("wb-1[fwd_inv, A=p]", "V'_A <= V_A o phi", True),
        ("wb-2[fwd, A=p]", "phi^-1 o V_A <= V'_A", False),
        ("wb-2[fwd_inv, A=p]", "phi o V'_A <= V_A", True),
        ("wb-1[fwd, A=<>_1 q]", "V_A <= V'_A o phi^-1", True),
        ("wb-1[fwd_inv, A=<>_1 q]", "V'_A <= V_A o phi", True),
        ("wb-2[fwd, A=<>_1 q]", "phi^-1 o V_A <= V'_A", True),
        ("wb-2[fwd_inv, A=<>_1 q]", "phi o V'_A <= V_A", False),
    ]
    ws = [
        ("ws-1[fwd, A=p]", "V_A <= V'_A o phi^-1", False),
        ("ws-2[fwd, A=p]", "phi^-1 o V_A <= V'_A", False),
        ("ws-1[fwd, A=<>_1 q]", "V_A <= V'_A o phi^-1", True),
        ("ws-2[fwd, A=<>_1 q]", "phi^-1 o V_A <= V'_A", True),
    ]
    for bisimulation, want in ((True, wb), (False, ws)):
        checks = check_weak(a, b, phi, formulas, bisimulation)
        assert [(c.name, c.statement, c.holds) for c in checks] == want
        assert all((c.violation is None) == c.holds for c in checks)


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
        ident = identity(GODEL, len(m.worlds))
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
        check_weak(a, b, ones(a.algebra, (3, 2)), [])


def test_enumerated_weak_rejects_an_empty_enumeration():
    a, b = load_pair("fully_equivalent")

    class Empty:
        def __len__(self):
            return 0

    with pytest.raises(ValueError, match="^a weak relation needs a nonempty formula set$"):
        enumerated_weak(Empty())
    for budget in (0, -1):
        with pytest.raises(ValueError, match=f"^budget must be positive, got {budget}$"):
            FormulaEnumeration(a, b, Fragment.PLUS, budget)


def test_a_budget_cut_weak_report_says_so():
    # 50 classes of full/2 cannot tell sim_showcase's models apart; the whole set can
    a, b = load_pair("sim_showcase")
    cut = enumerated_weak(FormulaEnumeration(a, b, Fragment.FULL, 50).extend_to_depth(2))
    assert cut.truncated and cut.formula_count == 50 and cut.equivalent
    assert cut.to_dict()["truncated"] is True
    whole = enumerated_weak(FormulaEnumeration(a, b, Fragment.FULL).extend_to_depth(2))
    assert not whole.truncated and not whole.equivalent
    corpus = greatest_weak(a, b, [parse("p")])
    for report in (whole, corpus):
        assert not report.truncated and "truncated" not in report.to_dict()
    assert duality_transfer(a, b, Fragment.PLUS, depth=1, budget=50).truncated
    assert not duality_transfer(a, b, Fragment.PLUS, depth=1).truncated


def test_relation_checks_report_a_wrong_shape():
    a, b = load_pair("fully_equivalent")
    phi = ones(a.algebra, (2, 2))
    message = r"^relation shape \(2, 2\) does not match world counts \(3, 2\)$"
    with pytest.raises(ValueError, match=message):
        check_weak(a, b, phi, [parse("p")])
    with pytest.raises(ValueError, match=message):
        check_conditions(a, b, phi, SimType.RB)


def test_duality_transfer_on_fixture_pairs():
    for name in ("sim_showcase", "fully_equivalent", "crisp_pair"):
        a, b = load_pair(name)
        for fragment in (Fragment.PLUS, Fragment.MINUS):
            verdict = duality_transfer(a, b, fragment, depth=1)
            assert verdict.holds and bool(verdict)
            assert verdict.forward.rows == verdict.reversed_.rows


def test_duality_transfer_refuses_an_incomparable_pair():
    a, b = load_pair("backward_only")
    one_index = KripkeModel(b.algebra, b.worlds, {1: b.relations[1]}, b.valuation)
    with pytest.raises(ModelError, match=r"^index sets differ: \[1, 2\] vs \[1\]$"):
        duality_transfer(a, one_index, Fragment.PLUS, depth=2)


def test_duality_transfer_on_random_pairs(rng):
    for _ in range(10):
        a, b = random_pair(rng, Algebra.chain(3))
        verdict = duality_transfer(a, b, Fragment.PLUS, depth=1)
        assert verdict.holds


def enumerated_duality(a, b, fragment, depth, budget=BUDGET):
    """The duality check through an enumeration: the forward side folded
    from its class vectors, the reversed side by evaluating the dual of
    each class representative on the reversed models.  The oracle of
    ``duality_transfer``."""
    enum = FormulaEnumeration(a, b, fragment, budget).extend_to_depth(depth)
    forward = enumerated_weak(enum).prebisimulation
    dual_formulas = [dual(f) for f in enum.formulas()]
    reversed_ = greatest_weak(a.reverse(), b.reverse(), dual_formulas).prebisimulation
    return DualityVerdict(forward == reversed_, forward, reversed_, enum.truncated)


def test_duality_transfer_equals_the_enumerated_duality():
    """On the bundled and seeded pairs, for every fragment and depths 0-2:
    the verdict and both matrices are the uncut enumeration's."""
    for a, b in differential_pairs():
        for fragment in Fragment:
            for depth in range(3):
                want = enumerated_duality(a, b, fragment, depth)
                got = duality_transfer(a, b, fragment, depth)
                assert not want.truncated and got.holds
                assert got == want and grid(got.reversed_) == grid(want.reversed_)


def test_enumerated_weak_matches_evaluating_every_representative(rng):
    # folding the class vectors must give the report that rebuilding and
    # evaluating one representative formula per class gives
    pairs = [load_pair(name) for name in ("sim_showcase", "backward_only", "crisp_pair")]
    pairs += [random_pair(rng, Algebra.chain(3), variables=("p", "q"), indices=(1, 2))
              for _ in range(6)]
    for a, b in pairs:
        for fragment in (Fragment.PLUS, Fragment.MINUS, Fragment.FULL):
            enum = FormulaEnumeration(a, b, fragment, 4000).extend_to_depth(1)
            folded = enumerated_weak(enum)
            assert folded.to_dict() == greatest_weak(a, b, enum.formulas()).to_dict()
    # sim_showcase has 638 classes at plus/1, and equal copies of its
    # models give the same report
    a, b = pairs[0]
    enum = FormulaEnumeration(a, b, Fragment.PLUS).extend_to_depth(1)
    assert enumerated_weak(enum).formula_count == len(enum) == 638
    copies = FormulaEnumeration(*load_pair("sim_showcase"), Fragment.PLUS).extend_to_depth(1)
    assert enumerated_weak(copies).to_dict() == enumerated_weak(enum).to_dict()


def test_a_formula_whose_text_is_too_long_fails_loudly():
    # 34 terms parse and evaluate in milliseconds, but their text would
    # take about 1e16 characters; the verdict labels refuse it
    a, b = load_pair("fully_equivalent")
    chain = parse(" | ".join(["p"] * 34))
    full = ones(a.algebra, (len(a.worlds), len(b.worlds)))
    with pytest.raises(ValueError, match=r"^formula text of \d+ characters is longer than"):
        check_weak(a, b, full, [parse("q"), chain])
    with pytest.raises(ValueError, match=r"^formula text of \d+ characters is longer than"):
        check_union_closed(a, b, [chain], full, full)


def test_closure_checks_refuse_a_relation_that_is_not_weak():
    a, b = load_pair("fully_equivalent")
    formulas = [parse("p"), parse("q")]
    full = ones(a.algebra, (len(a.worlds), len(b.worlds)))
    weak = greatest_weak(a, b, formulas).prebisimulation
    with pytest.raises(ValueError, match=r"^phi1 is not a weak bisimulation: wb-2\[fwd, A=p\] fails$"):
        check_union_closed(a, b, formulas, full, weak)
    with pytest.raises(ValueError, match=r"^phi23 is not a weak simulation: "):
        check_composition_closed(a, b, a, formulas, weak, full.inverse(), bisimulation=False)


# -- a fragment's report in closed form ------------------------------------------


def enumerated(a, b, fragment, depth, budget=BUDGET):
    """The report of every class of an enumeration: what ``fragment_weak``
    must reproduce byte for byte."""
    return enumerated_weak(FormulaEnumeration(a, b, Fragment(fragment), budget).extend_to_depth(depth))


def chi_fold(a, b, fragment, depth):
    """The report folded over the rows chi_p of B_d, which are classes (see
    the docstring of weak): ``fragment_weak``'s report field for field but
    the count, at any count."""
    pair, n1 = level_pair(a, b), len(a.worlds)
    iterate = union_iterate(pair, THETA_FOR_FRAGMENT.get(Fragment(fragment)), depth)
    return _weak_report(a, b, pair.universe, iterate[:, :n1], iterate[:, n1:])


ENUMERABLE = 20_000
"""The class count up to which a reference report is enumerated."""


def cli_outputs(capsys, monkeypatch, paths, fragment, depth, budget, report=None):
    """The exit code and stdout of ``weak --fragment`` in text and in JSON;
    with ``report``, of the CLI printing that report instead of its own."""
    out = []
    with monkeypatch.context() as patch:
        if report is not None:
            patch.setattr(cli, "fragment_weak", lambda *args: report)
        for fmt in ("text", "json"):
            code = cli.main(["weak", "--fragment", fragment, "--depth", str(depth),
                             "--budget", str(budget), *paths, "--format", fmt])
            out.append((code, capsys.readouterr().out))
    return out


class ClosedFormOracle:
    """Runs ``fragment_weak`` on one pair, in the library and through the
    CLI, against the report of the whole class set: an enumeration's when
    the count is at most ``ENUMERABLE`` or the budget, else the fold over
    the rows chi_p.  A run whose count passes the budget must give that
    report with the budget as its count and ``truncated`` set; the cut
    runs are tallied."""

    def __init__(self, tmp_path, capsys, monkeypatch):
        self.tmp_path, self.capsys, self.monkeypatch = tmp_path, capsys, monkeypatch
        self.runs = self.cut = 0

    def check(self, a, b, fragments, depths, budget=BUDGET):
        paths = []
        for side, model in zip("ab", (a, b)):
            path = self.tmp_path / f"pair{self.runs}_{side}.json"
            path.write_text(model.to_json(), encoding="utf-8")
            paths.append(str(path))
        for fragment in fragments:
            for depth in depths:
                count = fragment_weak(a, b, Fragment(fragment), depth, 10**100).formula_count
                if count <= max(budget, ENUMERABLE):
                    whole = enumerated(a, b, fragment, depth, count)
                    assert not whole.truncated
                else:
                    whole = replace(chi_fold(a, b, fragment, depth), formula_count=count)
                want = whole if count <= budget else replace(whole, formula_count=budget, truncated=True)
                new = fragment_weak(a, b, Fragment(fragment), depth, budget)
                assert new.to_dict() == want.to_dict(), (fragment, depth, budget)
                args = (self.capsys, self.monkeypatch, paths, fragment, depth, budget)
                assert cli_outputs(*args) == cli_outputs(*args, report=want)
                self.runs += 1
                self.cut += count > budget


def test_the_closed_form_weak_report_is_the_enumerations(tmp_path, capsys, monkeypatch):
    """On the bundled pairs, seeded pairs of four algebras with one or two
    variables and indices, and Godel path pairs to depth 5, the report and
    both CLI outputs are the enumeration's; a run the budget cuts is the
    whole set's but for its count, and exits by its verdict."""
    oracle = ClosedFormOracle(tmp_path, capsys, monkeypatch)
    fragments = ("prop", "plus", "minus", "full")
    for name in ("sim_showcase", "backward_only", "fully_equivalent", "crisp_pair"):
        oracle.check(*load_pair(name), fragments, range(4))
    rng = random.Random("closed form")
    for algebra in ("boolean", "chain:3", "chain:5", "godel"):
        for k in range(4):
            a, b = random_pair(rng, Algebra.from_spec(algebra), 2 + k % 2,
                               variables=("p", "q")[: 1 + k % 2], indices=(1, 2)[: 1 + k // 2],
                               pool=GODEL_ENUM_POOL if algebra == "godel" else None)
            oracle.check(a, b, fragments, range(4), 20_000)
    for n in range(3, 7):
        a = path_model("godel", n, "0.7", "0.3", "s")
        b = path_model("godel", n - 1, "0.7", "0.3", "t")
        oracle.check(a, b, fragments[1:], range(6), 20_000)
    assert oracle.runs == 64 + 16 * 16 + 4 * 18 and oracle.cut > 0


def unused_value_pair():
    """The showcase pair with its right relation met with a matrix of 1/2
    and 1: the relation keeps 1/2 in its universe, though no entry uses it."""
    a, b = load_pair("sim_showcase")
    rel = b.relations[1]
    half = FuzzyMat(GODEL, [[Fraction(1, 2) if v == 0 else Fraction(1) for v in row] for row in rel.rows])
    met = KripkeModel(b.algebra, b.worlds, {1: rel.meet(half)}, b.valuation)
    assert met == b and Fraction(1, 2) in met.universe.values
    return a, met


def no_index_pair():
    return [KripkeModel(m.algebra, m.worlds, {}, m.valuation) for m in load_pair("fully_equivalent")]


def test_the_class_count_runs_over_the_constants_not_the_universe(tmp_path, capsys, monkeypatch):
    """A relation met with another keeps the other's values in its
    universe: 1/2 is in the pair's universe, though no entry uses it, and
    no class takes it.  A pair with no relation index has the classes of
    its propositional closure at every depth."""
    oracle = ClosedFormOracle(tmp_path, capsys, monkeypatch)
    a, met = unused_value_pair()
    pair = level_pair(a, met)
    assert Fraction(1, 2) not in pair.universe.decode(pair.constants)
    oracle.check(a, met, ("prop", "plus", "full"), range(3))
    bare = no_index_pair()
    oracle.check(*bare, ("prop", "plus", "minus", "full"), range(3))
    counts = {fragment_weak(*bare, Fragment.FULL, d).formula_count for d in range(3)}
    assert counts == {len(FormulaEnumeration(*bare, Fragment.PROPOSITIONAL))}


def test_a_budget_cut_keeps_the_exact_report_and_a_budget_at_the_count_does_not_cut(
        tmp_path, capsys, monkeypatch):
    """Budgets below, at and above the count: a cut report is the whole
    set's, its matrices and verdicts exact, with the budget as its count."""
    oracle = ClosedFormOracle(tmp_path, capsys, monkeypatch)
    a, b = load_pair("sim_showcase")
    for budget in (1, 9, 50, 500):
        oracle.check(a, b, ("plus", "full"), (0, 1, 2), budget)
    count = fragment_weak(a, b, Fragment.PLUS, 1).formula_count
    at = fragment_weak(a, b, Fragment.PLUS, 1, budget=count)
    assert not at.truncated and at.formula_count == count
    below = fragment_weak(a, b, Fragment.PLUS, 1, budget=count - 1)
    assert below == replace(at, formula_count=count - 1, truncated=True)
    oracle.check(a, b, ("plus",), (1,), count)
    oracle.check(a, b, ("plus",), (1,), count - 1)
    assert oracle.cut >= 12


def many_valued_path(n, prefix, values):
    """A Godel path of ``n`` worlds along relation 1, with one variable per
    value of ``values`` that holds it at every world, and p below 1 at the
    last world only."""
    rows = [[Fraction(int(j == i + 1)) for j in range(n)] for i in range(n)]
    valuation = {f"c{k}": FuzzyVec(GODEL, [value] * n) for k, value in enumerate(values)}
    valuation["p"] = FuzzyVec(GODEL, [values[-1] if i == n - 1 else Fraction(1) for i in range(n)])
    return KripkeModel(GODEL, [f"{prefix}{i}" for i in range(n)], {1: FuzzyMat(GODEL, rows)}, valuation)


def many_constants_pair():
    """Godel paths of 4 and 3 worlds whose entries hold 3,012 values."""
    values = [Fraction(k, 3011) for k in range(1, 3011)]
    return many_valued_path(4, "s", values), many_valued_path(3, "t", values)


def loaded(models, tmp_path):
    """The models written with ``to_json`` and loaded back: each model's
    tables then share the one universe of its document."""
    paths = [tmp_path / f"m{k}.json" for k in range(len(models))]
    for m, path in zip(models, paths):
        path.write_text(m.to_json(), encoding="utf-8")
    return [KripkeModel.load(path) for path in paths]


def encodes(monkeypatch, run):
    """The calls ``run()`` makes to ``KripkeModel.encoded``, per model (by
    id), and to ``Universe.encode``."""
    per_model, remaps = {}, []
    encoded, encode = KripkeModel.encoded, Universe.encode

    def count_encoded(self, universe):
        per_model[id(self)] = per_model.get(id(self), 0) + 1
        return encoded(self, universe)

    def count_encode(self, values):
        remaps.append(len(values))
        return encode(self, values)

    with monkeypatch.context() as patch:
        patch.setattr(KripkeModel, "encoded", count_encoded)
        patch.setattr(Universe, "encode", count_encode)
        run()
    return per_model, len(remaps)


def test_a_chain_of_3000_constants_is_counted_without_a_frame_per_level(tmp_path):
    """3,012 values in a uint16 universe.  At depth 0 the worlds differ
    only at the level below top, so the classes are the 3,012 constants
    and the two rows that differ there, which the enumeration finds too;
    at depth 1 the count passes the budget at once, and the report is
    still the fold over the rows chi_p.  The pair loaded back from JSON,
    whose tables share one universe per model, gives the same reports."""
    a, b = many_constants_pair()
    pair = level_pair(a, b)
    assert pair.universe.dtype == np.uint16 and len(pair.constants) == 3012
    depth0 = fragment_weak(a, b, Fragment.PLUS, 0)
    assert depth0.formula_count == 3012 + 2 and not depth0.truncated
    assert depth0.to_dict() == enumerated(a, b, "plus", 0).to_dict()
    cut = fragment_weak(a, b, Fragment.PLUS, 1, budget=1000)
    assert cut == replace(chi_fold(a, b, "plus", 1), formula_count=1000, truncated=True)
    la, lb = loaded((a, b), tmp_path)
    assert fragment_weak(la, lb, Fragment.PLUS, 0).to_dict() == depth0.to_dict()
    assert fragment_weak(la, lb, Fragment.PLUS, 1, budget=1000).to_dict() == cut.to_dict()


@pytest.mark.parametrize("name", ["sim_showcase", "many_constants_pair"])
def test_each_entry_point_encodes_each_model_once_per_pair_it_builds(name, tmp_path, monkeypatch):
    """One build of the pair per public entry point: ``hm_check`` and
    ``invariance_check`` build it once and hand it to ``greatest_pre`` (and
    the latter to the fragment report), and ``fragment_weak`` builds it
    once, cut by the budget or not.  A build remaps each source
    universe once, so on the loaded 3,012-table pair, whose models each
    hold one, the calls to ``Universe.encode`` do not grow with the tables."""
    if name == "sim_showcase":
        (a, b), budget = load_pair(name), 9
    else:
        (a, b), budget = loaded(many_constants_pair(), tmp_path), 1000
    phi = greatest_pre(a, b, SimType.FB).matrix
    runs = {
        "greatest_pre": (lambda: greatest_pre(a, b, SimType.FB), 1),
        "check_conditions": (lambda: check_conditions(a, b, phi, SimType.FB), 1),
        "FormulaEnumeration": (lambda: FormulaEnumeration(a, b, Fragment.PLUS, budget), 1),
        "fragment_weak": (lambda: fragment_weak(a, b, Fragment.PLUS, 0), 1),
        "fragment_weak cut": (lambda: fragment_weak(a, b, Fragment.PLUS, 1, budget), 1),
        "hm_check": (lambda: hm_check(a, b, Fragment.PLUS, 0, budget), 1),
        "invariance_check": (
            lambda: invariance_check(a, b, SimType.FB, Fragment.PLUS, 0, budget), 1),
    }
    assert fragment_weak(a, b, Fragment.PLUS, 1, budget).truncated
    for entry, (run, builds) in runs.items():
        per_model, remaps = encodes(monkeypatch, run)
        assert per_model == {id(a): builds, id(b): builds} and remaps <= 2 * builds, entry


def test_the_constants_are_not_paired_with_each_other(monkeypatch):
    """The first pass of the depth-0 closure of the 3,012-constant pair
    pairs each constant only with the rows that are not constants: at
    most constants x non-constants + non-constants x all candidate rows
    per connective, not the square of the seeded rows."""
    a, b = many_constants_pair()
    calls = []
    pair_keys = FormulaEnumeration._pair_keys

    def record(self, c, lhs, rows):
        calls.append((c, lhs, rows.shape[0]))
        return pair_keys(self, c, lhs, rows)

    monkeypatch.setattr(FormulaEnumeration, "_pair_keys", record)
    e = FormulaEnumeration(a, b, Fragment.PLUS)
    monkeypatch.undo()
    consts, seeded = len(e.constants), len(e.generator_indices())
    assert (consts, seeded, len(e)) == (3012, 3013, 3014)
    rows = np.hstack(e.level_vectors())
    first = {c: 0 for c in (0, 1)}
    for c, lhs, partners in calls:
        k = int(np.flatnonzero((rows == lhs[0]).all(axis=1))[0])
        if k < seeded:  # a chunk of the first pass
            first[c] += lhs.shape[0] * partners
    bound = consts * (seeded - consts) + (seeded - consts) * seeded
    assert first[0] > 0 and max(first.values()) <= bound


def entry_values(m):
    """The values the entries of a model hold, as Fractions."""
    return ({v for rel in m.relations.values() for row in rel.rows for v in row}
            | {v for vec in m.valuation.values() for v in vec.values})


def test_the_closed_form_report_is_the_fold_over_the_rows_of_the_iterate():
    """The rows chi_p of B_d are classes (see the docstring of weak), so
    the folds over them give ``fragment_weak``'s report field for field
    but the count: an oracle for the -1 verdicts that reads no row for a
    top, on Godel path pairs of 8-20 worlds to the fixpoint and on seeded
    pairs of 6-10 worlds, too large to enumerate.  The seeded constants
    are 0, 1 and the values of the entries."""
    runs = {}

    def compare(a, b, fragments):
        pair, n1 = level_pair(a, b), len(a.worlds)
        universe = pair.universe
        for fragment in map(Fragment, fragments):
            previous = None
            for depth in range(10**6):
                iterate = union_iterate(pair, THETA_FOR_FRAGMENT.get(fragment), depth)
                got = fragment_weak(a, b, fragment, depth, budget=10**100)
                want = _weak_report(a, b, universe, iterate[:, :n1], iterate[:, n1:])
                assert replace(want, formula_count=got.formula_count) == got, (fragment, depth)
                if previous is not None and np.array_equal(iterate, previous):
                    break
                previous = iterate
            runs[fragment] = runs.get(fragment, 0) + depth + 1

    for n in (8, 12, 16, 20):
        a = path_model("godel", n, "0.7", "0.3", "s")
        b = path_model("godel", n - 1, "0.7", "0.3", "t")
        compare(a, b, ("plus", "minus", "full"))
    rng = random.Random("chi basis")
    for algebra in ("boolean", "chain:3", "chain:5", "godel"):
        for k in range(3):
            a, b = (random_model(rng, Algebra.from_spec(algebra), rng.randint(6, 10),
                                 ("p", "q")[: 1 + k % 2], (1, 2)[: 1 + k // 2]) for _ in "ab")
            b = KripkeModel(b.algebra, [f"t{w}" for w in range(len(b.worlds))], b.relations, b.valuation)
            compare(a, b, ("prop", "plus", "minus", "full"))
    assert runs[Fragment.FULL] > 4 * 20

    pairs = [case[:2] for case in oracle_cases()]
    pairs += [unused_value_pair(), no_index_pair(), many_constants_pair()]
    assert len(pairs) == 189 + 3
    for a, b in pairs:
        pair = level_pair(a, b)
        universe, seeds = pair.universe, pair.constants
        assert seeds.dtype == universe.dtype
        assert universe.decode(seeds) == sorted({0, 1} | entry_values(a) | entry_values(b))
    assert universe.dtype == np.uint16 and len(seeds) == 3012
