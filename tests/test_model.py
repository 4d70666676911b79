"""Model files, evaluation semantics, reversal, and pointwise equivalence."""

import json
import random
from fractions import Fraction

import pytest

from conftest import random_model, vec_strs
from fuzzykripke.algebra import Algebra, AlgebraError
from fuzzykripke.fixtures import PAIRS, fixture_path, load_pair
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.model import KripkeModel, ModelError, check_comparable, phi_equivalent
from fuzzykripke.syntax import (
    And,
    Box,
    BoxInv,
    Const,
    Diamond,
    DiamondInv,
    Implies,
    Var,
    dual,
    parse,
)

GODEL = Algebra.godel()


# -- an independent evaluator, used as the oracle -------------------------------


def eval_oracle(m: KripkeModel, f, w: int) -> Fraction:
    """Direct recursive evaluation at world index ``w``, double loops and all."""
    alg = m.algebra
    n = len(m.worlds)
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Var):
        return m.valuation[f.name].values[w]
    if isinstance(f, And):
        return min(eval_oracle(m, f.left, w), eval_oracle(m, f.right, w))
    if isinstance(f, Implies):
        return alg.residuum(eval_oracle(m, f.left, w), eval_oracle(m, f.right, w))
    rel = m.relations[f.index]
    if isinstance(f, Diamond):
        return max(min(rel.rows[w][v], eval_oracle(m, f.child, v)) for v in range(n))
    if isinstance(f, Box):
        return min(alg.residuum(rel.rows[w][v], eval_oracle(m, f.child, v)) for v in range(n))
    if isinstance(f, DiamondInv):
        return max(min(rel.rows[v][w], eval_oracle(m, f.child, v)) for v in range(n))
    if isinstance(f, BoxInv):
        return min(alg.residuum(rel.rows[v][w], eval_oracle(m, f.child, v)) for v in range(n))
    raise AssertionError(f)


def random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(
            [Var("p"), Var("q"), Const(Fraction(0)), Const(Fraction(1, 2)), Const(Fraction(1))]
        )
    shape = rng.randrange(6)
    if shape < 2:
        left = random_formula(rng, depth - 1)
        right = random_formula(rng, depth - 1)
        return And(left, right) if shape == 0 else Implies(left, right)
    ctor = (Diamond, Box, DiamondInv, BoxInv)[shape - 2]
    return ctor(rng.choice((1, 2)), random_formula(rng, depth - 1))


def test_eval_matches_oracle_on_random_models(rng):
    for _ in range(150):
        m = random_model(rng, GODEL, rng.randint(1, 4), variables=("p", "q"), indices=(1, 2))
        f = random_formula(rng, 3)
        got = m.eval_vec(f)
        for w in range(len(m.worlds)):
            assert got.values[w] == eval_oracle(m, f, w)


def test_frozen_vectors_on_showcase_model():
    a, _ = load_pair("sim_showcase")
    cases = {
        "p": ["0.8", "0.4", "0.2"],
        "<>_1 p": ["0.8", "0.3", "0.8"],
        "[]_1 p": ["0.2", "0.2", "0.2"],
        "<>-_1 p": ["0.8", "0.8", "0.8"],
        "[]-_1 p": ["0.2", "0.2", "0.2"],
        "<>_1 p & p": ["0.8", "0.3", "0.2"],
        "p -> 0.5": ["0.5", "1", "1"],
        "!p": ["0", "0", "0"],
        "p <-> 0.4": ["0.4", "1", "0.2"],
        "<>_1 <>_1 p": ["0.8", "0.7", "0.8"],
        "[]_1 <>_1 p": ["0.3", "1", "0.3"],
    }
    for text, values in cases.items():
        f = parse(text)
        assert vec_strs(a.eval_vec(f).values) == values, text
        for w, name in enumerate(a.worlds):
            assert a.eval(name, f) == a.eval_vec(f).values[w]


def test_eval_constant_and_connective_clauses():
    a, _ = load_pair("sim_showcase")
    n = len(a.worlds)
    assert a.eval_vec(parse("0.3")).values == (Fraction(3, 10),) * n
    p = a.valuation["p"].values
    conj = a.eval_vec(parse("p & 0.4")).values
    imp = a.eval_vec(parse("p -> 0.4")).values
    for w in range(n):
        assert conj[w] == min(p[w], Fraction(2, 5))
        assert imp[w] == a.algebra.residuum(p[w], Fraction(2, 5))


def test_world_lookup():
    a, _ = load_pair("sim_showcase")
    assert a.worlds == ("u", "v", "w")
    assert a.world_index("v") == 1
    with pytest.raises(ModelError):
        a.world_index("nope")
    with pytest.raises(ModelError):
        a.eval("nope", parse("p"))


def test_eval_rejects_undeclared_names():
    a, _ = load_pair("sim_showcase")
    with pytest.raises(ModelError):
        a.eval_vec(parse("zz"))
    with pytest.raises(ModelError):
        a.eval_vec(parse("<>_9 p"))


def test_chain_model_rejects_off_carrier_constant():
    a, _ = load_pair("crisp_pair")
    assert a.algebra.kind == "boolean"
    with pytest.raises(AlgebraError):
        a.eval_vec(parse("0.5"))


# -- reversal and the modal duality ---------------------------------------------


def test_reverse_transposes_relations_only():
    a, _ = load_pair("sim_showcase")
    rev = a.reverse()
    assert rev.worlds == a.worlds
    assert rev.valuation["p"].values == a.valuation["p"].values
    assert rev.relations[1].rows == a.relations[1].inverse().rows
    assert rev.reverse().to_dict() == a.to_dict()


def test_reversal_duality_bridge(rng):
    # evaluating on the reversed model equals evaluating the dual formula
    for _ in range(120):
        m = random_model(rng, GODEL, rng.randint(1, 4), variables=("p", "q"), indices=(1, 2))
        f = random_formula(rng, 3)
        assert m.reverse().eval_vec(f).values == m.eval_vec(dual(f)).values


# -- document round-trips ----------------------------------------------------------


def test_bundled_documents_are_byte_stable():
    for name in PAIRS:
        for side in ("a", "b"):
            text = fixture_path(f"{name}_{side}.json").read_text()
            model = KripkeModel.from_json(text)
            assert model.to_json() == text


def test_dict_round_trip_preserves_model(rng):
    m = random_model(rng, GODEL, 3, variables=("p", "q"), indices=(1, 2))
    again = KripkeModel.from_dict(json.loads(m.to_json()))
    assert again.to_dict() == m.to_dict()
    assert again.worlds == m.worlds
    assert again.relations[2].rows == m.relations[2].rows


def test_save_and_load(tmp_path, rng):
    m = random_model(rng, GODEL, 2)
    target = tmp_path / "model.json"
    m.save(target)
    assert KripkeModel.load(target).to_dict() == m.to_dict()


def test_document_validation_errors():
    a, _ = load_pair("sim_showcase")
    base = a.to_dict()

    def variant(mutate):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        return doc

    with pytest.raises(ModelError):
        KripkeModel.from_dict(variant(lambda d: d.pop("algebra")))
    with pytest.raises(AlgebraError):
        KripkeModel.from_dict(variant(lambda d: d.update(algebra="weird")))
    with pytest.raises(ModelError):
        KripkeModel.from_dict(variant(lambda d: d.update(worlds=[])))
    with pytest.raises(ModelError):
        KripkeModel.from_dict(variant(lambda d: d.update(worlds=["u", "u", "w"])))
    with pytest.raises(ModelError):
        KripkeModel.from_dict(
            variant(lambda d: d["relations"].update(one=d["relations"].pop("1")))
        )
    with pytest.raises((ModelError, ValueError)):
        KripkeModel.from_dict(
            variant(lambda d: d["relations"]["1"].__setitem__(0, d["relations"]["1"][0][:2]))
        )
    with pytest.raises(AlgebraError):
        KripkeModel.from_dict(variant(lambda d: d["valuation"].update(p=["2", "0", "0"])))
    with pytest.raises(ModelError):
        KripkeModel.from_json("{not json")

    # strings where lists belong are not split into characters
    with pytest.raises(ModelError, match="'worlds' must be a list"):
        KripkeModel.from_dict(variant(lambda d: d.update(worlds="uvw")))
    with pytest.raises(ModelError, match="relation 1, row 0 must be a list"):
        KripkeModel.from_dict(variant(lambda d: d["relations"]["1"].__setitem__(0, "100")))
    with pytest.raises(ModelError, match="relation 1 must be a list"):
        KripkeModel.from_dict(variant(lambda d: d["relations"].update({"1": "100"})))
    with pytest.raises(ModelError, match="valuation of 'p' must be a list"):
        KripkeModel.from_dict(variant(lambda d: d["valuation"].update(p="010")))
    with pytest.raises(ModelError, match="'relations' must be an object"):
        KripkeModel.from_dict(variant(lambda d: d.update(relations=[])))
    with pytest.raises(ModelError, match="'indices' must be a list"):
        KripkeModel.from_dict(variant(lambda d: d.update(indices=1)))
    with pytest.raises(ModelError, match="world name 3 is not a string"):
        KripkeModel.from_dict(variant(lambda d: d["worlds"].__setitem__(0, 3)))
    # JSON floats and booleans are not exact values; the entry is named
    with pytest.raises(ModelError, match=r"relation 1, row 2, entry 1: 0\.30000000000000004"):
        KripkeModel.from_dict(
            variant(lambda d: d["relations"]["1"][2].__setitem__(1, 0.1 + 0.2))
        )
    with pytest.raises(ModelError, match="valuation of 'p', entry 0: true"):
        KripkeModel.from_dict(variant(lambda d: d["valuation"]["p"].__setitem__(0, True)))
    # JSON integers are exact and load as values
    ints = KripkeModel.from_dict(variant(lambda d: d["valuation"].update(p=[1, 0, "0"])))
    assert vec_strs(ints.valuation["p"]) == ["1", "0", "0"]


def test_constructor_validates_dimensions():
    alg = GODEL
    with pytest.raises(ModelError):
        KripkeModel(
            alg,
            ["a", "b"],
            {1: FuzzyMat(alg, [[Fraction(0)]])},
            {"p": FuzzyVec(alg, [Fraction(0), Fraction(0)])},
        )
    with pytest.raises(ModelError):
        KripkeModel(
            alg,
            ["a"],
            {1: FuzzyMat(alg, [[Fraction(0)]])},
            {"p": FuzzyVec(alg, [Fraction(0), Fraction(0)])},
        )


# -- pointwise formula-set equivalence ----------------------------------------------


def test_phi_equivalent_finds_pairings():
    fa, fb = load_pair("fully_equivalent")
    formulas = [parse("p"), parse("<>_1 p"), parse("[]_1 p")]
    result = phi_equivalent(fa, fb, formulas)
    assert result.equivalent and bool(result)
    assert result.unmatched is None
    assert set(result.pairing_left) == set(fa.worlds)
    assert set(result.pairing_right) == set(fb.worlds)
    # every reported pairing really agrees on every formula
    for u, up in result.pairing_left.items():
        for f in formulas:
            assert fa.eval(u, f) == fb.eval(up, f)


def test_phi_equivalent_reports_witness():
    alg = GODEL
    left = KripkeModel(
        alg, ["s0"], {1: FuzzyMat(alg, [[Fraction(0)]])}, {"p": FuzzyVec(alg, [Fraction(1)])}
    )
    right = KripkeModel(
        alg,
        ["t0"],
        {1: FuzzyMat(alg, [[Fraction(0)]])},
        {"p": FuzzyVec(alg, [Fraction(1, 2)])},
    )
    result = phi_equivalent(left, right, [parse("p")])
    assert not result.equivalent
    assert result.unmatched == ("left", "s0")


def test_comparability_requires_same_signature():
    a, _ = load_pair("sim_showcase")
    c, _ = load_pair("crisp_pair")
    with pytest.raises((ModelError, AlgebraError)):
        check_comparable(a, c)
