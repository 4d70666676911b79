"""Model files, evaluation semantics, reversal, and pointwise equivalence."""

import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest

from conftest import random_model, vec_strs
from fuzzykripke import model as model_module
from fuzzykripke.algebra import Algebra, AlgebraError, format_value, parse_value
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


def test_a_chain_of_disjunctions_is_evaluated_once_per_node(monkeypatch):
    # ``disj`` puts each operand into its expansion twice, so the tree of
    # a chain of | is exponential; evaluation and the constant scan must
    # visit each node of the shared formula once
    a, _ = load_pair("sim_showcase")
    calls = Counter()
    residuum, check_value = model_module.residuum, Algebra.check_value

    def counted_residuum(*args):
        calls["residuum"] += 1
        return residuum(*args)

    def counted_check_value(self, value):
        calls["check_value"] += 1
        return check_value(self, value)

    monkeypatch.setattr(model_module, "residuum", counted_residuum)
    monkeypatch.setattr(Algebra, "check_value", counted_check_value)
    terms = 12
    p = a.eval_vec(parse("p"))
    calls.clear()
    assert a.eval_vec(parse(" | ".join(["p"] * terms))) == p
    assert calls["residuum"] <= 4 * (terms - 1)
    halves = parse(" | ".join(["0.5"] * terms))
    calls.clear()
    assert model_module.formula_constants(a.algebra, [halves]) == {Fraction(1, 2)}
    assert calls["check_value"] <= terms
    # the longest chain the parser admits
    longest = parse(" | ".join(["p"] * 34))
    start = time.perf_counter()
    assert a.eval_vec(longest) == p
    assert time.perf_counter() - start < 1.0


def test_the_first_undeclared_name_is_reported():
    # the order of a recursive evaluation: left before right, and a
    # modality's own index before the names under it
    a, _ = load_pair("sim_showcase")
    cases = {
        "r & <>_9 p": "undeclared variable 'r'",
        "<>_9 p & r": "undeclared relation index 9",
        "<>_9 r": "undeclared relation index 9",
        "[]-_7 <>_9 r": "undeclared relation index 7",
        "(<>_9 r) | s": "undeclared relation index 9",
        "0.5 & <>_8 (r & <>_9 p)": "undeclared relation index 8",
    }
    for text, message in cases.items():
        with pytest.raises(ModelError, match=f"^{message}$"):
            a.eval_vec(parse(text))
    with pytest.raises(ModelError, match="^undeclared relation index 9$"):
        a.eval_levels([parse("p"), parse("<>_9 p"), parse("r")], a.universe)


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
    # empty or ragged relations and empty valuations name their container
    with pytest.raises(ModelError, match=r"^relation 1: fuzzy matrix rows must be nonempty"):
        KripkeModel.from_dict(
            variant(lambda d: d["relations"]["1"].__setitem__(0, d["relations"]["1"][0][:2]))
        )
    with pytest.raises(ModelError, match=r"^relation 1: fuzzy matrix must have at least one row$"):
        KripkeModel.from_dict(variant(lambda d: d["relations"].update({"1": []})))
    with pytest.raises(ModelError, match=r"^valuation of 'p': fuzzy vector must be nonempty$"):
        KripkeModel.from_dict(variant(lambda d: d["valuation"].update(p=[])))
    with pytest.raises(AlgebraError):
        KripkeModel.from_dict(variant(lambda d: d["valuation"].update(p=["2", "0", "0"])))
    with pytest.raises(ModelError):
        KripkeModel.from_json("{not json")
    # an integer literal longer than Python converts is not a bare ValueError
    with pytest.raises(ModelError, match=r"^invalid JSON: Exceeds the limit"):
        KripkeModel.from_json("[" + "1" * 5000 + "]")

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


# -- loading parses each spelling and checks each value once ---------------------


def reference_from_dict(doc: dict) -> KripkeModel:
    """The per-entry loader: ``parse_value`` on every entry, no memo."""
    alg = Algebra.from_spec(doc["algebra"])

    def values(entries):
        return [parse_value(str(v)) for v in entries]

    return KripkeModel(
        alg,
        doc["worlds"],
        {
            int(i): FuzzyMat(alg, [values(row) for row in rows])
            for i, rows in doc["relations"].items()
        },
        {p: FuzzyVec(alg, values(vec)) for p, vec in doc["valuation"].items()},
    )


def spell(rng: random.Random, v: Fraction):
    """One of several spellings of ``v``: shortest decimal, p/q, scaled p/q,
    space-padded, a trailing zero, or a JSON integer for 0 and 1."""
    text = format_value(v)
    options = [
        text,
        f"{v.numerator}/{v.denominator}",
        f"{3 * v.numerator}/{3 * v.denominator}",
        f" {text}  ",
    ]
    if "." in text:
        options.append(text + "0")
    if v.denominator == 1:
        options.append(int(v))
    return rng.choice(options)


def random_document(rng: random.Random, algebra: Algebra) -> dict:
    if algebra.is_finite:
        pool = list(algebra.carrier())
    else:
        pool = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 10), Fraction(5, 7)]
    n = rng.randint(1, 6)
    indices = rng.sample((1, 2, 3), rng.randint(1, 2))

    def entries(count):
        return [spell(rng, rng.choice(pool)) for _ in range(count)]

    return {
        "algebra": algebra.spec(),
        "worlds": [f"w{k}" for k in range(n)],
        "indices": indices,
        "relations": {str(i): [entries(n) for _ in range(n)] for i in indices},
        "valuation": {p: entries(n) for p in ("p", "q")},
    }


def test_loader_matches_per_entry_parsing(rng):
    for algebra in (Algebra.boolean(), Algebra.chain(3), Algebra.chain(5), GODEL):
        for _ in range(30):
            doc = random_document(rng, algebra)
            got = KripkeModel.from_dict(json.loads(json.dumps(doc)))
            want = reference_from_dict(doc)
            assert got == want
            assert got.to_json() == want.to_json()


def test_loader_parses_each_spelling_once_and_checks_each_value_once(monkeypatch):
    parsed = Counter()
    checks = []
    parse = model_module.parse_value
    check = Algebra.check_value
    monkeypatch.setattr(
        model_module, "parse_value", lambda text: parsed.update([text]) or parse(text)
    )
    monkeypatch.setattr(
        Algebra, "check_value", lambda self, value: checks.append(value) or check(self, value)
    )
    rng = random.Random(4)
    spellings = ["0", "0.25", "0.5", "0.75", "1"]
    n = 12

    def entries():
        return [rng.choice(spellings) for _ in range(n)]

    doc = {
        "algebra": "chain:5",
        "worlds": [f"w{k}" for k in range(n)],
        "indices": [1, 2],
        "relations": {i: [entries() for _ in range(n)] for i in ("1", "2")},
        "valuation": {p: entries() for p in ("p", "q")},
    }
    KripkeModel.from_dict(doc)
    parts = [list(chain.from_iterable(rows)) for rows in doc["relations"].values()]
    parts += doc["valuation"].values()
    assert parsed == Counter(set(chain.from_iterable(parts)))
    assert 0 < len(checks) <= sum(len(set(part)) for part in parts)


def test_repeated_bad_spelling_is_reported_at_its_first_entry():
    def doc(relation, valuation):
        return {
            "algebra": "godel", "worlds": ["a", "b"], "indices": [1],
            "relations": {"1": relation}, "valuation": {"p": valuation},
        }

    first = r"^relation 1, row 0, entry 1: malformed truth value '0\.x'$"
    with pytest.raises(AlgebraError, match=first):
        KripkeModel.from_dict(doc([["0.5", "0.x"], ["0.x", "0.x"]], ["0.x", "1"]))
    # a later bad entry of another kind does not overtake it
    with pytest.raises(AlgebraError, match=first):
        KripkeModel.from_dict(doc([["0.5", "0.x"], [0.5, "0.x"]], ["1", "1"]))
    outside = r"^valuation of 'p', entry 1: truth value '2' is outside"
    with pytest.raises(AlgebraError, match=outside):
        KripkeModel.from_dict(doc([["0.5", "1"], ["1", "0.5"]], ["0.5", "2"]))
    # a JSON float equal to a spelling already parsed is still rejected
    inexact = r"^relation 1, row 1, entry 0: 0\.5 is not an exact value"
    with pytest.raises(ModelError, match=inexact):
        KripkeModel.from_dict(doc([["0.5", "1"], [0.5, "1"]], ["1", "1"]))


def test_off_carrier_value_after_many_valid_copies_is_caught():
    n = 30
    rows = [["0.5"] * n for _ in range(n - 1)] + [["0.5"] * (n - 1) + ["0.25"]]
    doc = {
        "algebra": "chain:3", "worlds": [f"w{k}" for k in range(n)], "indices": [1],
        "relations": {"1": rows}, "valuation": {"p": ["1"] * n},
    }
    with pytest.raises(AlgebraError, match="1/4 is not in the chain:3 carrier"):
        KripkeModel.from_dict(doc)
    doc["relations"]["1"][-1][-1] = "0.5"
    doc["valuation"]["p"][-1] = "0.75"
    with pytest.raises(AlgebraError, match="3/4 is not in the chain:3 carrier"):
        KripkeModel.from_dict(doc)


def test_too_deeply_nested_json_is_a_model_error():
    with pytest.raises(ModelError, match="nested too deeply"):
        KripkeModel.from_json("[" * 100_000 + "]" * 100_000)


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


@pytest.mark.parametrize("name", ["P q", "", "1p", "\u00e9", "p-q", "P", "p\n"])
def test_a_variable_no_formula_can_spell_is_refused(name):
    doc = {
        "algebra": "godel", "worlds": ["a"], "indices": [1],
        "relations": {"1": [["0"]]}, "valuation": {"p": ["1"], name: ["0.5"]},
    }
    refused = f"^variable {re.escape(repr(name))} is not spelled"
    with pytest.raises(ModelError, match=refused):
        KripkeModel.from_dict(doc)
    with pytest.raises(ModelError, match=refused):
        KripkeModel(GODEL, ["a"], {}, {name: FuzzyVec(GODEL, [Fraction(0)])})


def test_a_negative_or_boolean_relation_index_is_refused():
    doc = {
        "algebra": "godel", "worlds": ["a"], "indices": [2, -1],
        "relations": {"2": [["0"]], "-1": [["1"]]}, "valuation": {"p": ["1"]},
    }
    with pytest.raises(ModelError, match="^relation index -1 is negative"):
        KripkeModel.from_dict(doc)
    with pytest.raises(ModelError, match="^relation index -3 is negative"):
        KripkeModel(GODEL, ["a"], {-3: FuzzyMat(GODEL, [[Fraction(1)]])}, {})
    # a formula would print index True as <>_True
    with pytest.raises(ModelError, match="^relation index True is not an integer"):
        KripkeModel(GODEL, ["a"], {True: FuzzyMat(GODEL, [[Fraction(1)]])}, {})


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


def greedy_phi_equivalent(m1, m2, formulas):
    """Pointwise equivalence by comparing value profiles world by world."""
    profile1 = [[m1.eval(w, f) for f in formulas] for w in m1.worlds]
    profile2 = [[m2.eval(w, f) for f in formulas] for w in m2.worlds]
    pairing_left, pairing_right = {}, {}
    for i, w in enumerate(m1.worlds):
        match = next((j for j, p in enumerate(profile2) if p == profile1[i]), None)
        if match is None:
            return False, {}, {}, ("left", w)
        pairing_left[w] = m2.worlds[match]
    for j, w in enumerate(m2.worlds):
        match = next((i for i, p in enumerate(profile1) if p == profile2[j]), None)
        if match is None:
            return False, {}, {}, ("right", w)
        pairing_right[w] = m1.worlds[match]
    return True, pairing_left, pairing_right, None


def test_phi_equivalent_matches_the_greedy_profile_loop():
    rng = random.Random("phi-equivalent")
    corpus = [parse(t) for t in ("p", "q", "<>_1 p", "[]_1 q", "<>-_1 (p & q)", "!p")]
    outcomes = Counter()
    for algebra in (Algebra.boolean(), Algebra.from_spec("chain:3"), GODEL):
        for _ in range(40):
            m1, m2 = (random_model(rng, algebra, rng.randint(1, 4), ("p", "q"))
                      for _ in range(2))
            m2 = KripkeModel(algebra, [f"t{k}" for k in range(len(m2.worlds))],
                             m2.relations, m2.valuation)
            formulas = rng.sample(corpus, rng.randint(1, 3))
            result = phi_equivalent(m1, m2, formulas)
            want = greedy_phi_equivalent(m1, m2, formulas)
            assert (result.equivalent, result.pairing_left, result.pairing_right,
                    result.unmatched) == want
            outcomes[want[3][0] if want[3] else "equivalent"] += 1
    assert set(outcomes) == {"equivalent", "left", "right"}


def test_comparability_requires_same_signature():
    a, _ = load_pair("sim_showcase")
    c, _ = load_pair("crisp_pair")
    with pytest.raises((ModelError, AlgebraError)):
        check_comparable(a, c)
    two = KripkeModel(a.algebra, a.worlds, {**a.relations, 2: a.relations[1]}, a.valuation)
    with pytest.raises(ModelError, match=r"^index sets differ: \[1\] vs \[1, 2\]$"):
        check_comparable(a, two)
    renamed = KripkeModel(a.algebra, a.worlds, a.relations, {"q": a.valuation["p"]})
    with pytest.raises(ModelError, match=r"^variable sets differ: \['p'\] vs \['q'\]$"):
        check_comparable(a, renamed)


def test_too_many_values_name_the_container_that_crosses_the_bound():
    # 65,535 distinct values besides 0 and 1 make a universe of 65,537
    many = [f"1/{k}" for k in range(2, 65_537)]
    doc = {
        "algebra": "godel", "worlds": ["a", "b"], "indices": [1],
        "relations": {"1": [["0", "1"], ["1", "0"]]}, "valuation": {"p": many},
    }
    with pytest.raises(ModelError, match=r"^valuation of 'p': value universe of 65537 values"):
        KripkeModel.from_dict(doc)
