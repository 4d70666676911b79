"""Model files, evaluation semantics, reversal, and pointwise equivalence."""

import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_model, vec_strs
from test_fuzz import FUZZ, documents
from fuzzykripke import model as model_module
from fuzzykripke.algebra import VALUE_PATTERN, Algebra, AlgebraError, format_value, parse_value
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


def counting_parse(monkeypatch) -> Counter:
    """The texts ``parse_value`` is called on, counted, while loading."""
    parsed = Counter()
    parse = model_module.parse_value
    monkeypatch.setattr(
        model_module, "parse_value", lambda text: parsed.update([text]) or parse(text)
    )
    return parsed


def test_each_distinct_spelling_is_parsed_once_across_every_table(monkeypatch):
    """One parse per distinct spelling of the document, wherever it first
    occurs (a valuation, the second relation) and however often it
    recurs; spellings of one value share one table entry."""
    parsed = counting_parse(monkeypatch)
    doc = {
        "algebra": "godel", "worlds": ["a", "b", "c"], "indices": [1, 2],
        "relations": {
            "1": [["0.5", "1/2", "0"], ["0", "0", "0.5"], ["1", 1, "0.5"]],
            "2": [[" 0.5", "0.25", 0], ["0.25", "1/4", "1/4"], [1, "1", "0.50"]],
        },
        "valuation": {"p": ["0.75", "0.5", 1], "q": ["0.75", "3/4", "0.125"]},
    }
    m = KripkeModel.from_dict(doc)
    texts = [str(e) for rows in doc["relations"].values() for row in rows for e in row]
    texts += [str(e) for vec in doc["valuation"].values() for e in vec]
    assert parsed == Counter(set(texts))
    assert len(parsed) == 11
    assert [format_value(v) for v in m.universe.values] == ["0", "0.125", "0.25", "0.5", "0.75", "1"]
    assert m == reference_from_dict(doc)


def test_a_relation_of_json_integers_parses_each_integer_once(monkeypatch):
    parsed = counting_parse(monkeypatch)
    rng = random.Random(6)
    n = 60
    ints = [[rng.choice((0, 1)) for _ in range(n)] for _ in range(n)]
    doc = {
        "algebra": "godel", "worlds": [f"w{k}" for k in range(n)], "indices": [1],
        "relations": {"1": ints}, "valuation": {"p": ["0.5"] * n},
    }
    got = KripkeModel.from_dict(json.loads(json.dumps(doc)))
    assert parsed == Counter(["0", "1", "0.5"])
    doc["relations"]["1"] = [list(map(str, row)) for row in ints]
    twin = KripkeModel.from_dict(doc)
    assert got == twin and got.to_json() == twin.to_json()


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


# -- the bulk loader against the per-entry loader it replaced --------------------


def fraction_parse(text: str) -> Fraction:
    """``parse_value`` as a regex check and ``Fraction(text)``."""
    text = text.strip()
    if re.fullmatch(VALUE_PATTERN, text) is None:
        raise AlgebraError(f"malformed truth value {text!r}")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise AlgebraError(f"truth value {text!r} has a zero denominator") from None
    except ValueError:  # more digits than Python converts to an integer
        raise AlgebraError(f"malformed truth value {text!r}") from None
    if value > 1:
        raise AlgebraError(f"truth value {text!r} is outside [0, 1]")
    return value


class PerEntryTable(model_module._ValueTable):
    """The loader table that reads each row entry by entry, with
    :func:`fraction_parse`: the reference for the bulk table.  It reads
    through its own plain dict of spellings, so a lookup never parses."""

    def __init__(self, algebra):
        super().__init__(algebra)
        self.spellings = {}

    def entries(self, entries, where, row=None):
        index = self.spellings
        if isinstance(entries, list):
            try:
                return list(map(index.__getitem__, entries))
            except (KeyError, TypeError):
                pass
        if row is not None:
            where = f"{where}, row {row}"
        if not isinstance(entries, list):
            raise ModelError(f"{where} must be a list of values")
        out = []
        for k, v in enumerate(entries):
            if isinstance(v, bool) or not isinstance(v, (str, int)):
                raise ModelError(
                    f"{where}, entry {k}: {json.dumps(v)} is not an exact value; "
                    'write it as a string such as "0.3"'
                )
            try:
                text = str(v)
            except ValueError as exc:  # more digits than Python converts to text
                raise AlgebraError(f"{where}, entry {k}: {exc}") from None
            i = index.get(text)
            if i is None:
                try:
                    value = fraction_parse(text)
                except AlgebraError as exc:
                    raise AlgebraError(f"{where}, entry {k}: {exc}") from None
                i = index[text] = self.by_value.setdefault(
                    value.as_integer_ratio(), len(self.values)
                )
                if i == len(self.values):
                    self.values.append(value)
            out.append(i)
        return out

    def matrix(self, rows, where):
        if not isinstance(rows, list):
            raise ModelError(f"{where} must be a list of rows")
        ids = [self.entries(row, where, r) for r, row in enumerate(rows)]
        self._check(where)
        if not ids:
            raise ModelError(f"{where}: fuzzy matrix must have at least one row")
        if not ids[0] or any(len(r) != len(ids[0]) for r in ids):
            raise ModelError(f"{where}: fuzzy matrix rows must be nonempty and equally long")
        return np.array(ids, dtype=np.intp)

    def vector(self, entries, where):
        ids = self.entries(entries, where)
        self._check(where)
        if not ids:
            raise ModelError(f"{where}: fuzzy vector must be nonempty")
        return np.array(ids, dtype=np.intp)


def load_outcome(doc, table=None):
    """What loading ``doc`` gives: the worlds, the universe values and every
    level array with its dtype, or the error's type and message.  With a
    ``table`` class, the loader reads through it."""
    with mock.patch.object(model_module, "_ValueTable", table or model_module._ValueTable):
        try:
            m = KripkeModel.from_dict(doc)
        except (ModelError, AlgebraError) as exc:
            return type(exc), str(exc)
    parts = {**m.relations, **m.valuation}
    return m.worlds, m.universe.values, {
        k: (x.levels.dtype, x.levels.tolist(), x.universe.values) for k, x in parts.items()
    }


@FUZZ
@given(documents())
def test_the_bulk_loader_equals_the_per_entry_loader(doc):
    assert load_outcome(doc) == load_outcome(doc, PerEntryTable)


def one_relation(rows, valuation=("1", "1")):
    return {
        "algebra": "godel", "worlds": ["a", "b"], "indices": [1],
        "relations": {"1": rows}, "valuation": {"p": list(valuation)},
    }


@pytest.mark.parametrize("doc, error", [
    (one_relation([["0.5", "0.x"], ["0.x", "1"]]), "row 0, entry 1: malformed truth value '0.x'"),
    (one_relation([["0.5", "1"], [0.5, "1"]]), "row 1, entry 0: 0.5 is not an exact value"),
    (one_relation([["1", True], ["1", "1"]]), "row 0, entry 1: true is not an exact value"),
    (one_relation([[1, "1"], [True, 1]]), "row 1, entry 0: true is not an exact value"),
    (one_relation([[1, 1.0], ["1", "1"]]), "row 0, entry 1: 1.0 is not an exact value"),
    (one_relation([["1", ["1"]], ["1", "1"]]), 'row 0, entry 1: ["1"] is not an exact value'),
    (one_relation([["1", {"1": 1}], ["1", "1"]]), 'row 0, entry 1: {"1": 1} is not an exact value'),
    (one_relation([["1", "0.x"], "01"]), "row 0, entry 1: malformed truth value"),
    (one_relation([["1", "1"], "01", ["0.x"]]), "row 1 must be a list of values"),
    (one_relation([["1", "0.x"], ["1"]]), "row 0, entry 1: malformed truth value"),
    (one_relation([["1", "1"], ["2"]]), "row 1, entry 0: truth value '2' is outside"),
    (one_relation([[], ["1", "x"]]), "row 1, entry 1: malformed truth value 'x'"),
    (one_relation([["1", "1"], ["1", -1]]), "row 1, entry 1: malformed truth value '-1'"),
    (one_relation([["1", 0.5, "0.x"], ["1"]]), "row 0, entry 1: 0.5 is not an exact value"),
    (one_relation([["1", "0.x", 0.5], ["1"]]), "row 0, entry 1: malformed truth value"),
    (one_relation([["1", "1"], ["1", "1"]], ["1", 2.5]), "'p', entry 1: 2.5 is not an exact"),
    (one_relation([["1", "1"], ["1"]]), "rows must be nonempty and equally long"),
    (one_relation([["1", "1"], ["1", 10**5000]]),
     "row 1, entry 1: Exceeds the limit (4300 digits) for integer string conversion"),
])
def test_malformed_documents_fail_as_the_per_entry_loader_fails(doc, error):
    got = load_outcome(doc)
    assert got == load_outcome(doc, PerEntryTable)
    assert got[0] in (ModelError, AlgebraError) and error in got[1]


PADDING = st.sampled_from(["", " ", "  ", "\t", "\n", "\u3000", "\xa0"])
LONG = [
    "0." + "1" * 4300, "0." + "1" * 4301, "0" * 4300 + ".5", "0" * 4301 + ".5",
    "1/" + "9" * 4300, "1/" + "9" * 4301, "1" * 4301 + "/" + "2" * 4301, "0/" + "0" * 4301,
    "0" * 4301, "1" * 4300, "0/0", "1/0", "\u0663/\u0664", "\u0660.\u0665", "\uff11/\uff12", "\u0661",
]


@FUZZ
@given(st.tuples(PADDING, st.from_regex(VALUE_PATTERN, fullmatch=True) | st.sampled_from(LONG), PADDING))
def test_parse_value_equals_fraction_of_the_text(parts):
    text = "".join(parts)
    outcomes = []
    for parse in (parse_value, fraction_parse):
        try:
            value = parse(text)
            outcomes.append((type(value), value))
        except AlgebraError as exc:
            outcomes.append((AlgebraError, str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text, key", [
    ('"relations": {"1": [["0"]], "1": [["1"]]}, "valuation": {"p": ["1"]}', '"1"'),
    ('"relations": {"1": [["0"]]}, "valuation": {"p": ["1"], "p": ["0"]}', '"p"'),
    ('"relations": {"1": [["0"]]}, "valuation": {"p": ["1"]}, "algebra": "chain:3"', '"algebra"'),
])
def test_a_repeated_json_key_is_refused(text, key):
    doc = '{"algebra": "godel", "worlds": ["a"], "indices": [1], ' + text + "}"
    with pytest.raises(ModelError, match=f"^invalid JSON: repeated key {re.escape(key)}$"):
        KripkeModel.from_json(doc)


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
    with pytest.raises(ModelError, match="^relation index 2 is declared twice$"):
        KripkeModel.from_dict({**doc, "indices": [2, 3, 2], "relations": {"2": [["0"]]}})
    with pytest.raises(ModelError, match="^relation index -3 is negative"):
        KripkeModel(GODEL, ["a"], {-3: FuzzyMat(GODEL, [[Fraction(1)]])}, {})
    # a formula would print index True as <>_True
    with pytest.raises(ModelError, match="^relation index True is not an integer"):
        KripkeModel(GODEL, ["a"], {True: FuzzyMat(GODEL, [[Fraction(1)]])}, {})


def test_a_relation_index_spelled_as_a_string_is_refused():
    # not read as index 1, although it names the relation key "1"
    doc = {
        "algebra": "godel", "worlds": ["a"], "indices": ["1"],
        "relations": {"1": [["0"]]}, "valuation": {"p": ["1"]},
    }
    with pytest.raises(ModelError, match="^relation index '1' is not an integer$"):
        KripkeModel.from_dict(doc)


@pytest.mark.parametrize("worlds, shown", [
    ([1, 2], "1"), (["a", None], "null"), (["a", ["b"]], '["b"]'), (["a", 1.5], "1.5"),
    (["a", b"b"], '"b\'b\'"'),
])
def test_a_world_name_that_is_not_a_string_is_refused(worlds, shown):
    """By the constructor as by the loader, with the loader's message, so
    that no model is made whose file cannot be read back."""
    refused = f"^world name {re.escape(shown)} is not a string$"
    relation = FuzzyMat.zeros(GODEL, (len(worlds), len(worlds)))
    with pytest.raises(ModelError, match=refused):
        KripkeModel(GODEL, worlds, {1: relation}, {})
    doc = {"algebra": "godel", "worlds": worlds, "indices": ["1"], "relations": {}, "valuation": {}}
    # the names are refused before the indices are read
    with pytest.raises(ModelError, match=refused):
        KripkeModel.from_dict(doc)


def test_models_built_by_the_constructor_round_trip_through_json(rng):
    names = ["s0", "a b", 'q"uote', "\u00e9", "\n", "", "1", "back\\slash"]
    for _ in range(60):
        algebra = Algebra.from_spec(rng.choice(["boolean", "chain:3", "chain:5", "godel"]))
        n = rng.randint(1, 4)
        m = random_model(rng, algebra, n, variables=("p", "q")[: rng.randint(0, 2)],
                         indices=(1, 4)[: rng.randint(0, 2)])
        m = KripkeModel(algebra, rng.sample(names, n), m.relations, m.valuation)
        again = KripkeModel.from_json(m.to_json())
        assert again == m and again.worlds == m.worlds and again.to_json() == m.to_json()


def test_a_model_is_immutable():
    a, _ = load_pair("sim_showcase")
    with pytest.raises(AttributeError, match="^KripkeModel is immutable$"):
        a.worlds = ("x",)
    assert a.worlds == load_pair("sim_showcase")[0].worlds


# -- pointwise formula-set equivalence ----------------------------------------------


def test_phi_equivalent_refuses_an_empty_formula_set():
    a, b = load_pair("sim_showcase")
    with pytest.raises(ModelError, match="^equivalence over an empty formula set is undefined$"):
        phi_equivalent(a, b, [])


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
