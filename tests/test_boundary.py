"""The level path from load to output.

Vectors, matrices and models carry level arrays over a value table, so
loading, evaluating, relating and printing a model does per-value work
(parsing, carrier checks, ``as_integer_ratio`` keys, ``format_value``)
once per distinct value, not once per entry.  Objects built on that path
must be the objects the per-entry ``Fraction`` constructors build.
"""

import io
import json
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from fuzzykripke import algebra, levels
from fuzzykripke.algebra import Algebra, format_value
from fuzzykripke.bisim import SimType, greatest_pre
from fuzzykripke.cli import main
from fuzzykripke.fuzzrel import FuzzyMat, FuzzyVec
from fuzzykripke.model import KripkeModel
from fuzzykripke.syntax import Fragment, FormulaEnumeration, parse

GODEL = Algebra.godel()
POOL = ("0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1")
FORMULA = "<>-_1 []_2 (p -> <>_1 q)"


def document(n: int, pool=POOL, algebra: str = "godel") -> dict:
    """An n-world model whose entries cycle through every value of ``pool``."""

    def value(k: int) -> str:
        return pool[k % len(pool)]

    return {
        "algebra": algebra,
        "worlds": [f"w{i}" for i in range(n)],
        "indices": [1, 2],
        "relations": {
            str(r): [[value(7 * i + 3 * j + r) for j in range(n)] for i in range(n)]
            for r in (1, 2)
        },
        "valuation": {p: [value(5 * i + k) for i in range(n)] for k, p in enumerate("pq")},
    }


def per_entry(doc: dict) -> KripkeModel:
    """The model of ``doc`` built from ``Fraction`` rows, one object per entry."""
    alg = Algebra.from_spec(doc["algebra"])
    return KripkeModel(
        alg,
        doc["worlds"],
        {
            int(i): FuzzyMat(alg, [[Fraction(v) for v in row] for row in rows])
            for i, rows in doc["relations"].items()
        },
        {p: FuzzyVec(alg, [Fraction(v) for v in vec]) for p, vec in doc["valuation"].items()},
    )


def cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) in (0, 1)
    return out.getvalue()


# -- per-value work does not grow with the entries ------------------------------


def counted_run(monkeypatch, tmp_path, n: int) -> Counter:
    path = tmp_path / f"model{n}.json"
    path.write_text(json.dumps(document(n)))
    counts = Counter()
    original = algebra.format_value

    def counting_format(value):
        counts["format_value"] += 1
        return original(value)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fuzzykripke" and getattr(module, "format_value", None) is original:
            monkeypatch.setattr(module, "format_value", counting_format)
    ratio = Fraction.as_integer_ratio

    def counting_ratio(self):
        counts["as_integer_ratio"] += 1
        return ratio(self)

    monkeypatch.setattr(Fraction, "as_integer_ratio", counting_ratio)
    KripkeModel.load(path)
    cli("eval", str(path), FORMULA)
    cli("bisim", str(path), str(path), "--type", "rb", "--format", "json")
    cli("reverse", str(path))
    monkeypatch.undo()
    return counts


def test_per_value_work_scales_with_distinct_values_not_entries(monkeypatch, tmp_path):
    small = counted_run(monkeypatch, tmp_path, 26)
    large = counted_run(monkeypatch, tmp_path, 52)
    # 52 worlds have four times the entries of 26 and the same eleven values
    assert large == small
    entries = 2 * 52 * 52 + 2 * 52
    assert 0 < large["format_value"] <= 4 * len(POOL)
    assert 0 < large["as_integer_ratio"] <= 40 * len(POOL) < entries // 5


# -- the level path builds the objects of the per-entry path --------------------


def assert_same_matrix(got: FuzzyMat, want: FuzzyMat) -> None:
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.rows == want.rows
    assert got.shape == want.shape
    assert got.format() == [[format_value(v) for v in row] for row in want.rows]


@pytest.mark.parametrize("n", [1, 5, 20])
def test_loaded_models_equal_per_entry_models(n):
    doc = document(n)
    got, want = KripkeModel.from_dict(doc), per_entry(doc)
    assert got == want and got.to_json() == want.to_json()
    for i in doc["relations"]:
        assert_same_matrix(got.relations[int(i)], want.relations[int(i)])
        assert_same_matrix(got.relations[int(i)].inverse(), want.relations[int(i)].inverse())
    for p in doc["valuation"]:
        vec, ref = got.valuation[p], want.valuation[p]
        assert vec == ref and hash(vec) == hash(ref) and vec.values == ref.values
        assert vec.format() == [format_value(v) for v in ref.values]
    assert got.reverse().to_json() == want.reverse().to_json()
    f = parse(FORMULA)
    assert got.eval_vec(f).values == want.eval_vec(f).values


def test_cli_output_equals_per_entry_formatting(tmp_path):
    doc = document(12)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    ref = per_entry(doc)
    values = [format_value(v) for v in ref.eval_vec(parse(FORMULA)).values]
    assert cli("eval", str(path), FORMULA) == " ".join(values) + "\n"
    out = json.loads(cli("eval", str(path), FORMULA, "--format", "json"))
    assert out == {"worlds": doc["worlds"], "values": values}
    for kind in ("fs", "rb"):
        report = greatest_pre(ref, ref, SimType(kind))
        out = json.loads(cli("bisim", str(path), str(path), "--type", kind, "--format", "json"))
        assert out["matrix"] == [[format_value(v) for v in row] for row in report.matrix.rows]
        assert out == report.to_dict()
        text = cli("bisim", str(path), str(path), "--type", kind)
        width = max(len(c) for row in out["matrix"] for c in row + doc["worlds"])
        assert f"{doc['worlds'][0].ljust(width)}  " + " ".join(
            c.rjust(width) for c in out["matrix"][0]
        ) in text
    assert cli("reverse", str(path)) == ref.reverse().to_json()


def test_table_with_values_the_matrix_does_not_use():
    wide = levels.Universe(Fraction(k, 10) for k in range(11))
    lv = np.array([[3, 0], [10, 7]], dtype=wide.dtype)
    got = FuzzyMat._from_levels(GODEL, lv, wide)
    want = FuzzyMat(GODEL, [[Fraction(3, 10), 0], [1, Fraction(7, 10)]])
    assert len(want.universe) == 4 < len(got.universe)
    assert_same_matrix(got, want)
    assert_same_matrix(got.meet(want), want)
    assert_same_matrix(got.join(want.inverse().inverse()), want)
    assert_same_matrix(got.compose(want), want.compose(got))
    assert got.leq(want) and want.leq(got)
    vec = FuzzyVec._from_levels(GODEL, np.array([7, 3], dtype=wide.dtype), wide)
    assert vec == FuzzyVec(GODEL, [Fraction(7, 10), Fraction(3, 10)])
    assert vec.format() == ["0.7", "0.3"]
    # a model over such tables uses, and enumerates, only its own values
    model = KripkeModel(GODEL, ["a", "b"], {1: got}, {"p": vec})
    own = (0, Fraction(3, 10), Fraction(7, 10), 1)
    assert FormulaEnumeration(model, model, Fragment.PLUS).constants == own
    assert model == KripkeModel(GODEL, ["a", "b"], {1: want}, {"p": FuzzyVec(GODEL, vec.values)})


def test_more_than_256_values_use_uint16_levels(tmp_path):
    pool = tuple(f"{k}/311" for k in range(312))
    doc = document(20, pool)
    doc["relations"]["2"] = [[pool[(i * 20 + j) * 7 % 312] for j in range(20)] for i in range(20)]
    got, want = KripkeModel.from_dict(doc), per_entry(doc)
    assert got.universe.dtype == np.uint16 and len(got.universe) > 256
    assert got == want and got.to_json() == want.to_json()
    for i in (1, 2):
        assert_same_matrix(got.relations[i], want.relations[i])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert cli("reverse", str(path)) == want.reverse().to_json()
    report = greatest_pre(want, want, SimType.FB)
    assert json.loads(cli("bisim", str(path), str(path), "--type", "fb", "--format", "json")) == (
        report.to_dict()
    )


def test_equal_but_distinct_fraction_objects_are_one_value():
    halves = [[Fraction(1, 2), Fraction(2, 4)], [Fraction("0.5"), Fraction(1, 2)]]
    assert len({id(v) for row in halves for v in row}) == 4
    shared = Fraction(1, 2)
    a, b = FuzzyMat(GODEL, halves), FuzzyMat(GODEL, [[shared] * 2] * 2)
    assert_same_matrix(a, b)
    assert len(a.universe) == 3
    # spellings of one value share one table entry in a document
    doc = document(3, ("0.5", "1/2", " 0.50 ", "2/4"))
    model = KripkeModel.from_dict(doc)
    assert model.universe.values == (0, Fraction(1, 2), 1)
    assert model == per_entry(doc)
    assert {v for row in model.to_dict()["relations"]["1"] for v in row} == {"0.5"}


def test_values_one_float_cannot_tell_apart_still_sort_exactly():
    third = Fraction(1, 3)
    near = [Fraction(10**20, 3 * 10**20 + k) for k in (1, -1)]
    assert {float(v) for v in near} == {float(third)}
    universe = levels.Universe([near[1], third, near[0]])
    assert universe.values == (0, near[0], third, near[1], 1)
    mat = FuzzyMat(GODEL, [[near[1], third], [near[0], third]])
    assert mat.rows == ((near[1], third), (near[0], third))
    assert mat.levels.tolist() == [[3, 2], [1, 2]]
