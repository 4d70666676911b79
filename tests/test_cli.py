"""Command line interface: outputs, file handling, and the exit-code contract."""

import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import fuzzykripke
from conftest import expected
from fuzzykripke import cli
from fuzzykripke.cli import main
from fuzzykripke.fixtures import PAIRS, fixture_path
from fuzzykripke.model import KripkeModel, _dump_json
from fuzzykripke.syntax import FormulaEnumeration

A = str(fixture_path("sim_showcase_a.json"))
B = str(fixture_path("sim_showcase_b.json"))
BA = str(fixture_path("backward_only_a.json"))
BB = str(fixture_path("backward_only_b.json"))
FA = str(fixture_path("fully_equivalent_a.json"))
FB = str(fixture_path("fully_equivalent_b.json"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- eval -------------------------------------------------------------------------


def test_eval_prints_vector(capsys):
    for text, values in expected("sim_showcase")["eval"].items():
        code, out, _ = run(capsys, "eval", A, text)
        assert code == 0
        assert out.strip().split() == values, text


def test_eval_single_world_json(capsys):
    code, out, _ = run(capsys, "eval", A, "<>_1 p", "--world", "v", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"world": "v", "value": "0.3"}


def test_eval_whole_vector_json(capsys):
    code, out, _ = run(capsys, "eval", A, "p", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"worlds": ["u", "v", "w"], "values": ["0.8", "0.4", "0.2"]}


def test_eval_undeclared_variable_exits_2(capsys):
    code, _, err = run(capsys, "eval", A, "q")
    assert code == 2
    assert "undeclared variable" in err


def test_eval_bad_formula_exits_2(capsys):
    code, _, err = run(capsys, "eval", A, "p &")
    assert code == 2
    assert "error" in err


def test_eval_unknown_world_exits_2(capsys):
    code, _, err = run(capsys, "eval", A, "p", "--world", "zz")
    assert code == 2


# -- bisim -----------------------------------------------------------------------


def test_bisim_json_matches_frozen_reports(capsys):
    frozen = expected("sim_showcase")["bisim"]
    for sim_type, want in frozen.items():
        code, out, _ = run(capsys, "bisim", "--type", sim_type, A, B, "--format", "json")
        assert code == 0
        assert json.loads(out) == want


def test_bisim_text_includes_matrix(capsys):
    code, out, _ = run(capsys, "bisim", "--type", "rb", A, B)
    assert code == 0
    assert "type: rb" in out
    assert "0.8 0.3 0.2" in out.replace("  ", " ").replace("  ", " ")


def test_bisim_nonexistent_kind_exits_1(capsys):
    code, out, _ = run(capsys, "bisim", "--type", "fb", BA, BB, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["exists"] is False
    assert doc["matrix"] == [["0.3", "0.3"]] * 3


def test_bisim_incompatible_models_exit_2(capsys):
    code, _, err = run(capsys, "bisim", "--type", "rb", A, str(fixture_path("crisp_pair_a.json")))
    assert code == 2


# -- weak ------------------------------------------------------------------------


def test_weak_corpus_matches_frozen_report(tmp_path, capsys):
    corpus = tmp_path / "pq.txt"
    corpus.write_text("# both variables\np\nq\n")
    code, out, _ = run(capsys, "weak", "--corpus", str(corpus), FA, FB, "--format", "json")
    assert code == 0
    assert json.loads(out) == expected("fully_equivalent")["weak_pq"]


def test_weak_fragment_enumerates(capsys):
    code, out, _ = run(capsys, "weak", "--fragment", "plus", "--depth", "1", FA, FB, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["bisimulation_exists"] and doc["equivalent"]
    assert doc["formula_count"] > 2


# the exit code and the sha256 of the JSON report of each enumerated weak
# job of the benchmark's expressivity workload
WEAK_FRAGMENT_DIGESTS = {
    ("sim_showcase", "full", 1): (1, "859c4c3be3d11c8c44e647d2e3c65d40cf9130f058b144b3ace39d2988c8613b"),
    ("sim_showcase", "plus", 2): (1, "963713047b4e5a4f3da5b79fcf8bd5dd08a725cb3d10a36e4d96e7af3c677391"),
    ("backward_only", "full", 1): (1, "ae1442ae68d980b9a37024de386c728e2edb391ece75aef43a6d70a4ec1d65c2"),
    ("fully_equivalent", "full", 1): (0, "f5fde67f5e168b1dd1b65419e8b5e628e68d0597ac7d484fe1f77f2cfcb65417"),
    ("fully_equivalent", "plus", 2): (0, "f5fde67f5e168b1dd1b65419e8b5e628e68d0597ac7d484fe1f77f2cfcb65417"),
    ("crisp_pair", "full", 1): (0, "84c2db85085e04b4f2922a1033e1a9ce7aa267d0468f9316d4aa0d53cc59792c"),
    ("crisp_pair", "plus", 2): (0, "84c2db85085e04b4f2922a1033e1a9ce7aa267d0468f9316d4aa0d53cc59792c"),
}


@pytest.mark.parametrize("name, fragment, depth", list(WEAK_FRAGMENT_DIGESTS))
def test_weak_fragment_json_bytes_are_pinned(capsys, name, fragment, depth):
    """The class order of an enumeration may change, its class set may not:
    the reports are the same byte for byte."""
    pair = [str(fixture_path(f"{name}_{side}.json")) for side in "ab"]
    argv = ("weak", "--fragment", fragment, "--depth", str(depth), *pair, "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == WEAK_FRAGMENT_DIGESTS[name, fragment, depth]


def test_an_uncut_weak_fragment_run_enumerates_nothing(monkeypatch, capsys):
    """The report of a run is computed in closed form, and a run whose
    class count passes the budget builds no enumeration either: it is the
    uncut run's report, with the budget as its count."""
    built = []
    init = FormulaEnumeration.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FormulaEnumeration, "__init__", counted)
    for (name, fragment, depth), (want, _) in WEAK_FRAGMENT_DIGESTS.items():
        pair = [str(fixture_path(f"{name}_{side}.json")) for side in "ab"]
        code, _, _ = run(capsys, "weak", "--fragment", fragment, "--depth", str(depth), *pair,
                         "--format", "json")
        assert code == want
    argv = ("weak", "--fragment", "full", "--depth", "1", A, B, "--format", "json")
    whole_code, whole, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--budget", "50")
    assert code == whole_code and json.loads(out) == {
        **json.loads(whole), "formula_count": 50, "truncated": True}
    assert built == []


def test_weak_text_reports_what_the_json_reports(capsys):
    argv = ("weak", "--fragment", "plus", "--depth", "1", A, B)
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    text_code, text, _ = run(capsys, *argv)
    assert code == text_code == 1
    lines = text.splitlines()
    assert lines[0] == f"formulas: {doc['formula_count']}"
    assert lines[1] == "greatest weak presimulation:"
    assert lines[2].split() == ["u'", "v'", "w'"]
    assert [line.split()[1:] for line in lines[3:6]] == doc["presimulation"]
    assert lines[6] == "greatest weak prebisimulation:"
    assert [line.split()[1:] for line in lines[8:11]] == doc["prebisimulation"]
    assert lines[11:] == [
        "simulation exists: no", "bisimulation exists: no", "equivalent: no",
    ]


def test_a_budget_cut_weak_run_says_so(capsys):
    """A cut run prints the budget as its count and says it was cut; its
    matrices and verdicts are the whole set's, and it exits by them."""
    for pair, want in (((A, B), 1), ((FA, FB), 0)):
        argv = ("weak", "--fragment", "full", "--depth", "2", *pair)
        code, text, _ = run(capsys, *argv, "--budget", "10")
        whole_code, whole, _ = run(capsys, *argv)
        assert code == whole_code == want
        assert text.splitlines()[0] == "formulas: 10 (budget exhausted)"
        assert text.splitlines()[1:] == whole.splitlines()[1:]
        assert text.splitlines()[-1] == f"equivalent: {'no' if want else 'yes'}"
        code, out, _ = run(capsys, *argv, "--budget", "10", "--format", "json")
        assert code == want and json.loads(out)["truncated"] is True
        # the whole set's report has no flag
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == want and "truncated" not in json.loads(out)
        assert whole.splitlines()[0] == f"formulas: {json.loads(out)['formula_count']}"


def test_weak_negative_verdict_exits_1(capsys):
    code, out, _ = run(capsys, "weak", "--fragment", "plus", "--depth", "1", BA, BB, "--format", "json")
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_weak_corpus_and_fragment_are_exclusive(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("p\n")
    with pytest.raises(SystemExit) as exits:
        main(["weak", "--corpus", str(corpus), "--fragment", "plus", FA, FB])
    assert exits.value.code == 2
    with pytest.raises(SystemExit) as exits:
        main(["weak", FA, FB])
    assert exits.value.code == 2


def test_weak_corpus_refuses_depth_and_budget(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("p\n")
    error = "error: --depth and --budget go with --fragment, not with --corpus\n"
    for extra in (["--depth", "1"], ["--depth", "-3"], ["--budget", "200000"],
                  ["--budget", "-1"], ["--depth", "-3", "--budget", "-1"]):
        code, out, err = run(capsys, "weak", "--corpus", str(corpus), *extra, A, B)
        assert (code, out, err) == (2, "", error)


def test_weak_empty_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("# nothing here\n")
    code, _, err = run(capsys, "weak", "--corpus", str(corpus), FA, FB)
    assert code == 2


def test_weak_fragment_budget_below_one_exits_2(capsys):
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "weak", "--fragment", "plus", "--budget", budget, FA, FB)
        assert (code, out) == (2, "")
        assert err == f"error: budget must be positive, got {budget}\n"


def test_weak_fragment_negative_depth_exits_2(capsys):
    code, out, err = run(capsys, "weak", "--fragment", "plus", "--depth", "-1", A, B)
    assert (code, out, err) == (2, "", "error: depth must be nonnegative, got -1\n")


def test_weak_fragment_on_an_incomparable_pair_exits_2(tmp_path, capsys):
    # the enumerator refuses the pair before it enumerates anything
    a = KripkeModel.load(BB)
    one_index = tmp_path / "one_index.json"
    model = KripkeModel(a.algebra, a.worlds, {1: a.relations[1]}, a.valuation)
    one_index.write_text(model.to_json())
    code, out, err = run(capsys, "weak", "--fragment", "plus", "--depth", "2", BA, str(one_index))
    assert (code, out, err) == (2, "", "error: index sets differ: [1, 2] vs [1]\n")


# -- hm --------------------------------------------------------------------------


def test_hm_json_summary_matches_frozen(capsys):
    frozen = expected("fully_equivalent")["hm"]
    for fragment in ("plus", "minus", "full"):
        code, out, _ = run(capsys, "hm", "--fragment", fragment, FA, FB, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        want = frozen[fragment]
        assert doc["match"] is True
        assert doc["converged_at"] == want["converged_at"]
        assert doc["steps"][-1]["matrix"] == want["final"]
        assert doc["strong"]["matrix"] == want["final"]


def test_hm_text_reports_match(capsys):
    code, out, _ = run(capsys, "hm", "--fragment", "minus", A, B)
    assert code == 0
    assert "match: yes" in out


def test_hm_truncation_is_exact_and_exits_by_the_match(capsys):
    """A budget cut bounds the counts only: the run matches, and exits 0,
    as the uncut run does."""
    code, out, _ = run(capsys, "hm", "--fragment", "full", "--depth-cap", "2", "--budget", "40", A, B)
    whole_code, whole, _ = run(capsys, "hm", "--fragment", "full", "--depth-cap", "2", A, B)
    assert code == whole_code == 0
    assert out.splitlines()[-2:] == whole.splitlines()[-2:] == ["stabilized at depth 2", "match: yes"]


def test_hm_text_names_what_stopped_the_ladder(capsys):
    """A ladder stops by stabilizing, by matching or at the depth cap, and
    a budget cut is none of these: each cut step reads the budget and says
    so, and the text and the verdicts are the uncut run's otherwise.  A
    ladder that reaches its cap is blamed on the cap."""
    cut = ("hm", "--fragment", "full", "--depth-cap", "2", "--budget", "40", A, B)
    code, out, _ = run(capsys, *cut)
    assert code == 0 and "depth 0: 40 classes (budget exhausted)\n" in out
    assert "budget cut" not in out and "depth cap" not in out
    whole = run(capsys, *cut[:5], A, B)[1]
    assert re.sub(r"depth (\d): \d+ classes", r"depth \1: 40 classes (budget exhausted)", whole) == out
    code, out, _ = run(capsys, *cut, "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["converged_at"] == 2 and doc["match"] is True
    assert [s["truncated"] for s in doc["steps"]] == [True] * 3
    for argv in (("hm", "--fragment", "full", "--depth-cap", "1", A, B), (*cut[:4], "1", *cut[5:])):
        code, out, _ = run(capsys, *argv)
        assert code == 1 and "not stabilized within the depth cap\n" in out and "budget cut" not in out


def test_hm_negative_depth_cap_and_budget_exit_2(capsys):
    code, out, err = run(capsys, "hm", "--fragment", "plus", "--depth-cap", "-1", A, B)
    assert (code, out, err) == (2, "", "error: depth must be nonnegative, got -1\n")
    code, out, err = run(capsys, "hm", "--fragment", "plus", "--budget", "-1", A, B)
    assert (code, out, err) == (2, "", "error: budget must be positive, got -1\n")


# -- check -----------------------------------------------------------------------


def test_check_accepts_the_greatest_relation(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"relation": expected("sim_showcase")["bisim"]["rb"]["matrix"]}))
    code, out, _ = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_relation"] and doc["all_conditions_hold"] and doc["nonempty"]
    assert all(c["holds"] for c in doc["conditions"])


def test_check_rejects_the_full_relation(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"relation": [["1", "1", "1"]] * 3}))
    code, out, _ = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["is_relation"] is False
    assert any(not c["holds"] for c in doc["conditions"])


def test_check_text_lists_every_condition_and_the_verdict(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    for matrix, verdict in (
        (expected("sim_showcase")["bisim"]["rb"]["matrix"], "yes"),
        ([["1", "1", "1"]] * 3, "no"),
    ):
        rel.write_text(json.dumps({"relation": matrix}))
        argv = ("check", "--type", "rb", "--relation", str(rel), A, B)
        code, out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        text_code, text, _ = run(capsys, *argv)
        assert code == text_code == (0 if verdict == "yes" else 1)
        lines = text.splitlines()
        assert len(lines) == len(doc["conditions"]) + 2
        for line, cond in zip(lines, doc["conditions"]):
            assert line.startswith(f"{cond['name']}: {'pass' if cond['holds'] else 'FAIL'}")
            assert line.endswith(f"  first violation: {cond['violation']}" if "violation" in cond
                                 else ": pass")
        assert lines[-2:] == ["nonempty: yes", f"relation of type rb: {verdict}"]


def test_check_bad_relation_shape_exits_2(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"relation": [["1", "1"]]}))
    code, _, err = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B)
    assert code == 2
    rel.write_text(json.dumps({"relation": [["1", "1"], ["1", "1"]]}))
    code, out, err = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B)
    assert (code, out) == (2, "")
    assert err == "error: relation shape (2, 2) does not match world counts (3, 3)\n"
    rel.write_text(json.dumps({"relation": []}))
    code, out, err = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B)
    assert code == 2 and out == ""
    assert err == f"error: {rel}: relation: fuzzy matrix must have at least one row\n"


def test_check_relation_file_without_a_relation_exits_2(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    for doc in ({"matrix": [["1"]]}, [["1"]]):
        rel.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B)
        assert (code, out) == (2, "")
        assert err == f"error: {rel} must be a JSON object with a 'relation' key\n"


def test_check_float_in_relation_exits_2(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rows = [["0.3", "0.3", "0.3"], ["0.3", 0.1 + 0.2, "0.3"], ["0.3", "0.3", "0.3"]]
    rel.write_text(json.dumps({"relation": rows}))
    code, out, err = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B)
    assert code == 2 and out == ""
    assert "row 1, entry 1" in err and "0.30000000000000004" in err


# -- reverse ---------------------------------------------------------------------


def test_reverse_round_trip_is_byte_identical(tmp_path, capsys):
    original = Path(A).read_text(encoding="utf-8")
    once = tmp_path / "rev.json"
    code, out, _ = run(capsys, "reverse", A, "-o", str(once))
    assert code == 0
    twice = tmp_path / "back.json"
    code, _, _ = run(capsys, "reverse", str(once), "-o", str(twice))
    assert code == 0
    assert twice.read_text() == original
    assert once.read_text() != original


def test_reverse_writes_stdout(capsys):
    code, out, _ = run(capsys, "reverse", A)
    assert code == 0
    doc = json.loads(out)
    assert doc["worlds"] == ["u", "v", "w"]
    original = json.loads(Path(A).read_text(encoding="utf-8"))
    transposed = [list(col) for col in zip(*original["relations"]["1"])]
    assert doc["relations"]["1"] == transposed


# -- common failure modes ----------------------------------------------------------


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "eval", "/nonexistent/model.json", "p")
    assert code == 2
    assert "error" in err


def test_malformed_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "eval", str(bad), "p")
    assert code == 2
    bad.write_text(json.dumps({"algebra": "godel", "worlds": ["a", "a"]}))
    code, _, err = run(capsys, "eval", str(bad), "p")
    assert code == 2
    bad.write_text('{"algebra": "godel", "worlds": ["a"], "worlds": ["b"]}')
    code, _, err = run(capsys, "eval", str(bad), "p")
    assert code == 2
    assert err == f'error: invalid JSON in {bad}: repeated key "worlds"\n'
    # a pair names the file that fails: a repeated key in the first, a bad
    # entry in the second
    doc = json.loads(Path(A).read_text(encoding="utf-8"))
    text = json.dumps(doc)
    bad.write_text('{"algebra": "godel", ' + text[1:])
    code, _, err = run(capsys, "bisim", str(bad), B, "--type", "fs")
    assert code == 2
    assert err == f'error: invalid JSON in {bad}: repeated key "algebra"\n'
    doc["relations"]["1"][0][0] = "0.5x"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "bisim", A, str(bad), "--type", "fs")
    assert code == 2
    assert err == f"error: {bad}: relation 1, row 0, entry 0: malformed truth value '0.5x'\n"
    bad.write_text('{"relation": [["1"]], "relation": [["0"]]}')
    code, _, err = run(capsys, "check", A, B, "--type", "fs", "--relation", str(bad))
    assert code == 2
    assert err == f'error: invalid JSON in {bad}: repeated key "relation"\n'


def test_exponent_spellings_are_refused_at_once(tmp_path, capsys):
    # an exponent would make the value's decimal expansion 200,000 digits long
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "algebra": "godel", "worlds": ["w"], "indices": [],
        "relations": {}, "valuation": {"p": ["1e-200000"]},
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", str(model), "p")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: {model}: valuation of 'p', entry 0: malformed truth value '1e-200000'\n"


def test_deep_nesting_exits_2_with_one_error_line(tmp_path, capsys):
    # too deep for a recursive descent: a formula in 3,000 parentheses, a
    # model file and a relation file of 100,000 nested JSON arrays
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    relation = tmp_path / "relation.json"
    relation.write_text('{"relation": ' + "[" * 100_000 + "]" * 100_000 + "}")
    for argv in (
        ("eval", A, "(" * 3000 + "p" + ")" * 3000),
        ("eval", A, "<>_1 " * 3000 + "p"),
        ("eval", str(deep), "p"),
        ("check", A, B, "--type", "fs", "--relation", str(relation)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "nested" in err


def checkout_env() -> dict:
    """The environment with the imported ``fuzzykripke`` first on PYTHONPATH,
    so that a child process runs this checkout's code."""
    env = dict(os.environ)
    package_root = Path(fuzzykripke.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return env


def test_repeated_main_calls_share_one_parser_and_leak_nothing(monkeypatch, capsys):
    """In-process calls reuse the parser built by the first one, and each
    answers exactly as the same command run in a fresh process."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (
            ["eval", A, "<>_1 p", "--world", "v"],
            ["bisim", A, B, "--type", "fs"],
            ["eval", A, "<>_1 p"],
        ):
            code, out, _ = run(capsys, *argv)
            fresh = subprocess.run(
                [sys.executable, "-m", "fuzzykripke.cli", *argv],
                capture_output=True, text=True, timeout=60, env=checkout_env(),
            )
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


# -- dispatch ----------------------------------------------------------------------


def dispatch_argvs(tmp_path):
    """Every subcommand called well, asking for help, and going wrong, as
    ``(argv, route)``: "run" for a well-formed call, "sub" for one whose
    subcommand's parser exits (help or a usage error), "top" for one the
    top-level parser must see (no subcommand, or arguments left over)."""
    relation = tmp_path / "rel.json"
    relation.write_text(json.dumps({"relation": [["1"] * 3] * 3}))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("p\n<>_1 p\n", encoding="utf-8")
    rel = str(relation)
    # subcommand -> its positionals, a well-formed call's options, bad option values
    calls = {
        "eval": ([A, "<>_1 p"], ["--world", "v"], [["--format", "xml"]]),
        "bisim": ([A, B], ["--type", "fs"], [["--type", "xx"], ["--type", "fs", "--format", "xml"]]),
        "weak": ([A, B], ["--fragment", "plus", "--depth", "1"],
                 [["--fragment", "all"], ["--fragment", "plus", "--depth", "x"],
                  ["--fragment", "plus", "--budget", "1.5"]]),
        "hm": ([A, B], ["--fragment", "minus", "--depth-cap", "2"],
               [["--fragment", "propositional"], ["--fragment", "plus", "--depth-cap", "x"],
                ["--fragment", "plus", "--budget", "x"]]),
        "check": ([A, B], ["--type", "rb", "--relation", rel], [["--type", "x", "--relation", rel]]),
        "reverse": ([A], [], [["-o"]]),
    }
    argvs = []
    for name, (positionals, options, bad_values) in calls.items():
        valid = [name, *positionals, *options]
        argvs += [
            (valid, "run"),
            (valid + (["-o", str(tmp_path / "out.json")] if name == "reverse" else ["--format", "json"]),
             "run"),
            ([name, "-h"], "sub"),
            (valid + ["--help"], "sub"),
            ([name, *positionals[:-1], *options], "sub"),  # a positional missing
            *(([name, *positionals, *bad], "sub") for bad in bad_values),
            (valid + ["--bogus"], "top"),
            (valid + ["extra"], "top"),
        ]
    argvs += [
        (["bisim", A, B], "sub"),  # --type missing
        (["check", A, B, "--relation", rel], "sub"),  # --type missing
        (["weak", A, B, "--corpus", str(corpus), "--fragment", "plus"], "sub"),
        (["bisim", A, B, "--ty", "fs"], "run"),  # an abbreviation
        (["weak", A, B, "--corpus", str(corpus)], "run"),
        (["eval", "/nonexistent/model.json", "p"], "run"),  # an error after parsing
        (["hm", A, B, "--fragment", "plus", "--budget", "0"], "run"),
        (["eval", A, "--", "-p"], "run"),
        ([], "top"), (["--help"], "top"), (["-h", "eval"], "top"), (["evaluate", A, "p"], "top"),
        (["eval", A, "p", "--world"], "sub"),
    ]
    return argvs


def outcome(capsys, argv):
    """Exit code (or the SystemExit's), stdout and stderr of ``main(argv)``."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dispatch_answers_as_the_top_level_parser(tmp_path, monkeypatch, capsys):
    """``main`` hands a subcommand's argv to that subcommand's parser; its
    exit code, stdout and stderr are those of the top-level
    ``build_parser().parse_args`` route on every argv, and only an argv
    that the subcommand's parser cannot take whole reaches the top-level
    parser."""
    parser = cli._parser()
    top_level = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: top_level.append(argv) or parse_args(argv))
    routes = Counter()
    for argv, route in dispatch_argvs(tmp_path):
        top_level.clear()
        got = outcome(capsys, argv)
        assert top_level == ([argv] if route == "top" else []), argv
        if route == "run":
            assert got[0] in (0, 1, 2), argv
            assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv)), argv
        else:
            assert got[0] in (("exit", 0), ("exit", 2)) and (got[1] or got[2]), argv
        with monkeypatch.context() as m:
            m.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
            want = outcome(capsys, argv)
        assert got == want, argv
        routes[route, got[0]] += 1
    assert routes["run", 0] and routes["run", 2] and routes["sub", ("exit", 0)]
    assert routes["sub", ("exit", 2)] and routes["top", ("exit", 0)] and routes["top", ("exit", 2)]


# -- the report writer ---------------------------------------------------------


def pair_commands(name, tmp_path):
    """Every subcommand with ``--format json`` on one bundled pair, the
    check run on the full relation, which breaks some condition."""
    a, b = (str(fixture_path(f"{name}_{side}.json")) for side in "ab")
    m1 = json.loads(Path(a).read_text())
    m2 = json.loads(Path(b).read_text())
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("p\n<>_1 p\n[]-_1 (p -> 0)\n", encoding="utf-8")
    relation = tmp_path / "full.json"
    relation.write_text(
        json.dumps({"relation": [["1"] * len(m2["worlds"]) for _ in m1["worlds"]]}),
        encoding="utf-8",
    )
    commands = [
        ["eval", a, "<>_1 p & p"],
        ["eval", a, "[]-_1 p", "--world", m1["worlds"][-1]],
        *(["bisim", a, b, "--type", kind] for kind in ("fs", "bs", "fb", "bb", "fbb", "bfb", "rb")),
        ["weak", a, b, "--corpus", str(corpus)],
        ["weak", a, b, "--fragment", "full", "--depth", "1"],
        ["hm", a, b, "--fragment", "full", "--depth-cap", "2"],
        ["check", a, b, "--type", "rb", "--relation", str(relation)],
    ]
    return [argv + ["--format", "json"] for argv in commands]


@pytest.mark.parametrize("name", PAIRS)
def test_the_report_writer_is_json_dumps_with_indent_2(name, tmp_path, monkeypatch, capsys):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(
        cli, "_emit", lambda args, payload, human: payloads.append(payload) or emit(args, payload, human)
    )
    violations = 0
    for argv in pair_commands(name, tmp_path):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1) and not err, argv
        payload = payloads.pop()
        want = json.dumps(payload, indent=2)
        assert _dump_json(payload) == want, argv
        assert out == want + "\n", argv
        if argv[0] == "check":
            violations += sum("violation" in c for c in payload["conditions"])
    assert violations


@pytest.mark.parametrize("payload", [
    {}, [], {"a": [], "b": {}, "c": [[]], "d": [{}]},
    {"worlds": ["\u00fc", "w\u00f6rld", "\u6f22", "\U0001f600", 'a"b\\c\n\t'], "n": -3},
    {"ü": {"nested": [1, True, False, None, "x", [2, "y"]]}, "world": "\u00fc\n"},
    [10**30, -0, 0, ("a", "b"), ()],
    {"s": "x\u00fc", "t": True, "f": False, "n": None, "zero": 0, "big": 10**30, "neg": -10**30},
    {"ints": [0, 1, -2, 10**30], "one": [7], "mixed": [1, True, None, "x"], "bools": [True, False]},
    [[0, 1, 2], [3], [10**30, -1]],
    {"finiteness": {"left": {"1": {"rows": [0, 2, 1], "cols": [1, 1, 0]}}}},
])
def test_the_report_writer_on_edge_payloads(payload):
    assert _dump_json(payload) == json.dumps(payload, indent=2)
    assert "\\u00fc" in _dump_json(["\u00fc"])


@pytest.mark.parametrize("payload", [
    0.5, [1, 0.5], {"a": {"b": 1.0}}, {"a": 0.5}, {"a": "x", "b": 1.0}, {"a": [1, 2, 0.5]},
    Fraction(1, 2), {"s": {1}}, object(),
])
def test_the_report_writer_refuses_floats_and_unknown_types(payload):
    with pytest.raises(TypeError):
        _dump_json(payload)


@pytest.mark.parametrize("argv", [
    ["bisim", A, B, "--type", "rb", "--format", "json"],
    ["hm", A, B, "--fragment", "full", "--format", "json"],
])
def test_a_json_call_leaves_no_garbage_cycles(argv):
    def call():
        with redirect_stdout(io.StringIO()):
            assert main(argv) in (0, 1)

    call()  # warm up: caches and the parser are built once
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def console_script_target(name):
    """The ``module:function`` that ``[project.scripts]`` declares for ``name``."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: match the table's lines
        table = None
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("["):
                table = line
            elif table == "[project.scripts]":
                found = re.fullmatch(r'"?([\w.-]+)"?\s*=\s*"([^"]*)"', line)
                if found and found.group(1) == name:
                    return found.group(2)
        raise KeyError(name)
    return tomllib.loads(text)["project"]["scripts"][name]


def test_console_script_runs_in_subprocess(tmp_path):
    """The declared entry point runs as its own process on this checkout's code.

    The child does what the wrapper that pip generates does, so the test
    needs no installed script and cannot pick up another copy on PATH.
    """
    target = console_script_target("fuzzykripke")
    assert target == "fuzzykripke.cli:main"
    module, func = target.split(":")
    package_dir = Path(fuzzykripke.__file__).resolve().parent
    code = (
        "import sys, fuzzykripke\n"
        "print(fuzzykripke.__file__, file=sys.stderr)\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'fuzzykripke'\n"
        f"sys.exit({func}())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, "eval", A, "p"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=checkout_env(),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0.8 0.4 0.2"
    assert str(package_dir / "__init__.py") in done.stderr.splitlines(), (
        "child imported another fuzzykripke"
    )


def test_every_subcommand_runs_clean_in_dev_mode(tmp_path):
    """Each subcommand, run as a child ``python -X dev -W error`` on this
    checkout, exits with its documented code and writes nothing to stderr:
    no warning, unclosed file or other dev-mode complaint."""
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"relation": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    reversed_ = tmp_path / "reversed.json"
    for argv, want in (
        (["eval", A, "<>_1 p"], 0),
        (["bisim", A, B, "--type", "fb", "--format", "json"], 0),
        (["weak", BA, BB, "--fragment", "plus", "--depth", "1"], 1),
        (["hm", A, B, "--fragment", "plus"], 0),
        (["check", A, B, "--type", "rb", "--relation", str(rel)], 1),
        (["reverse", A, "-o", str(reversed_)], 0),
    ):
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "fuzzykripke.cli", *argv],
            capture_output=True, text=True, timeout=60, cwd=tmp_path, env=checkout_env(),
        )
        assert (done.returncode, done.stderr) == (want, ""), argv
    assert reversed_.read_text(encoding="utf-8") == KripkeModel.load(A).reverse().to_json()


@pytest.mark.skipif(shutil.which("fuzzykripke") is None, reason="console script not installed")
def test_installed_console_script_runs():
    done = subprocess.run(
        [shutil.which("fuzzykripke"), "eval", A, "p"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "0.8 0.4 0.2"
