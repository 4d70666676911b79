"""Command line interface: outputs, file handling, and the exit-code contract."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzykripke
from conftest import expected
from fuzzykripke.cli import main
from fuzzykripke.fixtures import fixture_path

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


def test_weak_empty_corpus_exits_2(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("# nothing here\n")
    code, _, err = run(capsys, "weak", "--corpus", str(corpus), FA, FB)
    assert code == 2


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


def test_hm_truncation_is_inconclusive_and_exits_1(capsys):
    code, out, _ = run(capsys, "hm", "--fragment", "full", "--depth-cap", "2", "--budget", "40", A, B)
    assert code == 1
    assert "match: no" in out


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


def test_check_bad_relation_shape_exits_2(tmp_path, capsys):
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps({"relation": [["1", "1"]]}))
    code, _, err = run(capsys, "check", "--type", "rb", "--relation", str(rel), A, B)
    assert code == 2


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_dir.parent), env.get("PYTHONPATH")])
    )
    code = (
        "import sys, fuzzykripke\n"
        "print(fuzzykripke.__file__, file=sys.stderr)\n"
        f"from {module} import {func}\n"
        "sys.argv[0] = 'fuzzykripke'\n"
        f"sys.exit({func}())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, "eval", A, "p"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0.8 0.4 0.2"
    assert str(package_dir / "__init__.py") in done.stderr.splitlines(), (
        "child imported another fuzzykripke"
    )


@pytest.mark.skipif(shutil.which("fuzzykripke") is None, reason="console script not installed")
def test_installed_console_script_runs():
    done = subprocess.run(
        [shutil.which("fuzzykripke"), "eval", A, "p"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout.strip() == "0.8 0.4 0.2"
