"""Self-check of the benchmark: tiny runs finish, report every metric with
its unit, wrong outputs are counted as failures, and times are normalised
by the speed probe.

Run from the root of the repository:

    python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402


def tiny_run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def parsed(done):
    assert done.returncode == 0, done.stderr
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    report, result = parsed(tiny_run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and report["error_rate"] == 0
    assert report["samples"] >= bench.MIN_JOBS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_per_layer_metric(workload):
    report, result = parsed(tiny_run(workload, 1))
    assert report["absent_metrics"] == []
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    # traced outputs are compared with the untraced ones: any difference fails
    assert result["correct"] and result["failed"] == 0


def test_corrupted_output_counts_as_failure(tmp_path):
    from fuzzykripke.cli import main

    workload = build("dense", 0, "tiny", tmp_path, ROOT / "src")
    first = bench.run_round(workload.jobs, main)
    reference = bench.load_reference("dense", "tiny", 0)
    assert bench.verify(workload, first, reference) == {}

    seconds, code, out = first[0]
    doc = json.loads(out)
    doc["iterations"] += 1
    wrong_sweeps = (seconds, code, json.dumps(doc, indent=2) + "\n")
    wrong_code = (seconds, 1 - code, out)
    assert set(bench.verify(workload, [wrong_sweeps] + first[1:], reference)) == {0}
    assert set(bench.verify(workload, [wrong_code] + first[1:], None)) == {0}

    expected = [bench.digest(c, o) for _, c, o in first]
    runs = [[d, d] for d in expected]
    assert bench.count_failed({}, runs, expected) == 0
    runs[1][1] = bench.digest(code, out + " ")
    assert bench.count_failed({}, runs, expected) == 1
    assert bench.count_failed({0: "wrong"}, runs, expected) == 3


def test_times_are_normalised_by_the_nearby_probes():
    from speed import NOMINAL_PROBE_S, WINDOW, normalise

    n = 4 * WINDOW
    # the machine runs at half speed for the second half: job and probe alike
    probes = [NOMINAL_PROBE_S] * n + [2 * NOMINAL_PROBE_S] * n
    seconds = [0.01] * n + [0.02] * n
    normalised = normalise(seconds, probes)
    assert normalised[:WINDOW] == pytest.approx([0.01] * WINDOW)
    assert normalised[-WINDOW:] == pytest.approx([0.01] * WINDOW)


def test_other_seeds_check_only_the_bundled_pairs_against_the_reference():
    reference = bench.load_reference("expressivity", "tiny", 7)
    assert reference
    assert all(name.split("/")[0] in ("fully_equivalent", "crisp_pair") for name in reference)


def test_missing_wrapper_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "fuzzrel.update",
                        [("fuzzykripke.fuzzrel", "NO_SUCH_TABLE[]")])
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    metrics, absent = tracer.metrics()
    assert {"fuzzrel.update_s", "fuzzrel.update_calls", "bisim.fixpoint_self_s"} <= set(absent)
    assert "fuzzrel.compose_s" in metrics and "fuzzrel.update_s" not in metrics


def test_wrappers_are_removed_after_tracing():
    import fuzzykripke.bisim as bisim
    import fuzzykripke.cli as cli

    before = (bisim.check_conditions, cli.check_conditions, bisim.RESIDUAL_UPDATES["fwd"])
    with tracing.Tracer().installed():
        assert cli.check_conditions is bisim.check_conditions is not before[0]
    assert (bisim.check_conditions, cli.check_conditions, bisim.RESIDUAL_UPDATES["fwd"]) == before


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = tiny_run("dense", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
