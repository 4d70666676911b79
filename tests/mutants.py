"""Mutants of the library that the tier-1 tests must kill, and their runner.

Each mutant names a file under ``src/fuzzykripke``, an exact text that
occurs once in it, the text that replaces it, and the tests of which at
least one must fail once it is replaced.  ``tests/test_mutants.py`` (in
tier-1) checks that every text still occurs exactly once, so a refactor
that moves mutated code must re-target its mutant.  Running the mutants is
not part of tier-1: pytest does not collect this file.

Run from the root of the repository:

    python tests/mutants.py [NAME ...]

Each mutant is applied alone to a fresh copy of ``src/`` in a temporary
directory, and its tests run against that copy with ``pytest -x``.  The
runner prints one line per mutant and exits nonzero when any survives or
when pytest cannot run its tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    tests: tuple


LEVELS = "fuzzykripke/levels.py"
UPDATE = "tests/test_levels.py::test_forward_update_equals_the_two_call_update"
STACKED = "tests/test_levels.py::test_stacked_calls_equal_the_per_slice_calls"
MODAL = "tests/test_levels.py::test_modal_equals_the_per_world_loop"

MUTANTS = (
    # the forward update
    Mutant(
        "update-strict-residuum", LEVELS,
        "meet = lambda lo, hi: residuum(r_t[lo:hi], b[lo:hi], top)",
        "meet = lambda lo, hi: np.maximum(b[lo:hi], np.multiply(r_t[lo:hi] < b[lo:hi], top, dtype=b.dtype))",
        (UPDATE, "tests/test_fuzzrel.py::test_update_of_a_stack_is_the_meet_of_its_slices"),
    ),
    Mutant(
        "update-composition-untransposed", LEVELS,
        "rp_t = np.ascontiguousarray(rp.transpose(2, 0, 1))[:, None]\n"
        "    phi_t = np.ascontiguousarray(phi.T)[..., None, None]",
        "rp_t = np.ascontiguousarray(rp.transpose(2, 0, 1))[..., None]\n"
        "    phi_t = np.ascontiguousarray(phi.T)[:, None, None]",
        (UPDATE, "tests/test_fuzzrel.py::test_update_of_a_stack_is_the_meet_of_its_slices"),
    ),
    Mutant(
        "update-meet-of-slice-0", LEVELS,
        "r_t, b = np.ascontiguousarray(r.transpose(2, 0, 1))[..., None], b[:, :, None]",
        "r_t, b = np.ascontiguousarray(r.transpose(2, 0, 1))[:, :1, ..., None], b[:, :1, None]",
        (UPDATE, "tests/test_fuzzrel.py::test_update_of_a_stack_is_the_meet_of_its_slices"),
    ),
    Mutant(
        "update-meet-from-bottom", LEVELS,
        "_blocked(np.minimum, top, (0, 1), n1, size, meet)",
        "_blocked(np.minimum, 0, (0, 1), n1, size, meet)",
        (UPDATE, "tests/test_fuzzrel.py::test_update_of_a_stack_is_the_meet_of_its_slices"),
    ),
    # the entrywise operations
    Mutant(
        "residuum-strict", LEVELS,
        "return np.maximum(z, np.multiply(x <= z, top, dtype=z.dtype))",
        "return np.maximum(z, np.multiply(x < z, top, dtype=z.dtype))",
        ("tests/test_fuzzrel.py::test_update_is_greatest_solution",
         "tests/test_bisim.py::test_fixpoint_matches_reference_jacobi_iteration"),
    ),
    Mutant(
        "biimplication-as-residuum", LEVELS,
        "return np.maximum(np.minimum(x, y), np.multiply(x == y, top, dtype=x.dtype))",
        "return np.maximum(y, np.multiply(x <= y, top, dtype=x.dtype))",
        ("tests/test_bisim.py::test_fixpoint_matches_reference_jacobi_iteration",
         "tests/test_bisim.py::test_showcase_greatest_relations_are_frozen"),
    ),
    # the folds and the contraction
    Mutant(
        "residual-fold-empty-meet-is-bottom", LEVELS,
        "return _contract(partial(residuum, top=top), np.minimum, top, x, y)",
        "return _contract(partial(residuum, top=top), np.minimum, 0, x, y)",
        ("tests/test_levels.py::test_empty_contracted_axis_gives_the_empty_join_and_meet",
         STACKED),
    ),
    Mutant(
        "contract-operands-swapped", LEVELS,
        "pair(np.ascontiguousarray(x[lo:hi]), np.ascontiguousarray(y[lo:hi]))",
        "pair(np.ascontiguousarray(y[lo:hi]), np.ascontiguousarray(x[lo:hi]))",
        (STACKED, MODAL),
    ),
    # the modalities
    Mutant(
        "modal-box-untransposed", LEVELS,
        "return residual_fold(rel, vecs, top).T",
        "return residual_fold(rel, vecs, top)",
        (MODAL, "tests/test_model.py::test_eval_matches_oracle_on_random_models"),
    ),
    Mutant(
        "modal-diamond-untransposed", LEVELS,
        "return compose(rel, vecs.T).T",
        "return compose(rel, vecs.T)",
        (MODAL, "tests/test_model.py::test_eval_matches_oracle_on_random_models"),
    ),
    Mutant(
        "modal-inverse-ignored", LEVELS,
        "    if inverse:\n        rel = rel.T\n",
        "",
        (MODAL, "tests/test_model.py::test_eval_matches_oracle_on_random_models"),
    ),
)


def run(mutant: Mutant, workdir: Path) -> tuple[str, float]:
    """Apply ``mutant`` to a fresh copy of ``src/`` under ``workdir`` and run
    its tests there: ``killed``, ``survived`` or ``error`` (pytest could not
    run them), with the seconds taken."""
    start = time.perf_counter()
    copy = workdir / mutant.name
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    target = copy / mutant.path
    source = target.read_text(encoding="utf-8")
    if source.count(mutant.text) != 1:
        return "error", time.perf_counter() - start
    target.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
    # the command-line pythonpath replaces the one in pyproject.toml, so the
    # tests import the mutated copy, not src/
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={copy}", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
    return outcome, time.perf_counter() - start


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(set(names)):
        known = {m.name for m in MUTANTS}
        print(f"unknown mutants: {sorted(set(names) - known)}", file=sys.stderr)
        return 2
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in chosen:
            outcome, seconds = run(mutant, Path(tmp))
            bad += outcome != "killed"
            print(f"{outcome:8s} {seconds:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} killed in {time.perf_counter() - start:.1f} s")
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
