"""Seeded inputs, job lists and output checks for the benchmark workloads.

A job is one CLI invocation: an argv for ``fuzzykripke.cli.main`` on model
files that this module writes.  A workload is a list of jobs (one round)
built from a seed, so the same seed always gives the same files and argvs.
Every job carries a check that decides from its exit code and stdout
whether the program answered correctly; checks run outside the timed loop.

Why each workload exists (job costs measured before any optimisation, Python
3.11, one core of an Intel Xeon):

* ``dense``: random Godel and chain:5 pairs with every relation entry
  nonzero, 2 indices and 2 variables, every bisim kind.  Each kind needs
  2-5 sweeps, so the cost of one sweep (the O(n^3) residual updates)
  dominates.  Full relations also keep the sweep count nearly the same
  from seed to seed (sparser ones need 2-10), which keeps runs steady.
* ``path``: path-shaped Godel pairs whose last worlds differ in ``p``.
  The fixpoint needs about n sweeps on sparse relations, so most of the
  work of each sweep is wasted and the run grows as n^4.
* ``expressivity``: the bundled pairs plus small seeded pairs under
  ``hm`` and ``weak``.  Formula enumeration, formula rebuilding,
  ``eval_vec`` and the weak folds do the work; the fixpoint is tiny.
* ``oneshot``: single ``eval``, ``reverse``, ``weak --corpus`` and
  ``check`` calls on larger models.  Nothing iterates, so loading,
  parsing and formatting are not spread over many sweeps.

Sizes are chosen so that a round takes 2-7 seconds before any
optimisation, so that a run of 20 seconds times every job several times
and a partly finished last round barely changes the mix of jobs.  Job
times within a round differ by size and kind, not by seed: the seed
changes values and shapes but not the sizes, ``dense`` uses full relations
whose sweep counts barely vary, and ``oneshot`` gives each model its own
size, so that no percentile falls into a gap between two size classes.  In
``expressivity`` the heavy tail (and so ``job_p90_s``) is made of the
bundled jobs, which are the same for every seed; its seeded pairs are few
and always pit two worlds against three, whose cost barely varies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0
KINDS = ("fs", "bs", "fb", "bb", "fbb", "bfb", "rb")
BUNDLED = ("sim_showcase", "backward_only", "fully_equivalent", "crisp_pair")
GODEL_POOL = tuple(f"0.{k}" for k in range(1, 10)) + ("1",)
CHAIN5_POOL = ("0.25", "0.5", "0.75", "1")

# formulas over p, q and indices 1, 2, one eval job each
EVAL_CORPUS = (
    "p",
    "<>_1 p & q",
    "[]_2 (p -> q)",
    "<>-_1 []_2 p",
    "p <-> <>_2 q",
    "!<>_1 p | []-_2 q",
    "[]_1 <>_2 (p & q)",
    "<>_1 <>_1 p -> 0.5",
)
ONESHOT_WEAK_CORPUS = ("p", "<>_1 q")
# formulas over p and index 1, for the small expressivity pairs
EXPRESSIVITY_CORPUS = (
    "p",
    "<>_1 p",
    "[]_1 p",
    "<>-_1 p",
    "[]-_1 p",
    "<>_1 p -> p",
    "[]_1 (p -> <>_1 p)",
    "<>_1 []_1 p & p",
    "p <-> <>-_1 p",
    "!p | []-_1 <>_1 p",
)

# workload -> scale -> size table; "tiny" is for the benchmark's self-check
SIZES = {
    "dense": {
        "full": {"godel": {6: 4, 8: 4, 10: 2, 12: 1}, "chain:5": {6: 4, 8: 4, 10: 2, 12: 1}},
        "tiny": {"godel": {3: 1}, "chain:5": {3: 1}},
    },
    "path": {
        "full": {4: 8, 5: 6, 6: 5, 8: 3, 10: 2, 12: 1},
        "tiny": {3: 1, 4: 1},
    },
    "expressivity": {
        "full": {"bundled": BUNDLED, "generated": 6},
        "tiny": {"bundled": ("fully_equivalent", "crisp_pair"), "generated": 1},
    },
    "oneshot": {
        "full": {"eval": {n: 1 for n in range(16, 53, 4)}, "weak_max_n": 28,
                 "check": (8, 12, 16, 20)},
        "tiny": {"eval": {5: 1}, "weak_max_n": 5, "check": (4,)},
    },
}
WORKLOADS = tuple(SIZES)


class JobFailure(Exception):
    """A job whose output is not the correct answer."""


@dataclass
class Job:
    name: str  # stable within a workload; keys the reference digests
    argv: list[str]
    check: Callable[[int, str], None]  # raises JobFailure


@dataclass
class Workload:
    name: str
    jobs: list[Job] = field(default_factory=list)
    pairs: list[dict] = field(default_factory=list)  # input properties per model pair


# -- generation ---------------------------------------------------------------


def random_model(rng, algebra, n, prefix, pool, density, indices=(1, 2), variables=("p", "q")):
    """A model document with relation entries nonzero with probability ``density``."""
    relations = {
        str(i): [[rng.choice(pool) if rng.random() < density else "0" for _ in range(n)]
                 for _ in range(n)]
        for i in indices
    }
    valuation = {p: [rng.choice(pool) for _ in range(n)] for p in variables}
    return {
        "algebra": algebra,
        "worlds": [f"{prefix}{k}" for k in range(n)],
        "indices": list(indices),
        "relations": relations,
        "valuation": valuation,
    }


def path_model(n, prefix, weights, end):
    """A path s0 -> s1 -> ... with ``p`` zero except ``end`` at the last world."""
    rows = [["0"] * n for _ in range(n)]
    for k in range(n - 1):
        rows[k][k + 1] = weights[k]
    valuation = ["0"] * (n - 1) + [end]
    return {
        "algebra": "godel",
        "worlds": [f"{prefix}{k}" for k in range(n)],
        "indices": [1],
        "relations": {"1": rows},
        "valuation": {"p": valuation},
    }


def pair_properties(a: dict, b: dict) -> dict:
    values = {"0", "1"}
    nonzero = total = 0
    for doc in (a, b):
        for rows in doc["relations"].values():
            for row in rows:
                values.update(row)
                nonzero += sum(v != "0" for v in row)
                total += len(row)
        for vec in doc["valuation"].values():
            values.update(vec)
    return {
        "n": [len(a["worlds"]), len(b["worlds"])],
        "universe": len({Fraction(v) for v in values}),
        "density": nonzero / total,
    }


class Builder:
    """Writes input files into ``workdir`` and collects the jobs using them."""

    def __init__(self, name: str, workdir: Path, src: Path):
        self.workload = Workload(name)
        self.workdir = workdir
        self.fixtures = src / "fuzzykripke" / "fixtures"
        self._models: dict[str, object] = {}

    def write(self, filename: str, text: str) -> str:
        path = self.workdir / filename
        path.write_text(text, encoding="utf-8")
        return str(path)

    def pair(self, tag: str, a: dict, b: dict) -> tuple[str, str]:
        self.workload.pairs.append(pair_properties(a, b))
        return (self.write(f"{tag}_a.json", json.dumps(a)),
                self.write(f"{tag}_b.json", json.dumps(b)))

    def bundled(self, name: str) -> tuple[str, str]:
        a, b = (json.loads((self.fixtures / f"{name}_{s}.json").read_text()) for s in "ab")
        self.workload.pairs.append(pair_properties(a, b))
        return str(self.fixtures / f"{name}_a.json"), str(self.fixtures / f"{name}_b.json")

    def expected(self, name: str) -> dict:
        return json.loads((self.fixtures / "expected" / f"{name}.json").read_text())

    def model(self, path: str):
        """The model in ``path``, loaded once, for checks."""
        from fuzzykripke.model import KripkeModel

        if path not in self._models:
            self._models[path] = KripkeModel.load(path)
        return self._models[path]

    def add(self, name: str, argv: list[str], check) -> None:
        self.workload.jobs.append(Job(name, argv, check))


def build(name: str, seed: int, scale: str, workdir: Path, src: Path) -> Workload:
    """The seeded round of jobs of workload ``name``, with its input files."""
    rng = random.Random(f"{name}:{seed}")
    builder = Builder(name, workdir, src)
    _BUILDERS[name](builder, rng, SIZES[name][scale])
    return builder.workload


def _dense(b: Builder, rng, sizes) -> None:
    pools = {"godel": GODEL_POOL, "chain:5": CHAIN5_POOL}
    for algebra, counts in sizes.items():
        for n, count in counts.items():
            for k in range(count):
                tag = f"{algebra.replace(':', '')}-n{n}-{k}"
                pa, pb = b.pair(
                    tag,
                    random_model(rng, algebra, n, "s", pools[algebra], 1.0),
                    random_model(rng, algebra, n, "t", pools[algebra], 1.0),
                )
                for kind in KINDS:
                    b.add(f"{tag}/bisim-{kind}", ["bisim", "--type", kind, pa, pb, "--format", "json"],
                          _check_bisim(b, pa, pb, kind))


def _path(b: Builder, rng, sizes) -> None:
    for n, count in sizes.items():
        for k in range(count):
            tag = f"path-n{n}-{k}"
            weights = [rng.choice(("0.6", "0.7", "0.8", "0.9", "1")) for _ in range(n - 1)]
            pa, pb = b.pair(tag, path_model(n, "s", weights, "0.5"), path_model(n, "t", weights, "0.3"))
            for kind in ("fs", "bs", "fb", "rb"):
                b.add(f"{tag}/bisim-{kind}", ["bisim", "--type", kind, pa, pb, "--format", "json"],
                      _check_bisim(b, pa, pb, kind))


def _expressivity(b: Builder, rng, sizes) -> None:
    corpus = b.write("expressivity_corpus.txt", "\n".join(EXPRESSIVITY_CORPUS) + "\n")
    pq = b.write("pq.txt", "p\nq\n")
    for name in sizes["bundled"]:
        pa, pb = b.bundled(name)
        want = b.expected(name)["hm"]
        for fragment in ("plus", "minus", "full"):
            b.add(f"{name}/hm-{fragment}", ["hm", "--fragment", fragment, pa, pb, "--format", "json"],
                  _check_hm(want[fragment]))
        b.add(f"{name}/weak-full-1",
              ["weak", "--fragment", "full", "--depth", "1", pa, pb, "--format", "json"], _check_weak)
        # backward_only at plus/2 reaches 16,808 classes: far too large for a round
        if name != "backward_only":
            b.add(f"{name}/weak-plus-2",
                  ["weak", "--fragment", "plus", "--depth", "2", pa, pb, "--format", "json"], _check_weak)
        if name == "fully_equivalent":
            b.add(f"{name}/weak-corpus-pq", ["weak", "--corpus", pq, pa, pb, "--format", "json"],
                  _check_equal(b.expected(name)["weak_pq"]))
    for k in range(sizes["generated"]):
        # three values and two worlds against three keep class counts in the
        # hundreds; two 3-world models can reach ten times the classes, which
        # would make the heavy tail of a round depend on the seed
        if k % 2 == 0:
            algebra, pool = "godel", ("0", "1", rng.choice(("0.2", "0.4", "0.6", "0.8")))
        else:
            algebra, pool = "chain:3", ("0", "0.5", "1")
        tag = f"{algebra.replace(':', '')}-small-{k}"
        pa, pb = b.pair(
            tag,
            random_model(rng, algebra, 2 if k % 4 < 2 else 3, "s", pool, 0.5, (1,), ("p",)),
            random_model(rng, algebra, 3 if k % 4 < 2 else 2, "t", pool, 0.5, (1,), ("p",)),
        )
        for fragment in ("plus", "minus", "full"):
            b.add(f"{tag}/hm-{fragment}", ["hm", "--fragment", fragment, pa, pb, "--format", "json"],
                  _check_hm(None))
        b.add(f"{tag}/weak-corpus", ["weak", "--corpus", corpus, pa, pb, "--format", "json"], _check_weak)


def _oneshot(b: Builder, rng, sizes) -> None:
    weak_corpus = b.write("oneshot_corpus.txt", "\n".join(ONESHOT_WEAK_CORPUS) + "\n")
    for n, count in sizes["eval"].items():
        for c in range(count):
            tag = f"godel-n{n}-{c}"
            a = random_model(rng, "godel", n, "s", GODEL_POOL, 0.3)
            pa, pb = b.pair(tag, a, random_model(rng, "godel", n, "t", GODEL_POOL, 0.3))
            for k, formula in enumerate(EVAL_CORPUS):
                b.add(f"{tag}/eval-{k}", ["eval", pa, formula], _check_eval(n))
            b.add(f"{tag}/reverse", ["reverse", pa], _check_reverse(a))
            if n <= sizes["weak_max_n"]:
                b.add(f"{tag}/weak-corpus",
                      ["weak", "--corpus", weak_corpus, pa, pb, "--format", "json"], _check_weak)
    for n in sizes["check"]:
        tag = f"godel-check-n{n}"
        pa, pb = b.pair(tag, random_model(rng, "godel", n, "s", GODEL_POOL, 0.3),
                        random_model(rng, "godel", n, "t", GODEL_POOL, 0.3))
        relation = [[rng.choice(("0", "0.1", "0.2", "0.3")) for _ in range(n)] for _ in range(n)]
        rel = b.write(f"{tag}_relation.json", json.dumps({"relation": relation}))
        nonempty = any(v != "0" for row in relation for v in row)
        for kind in ("fs", "rb"):
            b.add(f"{tag}/check-{kind}",
                  ["check", "--type", kind, "--relation", rel, pa, pb, "--format", "json"],
                  _check_check(nonempty))


_BUILDERS = {"dense": _dense, "path": _path, "expressivity": _expressivity, "oneshot": _oneshot}


# -- checks -------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise JobFailure(message)


def _json(code: int, out: str, verdict_key: str) -> dict:
    _require(code in (0, 1), f"exit code {code}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise JobFailure(f"output is not JSON: {exc}") from None
    _require(code == (0 if doc.get(verdict_key) else 1),
             f"exit code {code} disagrees with {verdict_key}={doc.get(verdict_key)}")
    return doc


def _check_bisim(b: Builder, pa: str, pb: str, kind: str):
    def check(code: int, out: str) -> None:
        from fuzzykripke.algebra import parse_value
        from fuzzykripke.bisim import check_conditions
        from fuzzykripke.fuzzrel import FuzzyMat

        doc = _json(code, out, "exists")
        _require(doc["type"] == kind, f"type {doc['type']} != {kind}")
        m1, m2 = b.model(pa), b.model(pb)
        phi = FuzzyMat(m1.algebra, ([parse_value(v) for v in row] for row in doc["matrix"]))
        _require(phi.shape == (len(m1.worlds), len(m2.worlds)), f"matrix shape {phi.shape}")
        broken = [c.name for c in check_conditions(m1, m2, phi, kind)
                  if not c.holds and ("-2[" in c.name or "-3[" in c.name)]
        _require(not broken, f"greatest pre-relation fails {broken[:3]}")
        _require(doc["iterations"] >= 1, "no sweep reported")

    return check


def _check_hm(want):
    def check(code: int, out: str) -> None:
        doc = _json(code, out, "match")
        _require(bool(doc["steps"]), "no ladder steps")
        if want is not None:
            got = {"fragment": doc["fragment"], "type": doc["type"], "match": doc["match"],
                   "converged_at": doc["converged_at"], "final": doc["steps"][-1]["matrix"]}
            _require(got == want, f"differs from the frozen result: {got}")

    return check


def _check_weak(code: int, out: str) -> None:
    doc = _json(code, out, "equivalent")
    rows = doc["prebisimulation"]
    full = all("1" in row for row in rows) and all("1" in col for col in zip(*rows))
    _require(doc["equivalent"] == full, "equivalent disagrees with the prebisimulation")
    _require(doc["formula_count"] >= 1, "empty formula set")


def _check_equal(want: dict):
    def check(code: int, out: str) -> None:
        _require(_json(code, out, "equivalent") == want, "differs from the frozen result")

    return check


def _check_eval(n: int):
    def check(code: int, out: str) -> None:
        _require(code == 0, f"exit code {code}")
        values = out.split()
        _require(len(values) == n, f"{len(values)} values for {n} worlds")
        for text in values:
            try:
                value = Fraction(text)
            except ValueError:
                raise JobFailure(f"malformed value {text!r}") from None
            _require(0 <= value <= 1, f"value {text} outside [0, 1]")

    return check


def _check_reverse(model: dict):
    want = dict(model, relations={i: [list(col) for col in zip(*rows)]
                                  for i, rows in model["relations"].items()})

    def check(code: int, out: str) -> None:
        _require(code == 0, f"exit code {code}")
        _require(json.loads(out) == want, "reverse is not the transposed model")

    return check


def _check_check(nonempty: bool):
    def check(code: int, out: str) -> None:
        doc = _json(code, out, "is_relation")
        holds = all(c["holds"] for c in doc["conditions"])
        _require(doc["all_conditions_hold"] == holds, "verdict disagrees with the conditions")
        _require(doc["nonempty"] == nonempty, "nonempty verdict is wrong")
        _require(doc["is_relation"] == (holds and nonempty), "is_relation is inconsistent")

    return check


def output_properties(outputs: list[tuple[int, str]]) -> dict:
    """Total sweeps and enumerated classes read from one round of outputs."""
    sweeps = classes = 0
    for _, out in outputs:
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            continue
        if not isinstance(doc, dict):
            continue
        if "iterations" in doc:
            sweeps += doc["iterations"]
        if "strong" in doc:
            sweeps += doc["strong"]["iterations"]
            classes += doc["steps"][-1]["class_count"]
        if "formula_count" in doc:
            classes += doc["formula_count"]
    return {"sweeps": sweeps, "classes": classes}
