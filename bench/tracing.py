"""Per-layer tracing by wrapping the library's public entry points.

The wrappers live here, not in the library: :meth:`Tracer.installed`
replaces each target function wherever a ``fuzzykripke`` module or class
holds it (``fuzzykripke.cli.check_conditions`` as well as
``fuzzykripke.bisim.check_conditions``), and puts the originals back on
exit.  A target that no longer exists is reported as absent together with
every metric that depends on it.

A span covers one call of a wrapped function.  Only the outermost call of
a layer is a span, so recursion (``eval_vec``) and nesting (``parse_corpus``
calling ``parse``) are counted once.  A span's self time is its duration
minus the durations of the spans opened directly inside it.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# layer -> [(module, attribute path)]; "RESIDUAL_UPDATES[]" means every value
SPANS = {
    "fuzzrel.update": [("fuzzykripke.fuzzrel", "RESIDUAL_UPDATES[]")],
    "fuzzrel.compose": [("fuzzykripke.fuzzrel", "FuzzyMat.compose")],
    "bisim.greatest_pre": [("fuzzykripke.bisim", "greatest_pre")],
    "bisim.initial_relation": [("fuzzykripke.bisim", "_initial_relation")],
    "bisim.check_conditions": [("fuzzykripke.bisim", "check_conditions")],
    "syntax.enum": [
        ("fuzzykripke.syntax", "FormulaEnumeration.__init__"),
        ("fuzzykripke.syntax", "FormulaEnumeration.extend_generators"),
        ("fuzzykripke.syntax", "FormulaEnumeration.extend_to_depth"),
    ],
    "syntax.parse": [("fuzzykripke.syntax", "parse"), ("fuzzykripke.syntax", "parse_corpus")],
    "syntax.rebuild": [
        ("fuzzykripke.syntax", "FormulaEnumeration.formula"),
        ("fuzzykripke.syntax", "FormulaEnumeration.formulas"),
    ],
    "model.eval_vec": [("fuzzykripke.model", "KripkeModel.eval_vec")],
    "model.load": [("fuzzykripke.model", "KripkeModel.load")],
    "model.reverse": [("fuzzykripke.model", "KripkeModel.reverse")],
    "model.to_json": [("fuzzykripke.model", "KripkeModel.to_json")],
    "weak.greatest_weak": [("fuzzykripke.weak", "greatest_weak")],
    "hm.hm_check": [("fuzzykripke.hm", "hm_check")],
    "cli.to_dict": [
        ("fuzzykripke.bisim", "SimReport.to_dict"),
        ("fuzzykripke.bisim", "ConditionCheck.to_dict"),
        ("fuzzykripke.weak", "WeakReport.to_dict"),
        ("fuzzykripke.hm", "HMReport.to_dict"),
    ],
}
# counted, not timed: these are called per value and a span would swamp them
COUNTERS = {
    "algebra.parse_value": [("fuzzykripke.algebra", "parse_value")],
    "algebra.format_value": [("fuzzykripke.algebra", "format_value")],
}

# per-layer metric -> (unit, layers it needs, how to read it)
METRICS = {
    "fuzzrel.update_s": ("s", ("fuzzrel.update",), lambda t: t.total["fuzzrel.update"]),
    "fuzzrel.update_calls": ("count", ("fuzzrel.update",), lambda t: t.calls["fuzzrel.update"]),
    "fuzzrel.compose_s": ("s", ("fuzzrel.compose",), lambda t: t.total["fuzzrel.compose"]),
    "fuzzrel.compose_calls": ("count", ("fuzzrel.compose",), lambda t: t.calls["fuzzrel.compose"]),
    "bisim.fixpoint_self_s": (
        "s", ("bisim.greatest_pre", "fuzzrel.update", "bisim.check_conditions",
              "bisim.initial_relation"),
        lambda t: t.self_time["bisim.greatest_pre"]),
    "bisim.sweep_s": (
        "s", ("bisim.greatest_pre", "bisim.check_conditions", "bisim.initial_relation"),
        lambda t: t.counts["bisim.fixpoint_s"] / t.counts["bisim.sweeps"]
        if t.counts["bisim.sweeps"] else 0.0),
    "bisim.sweeps": ("count", ("bisim.greatest_pre",), lambda t: t.counts["bisim.sweeps"]),
    "bisim.greatest_pre_s": ("s", ("bisim.greatest_pre",), lambda t: t.total["bisim.greatest_pre"]),
    "bisim.greatest_pre_calls": ("count", ("bisim.greatest_pre",),
                                 lambda t: t.calls["bisim.greatest_pre"]),
    "bisim.check_conditions_s": ("s", ("bisim.check_conditions",),
                                 lambda t: t.total["bisim.check_conditions"]),
    "syntax.enum_s": ("s", ("syntax.enum",), lambda t: t.total["syntax.enum"]),
    "syntax.classes": ("count", ("syntax.enum",), lambda t: t.counts["syntax.classes"]),
    "syntax.truncated": ("count", ("syntax.enum",), lambda t: t.counts["syntax.truncated"]),
    "syntax.parse_s": ("s", ("syntax.parse",), lambda t: t.total["syntax.parse"]),
    "syntax.rebuild_s": ("s", ("syntax.rebuild",), lambda t: t.total["syntax.rebuild"]),
    "model.eval_vec_s": ("s", ("model.eval_vec",), lambda t: t.total["model.eval_vec"]),
    "model.eval_vec_calls": ("count", ("model.eval_vec",), lambda t: t.calls["model.eval_vec"]),
    "weak.greatest_weak_s": ("s", ("weak.greatest_weak",), lambda t: t.total["weak.greatest_weak"]),
    "weak.formulas": ("count", ("weak.greatest_weak",), lambda t: t.counts["weak.formulas"]),
    "weak.self_s": ("s", ("weak.greatest_weak", "model.eval_vec"),
                    lambda t: t.self_time["weak.greatest_weak"]),
    "hm.hm_check_s": ("s", ("hm.hm_check",), lambda t: t.total["hm.hm_check"]),
    "hm.depth_steps": ("count", ("hm.hm_check",), lambda t: t.counts["hm.depth_steps"]),
    "hm.self_s": ("s", ("hm.hm_check", "bisim.greatest_pre", "syntax.enum"),
                  lambda t: t.self_time["hm.hm_check"]),
    "model.load_s": ("s", ("model.load",), lambda t: t.total["model.load"]),
    "model.load_calls": ("count", ("model.load",), lambda t: t.calls["model.load"]),
    "model.reverse_s": ("s", ("model.reverse",), lambda t: t.total["model.reverse"]),
    "model.to_json_s": ("s", ("model.to_json",), lambda t: t.total["model.to_json"]),
    "algebra.parse_value_calls": ("count", ("algebra.parse_value",),
                                  lambda t: t.calls["algebra.parse_value"]),
    "algebra.format_value_calls": ("count", ("algebra.format_value",),
                                   lambda t: t.calls["algebra.format_value"]),
    "cli.to_dict_s": ("s", ("cli.to_dict",), lambda t: t.total["cli.to_dict"]),
    "cli.self_s": ("s", ("cli.main",), lambda t: t.self_time["cli.main"]),
    "cli.main_s": ("s", ("cli.main",), lambda t: t.total["cli.main"]),
}


class _Frame:
    __slots__ = ("child", "by_layer")

    def __init__(self):
        self.child = 0.0
        self.by_layer = Counter()


class Tracer:
    """Span totals, self times, call counts and result counts per layer."""

    def __init__(self):
        self.total = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.absent: set[str] = set()
        self._stack: list[_Frame] = []
        self._open = Counter()
        self._enums: list = []

    # -- spans ------------------------------------------------------------

    def span(self, layer: str, fn, on_exit=None):
        """``fn`` wrapped so that each outermost call is a span of ``layer``.

        ``on_exit(args, result, elapsed, frame)`` runs after a span ends.
        """

        def wrapper(*args, **kwargs):
            if self._open[layer]:
                return fn(*args, **kwargs)
            frame = _Frame()
            self._open[layer] += 1
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self._open[layer] -= 1
                self.total[layer] += elapsed
                self.self_time[layer] += elapsed - frame.child
                self.calls[layer] += 1
                if self._stack:
                    self._stack[-1].child += elapsed
                    self._stack[-1].by_layer[layer] += elapsed
            if on_exit is not None:
                on_exit(args, result, elapsed, frame)
            return result

        return wrapper

    def counter(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result counts ----------------------------------------------------

    def _after_greatest_pre(self, args, report, elapsed, frame):
        self.counts["bisim.sweeps"] += report.iterations
        self.counts["bisim.fixpoint_s"] += (
            elapsed - frame.by_layer["bisim.check_conditions"]
            - frame.by_layer["bisim.initial_relation"]
        )

    def _after_enum(self, args, result, elapsed, frame):
        if args and all(e is not args[0] for e in self._enums):
            self._enums.append(args[0])

    def _after_weak(self, args, report, elapsed, frame):
        self.counts["weak.formulas"] += report.formula_count

    def _after_hm(self, args, report, elapsed, frame):
        self.counts["hm.depth_steps"] += len(report.steps)

    def end_job(self) -> None:
        """Fold the enumerations of the finished job into the class counts."""
        for enum in self._enums:
            self.counts["syntax.classes"] += len(enum)
            self.counts["syntax.truncated"] += bool(enum.truncated)
        self._enums.clear()

    _ON_EXIT = {
        "bisim.greatest_pre": "_after_greatest_pre",
        "syntax.enum": "_after_enum",
        "weak.greatest_weak": "_after_weak",
        "hm.hm_check": "_after_hm",
    }

    # -- installation -----------------------------------------------------

    def _wrap(self, layer: str, fn):
        if layer in COUNTERS:
            return self.counter(layer, fn)
        hook = self._ON_EXIT.get(layer)
        return self.span(layer, fn, None if hook is None else getattr(self, hook))

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        undo = []
        try:
            for layer, targets in {**SPANS, **COUNTERS}.items():
                for module, path in targets:
                    if not self._install(layer, module, path, undo):
                        self.absent.add(layer)
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, layer: str, module_name: str, path: str, undo: list) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if path.endswith("[]"):
            table = getattr(module, path[:-2], None)
            if not isinstance(table, dict) or not table:
                return False
            for key, fn in list(table.items()):
                table[key] = self._wrap(layer, fn)
                undo.append(lambda table=table, key=key, fn=fn: table.__setitem__(key, fn))
            return True
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(layer, raw.__func__))
            else:
                wrapped = self._wrap(layer, raw)
            setattr(owner, attr, wrapped)
            undo.append(lambda: setattr(owner, attr, raw))
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapped = self._wrap(layer, original)
        # rebind the name in every library module that imported it
        for name, mod in list(sys.modules.items()):
            if name == "fuzzykripke" or name.startswith("fuzzykripke."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        undo.append(lambda mod=mod, key=key: setattr(mod, key, original))
        return True

    # -- results ----------------------------------------------------------

    def metrics(self) -> tuple[dict, list[str]]:
        """Per-layer metrics as {name: {value, unit}}, and the absent names."""
        out, absent = {}, []
        for name, (unit, needs, read) in METRICS.items():
            if any(layer in self.absent for layer in needs):
                absent.append(name)
            else:
                value = read(self)
                out[name] = {"value": float(value) if unit == "s" else value, "unit": unit}
        return out, absent
