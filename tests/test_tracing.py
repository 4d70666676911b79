"""The benchmark tracer finds every library entry point it wraps.

``bench/tracing.py`` names the functions and tables it wraps by module and
attribute, so a refactor that renames one (``fuzzrel.RESIDUAL_UPDATES``,
``bisim._initial_relation``, ``FuzzyMat.compose``) would silently turn its
per-layer metrics absent.  These tests load the tracer by path and check
that it finds every target and puts every original back.
"""

import importlib.util
import sys
from pathlib import Path

import fuzzykripke.cli  # noqa: F401  (loads every library module)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("fuzzykripke_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """What every library module binds, with the attributes of its classes
    and the entries of its tables, keyed by where they are bound."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "fuzzykripke" and not name.startswith("fuzzykripke."):
            continue
        for key, value in vars(module).items():
            if key.startswith("__"):
                continue
            out[name, key] = value
            if isinstance(value, type) and value.__module__ == name:
                out.update(((name, key, attr), v) for attr, v in vars(value).items())
            elif isinstance(value, dict):
                out.update(((name, key, k), v) for k, v in value.items())
    return out


def test_tracer_finds_every_target_and_restores_it():
    tracing = load_tracing()
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = bindings()
    assert tracer.absent == set()
    assert tracer.metrics()[1] == []
    # the wrappers were in place, and the originals are back afterwards
    update = ("fuzzykripke.fuzzrel", "RESIDUAL_UPDATES", "fwd")
    assert during[update] is not before[update]
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
