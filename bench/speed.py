"""A fixed probe of the machine's current speed.

The benchmark shares its host with other work, and a core of that host
runs the same code up to twice as slow for spells of seconds to minutes.
The spells slow the program and this probe alike, so every job is timed
next to a run of the probe, and times are reported as normalised seconds:
the measured seconds scaled to a machine on which the probe takes
NOMINAL_PROBE_S.

The probe mixes what the program spends its time on: small numpy max-min
compositions, exact ``Fraction`` arithmetic and dictionary stores.  It
uses nothing from ``fuzzykripke``, so a change to the program never
changes the probe.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

NOMINAL_PROBE_S = 0.001
WINDOW = 5  # probes on each side of a sample that set its local speed

_LEVELS = np.arange(144).reshape(12, 12) % 7
_VALUES = tuple(Fraction(k % 13, 13) for k in range(200))


def probe() -> float:
    """Seconds taken by one fixed piece of work, about a millisecond."""
    start = perf_counter()
    total = 0
    for _ in range(20):
        total += int(np.minimum(_LEVELS[:, :, None], _LEVELS[None, :, :]).max(axis=1).sum())
    best, table = Fraction(0), {}
    for v in _VALUES:
        best = max(best, min(v, 1 - v))
        table[str(v)] = best
    return perf_counter() - start


def normalise(seconds: list[float], probes: list[float]) -> list[float]:
    """Each time scaled by NOMINAL_PROBE_S over the median probe time of the
    2 * WINDOW + 1 probes around it (``probes[k]`` ran just before
    ``seconds[k]``)."""
    out = []
    for k, t in enumerate(seconds):
        local = statistics.median(probes[max(0, k - WINDOW):k + WINDOW + 1])
        out.append(t * NOMINAL_PROBE_S / local)
    return out
