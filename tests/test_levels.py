"""The level kernel: stacked calls and block sizes."""

import tracemalloc

import numpy as np
import pytest

from fuzzykripke import levels
from fuzzykripke.levels import biimplication_fold, compose, residual_fold


def ref_compose(a, b):
    """Max-min product by loops over the contracted axis."""
    out = np.zeros((a.shape[0], b.shape[1]), a.dtype)
    for t in range(a.shape[1]):
        out = np.maximum(out, np.minimum(a[:, t, None], b[None, t, :]))
    return out


def ref_fold(pair, x, y, top):
    """``min_v pair(x(i, v), y(j, v))`` by loops over the contracted axis."""
    out = np.full((x.shape[0], y.shape[0]), top, x.dtype)
    for v in range(x.shape[1]):
        out = np.minimum(out, pair(x[:, v, None], y[None, :, v], top))
    return out


def random_levels(rng, size, shape):
    """Levels of a universe of ``size`` values: its dtype, top and an array."""
    dtype = np.dtype(np.uint8 if size <= 1 << 8 else np.uint16)
    return dtype, dtype.type(size - 1), rng.integers(0, size, shape).astype(dtype)


# universes of 2 values, of a few, and too many for uint8
SIZES = (2, 5, 300)


# (k, n, m): the output (k, m) and the contracted axis n; the first four
# keep n innermost, the others have an output axis past the size rule,
# first m (blocks (k, n, m)), then k (blocks (m, n, k)), among them an
# empty n, which always takes the long-axis layout
SHAPES = ((1, 1, 1), (2, 5, 3), (4, 7, 4), (6, 3, 1),
          (2, 3, 40), (1, 0, 20), (3, 1, 20), (5, 2, 80),
          (40, 3, 2), (3, 0, 2), (20, 1, 3), (80, 2, 5))


def layout(k, n, m):
    """The block layout :func:`levels._contract` takes for these shapes."""
    if levels._LONG * n < max(k, m):
        return "knm" if m >= k else "mnk"
    return "kmn"


def kernel_cases(rng, size):
    """Stack lengths and shapes, with empty and one-long contracted axes,
    in every block layout."""
    for s in (1, 2, 4):
        for k, n, m in SHAPES:
            _, top, a = random_levels(rng, size, (s, k, n))
            b = random_levels(rng, size, (s, n, m))[2]
            yield top, a, b, random_levels(rng, size, (s, m, n))[2]


@pytest.mark.parametrize("size", SIZES)
def test_stacked_calls_equal_the_per_slice_calls(size):
    rng = np.random.default_rng(size)
    for top, a, b, y in kernel_cases(rng, size):
        slices = range(len(a))
        want = np.stack([compose(a[j], b[j]) for j in slices])
        assert want.dtype == a.dtype
        np.testing.assert_array_equal(want, np.stack([ref_compose(a[j], b[j]) for j in slices]))
        np.testing.assert_array_equal(compose(a, b), want)
        # a stack on one side only: the other operand is shared by every slice
        np.testing.assert_array_equal(
            compose(a, b[0]), np.stack([compose(a[j], b[0]) for j in slices]))
        np.testing.assert_array_equal(
            compose(a[0], b), np.stack([compose(a[0], b[j]) for j in slices]))
        for fold, pair in ((residual_fold, levels.residuum),
                           (biimplication_fold, levels.biimplication)):
            want = np.stack([fold(a[j], y[j], top) for j in slices])
            np.testing.assert_array_equal(
                want, np.stack([ref_fold(pair, a[j], y[j], top) for j in slices]))
            np.testing.assert_array_equal(fold(a, y, top), want)
            np.testing.assert_array_equal(
                fold(a, y[0], top), np.stack([fold(a[j], y[0], top) for j in slices]))
            np.testing.assert_array_equal(
                fold(a[0], y, top), np.stack([fold(a[0], y[j], top) for j in slices]))
            assert fold(a, y, top).dtype == a.dtype


def test_empty_contracted_axis_gives_the_empty_join_and_meet():
    dtype, top, a = random_levels(np.random.default_rng(0), 5, (2, 3, 0))
    b = np.zeros((2, 0, 4), dtype)
    assert (compose(a, b) == 0).all() and compose(a, b).shape == (2, 3, 4)
    y = np.zeros((2, 4, 0), dtype)
    for fold in (residual_fold, biimplication_fold):
        assert (fold(a, y, top) == top).all() and fold(a, y, top).shape == (2, 3, 4)


@pytest.mark.parametrize("size", SIZES)
def test_small_blocks_equal_the_default_blocks(monkeypatch, size):
    rng = np.random.default_rng(100 + size)
    cases = list(kernel_cases(rng, size))
    assert [layout(a.shape[1], a.shape[2], y.shape[1]) for _, a, _, y in cases[:12]] == (
        ["kmn"] * 4 + ["knm"] * 4 + ["mnk"] * 4)
    whole = [(compose(a, b), residual_fold(a, y, top), biimplication_fold(a, y, top))
             for top, a, b, y in cases]
    # one-element blocks, and blocks of a few entries of the contracted axis
    for batch in (1, 24):
        monkeypatch.setattr(levels, "BATCH", batch)
        for (top, a, b, y), want in zip(cases, whole):
            got = (compose(a, b), residual_fold(a, y, top), biimplication_fold(a, y, top))
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)


def peak_bytes(fn, *args) -> int:
    """The most memory held during ``fn(*args)`` beyond what was held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("size", (5, 300))
def test_batch_bounds_each_stacked_broadcast(monkeypatch, size):
    # a stack of 8 slices of 12 x 12 results over a contracted axis of 400:
    # the whole broadcast holds 8 * 12 * 400 * 12 = 460,800 entries, a
    # block at most BATCH = 4,096 of them (3 entries of the contracted axis;
    # 28 entries, 8 times more than allowed, if the stack were not counted).
    # Then an output axis of 100 past the size rule, last and then first:
    # 38,400 entries in blocks of 3,200, one entry of the contracted axis
    rng = np.random.default_rng(size)
    cases = []
    for s, k, n, m in ((8, 12, 400, 12), (2, 16, 12, 100), (2, 100, 12, 16)):
        dtype, top, a = random_levels(rng, size, (s, k, n))
        b = random_levels(rng, size, (s, n, m))[2]
        y = random_levels(rng, size, (s, m, n))[2]
        calls = ((compose, a, b), (residual_fold, a, y, top), (biimplication_fold, a, y, top))
        cases.append((layout(k, n, m), s * k * n * m * dtype.itemsize, calls))
    assert [case[0] for case in cases] == ["kmn", "knm", "mnk"]
    # with the default BATCH the broadcast is one block, and the measure sees it
    for _, whole, calls in cases:
        assert all(peak_bytes(*call) >= whole for call in calls)
    monkeypatch.setattr(levels, "BATCH", 4096)
    # a few block-sized temporaries (a mask, a selection, a partial result),
    # the input-sized copy of the long operand and the interpreter's own
    # small allocations: below the whole
    for _, _, calls in cases:
        assert all(peak_bytes(*call) <= 8 * 4096 * dtype.itemsize for call in calls)
