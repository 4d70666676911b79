"""The level kernel: stacked calls and block sizes."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from fuzzykripke import levels
from fuzzykripke.levels import biimplication_fold, compose, forward_update, residual_fold


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


# (k, n, m): the output (k, m) and the contracted axis n; square and
# flat outputs, an output axis many times longer than n, first m and then
# k, and empty and one-long contracted axes
SHAPES = ((1, 1, 1), (2, 5, 3), (4, 7, 4), (6, 3, 1),
          (2, 3, 40), (1, 0, 20), (3, 1, 20), (5, 2, 80),
          (40, 3, 2), (3, 0, 2), (20, 1, 3), (80, 2, 5))


def kernel_cases(rng, size):
    """Stack lengths and shapes, with empty and one-long contracted axes."""
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


def ref_modal(rel, vecs, top, *, box, inverse):
    """One modality by a loop over the worlds: the value at world w of each
    row f is the meet of ``rel(w, v) -> vecs(f, v)`` (box) or the join of
    their meets (diamond) over v, with ``rel`` read as its converse when
    ``inverse``."""
    if inverse:
        rel = rel.T
    out = np.empty(vecs.shape, vecs.dtype)
    for w in range(len(rel)):
        if box:
            out[:, w] = levels.residuum(rel[w], vecs, top).min(axis=1, initial=top)
        else:
            out[:, w] = np.minimum(rel[w], vecs).max(axis=1, initial=0)
    return out


@pytest.mark.parametrize("size", (5, 300))
def test_modal_equals_the_per_world_loop(monkeypatch, size):
    # one row, a few rows and many, on models of 1, 3 and 12 worlds; the
    # rows are a column slice of a wider block, as the enumerator passes them
    rng = np.random.default_rng(300 + size)
    cases = []
    for f in (1, 24, 25, 2000):
        for n in (1, 3, 12):
            _, top, rel = random_levels(rng, size, (n, n))
            rel[rng.random(rel.shape) < 0.5] = 0
            vecs = random_levels(rng, size, (f, n + 2))[2][:, 1:-1]
            for box in (True, False):
                for inverse in (True, False):
                    want = ref_modal(rel, vecs, top, box=box, inverse=inverse)
                    cases.append((rel, vecs, top, box, inverse, want))
    # whole broadcasts, one-element blocks and blocks of a few entries
    for batch in (levels.BATCH, 1, 24):
        monkeypatch.setattr(levels, "BATCH", batch)
        for rel, vecs, top, box, inverse, want in cases:
            got = levels.modal(rel, vecs, top, box=box, inverse=inverse)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def two_call_update(r, rp, phi, top):
    """The forward update as a fold of a composition, then a meet over the
    stack: the two kernel calls it was before it was fused."""
    return residual_fold(r, compose(rp, phi.T), top).min(axis=0)


# (n1, n2): the worlds of phi's rows and columns, square and not, with one
# world on either side and a model of more than 40 worlds
UPDATE_SHAPES = ((1, 1), (1, 4), (4, 1), (2, 5), (5, 2), (6, 6), (7, 3), (41, 12), (3, 40))


def update_cases(rng, size):
    """Stacks of relation pairs and a phi, with mostly zero relations, a
    world with no successor (row 0) and a hub with every world as a
    successor (the last row)."""
    for s in (1, 2, 4):
        for n1, n2 in UPDATE_SHAPES:
            _, top, phi = random_levels(rng, size, (n1, n2))
            rels = []
            for n in (n1, n2):
                rel = random_levels(rng, size, (s, n, n))[2]
                rel[rng.random(rel.shape) < 0.6] = 0
                rel[:, 0] = 0
                rel[:, -1] = rng.integers(1, size, (s, n))
                rels.append(rel)
            yield top, *rels, phi


@pytest.mark.parametrize("size", SIZES)
def test_forward_update_equals_the_two_call_update(monkeypatch, size):
    cases = list(update_cases(np.random.default_rng(200 + size), size))
    want = [two_call_update(r, rp, phi, top) for top, r, rp, phi in cases]
    assert {w.dtype for w in want} == {np.dtype(np.uint8 if size <= 256 else np.uint16)}
    # whole broadcasts, one-element blocks and blocks of a few entries
    for batch in (levels.BATCH, 1, 24):
        monkeypatch.setattr(levels, "BATCH", batch)
        for (top, r, rp, phi), w in zip(cases, want):
            got = forward_update(r, rp, phi, top)
            assert got.dtype == w.dtype
            np.testing.assert_array_equal(got, w)


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
    # Then an output axis of 100, last and then first: 38,400 entries in
    # blocks of 3,200, one entry of the contracted axis
    rng = np.random.default_rng(size)
    cases = []
    for s, k, n, m in ((8, 12, 400, 12), (2, 16, 12, 100), (2, 100, 12, 16)):
        dtype, top, a = random_levels(rng, size, (s, k, n))
        b = random_levels(rng, size, (s, n, m))[2]
        y = random_levels(rng, size, (s, m, n))[2]
        calls = ((compose, a, b), (residual_fold, a, y, top), (biimplication_fold, a, y, top))
        cases.append((s * k * n * m * dtype.itemsize, calls))
    # a box and a diamond over 400 rows of a 12-world model: 12 * 12 * 400
    # = 57,600 entries, in blocks of one entry of the contracted axis
    rel, vecs = (random_levels(rng, size, shape)[2] for shape in ((12, 12), (400, 12)))
    calls = [(partial(levels.modal, box=box, inverse=False), rel, vecs, top) for box in (True, False)]
    cases.append((12 * 12 * 400 * dtype.itemsize, calls))
    # the forward update on 8 relation pairs of 20 and 16 worlds: its
    # composition and its meet of residua have 8 * 20 * 16 = 2,560 entries
    # per entry of their contracted axes (16 and 20), so the meet's whole
    # broadcast holds 51,200 entries and a block one entry of the axis
    dtype, top, phi = random_levels(rng, size, (20, 16))
    r, rp = (random_levels(rng, size, (8, n, n))[2] for n in (20, 16))
    cases.append((8 * 20 * 16 * 20 * dtype.itemsize, ((forward_update, r, rp, phi, top),)))
    # with the default BATCH the broadcast is one block, and the measure sees it
    for whole, calls in cases:
        assert all(peak_bytes(*call) >= whole for call in calls)
    monkeypatch.setattr(levels, "BATCH", 4096)
    # a few block-sized temporaries (a mask, a selection, a partial result,
    # each block's contiguous copies of its operand slices), the update's
    # input-sized copies of its relations and its composition, and the
    # interpreter's own small allocations: below the whole
    for _, calls in cases:
        assert all(peak_bytes(*call) <= 8 * 4096 * dtype.itemsize for call in calls)
