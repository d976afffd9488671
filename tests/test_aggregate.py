import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from msfuse import aggregate
from msfuse.aggregate import (
    GuidedFilterParams,
    _box_sum,
    aggregate_cost,
    box_mean,
    guided_filter,
)
from msfuse.core import CostVolume


def box_mean_oracle(img, radius):
    height, width = img.shape
    out = np.empty_like(img)
    for y in range(height):
        for x in range(width):
            win = img[
                max(y - radius, 0) : min(y + radius, height - 1) + 1,
                max(x - radius, 0) : min(x + radius, width - 1) + 1,
            ]
            out[y, x] = win.mean()
    return out


def window_stats(guide, radius):
    """Mean and variance of the clipped window at every centre, each from
    one ``win.mean()`` and ``win.var()`` call."""
    height, width = guide.shape
    mean, var = np.empty_like(guide), np.empty_like(guide)
    for ly in range(height):
        for lx in range(width):
            win = guide[
                max(ly - radius, 0) : min(ly + radius, height - 1) + 1,
                max(lx - radius, 0) : min(lx + radius, width - 1) + 1,
            ]
            mean[ly, lx] = win.mean()
            var[ly, lx] = win.var()
    return mean, var


def kernel_weight(guide, i, j, params, stats=None):
    """Explicit guided-filter kernel L(i,j); the slow oracle form.

    i and j are (row, col) pairs. Sums over every window center l whose
    clipped window contains both pixels; window statistics use the actual
    (clipped) pixels, the 1/|lam|^2 prefactor uses the full window size.
    ``stats`` is ``window_stats(guide, params.radius)``, computed here when
    not given.
    """
    height, width = guide.shape
    r = params.radius
    full = (2 * r + 1) ** 2
    iy, ix = i
    jy, jx = j
    mean, var = window_stats(guide, r) if stats is None else stats

    total = 0.0
    for ly in range(max(iy - r, jy - r, 0), min(iy + r, jy + r, height - 1) + 1):
        for lx in range(max(ix - r, jx - r, 0), min(ix + r, jx + r, width - 1) + 1):
            m = mean[ly, lx]
            total += 1.0 + (guide[iy, ix] - m) * (guide[jy, jx] - m) / (
                var[ly, lx] + params.xi
            )
    return total / full**2


def kernel_row_sum(guide, i, params):
    """Normalizer N_i = sum_j L(i,j) (exactly 1 for interior pixels)."""
    height, width = guide.shape
    r = params.radius
    stats = window_stats(guide, r)
    iy, ix = i
    total = 0.0
    for jy in range(max(iy - 2 * r, 0), min(iy + 2 * r, height - 1) + 1):
        for jx in range(max(ix - 2 * r, 0), min(ix + 2 * r, width - 1) + 1):
            total += kernel_weight(guide, i, (jy, jx), params, stats)
    return total


def kernel_filter_oracle(guide, p, params):
    """Explicit kernel sum sum_j L(i,j) p_j / N_i at every pixel."""
    height, width = guide.shape
    r = params.radius
    stats = window_stats(guide, r)
    out = np.empty_like(p)
    for iy in range(height):
        for ix in range(width):
            total = 0.0
            norm = 0.0
            for jy in range(max(iy - 2 * r, 0), min(iy + 2 * r, height - 1) + 1):
                for jx in range(max(ix - 2 * r, 0), min(ix + 2 * r, width - 1) + 1):
                    w = kernel_weight(guide, (iy, ix), (jy, jx), params, stats)
                    total += w * p[jy, jx]
                    norm += w
            out[iy, ix] = total / norm
    return out


def interior_slice(shape, radius):
    """Pixels whose every covering window lies fully inside the image."""
    height, width = shape
    lo = 2 * radius
    return slice(lo, height - lo), slice(lo, width - lo)


class TestBoxMean:
    def test_constant(self):
        np.testing.assert_allclose(box_mean(np.full((6, 6), 2.5), 2), 2.5)

    def test_3x1_window_means(self):
        img = np.array([[0.0, 3.0, 6.0]])
        np.testing.assert_allclose(box_mean(img, 1), [[1.5, 3.0, 4.5]])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(30)
        for shape in [(7, 7), (5, 9), (9, 4), (1, 1), (1, 6), (6, 1)]:
            img = rng.random(shape)
            # radii up to and beyond the image side
            for radius in (1, 2, 3, max(shape), max(shape) + 2):
                got = box_mean(img, radius)
                assert np.abs(got - box_mean_oracle(img, radius)).max() <= 1e-12

    def test_stack_matches_slices(self):
        # the (k, H, W) stack form adds exactly what each slice alone adds
        rng = np.random.default_rng(43)
        for shape in [(1, 1), (1, 6), (6, 1), (5, 9), (9, 4)]:
            stack = rng.random((3,) + shape)
            for radius in range(1, max(shape) + 3):
                got = _box_sum(stack, radius)
                for k in range(3):
                    np.testing.assert_array_equal(got[k], _box_sum(stack[k], radius))

    def test_in_place_integral_matches_copy(self):
        # a stack that lies in the padded buffer's interior is integrated
        # where it lies, with the additions of a box sum of a copy
        rng = np.random.default_rng(44)
        for shape in [(1, 1), (1, 6), (6, 1), (5, 9), (9, 4)]:
            for radius in range(1, max(shape) + 3):
                stack = rng.random((3,) + shape)
                padded = aggregate._padded(stack.shape, radius)
                interior = aggregate._interior(padded, radius)
                interior[...] = stack
                got = _box_sum(interior, radius, padded)
                assert got.tobytes() == _box_sum(stack, radius).tobytes()


class TestKernelWeight:
    def test_constant_guide_diagonal(self):
        params = GuidedFilterParams(radius=2)
        guide = np.full((12, 12), 0.5)
        full = (2 * 2 + 1) ** 2
        # interior: variance term vanishes, |covering windows| = |lam|
        assert kernel_weight(guide, (6, 6), (6, 6), params) == pytest.approx(1 / full)

    def test_zero_outside_range(self):
        rng = np.random.default_rng(31)
        guide = rng.random((10, 10))
        params = GuidedFilterParams(radius=1)
        assert kernel_weight(guide, (2, 2), (2, 5), params) == 0.0
        assert kernel_weight(guide, (2, 2), (5, 2), params) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        guide = rng.random((7, 7))
        params = GuidedFilterParams(radius=2)
        for i, j in [((1, 2), (3, 4)), ((0, 0), (2, 1)), ((5, 6), (4, 4))]:
            assert kernel_weight(guide, i, j, params) == kernel_weight(guide, j, i, params)

    def test_matches_direct_sum(self):
        # independent symbolic evaluation of the kernel at one pair
        rng = np.random.default_rng(33)
        guide = rng.random((7, 7))
        params = GuidedFilterParams(radius=1, xi=1e-2)
        i, j = (3, 3), (3, 4)
        total = 0.0
        for ly in range(2, 5):
            for lx in range(2, 6):
                if abs(ly - i[0]) > 1 or abs(lx - i[1]) > 1:
                    continue
                if abs(ly - j[0]) > 1 or abs(lx - j[1]) > 1:
                    continue
                win = guide[ly - 1 : ly + 2, lx - 1 : lx + 2]
                total += 1.0 + (guide[i] - win.mean()) * (guide[j] - win.mean()) / (
                    win.var() + 1e-2
                )
        assert kernel_weight(guide, i, j, params) == pytest.approx(total / 81, rel=1e-12)

    def test_interior_row_sum_is_one(self):
        rng = np.random.default_rng(34)
        guide = rng.random((10, 10))
        params = GuidedFilterParams(radius=2)
        assert kernel_row_sum(guide, (4, 4), params) == pytest.approx(1.0, abs=1e-10)


class TestGuidedFilter:
    def test_constant_guide_means_of_means(self):
        rng = np.random.default_rng(35)
        p = rng.random((8, 8))
        guide = np.full((8, 8), 0.7)
        params = GuidedFilterParams(radius=2)
        np.testing.assert_allclose(
            guided_filter(guide, p, params),
            box_mean(box_mean(p, 2), 2),
            atol=1e-12,
        )

    def test_self_guide_small_xi(self):
        rng = np.random.default_rng(36)
        guide = rng.random((10, 10))
        params = GuidedFilterParams(radius=2, xi=1e-12)
        out = guided_filter(guide, guide, params)
        np.testing.assert_allclose(out, guide, atol=1e-6)

    def test_matches_kernel_oracle_interior(self):
        rng = np.random.default_rng(37)
        guide = rng.random((12, 12))
        p = rng.random((12, 12))
        params = GuidedFilterParams(radius=2, xi=1e-4)
        fast = guided_filter(guide, p, params)
        oracle = kernel_filter_oracle(guide, p, params)
        ys, xs = interior_slice(guide.shape, 2)
        assert np.abs(fast[ys, xs] - oracle[ys, xs]).max() <= 1e-10

    def test_large_xi_limit(self):
        rng = np.random.default_rng(38)
        guide = rng.random((9, 9))
        p = rng.random((9, 9))
        params = GuidedFilterParams(radius=2, xi=1e9)
        np.testing.assert_allclose(
            guided_filter(guide, p, params),
            box_mean(box_mean(p, 2), 2),
            atol=1e-6,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            guided_filter(np.zeros((4, 4)), np.zeros((4, 5)), GuidedFilterParams())


@given(st.integers(1, 300), st.integers(1, 40))
def test_blocks_tile_the_range_evenly(n, length):
    plan = list(aggregate.blocks(n, length))
    assert len(plan) == -(-n // length)
    assert plan[0][0] == 0 and plan[-1][1] == n
    assert all(prev[1] == nxt[0] for prev, nxt in zip(plan, plan[1:]))
    sizes = [stop - start for start, stop in plan]
    assert max(sizes) <= length and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("width, height, slices", [
    (160, 120, 7),  # 6.8 slices of BLOCK_BYTES, rounded up
    (256, 192, 3),  # 2.7
    (640, 480, 1),  # one slice alone is over BLOCK_BYTES
])
def test_block_length_rounds_up_to_whole_slices(width, height, slices):
    assert aggregate.block_length((height, width)) == slices


class TestAggregateCost:
    def _volume(self, rng, shape, n_disp):
        return CostVolume(
            d_min=0, d_max=n_disp - 1, data=rng.random((n_disp,) + shape)
        )

    def test_equal_slices_stay_equal(self):
        rng = np.random.default_rng(39)
        guide = rng.random((8, 8))
        one = rng.random((8, 8))
        vol = CostVolume(d_min=0, d_max=2, data=np.stack([one, one, one]))
        out = aggregate_cost(guide, vol, GuidedFilterParams(radius=2))
        np.testing.assert_array_equal(out.data[0], out.data[1])
        np.testing.assert_array_equal(out.data[0], out.data[2])

    def test_constant_volume_preserved(self):
        rng = np.random.default_rng(40)
        guide = rng.random((8, 8))
        vol = CostVolume(d_min=0, d_max=3, data=np.full((4, 8, 8), 0.25))
        out = aggregate_cost(guide, vol, GuidedFilterParams(radius=2))
        # holds image-wide, borders included
        np.testing.assert_allclose(out.data, 0.25, atol=1e-10)

    def test_slices_match_guided_filter(self):
        rng = np.random.default_rng(41)
        guide = rng.random((8, 8))
        vol = self._volume(rng, (8, 8), 5)
        params = GuidedFilterParams(radius=2)
        raw = vol.data.copy()  # aggregate_cost consumes its input
        out = aggregate_cost(guide, vol, params)
        assert np.shares_memory(out.data, vol.data)
        for k in range(5):
            expected = np.maximum(guided_filter(guide, raw[k], params), 0.0)
            np.testing.assert_array_equal(out.data[k], expected)

    def test_block_boundaries(self, monkeypatch):
        # the same 8x8 volume of 5 slices, in blocks of 2, 2 and 1 slices
        monkeypatch.setattr(aggregate, "BLOCK_BYTES", 2 * 8 * 8 * 8)
        self.test_slices_match_guided_filter()

    def test_scratch_bounded_by_block(self):
        # 28.1 MiB of float64 costs; scratch must not scale with the range
        rng = np.random.default_rng(45)
        guide = rng.random((120, 160))
        vol = self._volume(rng, (120, 160), 192)
        tracemalloc.start()
        try:
            aggregate_cost(guide, vol, GuidedFilterParams())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * vol.data.nbytes

    def test_shape_mismatch(self):
        rng = np.random.default_rng(42)
        vol = self._volume(rng, (8, 8), 3)
        with pytest.raises(ValueError):
            aggregate_cost(np.zeros((9, 8)), vol, GuidedFilterParams())
