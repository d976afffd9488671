import numpy as np
import pytest

from msfuse.aggregate import GuidedFilterParams, aggregate_cost
from msfuse.core import INVALID_DISPARITY, CostVolume
from msfuse.cost import CostParams, match_cost
from msfuse.disparity import (
    DisparityParams,
    RunningWinner,
    fill_invalid,
    lr_consistency,
    subpixel_refine,
    wta,
)
from msfuse.fusion import FusionParams, fuse_scales
from msfuse.wls import WlsParams, decompose


def volume_from(costs, d_min=0):
    """Volume of (D, H, W) costs; a flat list is the costs of one pixel."""
    data = np.asarray(costs, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None, None]
    return CostVolume(d_min=d_min, d_max=d_min + data.shape[0] - 1, data=data)


class TestWta:
    def test_unique_minimum(self):
        vol = volume_from([3.0, 1.0, 2.0])
        assert wta(vol)[0, 0] == 1.0

    def test_tie_breaks_small(self):
        vol = volume_from([1.0, 1.0, 2.0])
        assert wta(vol)[0, 0] == 0.0

    def test_respects_d_min(self):
        vol = volume_from([3.0, 1.0], d_min=4)
        assert wta(vol)[0, 0] == 5.0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(60)
        data = rng.random((10, 8, 8))
        vol = volume_from(data, d_min=2)
        d = wta(vol)
        for y in range(8):
            for x in range(8):
                best, best_c = np.inf, None
                for k in range(10):
                    if data[k, y, x] < best:
                        best, best_c = data[k, y, x], 2 + k
                assert d[y, x] == best_c

    @pytest.mark.parametrize("n_disp", [1, 2, 17, 96])
    def test_matches_argmin_with_ties(self, n_disp):
        # costs on a coarse grid tie often; planted copies of the minimum
        # at a later disparity must not win
        rng = np.random.default_rng(n_disp)
        data = rng.integers(0, 4, (n_disp, 9, 11)).astype(np.float64)
        later = rng.integers(0, n_disp, (9, 11))
        first = np.argmin(data, axis=0)
        np.put_along_axis(data, np.maximum(first, later)[None],
                          np.min(data, axis=0)[None], axis=0)
        expected = 3 + np.argmin(data, axis=0)
        np.testing.assert_array_equal(wta(volume_from(data, d_min=3)), expected)

    def test_range_invariant(self):
        rng = np.random.default_rng(61)
        vol = volume_from(rng.random((5, 6, 6)), d_min=1)
        d = wta(vol)
        assert (d >= 1).all() and (d <= 5).all()


class TestSubpixel:
    def test_symmetric_parabola(self):
        vol = volume_from([1.0, 0.0, 1.0])
        d = subpixel_refine(vol, wta(vol))
        assert d[0, 0] == 1.0

    def test_closed_form_vertex(self):
        vol = volume_from([2.0, 0.0, 1.0])
        d = subpixel_refine(vol, wta(vol))
        assert d[0, 0] == pytest.approx(1 + 1 / 6)

    def test_flat_degenerate(self):
        vol = volume_from([1.0, 1.0, 1.0])
        d = subpixel_refine(vol, wta(vol))
        assert d[0, 0] == 0.0  # winner stays the tie-broken 0

    def test_boundary_winner_unchanged(self):
        vol = volume_from([0.0, 1.0, 2.0])
        assert subpixel_refine(vol, wta(vol))[0, 0] == 0.0

    def test_offset_within_half(self):
        rng = np.random.default_rng(62)
        vol = volume_from(rng.random((9, 8, 8)), d_min=0)
        d0 = wta(vol)
        d1 = subpixel_refine(vol, d0)
        assert np.abs(d1 - d0).max() <= 0.5
        assert (d1 >= -0.5).all() and (d1 <= 8.5).all()


def refine_oracle(data, d_min):
    """First argmin per pixel, moved by the clamped parabola vertex through
    its neighbours; one pixel at a time."""
    n_disp = data.shape[0]
    k = np.argmin(data, axis=0)
    out = (d_min + k).astype(np.float64)
    for y, x in np.ndindex(k.shape):
        c = k[y, x]
        if 0 < c < n_disp - 1:
            c_minus, c_zero, c_plus = data[c - 1 : c + 2, y, x]
            denom = 2.0 * (c_minus - 2.0 * c_zero + c_plus)
            if abs(denom) > 1e-12:
                out[y, x] += min(max((c_minus - c_plus) / denom, -0.5), 0.5)
    return out


class TestRunningWinner:
    @pytest.mark.parametrize("sizes", [[1], [2, 1], [3, 1, 2], [17]])
    def test_blocks_equal_whole_volume(self, sizes):
        # coarse costs tie often; block sizes cycle through ``sizes``, so
        # winners fall on the first and last slices of blocks
        rng = np.random.default_rng(len(sizes))
        data = rng.integers(0, 5, (17, 9, 11)) / 4.0
        data[:, 0, 0] = 1.0  # a flat pixel
        winner = RunningWinner(data.shape[1:])
        k, blocks = 0, 0
        while k < len(data):
            n = sizes[blocks % len(sizes)]
            winner.fold(data[k : k + n].copy())
            k, blocks = k + n, blocks + 1
        vol = volume_from(data, d_min=2)
        assert winner.disparity(2, subpixel=False).tobytes() == wta(vol).tobytes()
        refined = winner.disparity(2, subpixel=True)
        assert refined.tobytes() == subpixel_refine(vol, wta(vol)).tobytes()
        assert refined.tobytes() == refine_oracle(data, 2).tobytes()


class TestLrConsistency:
    def test_perfect_agreement(self):
        d = np.full((4, 8), 3.0)
        out = lr_consistency(d, d, 1.0)
        # columns with in-bounds projection survive
        assert (out[:, 3:] == 3.0).all()
        assert (out[:, :3] == INVALID_DISPARITY).all()

    def test_disagreement_invalidated(self):
        d_left = np.full((1, 8), 5.0)
        d_right = np.full((1, 8), 9.0)
        out = lr_consistency(d_left, d_right, 1.0)
        assert (out == INVALID_DISPARITY).all()

    def test_threshold_boundary(self):
        d_left = np.full((1, 8), 4.0)
        d_right = np.full((1, 8), 5.0)
        assert (lr_consistency(d_left, d_right, 1.0)[:, 4:] == 4.0).all()
        assert (lr_consistency(d_left, d_right, 0.5) == INVALID_DISPARITY).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lr_consistency(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


class TestFillInvalid:
    inv = INVALID_DISPARITY

    def test_min_of_neighbors(self):
        row = np.array([[2.0, self.inv, 4.0]])
        np.testing.assert_array_equal(fill_invalid(row), [[2.0, 2.0, 4.0]])

    def test_one_sided(self):
        row = np.array([[self.inv, self.inv, 3.0]])
        np.testing.assert_array_equal(fill_invalid(row), [[3.0, 3.0, 3.0]])

    def test_fully_invalid_row_unchanged(self):
        rows = np.array([[self.inv, self.inv], [1.0, self.inv]])
        out = fill_invalid(rows)
        np.testing.assert_array_equal(out[0], [self.inv, self.inv])
        np.testing.assert_array_equal(out[1], [1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(63)
        d = rng.random((6, 10)) * 8
        d[rng.random((6, 10)) < 0.4] = self.inv
        once = fill_invalid(d)
        np.testing.assert_array_equal(fill_invalid(once), once)

    def test_matches_row_scan_oracle(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            height, width = rng.integers(1, 8, size=2)
            d = rng.random((height, width)) * 8
            d[rng.random((height, width)) < rng.random()] = self.inv
            expected = d.copy()
            for y in range(height):
                for x in range(width):
                    if d[y, x] != self.inv:
                        continue
                    left = [v for v in d[y, :x] if v != self.inv][-1:]
                    right = [v for v in d[y, x + 1 :] if v != self.inv][:1]
                    if left or right:
                        expected[y, x] = min(left + right)
            np.testing.assert_array_equal(fill_invalid(d), expected)


class TestShiftedPipeline:
    @pytest.mark.parametrize("k", [2, 7])
    def test_circular_shift_exact(self, k):
        """cost -> aggregate -> fuse -> wta reports exactly k on a
        circularly shifted pair, at every fully supported pixel."""
        rng = np.random.default_rng(64)
        left = rng.random((32, 48))
        cost_params = CostParams(d_min=0, d_max=10, census_radius=2)
        gf_params = GuidedFilterParams(radius=2)

        pyramid = decompose(left, WlsParams(eta=0.5))
        vols = []
        for base in pyramid:
            right = np.roll(base, -k, axis=1)
            vols.append(
                aggregate_cost(base, match_cost(base, right, cost_params), gf_params)
            )
        fused = fuse_scales(vols, FusionParams(zeta=0.3))[0]
        d = wta(fused)

        # support margin: disparity range + census window + guided-filter
        # spill (2 * radius), clear of the wrap seam and image borders
        m = cost_params.d_max + cost_params.census_radius + 2 * gf_params.radius + 1
        assert (d[m:-m, m:-m] == k).all()
