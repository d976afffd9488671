import numpy as np
import pytest

from msfuse.core import gradient
from msfuse.cost import CostParams, census_transform, match_cost


def census_oracle(img, radius):
    """Naive per-pixel double loop; OOB neighbors take the center value."""
    height, width = img.shape
    codes = np.zeros((height, width), dtype=np.uint64)
    for y in range(height):
        for x in range(width):
            bit = 0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < height and 0 <= nx < width:
                        val = img[ny, nx]
                    else:
                        val = img[y, x]
                    if val < img[y, x]:
                        codes[y, x] |= np.uint64(1) << np.uint64(bit)
                    bit += 1
    return codes


def cost_oracle(left, right, params):
    """Per-(j,c) scalar evaluation of the fused cost formula."""
    height, width = left.shape
    gl = gradient(left, "x")
    gr = gradient(right, "x")
    cl = census_oracle(left, params.census_radius)
    cr = census_oracle(right, params.census_radius)
    n_bits = (2 * params.census_radius + 1) ** 2 - 1
    n_disp = params.d_max - params.d_min + 1
    vol = np.zeros((height, width, n_disp))
    for y in range(height):
        for x in range(width):
            for k, c in enumerate(range(params.d_min, params.d_max + 1)):
                xr = x - c
                if xr < 0:
                    ad, gd, ham = params.tau_ad, params.tau_grad, 1.0
                else:
                    ad = min(abs(left[y, x] - right[y, xr]), params.tau_ad)
                    gd = min(abs(gl[y, x] - gr[y, xr]), params.tau_grad)
                    ham = bin(int(cl[y, x]) ^ int(cr[y, xr])).count("1") / n_bits
                vol[y, x, k] = (
                    params.w_ad * ad + params.w_grad * gd + params.w_cen * ham
                )
    return vol


class TestCensus:
    def test_constant_all_zero(self):
        codes = census_transform(np.full((5, 5), 0.5), 2)
        assert not codes.any()

    def test_3x3_center_code(self):
        img = np.arange(1, 10, dtype=np.float64).reshape(3, 3)
        codes = census_transform(img, 1)
        # neighbors of the center in row-major order: 1,2,3,4,6,7,8,9;
        # the first four are < 5
        assert codes[1, 1] == 0b00001111

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        for shape in [(6, 6), (5, 9), (9, 4), (2, 7), (1, 1), (1, 6), (6, 1)]:
            # continuous values, and 4-level values with many ties
            for img in (rng.random(shape), np.floor(rng.random(shape) * 4) / 4):
                for radius in (1, 2, 3):
                    np.testing.assert_array_equal(
                        census_transform(img, radius), census_oracle(img, radius)
                    )

    def test_monotone_invariance(self):
        rng = np.random.default_rng(18)
        img = rng.random((6, 6))
        remapped = np.exp(3.0 * img) - 0.5  # strictly increasing
        np.testing.assert_array_equal(
            census_transform(img, 2), census_transform(remapped, 2)
        )

    def test_radius_too_small(self):
        with pytest.raises(ValueError):
            census_transform(np.zeros((3, 3)), 0)


class TestMatchCost:
    def test_identical_zero_at_c0(self):
        rng = np.random.default_rng(20)
        img = rng.random((8, 8))
        vol = match_cost(img, img, CostParams(d_min=0, d_max=3))
        np.testing.assert_allclose(vol.data[:, :, 0], 0.0, atol=1e-15)

    def test_shifted_pair_zero_at_true_disparity(self):
        rng = np.random.default_rng(21)
        left = rng.random((8, 16))
        right = np.empty_like(left)
        right[:, :-5] = left[:, 5:]
        right[:, -5:] = rng.random((8, 5))
        params = CostParams(d_min=0, d_max=8, census_radius=1)
        vol = match_cost(left, right, params)
        # valid support: right sample in bounds and census window clear of
        # the disoccluded band
        np.testing.assert_allclose(vol.data[:, 6:-7, 5], 0.0, atol=1e-15)

    def test_single_term_substitution(self):
        # equal gradients and census everywhere, only the AD term fires
        left = np.full((3, 3), 0.5)
        right = np.full((3, 3), 0.3)
        vol = match_cost(left, right, CostParams(d_min=0, d_max=0))
        assert vol.data[1, 1, 0] == pytest.approx(0.3 * min(0.2, 0.12))

    def test_matches_full_oracle(self):
        rng = np.random.default_rng(22)
        left = rng.random((8, 8))
        right = rng.random((8, 8))
        params = CostParams(d_min=0, d_max=4, census_radius=1)
        vol = match_cost(left, right, params)
        np.testing.assert_array_equal(vol.data, cost_oracle(left, right, params))

    def test_bounded(self):
        rng = np.random.default_rng(23)
        params = CostParams(d_min=0, d_max=6)
        vol = match_cost(rng.random((8, 8)), rng.random((8, 8)), params)
        bound = params.w_ad * params.tau_ad + params.w_grad * params.tau_grad + params.w_cen
        assert (vol.data >= 0).all()
        assert (vol.data <= bound + 1e-15).all()

    def test_out_of_bounds_is_maximal(self):
        rng = np.random.default_rng(24)
        params = CostParams(d_min=3, d_max=3)
        vol = match_cost(rng.random((4, 8)), rng.random((4, 8)), params)
        bound = params.w_ad * params.tau_ad + params.w_grad * params.tau_grad + params.w_cen
        np.testing.assert_allclose(vol.data[:, :3, 0], bound)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            match_cost(np.zeros((4, 4)), np.zeros((4, 5)), CostParams())


class TestParams:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            CostParams(w_ad=-0.1)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            CostParams(w_ad=0, w_grad=0, w_cen=0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            CostParams(d_min=5, d_max=2)
