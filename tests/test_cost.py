import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msfuse.core import gradient
from msfuse.cost import (CostParams, census_transform, cost_block, cost_terms,
                         match_cost, mirrored_terms)


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
    vol = np.zeros((n_disp, height, width))
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
                vol[k, y, x] = (
                    params.w_ad * ad + params.w_grad * gd + params.w_cen * ham
                )
    return vol


@st.composite
def image_pairs(draw):
    """Two images of one shape from 1x1 to 6x7, on 1 (constant), 2, 3 or
    256 grey levels, so that neighbours often tie with the centre."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 7)))
    levels = draw(st.sampled_from([1, 2, 3, 256]))
    grey = arrays(np.int64, shape, elements=st.integers(0, levels - 1))
    return tuple(draw(grey) / max(levels - 1, 1) for _ in range(2))


@st.composite
def float_pairs(draw):
    """Two images of one shape from 1x1 to 5x8 of any floats in [0, 1]
    (subnormals included), or of 3 grey levels, so that neighbours and
    gradients often tie."""
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 8)))
    if draw(st.booleans()):
        values = st.floats(0, 1)
    else:
        values = st.sampled_from([0.0, 0.5, 1.0])
    return tuple(draw(arrays(np.float64, shape, elements=values)) for _ in range(2))


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
                    codes = census_transform(img, radius)
                    # 8 and 24 bits fit in uint32, 48 need uint64
                    assert codes.dtype == (np.uint64 if radius == 3 else np.uint32)
                    np.testing.assert_array_equal(codes, census_oracle(img, radius))

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

    @given(image_pairs(), st.integers(1, 3))
    @example((np.full((3, 4), 0.5), np.full((3, 4), 0.5)), 2)
    @example((np.array([[0.0], [1.0], [0.5]]), np.array([[1.0], [0.0], [0.0]])), 1)
    @example((np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])), 3)
    def test_mirrored_codes_keep_hamming_distances(self, pair, radius):
        # the right view's pass reads np.fliplr of the left pass's codes in
        # place of the codes of the mirrored images: their Hamming distances
        # must agree at every column offset that cost_block compares
        flipped = [np.fliplr(census_transform(img, radius)) for img in pair]
        mirrored = [census_transform(np.fliplr(img), radius) for img in pair]
        width = pair[0].shape[1]
        for c in range(width):
            np.testing.assert_array_equal(
                np.bitwise_count(flipped[0][:, c:] ^ flipped[1][:, : width - c]),
                np.bitwise_count(mirrored[0][:, c:] ^ mirrored[1][:, : width - c]),
            )


class TestCostBlock:
    @given(float_pairs(), st.integers(1, 3), st.integers(1, 4),
           st.sampled_from([0.08, 10.0]))
    @example((np.array([[0.25], [1.0]]), np.array([[0.5], [0.0]])), 2, 2, 10.0)
    @example((np.array([[0.0, 1.0], [0.3, 0.1]]), np.array([[1.0, 0.0], [0.7, 0.7]])),
             1, 3, 10.0)
    def test_mirrored_terms_give_the_mirrored_pairs_costs(self, pair, radius, n,
                                                         tau_grad):
        # the right view's pass reads flipped views of the left pass's
        # images and census codes in place of the terms of the mirrored
        # images; every block's costs must agree byte for byte. A
        # tau_grad above every gradient difference leaves that term
        # untruncated.
        left, right = pair
        params = CostParams(census_radius=radius, tau_grad=tau_grad)
        shared = mirrored_terms(cost_terms(left, right, params))
        fresh = cost_terms(np.fliplr(right), np.fliplr(left), params)
        shape = left.shape
        for c0 in range(shape[1] + 1):
            got, expected = (
                cost_block(terms, params, c0, np.empty((n,) + shape),
                           np.full((2,) + shape, np.nan))
                for terms in (shared, fresh))
            assert got.tobytes() == expected.tobytes()


def test_cost_terms_hold_no_x_gradients():
    # cost_block forms the x-gradients in its work arrays, block by block:
    # the terms are the two images and their census codes, and the mirrored
    # terms are flipped views of them, roles swapped
    rng = np.random.default_rng(24)
    left, right = rng.random((6, 9)), rng.random((6, 9))
    params = CostParams()
    terms = cost_terms(left, right, params)
    assert len(terms) == 4
    assert terms[0] is left and terms[1] is right
    for img, codes in zip(terms[:2], terms[2:]):
        assert codes.dtype == np.uint32
        np.testing.assert_array_equal(codes, census_transform(img, params.census_radius))
    mirrored = mirrored_terms(terms)
    assert len(mirrored) == 4
    for view, term in zip(mirrored, (right, left, terms[3], terms[2])):
        assert view.base is term
        np.testing.assert_array_equal(view, np.fliplr(term))


class TestMatchCost:
    def test_identical_zero_at_c0(self):
        rng = np.random.default_rng(20)
        img = rng.random((8, 8))
        vol = match_cost(img, img, CostParams(d_min=0, d_max=3))
        np.testing.assert_allclose(vol.data[0], 0.0, atol=1e-15)

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
        np.testing.assert_allclose(vol.data[5, :, 6:-7], 0.0, atol=1e-15)

    def test_single_term_substitution(self):
        # equal gradients and census everywhere, only the AD term fires
        left = np.full((3, 3), 0.5)
        right = np.full((3, 3), 0.3)
        vol = match_cost(left, right, CostParams(d_min=0, d_max=0))
        assert vol.data[0, 1, 1] == pytest.approx(0.3 * min(0.2, 0.12))

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
        np.testing.assert_allclose(vol.data[0, :, :3], bound)

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
