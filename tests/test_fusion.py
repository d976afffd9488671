import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msfuse.core import CostVolume
from msfuse.fusion import (
    FusionParams,
    finest_weights,
    fuse_scales,
    fusion_matrix,
    solve_fused,
)


def make_volumes(rng, shape=(4, 4), n_disp=3):
    return [
        CostVolume(d_min=0, d_max=n_disp - 1, data=rng.random(shape + (n_disp,)))
        for _ in range(4)
    ]


class TestFusionMatrix:
    def test_zeta_zero_identity(self):
        np.testing.assert_array_equal(fusion_matrix(0.0), np.eye(4))

    def test_zeta_one(self):
        expected = np.array(
            [
                [2.0, -1.0, 0.0, 0.0],
                [-1.0, 3.0, -1.0, 0.0],
                [0.0, -1.0, 3.0, -1.0],
                [0.0, 0.0, -1.0, 2.0],
            ]
        )
        np.testing.assert_array_equal(fusion_matrix(1.0), expected)

    @pytest.mark.parametrize("zeta", [0.1, 0.5, 2.0])
    def test_rows_sum_to_one(self, zeta):
        np.testing.assert_allclose(fusion_matrix(zeta).sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("zeta", [0.0, 0.3, 10.0])
    def test_symmetric_positive_definite(self, zeta):
        m = fusion_matrix(zeta)
        np.testing.assert_array_equal(m, m.T)
        assert (np.linalg.eigvalsh(m) > 0).all()

    def test_negative_zeta_rejected(self):
        with pytest.raises(ValueError):
            fusion_matrix(-0.1)


class TestFinestWeights:
    @given(zeta=st.floats(0, 1e3))
    def test_nonnegative_and_sums_to_one(self, zeta):
        w = finest_weights(FusionParams(zeta=zeta))
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_zeta_zero_selects_finest(self):
        np.testing.assert_array_equal(finest_weights(FusionParams(zeta=0.0)), [1, 0, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(
        zeta=st.floats(0, 1e3),
        data=arrays(np.float64, (4, 3, 4, 5), elements=st.floats(0, 1)),
    )
    def test_weighted_sum_matches_fuse_scales(self, zeta, data):
        # the pipeline computes only the finest fused volume, as this sum
        params = FusionParams(zeta=zeta)
        vols = [CostVolume(d_min=0, d_max=4, data=d) for d in data]
        weighted = sum(w * v.data for w, v in zip(finest_weights(params), vols))
        assert np.abs(weighted - fuse_scales(vols, params)[0].data).max() <= 1e-12


class TestFuseScales:
    def test_zeta_zero_identity(self):
        rng = np.random.default_rng(50)
        vols = make_volumes(rng)
        out = fuse_scales(vols, FusionParams(zeta=0.0))
        for a, b in zip(out, vols):
            np.testing.assert_array_equal(a.data, b.data)

    def test_constant_vector_preserved(self):
        k = 0.37
        vols = [
            CostVolume(d_min=0, d_max=1, data=np.full((3, 3, 2), k)) for _ in range(4)
        ]
        out = fuse_scales(vols, FusionParams(zeta=0.8))
        for v in out:
            np.testing.assert_allclose(v.data, k, atol=1e-12)

    def test_1234_fixture_at_zeta_one(self):
        vols = [
            CostVolume(d_min=0, d_max=0, data=np.full((1, 1, 1), float(s + 1)))
            for s in range(4)
        ]
        out = fuse_scales(vols, FusionParams(zeta=1.0))
        expected = [11 / 7, 15 / 7, 20 / 7, 24 / 7]
        for v, e in zip(out, expected):
            assert v.data[0, 0, 0] == pytest.approx(e, abs=1e-12)

    def test_contraction_toward_range(self):
        rng = np.random.default_rng(51)
        vols = make_volumes(rng)
        out = fuse_scales(vols, FusionParams(zeta=0.7))
        stacked_in = np.stack([v.data for v in vols])
        stacked_out = np.stack([v.data for v in out])
        assert (stacked_out.max(axis=0) <= stacked_in.max(axis=0) + 1e-12).all()
        assert (stacked_out.min(axis=0) >= stacked_in.min(axis=0) - 1e-12).all()

    def test_factorized_matches_dense_oracle(self):
        rng = np.random.default_rng(52)
        m = fusion_matrix(0.6)
        factor = scipy.linalg.cho_factor(m)
        vectors = rng.random((4, 10_000))
        fast = solve_fused(factor, vectors)
        oracle = np.linalg.solve(m, vectors)
        assert np.abs(fast - oracle).max() <= 1e-12

    def test_large_zeta_approaches_mean(self):
        rng = np.random.default_rng(53)
        vols = make_volumes(rng)
        out = fuse_scales(vols, FusionParams(zeta=1e6))
        mean = np.mean([v.data for v in vols], axis=0)
        for v in out:
            assert np.abs(v.data - mean).max() <= 1e-4

    def test_shape_mismatch(self):
        rng = np.random.default_rng(54)
        vols = make_volumes(rng)
        vols[2] = CostVolume(d_min=0, d_max=2, data=rng.random((5, 4, 3)))
        with pytest.raises(ValueError):
            fuse_scales(vols, FusionParams())

    def test_wrong_count(self):
        rng = np.random.default_rng(55)
        with pytest.raises(ValueError):
            fuse_scales(make_volumes(rng)[:3], FusionParams())
