import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msfuse.core import gradient
from msfuse.wls import (
    SolverError,
    WlsParams,
    build_laplacian,
    decompose,
    smoothness_weights,
    wls_filter,
)


def dense_solve(h, params):
    """Oracle: assemble the full (I + eta*A) matrix and factorize."""
    n = h.size
    a = build_laplacian(h, params).toarray()
    return np.linalg.solve(np.eye(n) + params.eta * a, h.ravel()).reshape(h.shape)


def energy(sigma, h, params):
    lam_x, lam_y = smoothness_weights(h, params)
    gx = gradient(sigma, "x")
    gy = gradient(sigma, "y")
    return np.sum(
        (sigma - h) ** 2 + params.eta * (lam_x * gx**2 + lam_y * gy**2)
    )


def total_variation(img):
    return np.abs(gradient(img, "x")).sum() + np.abs(gradient(img, "y")).sum()


class TestSmoothnessWeights:
    def test_constant_guide(self):
        params = WlsParams(eps_w=1e-4)
        lam_x, lam_y = smoothness_weights(np.full((4, 5), 0.3), params)
        np.testing.assert_allclose(lam_x, 1e4)
        np.testing.assert_allclose(lam_y, 1e4)

    def test_unit_gradient(self):
        params = WlsParams(alpha=1.0, eps_w=1e-4)
        guide = np.array([[0.0, 1.0, 1.0]])
        lam_x, _ = smoothness_weights(guide, params)
        assert lam_x[0, 0] == pytest.approx(1 / (1 + 1e-4), rel=1e-15)

    def test_matches_scalar_formula(self):
        rng = np.random.default_rng(5)
        guide = rng.random((4, 4))
        params = WlsParams(alpha=1.2, eps_w=1e-4)
        lam_x, lam_y = smoothness_weights(guide, params)
        gx = gradient(guide, "x")
        gy = gradient(guide, "y")
        for y in range(4):
            for x in range(4):
                # vectorized pow may differ from scalar pow by ~1 ulp
                assert lam_x[y, x] == pytest.approx(
                    1.0 / (abs(gx[y, x]) ** 1.2 + 1e-4), rel=1e-12
                )
                assert lam_y[y, x] == pytest.approx(
                    1.0 / (abs(gy[y, x]) ** 1.2 + 1e-4), rel=1e-12
                )

    def test_strictly_positive(self):
        rng = np.random.default_rng(6)
        lam_x, lam_y = smoothness_weights(rng.random((6, 6)), WlsParams())
        assert (lam_x > 0).all() and (lam_y > 0).all()
        assert np.isfinite(lam_x).all() and np.isfinite(lam_y).all()


class TestWlsFilter:
    def test_eta_zero_identity(self):
        rng = np.random.default_rng(1)
        h = rng.random((8, 8))
        np.testing.assert_array_equal(wls_filter(h, WlsParams(eta=0.0)), h)

    def test_constant_fixed_point(self):
        h = np.full((10, 10), 0.42)
        out = wls_filter(h, WlsParams(eta=5.0))
        np.testing.assert_allclose(out, 0.42, atol=1e-12)

    @pytest.mark.parametrize("eta", [0.25, 1.0, 4.0])
    def test_matches_dense_oracle(self, eta):
        rng = np.random.default_rng(42)
        h = rng.random((16, 16))
        params = WlsParams(eta=eta)
        np.testing.assert_allclose(
            wls_filter(h, params), dense_solve(h, params), atol=1e-6
        )

    def test_energy_descent(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            h = rng.random((12, 12))
            params = WlsParams(eta=1.0)
            sigma = wls_filter(h, params)
            assert energy(sigma, h, params) <= energy(h, h, params)

    def test_mean_preserved(self):
        rng = np.random.default_rng(10)
        h = rng.random((16, 16))
        params = WlsParams(eta=2.0)
        sigma = wls_filter(h, params)
        bound = 10 * params.solver_tol * np.linalg.norm(h)
        assert abs(sigma.mean() - h.mean()) <= bound

    def test_edge_preserved_vs_uniform_weights(self):
        # step image: WLS keeps the edge, a uniform-weight (lambda == 1)
        # filter at the same eta blurs it more
        h = np.zeros((16, 16))
        h[:, 8:] = 1.0
        eta = 1.0
        sigma = wls_filter(h, WlsParams(eta=eta))
        contrast = sigma[8, 8] - sigma[8, 7]

        n = h.size
        # uniform weights: a constant guide with eps_w=1 gives lambda == 1
        uniform_a = build_laplacian(np.zeros_like(h), WlsParams(eta=eta, eps_w=1.0))
        uniform = np.linalg.solve(
            np.eye(n) + eta * uniform_a.toarray(), h.ravel()
        ).reshape(h.shape)
        uniform_contrast = uniform[8, 8] - uniform[8, 7]

        assert contrast >= 0.5 * 1.0
        assert uniform_contrast < contrast

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(2)
        h = rng.random((16, 16))
        with pytest.raises(SolverError) as err:
            wls_filter(h, WlsParams(eta=100.0, solver_tol=1e-14, max_iter=2))
        assert err.value.residual > 1e-14

    def test_error_reports_iterations_run(self):
        # CG's recursively updated residual meets the tolerance after ~200
        # iterations while the true residual does not; the error reports
        # the iterations actually run, not max_iter
        h = np.random.default_rng(2).random((16, 16))
        params = WlsParams(solver_tol=1e-15)
        with pytest.raises(SolverError) as err:
            wls_filter(h, params)
        assert 0 < err.value.iterations < params.max_iter
        assert f"after {err.value.iterations} iterations" in str(err.value)


class TestBuildLaplacian:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 12)])
    def test_encodes_smoothness_energy(self, shape):
        """x'Ax is the weighted squared forward differences of x, checked
        against ``gradient`` rather than another assembly of A."""
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        params = WlsParams()
        guide = rng.random(shape)
        a = build_laplacian(guide, params)
        lam_x, lam_y = smoothness_weights(guide, params)
        for _ in range(5):
            x = rng.standard_normal(shape)
            expected = np.sum(
                lam_x * gradient(x, "x") ** 2 + lam_y * gradient(x, "y") ** 2
            )
            quad = x.ravel() @ (a @ x.ravel())
            assert abs(quad - expected) <= 1e-12 * max(expected, 1.0)
        ones = a @ np.ones(guide.size)
        assert np.abs(ones).max() <= 1e-12 * max(np.abs(a.diagonal()).max(), 1.0)
        assert abs(a - a.T).max() == 0.0


class TestDecompose:
    def test_constant_four_identical(self):
        h = np.full((8, 8), 0.5)
        layers = decompose(h, WlsParams(eta=1.0))
        assert len(layers) == 4
        for layer in layers:
            np.testing.assert_allclose(layer, 0.5, atol=1e-12)

    def test_eta_zero_copies(self):
        rng = np.random.default_rng(3)
        h = rng.random((6, 6))
        for layer in decompose(h, WlsParams(eta=0.0)):
            np.testing.assert_array_equal(layer, h)

    def test_matches_composed_dense_oracle(self):
        rng = np.random.default_rng(4)
        h = rng.random((16, 16))
        params = WlsParams(eta=1.0)
        layers = decompose(h, params)
        expected = h
        for s in range(4):
            np.testing.assert_allclose(layers[s], expected, atol=1e-5)
            expected = dense_solve(expected, params)

    @settings(max_examples=50, deadline=None)
    @given(
        img=st.tuples(st.integers(2, 32), st.integers(2, 32)).flatmap(
            lambda s: arrays(np.float64, s, elements=st.floats(0, 1, width=32))
        )
    )
    def test_mirror_equivariant(self, img):
        # the pipeline mirrors the left/right pyramids for the right view
        # instead of decomposing the mirrored images
        params = WlsParams()
        mirrored = decompose(np.fliplr(img), params)
        for base, flipped in zip(decompose(img, params), mirrored):
            assert np.abs(np.fliplr(flipped) - base).max() <= 1e-6

    def test_tv_monotone(self):
        rng = np.random.default_rng(8)
        layers = decompose(rng.random((12, 12)), WlsParams(eta=1.0))
        tvs = [total_variation(layer) for layer in layers]
        for s in range(3):
            assert tvs[s + 1] <= tvs[s] + 1e-9


class TestParams:
    def test_negative_eta(self):
        with pytest.raises(ValueError):
            WlsParams(eta=-1.0)
