import ctypes
import gc
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, cg as scipy_cg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msfuse import synth, wls
from msfuse.core import gradient
from msfuse.wls import (
    SolverError,
    WlsParams,
    build_system,
    decompose,
    multigrid_preconditioner,
    smoothness_weights,
    wls_filter,
)


def dense_laplacian(guide, params):
    """Oracle: A = Dx'*Lx*Dx + Dy'*Ly*Dy as a dense array, assembled edge by
    edge from ``smoothness_weights``. An edge q -> r of weight lam puts -lam
    at (q, r) and (r, q) and lam on the diagonal at both ends; the x and the
    y edges' diagonals are summed apart, then added."""
    lam_x, lam_y = smoothness_weights(guide, params)
    index = np.arange(guide.size).reshape(guide.shape)
    a = np.zeros((guide.size, guide.size))
    diagonals = []
    for lam, starts, ends in ((lam_x[:, :-1], index[:, :-1], index[:, 1:]),
                              (lam_y[:-1], index[:-1], index[1:])):
        diagonal = np.zeros(guide.size)
        for q, r, weight in zip(starts.ravel(), ends.ravel(), lam.ravel()):
            a[q, r] = a[r, q] = -weight
            diagonal[q] += weight
            diagonal[r] += weight
        diagonals.append(diagonal)
    np.fill_diagonal(a, diagonals[0] + diagonals[1])
    return a


def dense_solve(h, params):
    """Oracle: assemble the full (I + eta*A) matrix and factorize."""
    n = h.size
    a = dense_laplacian(h, params)
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
        uniform_a = dense_laplacian(np.zeros_like(h), WlsParams(eta=eta, eps_w=1.0))
        uniform = np.linalg.solve(
            np.eye(n) + eta * uniform_a, h.ravel()
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


def rdot8_192x256():
    """The benchmark's 8-bit random-dot left image at 256x192."""
    return np.round(synth.random_dot_pair(256, 192, 5, 1)[0] * 255) / 255


def csr_system(h, params):
    """I + eta*A summed in CSR, its rows' columns sorted."""
    system = (sp.eye(h.size, format="csr")
              + params.eta * sp.csr_matrix(dense_laplacian(h, params)))
    system.sort_indices()
    return system


def hierarchy(system, shape):
    """(A_l, shape_l) of each multigrid level above the direct solve."""
    for a, _, _, level_shape, _, _ in wls._levels(system, shape)[0]:
        yield a, level_shape


class TestMultigrid:
    # each shape is coarsened at least twice before the direct solve
    SHAPES = [(33, 47), (48, 64), (3, 400), (400, 3), (1, 1000), (1000, 1)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("eta", [1.0, 4.0])
    def test_matches_dense_oracle(self, shape, eta, monkeypatch):
        coarsest = []
        splu = wls.splu

        def recording_splu(a):
            coarsest.append(a.shape[0])
            return splu(a)

        monkeypatch.setattr(wls, "splu", recording_splu)
        rng = np.random.default_rng(shape[0] * 1009 + shape[1])
        h = rng.random(shape)
        params = WlsParams(eta=eta)
        np.testing.assert_allclose(
            wls_filter(h, params), dense_solve(h, params), atol=1e-6
        )
        once = ((shape[0] + 1) // 2) * ((shape[1] + 1) // 2)
        assert coarsest[0] < once

    @pytest.mark.parametrize(
        "shape", [(96, 128), (33, 47), (3, 400), (1, 1000)],
        ids=lambda s: f"{s[0]}x{s[1]}",
    )
    def test_vcycle_symmetric_positive(self, shape):
        # CG needs a symmetric positive definite preconditioner
        h = np.random.default_rng(3).random(shape)
        system = build_system(h, WlsParams())
        vcycle = multigrid_preconditioner(system, shape)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.standard_normal((2, h.size))
            xmy, ymx = x @ vcycle(y), y @ vcycle(x)
            assert abs(xmy - ymx) <= 1e-12 * abs(xmy)
            assert x @ vcycle(x) > 0

    # thin grids, where the x-line or y-line blocks are whole rows or
    # columns and Galerkin levels reach width 2, and 8-bit plateaus, where
    # the smoothness weights jump between 1/eps_w and ~1
    DENSE_IMAGES = {
        "1x300": lambda: np.random.default_rng(30).random((1, 300)),
        "300x1": lambda: np.random.default_rng(31).random((300, 1)),
        "2x150": lambda: np.random.default_rng(32).random((2, 150)),
        "150x2": lambda: np.random.default_rng(33).random((150, 2)),
        "3x100": lambda: np.random.default_rng(34).random((3, 100)),
        "100x3": lambda: np.random.default_rng(35).random((100, 3)),
        "plateaus-20x24": lambda: np.kron(
            np.random.default_rng(36).integers(0, 4, (5, 6)), np.ones((4, 4))
        ) * 40 / 255,
        "rdot8-18x26": lambda: np.round(
            synth.random_dot_pair(26, 18, 3, 4)[0] * 255) / 255,
        "step-17x19": lambda: (np.arange(19) >= 9) * np.ones((17, 1)),
    }

    @pytest.mark.parametrize("image", DENSE_IMAGES)
    @pytest.mark.parametrize("eta", [1.0, 4.0])
    def test_vcycle_dense_definite(self, image, eta):
        # B = V-cycle, dense: symmetric, and eig(BA) in (0, 1] because every
        # line sweep contracts in the A-norm and the coarsest solve is exact
        h = self.DENSE_IMAGES[image]()
        system = build_system(h, WlsParams(eta=eta))
        assert system.shape[0] > wls.COARSEST_UNKNOWNS  # at least one level
        vcycle = multigrid_preconditioner(system, h.shape)
        dense = np.column_stack([vcycle(unit) for unit in np.eye(h.size)])
        assert np.abs(dense - dense.T).max() <= 1e-12 * np.abs(dense).max()
        chol = np.linalg.cholesky(system.toarray())
        eig = np.linalg.eigvalsh(chol.T @ dense @ chol)  # similar to BA
        assert eig.min() > 0
        assert eig.max() <= 1 + 1e-9

    @pytest.mark.parametrize("shape", SHAPES + [(2, 300), (300, 2)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("eta", [1.0, 4.0])
    def test_line_factors_are_line_blocks(self, shape, eta):
        # on every level, LDL' of each x-line (y-line) factor is the
        # principal submatrix of A on that grid row (column), lines apart
        h = np.random.default_rng(shape[0] * 7 + shape[1]).random(shape)
        for a, level_shape in hierarchy(build_system(h, WlsParams(eta=eta)), shape):
            scale = np.abs(a.diagonal()).max()
            csr = a.tocsr()
            grid = np.arange(a.shape[0]).reshape(level_shape)
            for (d, e), lines in zip(wls._line_factors(a, level_shape),
                                     (grid, grid.T)):
                # the factors hold the lines one after another, and the
                # coupling from each line's end to the next line is zero
                ends = np.arange(lines.shape[1], a.shape[0], lines.shape[1])
                assert (e[ends - 1] == 0.0).all()
                for start, line in zip(range(0, a.shape[0], lines.shape[1]), lines):
                    stop = start + line.size
                    unit = np.eye(line.size) + np.diag(e[start:stop - 1], -1)
                    tridiagonal = unit @ np.diag(d[start:stop]) @ unit.T
                    principal = csr[line[:, None], line].toarray()
                    assert np.abs(tridiagonal - principal).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(9, 13), (12, 8), (1, 21), (20, 1),
                                       (2, 300), (300, 2)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_interpolation_keeps_constants(self, shape):
        # where A annihilates constants (a bare Laplacian and its Galerkin
        # levels), each fine point's weights sum to 1; coarse points copy.
        # The last row (column) of an even side has no coarse point after
        # it: its weights to one are 0 and not stored, so every stored
        # column is on the coarse grid, which csr_matrix does not check
        guide = np.random.default_rng(shape[0] * 3 + shape[1]).random(shape)
        a = dense_laplacian(guide, WlsParams())
        for _ in range(2):
            p = wls._operator_interpolation(a, shape)
            coarse = ((shape[0] + 1) // 2, (shape[1] + 1) // 2)
            assert p.indices.max() < p.shape[1]
            assert (p.data != 0).all()
            np.testing.assert_allclose(p @ np.ones(p.shape[1]), 1.0, rtol=1e-10)
            copies = p[np.arange(a.shape[0]).reshape(shape)[::2, ::2].ravel()]
            assert (copies != sp.eye(p.shape[1])).nnz == 0
            a, shape = wls._galerkin(a, p, coarse), coarse

    def test_setup_memory_bounded(self):
        # tracemalloc of building one hierarchy on a benchmark-size 8-bit
        # image, from the operator wls_filter builds, which the finest level
        # owns: the V-cycle keeps 5.4 MiB and peaks at 6.8 MiB; a Galerkin
        # product through a CSR copy of each level and AP peaked at 7.6,
        # with CSR operators it kept 6.0, and a CSR copy of each level's
        # restriction kept 7.7
        h = rdot8_192x256()
        system = build_system(h, WlsParams())
        tracemalloc.start()
        try:
            vcycle = multigrid_preconditioner(system, h.shape)  # kept alive
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 5.75 * 2**20, retained / 2**20
        assert peak <= 7.0 * 2**20, peak / 2**20

    def test_filter_memory_bounded(self):
        # tracemalloc peak of one filter on a benchmark-size 8-bit image, in
        # image-sized float64 arrays: 24.7 with banded operators and CG's
        # alpha*p and alpha*q written into z's array; 25.4 with those
        # products allocated; 33.5 with CSR operators and I + eta*A summed
        # from an identity, whose sum alone peaked at 22
        h = rdot8_192x256()
        wls_filter(h, WlsParams())  # scipy's first-call allocations
        tracemalloc.start()
        try:
            wls_filter(h, WlsParams())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26 * h.nbytes, peak / h.nbytes

    @pytest.mark.parametrize("shape", SHAPES + [(2, 300), (300, 2), (1, 1)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("eta", [1.0, 4.0])
    def test_operator_products_match_csr(self, shape, eta):
        # the bands are summed in increasing offset order, the order of a
        # sorted CSR row, so the products are the CSR sum's to the bit
        h = np.round(np.random.default_rng(shape[0] * 5 + shape[1])
                     .random(shape) * 255) / 255
        params = WlsParams(eta=eta)
        system = build_system(h, params)
        assert (np.diff(system.offsets) > 0).all()
        csr = csr_system(h, params)
        x = np.random.default_rng(47).standard_normal((3, h.size))
        for v in x:
            assert np.array_equal(system @ v, csr @ v)
        assert np.array_equal(system.toarray(), csr.toarray())

    NEIGHBOURS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]

    @settings(max_examples=200, deadline=None)
    @given(height=st.integers(1, 12), width=st.integers(1, 12),
           keys=st.sets(st.sampled_from(NEIGHBOURS), min_size=1),
           seed=st.integers(0, 2**32 - 1))
    def test_dia_inverts_coupling(self, height, width, keys, seed):
        # on thin grids the offsets of different neighbours coincide or
        # leave the matrix; each coupling must still come back bit for bit
        rng = np.random.default_rng(seed)
        rows, cols = np.indices((height, width))
        couplings = {}
        for dy, dx in keys:
            on_grid = ((0 <= rows + dy) & (rows + dy < height)
                       & (0 <= cols + dx) & (cols + dx < width))
            couplings[dy, dx] = np.where(on_grid, rng.standard_normal(rows.shape),
                                         0.0)
        a = wls._dia(couplings, (height, width))
        assert (np.diff(a.offsets) > 0).all()
        for dy, dx in self.NEIGHBOURS:
            expected = couplings.get((dy, dx), np.zeros((height, width)))
            got = wls._coupling(a, (height, width), dy, dx)
            assert got.tobytes() == expected.tobytes(), (dy, dx)

    @pytest.mark.parametrize("shape", SHAPES + [(2, 300), (300, 2), (96, 128)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_coarse_operators_are_galerkin_products(self, shape):
        # each coarse operator holds all of P'AP in its bands: a coupling
        # off the 3x3 stencil would be dropped, and the bands' offsets rise
        h = np.random.default_rng(shape[0] * 11 + shape[1]).random(shape)
        levels, _ = wls._levels(build_system(h, WlsParams()), shape)
        for (a, p, *_), (coarse, *_) in zip(levels, levels[1:]):
            assert isinstance(coarse, sp.dia_matrix)
            assert (np.diff(coarse.offsets) > 0).all()
            expected = p.T @ a.tocsr() @ p
            scale = np.abs(expected).max()
            assert np.abs(coarse.tocsr() - expected).max() <= 1e-12 * scale

    def test_restriction_is_interpolation_transposed(self):
        # P' is a view of P's arrays, and its products are the bytes of a
        # CSR copy's, on which the pyramids' bit identity rests
        h = rdot8_192x256()
        levels, _ = wls._levels(build_system(h, WlsParams()), h.shape)
        assert len(levels) == 4
        rng = np.random.default_rng(46)
        for _, p, restrict, _, _, _ in levels:
            for ours, theirs in ((restrict.data, p.data),
                                 (restrict.indices, p.indices),
                                 (restrict.indptr, p.indptr)):
                assert np.shares_memory(ours, theirs)
            v = rng.standard_normal(p.shape[0])
            assert (restrict @ v).tobytes() == (p.T.tocsr() @ v).tobytes()

    def test_leaves_no_reference_cycles(self):
        # the hierarchy must be freed by reference counting: a cycle would
        # keep every level alive until the cyclic collector runs
        h = np.random.default_rng(12).random((48, 40))
        gc.collect()
        gc.disable()
        try:
            wls_filter(h, WlsParams())
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_iterations_per_level(self, monkeypatch):
        # the diagonal preconditioner took 450/717/812 iterations on the
        # float image; the 8-bit images are the benchmark's inputs, where
        # linear interpolation and point Jacobi needed 125-145 on level 1
        counts = []
        cg = wls.cg

        def counting_cg(*args, callback, **kwargs):
            n = 0

            def count(xk):
                nonlocal n
                n += 1
                callback(xk)

            result = cg(*args, callback=count, **kwargs)
            counts.append(n)
            return result

        monkeypatch.setattr(wls, "cg", counting_cg)
        small = synth.random_dot_pair(128, 96, 5, 1)[0]
        large = synth.random_dot_pair(256, 192, 5, 1)[0]
        for h in (small, np.round(small * 255) / 255, np.round(large * 255) / 255):
            counts.clear()
            decompose(h, WlsParams())
            assert len(counts) == 3
            assert max(counts) <= 40, (h.shape, counts)


def capsule(pointer, name):
    """A new capsule of ``pointer`` under ``name``, and the name's buffer,
    which the capsule points into and must outlive it."""
    new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p,
                            ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
    buffer = ctypes.create_string_buffer(name.encode())
    return new(pointer, ctypes.addressof(buffer), None), buffer


class TestLineSweep:
    """scipy's f2py dpttrs is the oracle for the GIL-free sweeps."""

    @staticmethod
    def check_sweep(d, e, r):
        b = r.copy()
        d_in, e_in = d.copy(), e.copy()
        wls._line_sweep(d, e, b)()
        # f2py wants e of length max(n - 1, 1)
        expected = dpttrs(d, e if d.size > 1 else np.zeros(1), r)[0]
        np.testing.assert_array_equal(b, expected)
        np.testing.assert_array_equal(d, d_in)
        np.testing.assert_array_equal(e, e_in)

    @pytest.mark.parametrize("n", [1, 2, 49152])
    def test_matches_dpttrs(self, n):
        rng = np.random.default_rng(n)
        d, e, info = dpttrf(rng.random(n) + 2.0,
                            rng.random(max(n - 1, 1)) - 0.5)
        assert info == 0
        self.check_sweep(d, e[:n - 1], rng.standard_normal(n))

    @pytest.mark.parametrize("image", ["rdot8-192x256", "1x400", "400x1", "2x150"])
    def test_levels_match_dpttrs(self, image):
        # every level's x-line and y-line factors, through the sweep alone
        # and through a whole x += T^-1 (r - Ax) step in the level's layout
        h = {
            "rdot8-192x256": rdot8_192x256,
            "1x400": lambda: np.random.default_rng(40).random((1, 400)),
            "400x1": lambda: np.random.default_rng(41).random((400, 1)),
            "2x150": lambda: np.random.default_rng(42).random((2, 150)),
        }[image]()
        levels, _ = wls._levels(build_system(h, WlsParams()), h.shape)
        assert levels
        rng = np.random.default_rng(43)
        for level in levels:
            a, _, _, (height, width), _, _ = level
            r, x = rng.standard_normal((2, a.shape[0]))
            for axis, (d, e) in enumerate(wls._line_factors(a, (height, width))):
                self.check_sweep(d, e, r)
                residual = r - a @ x
                if axis:
                    residual = residual.reshape(height, width).T.ravel()
                solved = dpttrs(d, e, residual)[0]
                if axis:
                    solved = solved.reshape(width, height).T.ravel()
                r_in, swept = r.copy(), x.copy()
                wls._relax(level, r, swept, axis)
                np.testing.assert_array_equal(swept, x + solved)
                np.testing.assert_array_equal(r, r_in)

    def test_vcycle_leaves_input_and_repeats(self):
        # the levels share one sweep buffer across V-cycles: a V-cycle must
        # not write into its input, nor depend on the one before it
        h = np.random.default_rng(44).random((40, 52))
        vcycle = multigrid_preconditioner(build_system(h, WlsParams()), h.shape)
        r, other = np.random.default_rng(45).standard_normal((2, h.size))
        r_in = r.copy()
        first = vcycle(r)
        vcycle(other)
        np.testing.assert_array_equal(vcycle(r), first)
        np.testing.assert_array_equal(r, r_in)

    def test_rejects_mismatched_arrays(self):
        d, e = np.full(4, 2.0), np.zeros(3)
        for args in ((d, e, np.zeros(5)), (d, np.zeros(4), np.zeros(4)),
                     (d, e, np.zeros(4, dtype=np.float32)),
                     (d, e, np.zeros(8)[::2])):
            with pytest.raises(ValueError):
                wls._line_sweep(*args)

    def test_concurrent_decompositions_match_serial(self):
        # the sweeps run without the GIL: threads must not share a buffer
        images = [np.random.default_rng(50 + k).random((40, 56)) for k in range(8)]
        serial = [decompose(h, WlsParams()) for h in images]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(images)) as pool:
                threaded = list(pool.map(partial(decompose, params=WlsParams()),
                                         images, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, expected in zip(threaded, serial):
            for layer, expected_layer in zip(got, expected):
                np.testing.assert_array_equal(layer, expected_layer)

    def test_signature_checked(self):
        # the argument types are matched by position: SciPy names its double
        # by a typedef that differs between releases
        real = cython_lapack.__pyx_capi__["dpttrs"]
        pointer = wls._capsule_pointer(real, wls._capsule_name(real))
        args = "int *, int *, {0} *, {0} *, {0} *, int *, int *"
        for double in ("double", "__pyx_t_5scipy_6linalg_13cython_lapack_d"):
            renamed, _name = capsule(pointer, f"void ({args.format(double)})")
            dpttrs_ = wls._bind_dpttrs(renamed)
            d, e, _ = dpttrf(np.full(3, 4.0), np.ones(2))
            b, ints = np.arange(3.0), np.array([3, 1, 0], dtype=np.intc)
            n, nrhs, info = (ints.ctypes.data + 4 * k for k in range(3))
            dpttrs_(n, nrhs, d.ctypes.data, e.ctypes.data, b.ctypes.data, n, info)
            np.testing.assert_array_equal(b, dpttrs(d, e, np.arange(3.0))[0])
        wrong = [
            wls._capsule_name(cython_lapack.__pyx_capi__["dpttrf"]).decode(),
            f"void ({args.format('float')})",
            f"int ({args.format('double')})",
            "void (int *, int *, double *, double *, double *, int *)",
        ]
        for name in wrong:
            renamed, _name = capsule(pointer, name)
            with pytest.raises(ImportError) as err:
                wls._bind_dpttrs(renamed)
            assert repr(name) in str(err.value)


def scipy_oracle_cg(system, b, x0, *, M, **kwargs):
    """scipy.sparse.linalg.cg with the V-cycle function ``M`` as its
    preconditioner, which scipy takes as a LinearOperator."""
    M = LinearOperator(system.shape, matvec=M, dtype=np.float64)
    return scipy_cg(system, b, x0, M=M, **kwargs)


class TestCg:
    """scipy.sparse.linalg.cg is the oracle for wls.cg's BLAS-free loop."""

    IMAGES = {
        "random-48x64": lambda: np.random.default_rng(20).random((48, 64)),
        "rdot-96x128": lambda: synth.random_dot_pair(128, 96, 5, 1)[0],
        "strip-1x1000": lambda: np.random.default_rng(21).random((1, 1000)),
    }
    # fewer iterations than each image needs at rtol 1e-15: on the one-row
    # strip the x-line sweep solves the system, and CG converges in 2
    EXHAUSTED_AT = {"random-48x64": 3, "rdot-96x128": 3, "strip-1x1000": 1}

    @staticmethod
    def solve(cg, h, **kwargs):
        system = build_system(h, WlsParams())
        b = h.ravel()
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        x, info = cg(system, b, x0=b.copy(), atol=0.0,
                     M=multigrid_preconditioner(system, h.shape),
                     callback=count, **kwargs)
        return x, info, iterations

    @pytest.mark.parametrize("image", IMAGES)
    def test_matches_scipy(self, image):
        h = self.IMAGES[image]()
        x, info, iterations = self.solve(wls.cg, h, rtol=1e-8, maxiter=10000)
        ref, ref_info, ref_iterations = self.solve(scipy_oracle_cg, h,
                                                   rtol=1e-8, maxiter=10000)
        assert info == ref_info == 0
        assert iterations == ref_iterations
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("image", IMAGES)
    def test_maxiter_exhausted(self, image):
        h = self.IMAGES[image]()
        maxiter = self.EXHAUSTED_AT[image]
        _, info, iterations = self.solve(wls.cg, h, rtol=1e-15, maxiter=maxiter)
        _, ref_info, _ = self.solve(scipy_oracle_cg, h, rtol=1e-15,
                                    maxiter=maxiter)
        assert info == ref_info == iterations == maxiter
        with pytest.raises(SolverError) as err:
            wls_filter(h, WlsParams(solver_tol=1e-15, max_iter=maxiter))
        assert err.value.iterations == maxiter


# decomposes a random-dot image and prints the pyramid's digest
DECOMPOSE_DIGEST = """
import hashlib
import numpy as np
from msfuse import synth, wls
layers = wls.decompose(synth.random_dot_pair(128, 96, 5, 1)[0], wls.WlsParams())
print(hashlib.sha256(np.stack(layers).tobytes()).hexdigest())
"""


class TestBuildLaplacian:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 12)])
    def test_encodes_smoothness_energy(self, shape):
        """x'Ax of the oracle's A is the weighted squared forward differences
        of x, checked against ``gradient`` rather than another assembly."""
        rng = np.random.default_rng(shape[0] * 31 + shape[1])
        params = WlsParams()
        guide = rng.random(shape)
        a = dense_laplacian(guide, params)
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
        assert np.array_equal(a, a.T)


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
        # the pipeline turns the left/right pyramids by 180 degrees for the
        # right view instead of decomposing the turned images; mirroring
        # commutes with the filter as well
        params = WlsParams()
        bases = decompose(img, params)
        for turn in (np.fliplr, lambda x: x[::-1, ::-1]):
            for base, turned in zip(bases, decompose(turn(img), params)):
                assert np.abs(turn(turned) - base).max() <= 1e-6

    def test_independent_of_blas_threads(self):
        # OpenBLAS reads its thread count once, at load: one process each
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", DECOMPOSE_DIGEST],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=n),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for n in ("1", "2")
        ]
        assert digests[0] == digests[1]

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["eta", "alpha", "eps_w", "solver_tol"])
    def test_non_finite_rejected(self, name, value):
        # an infinite tolerance returned the input unfiltered, and nan
        # passed every range check
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            WlsParams(**{name: value})
