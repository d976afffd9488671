"""Cross-scale fusion of the four aggregated cost volumes.

Per (pixel, disparity) cell the four per-scale costs e = (e0..e3) are
coupled through the path-graph Laplacian over scales: the fused vector v
solves (I + zeta*L) v = e, the minimizer of

    sum_s (v_s - e_s)^2 + zeta * sum_s (v_s - v_{s-1})^2.

The 4x4 system matrix is constant across cells, so it is factorized once
and the solve applied to all cells in one batch. The pipeline reads only
the finest fused volume, v_0 = sum_s w_s * e_s with w the first row of
(I + zeta*L)^-1 (``finest_weights``); ``fuse_scales`` is the reference
that computes all four.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .core import CostVolume


@dataclass(frozen=True)
class FusionParams:
    zeta: float = 0.3

    def __post_init__(self):
        if self.zeta < 0:
            raise ValueError("zeta must be >= 0")


def fusion_matrix(zeta):
    """I + zeta*L for the 4-node path graph; symmetric, rows sum to 1,
    positive definite for zeta >= 0."""
    if zeta < 0:
        raise ValueError("zeta must be >= 0")
    lap = np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    return np.eye(4) + zeta * lap


def finest_weights(params):
    """First row of (I + zeta*L)^-1: the weights w with v_0 = sum_s w_s * e_s.

    The matrix is a symmetric M-matrix with unit row sums, so w is
    nonnegative and sums to 1; zeta = 0 gives exactly [1, 0, 0, 0].
    """
    return np.linalg.solve(fusion_matrix(params.zeta), np.eye(4)[0])


def solve_fused(matrix_factor, stacked):
    """Apply the prefactorized 4x4 solve to a (4, N) batch of cost vectors."""
    return scipy.linalg.cho_solve(matrix_factor, stacked)


def fuse_scales(volumes, params):
    """Fuse four same-shape cost volumes; returns the four fused volumes."""
    if len(volumes) != 4:
        raise ValueError(f"expected 4 volumes, got {len(volumes)}")
    ref = volumes[0]
    for v in volumes[1:]:
        if v.data.shape != ref.data.shape or (v.d_min, v.d_max) != (ref.d_min, ref.d_max):
            raise ValueError("cost volumes must share shape and disparity range")

    factor = scipy.linalg.cho_factor(fusion_matrix(params.zeta))
    stacked = np.stack([v.data.ravel() for v in volumes])
    fused = solve_fused(factor, stacked)
    # the inverse is row-stochastic with nonnegative entries, so fused costs
    # stay within [min_s e_s, max_s e_s] >= 0 up to roundoff
    np.maximum(fused, 0.0, out=fused)
    return [
        CostVolume(d_min=ref.d_min, d_max=ref.d_max, data=fused[s].reshape(ref.data.shape))
        for s in range(4)
    ]
