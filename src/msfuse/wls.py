"""Edge-preserving weighted-least-squares filter and 4-level decomposition.

The filtered base layer is the minimizer of

    sum_q (sigma_q - h_q)^2 + eta * [lam_x(q) * (Dx sigma)_q^2
                                     + lam_y(q) * (Dy sigma)_q^2]

i.e. the solution of the SPD sparse system (I + eta*A) sigma = h with A the
5-point Laplacian weighted by inverse gradient magnitudes of the guide.
Repeated filtering yields the 4-level base-layer stack R0..R3.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg

from .core import gradient, validate_image


class SolverError(RuntimeError):
    """Iterative solve missed the residual tolerance; ``iterations`` is the
    number of CG iterations run (at most max_iter)."""

    def __init__(self, residual, tol, iterations):
        self.residual = residual
        self.tol = tol
        self.iterations = iterations
        super().__init__(
            f"WLS solver stalled at relative residual {residual:.3e} "
            f"(tol {tol:.1e}) after {iterations} iterations"
        )


@dataclass(frozen=True)
class WlsParams:
    eta: float = 1.0
    alpha: float = 1.2
    eps_w: float = 1e-4
    solver_tol: float = 1e-8
    max_iter: int = 10000

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.eps_w <= 0:
            raise ValueError("eps_w must be > 0")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be > 0")


def smoothness_weights(guide, params):
    """Per-pixel smoothing weights (lam_x, lam_y) from the guide's gradients.

    lam_axis(q) = (|grad_axis(q)|^alpha + eps_w)^-1: strong gradients get
    small weights so edges survive the smoothing term.
    """
    guide = validate_image(guide)
    lam_x = 1.0 / (np.abs(gradient(guide, "x")) ** params.alpha + params.eps_w)
    lam_y = 1.0 / (np.abs(gradient(guide, "y")) ** params.alpha + params.eps_w)
    return lam_x, lam_y


def build_laplacian(guide, params):
    """Assemble the weighted 5-point Laplacian A = Dx'*Lx*Dx + Dy'*Ly*Dy.

    Dx/Dy are the forward differences of ``gradient`` (zero at the trailing
    border), so A is five diagonals: each edge q -> q+1 (q -> q+width) of
    weight lam_x(q) (lam_y(q)) puts -lam off the diagonal and +lam on the
    diagonal of both ends. Every row sums to 0: A annihilates constants.
    """
    guide = validate_image(guide)
    height, width = guide.shape
    n = height * width
    lam_x, lam_y = smoothness_weights(guide, params)

    # Flat weight of the edge from each pixel to its right / lower neighbour
    # (none from the last column / row), padded in front so that the edge
    # from the left / upper neighbour is the same array shifted by one step.
    lam_x[:, -1] = 0.0
    lam_y[-1] = 0.0
    right = np.concatenate(([0.0], lam_x.ravel()))
    down = np.concatenate((np.zeros(width), lam_y.ravel()))
    diagonal = (right[:-1] + right[1:]) + (down[:-width] + down[width:])

    offsets, bands = [0], [diagonal]
    if width > 1:
        offsets += [1, -1]
        bands += [-right[1:-1]] * 2
    if height > 1:
        offsets += [width, -width]
        bands += [-down[width:-width]] * 2
    return sp.diags(bands, offsets, shape=(n, n), format="csr")


def wls_filter(h, params):
    """Solve (I + eta*A) sigma = h to the configured relative residual.

    Uses diagonally preconditioned conjugate gradient; raises SolverError
    with the achieved residual if the tolerance is not met.
    """
    h = validate_image(h)
    if params.eta == 0.0:
        return h.copy()

    height, width = h.shape
    n = height * width
    a = build_laplacian(h, params)
    system = (sp.eye(n, format="csr") + params.eta * a).tocsr()

    b = h.ravel()
    b_norm = np.linalg.norm(b)
    if b_norm == 0.0:
        return np.zeros_like(h)

    inv_diag = 1.0 / system.diagonal()
    precond = LinearOperator((n, n), matvec=lambda v: inv_diag * v)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, _ = cg(
        system,
        b,
        x0=b.copy(),
        rtol=params.solver_tol,
        atol=0.0,
        maxiter=params.max_iter,
        M=precond,
        callback=count,
    )
    residual = np.linalg.norm(system @ x - b) / b_norm
    if residual > params.solver_tol:
        raise SolverError(residual, params.solver_tol, iterations)
    return x.reshape(height, width)


def decompose(r0, params):
    """Four-level base-layer stack [R0, R1, R2, R3] by repeated filtering."""
    r0 = validate_image(r0)
    layers = [r0]
    for _ in range(3):
        layers.append(wls_filter(layers[-1], params))
    return layers


def detail_layers(layers):
    """Per-level detail images R_s - R_{s+1} (inspection only)."""
    return [layers[s] - layers[s + 1] for s in range(len(layers) - 1)]
