"""Edge-preserving weighted-least-squares filter and 4-level decomposition.

The filtered base layer is the minimizer of

    sum_q (sigma_q - h_q)^2 + eta * [lam_x(q) * (Dx sigma)_q^2
                                     + lam_y(q) * (Dy sigma)_q^2]

i.e. the solution of the SPD sparse system (I + eta*A) sigma = h with A the
5-point Laplacian weighted by inverse gradient magnitudes of the guide.
Repeated filtering yields the 4-level base-layer stack R0..R3.

The system is solved by conjugate gradient preconditioned with one
symmetric multigrid V-cycle (Galerkin coarse operators, damped-Jacobi
smoothing), the multilevel preconditioning of Laplacian systems of
Szeliski (SIGGRAPH 2006) and Krishnan, Fattal & Szeliski (SIGGRAPH 2013):
the smoothness weights reach 1/eps_w, where a diagonal preconditioner
needs over a thousand CG iterations on the smoothest base layer.

The CG loop is scipy's iteration written out (``cg``) with every inner
product and norm in numpy's own loop (``_dot``), not BLAS: the base layers
are then bit-identical for any BLAS thread count, and the two views'
decompositions run in parallel threads without contending for the BLAS
thread server.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, splu

from .core import gradient, validate_image

# Jacobi damping on the finest grid, and the largest grid solved directly.
JACOBI_OMEGA = 0.7
COARSEST_UNKNOWNS = 256


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


def _interpolation(m):
    """1-D linear interpolation from ceil(m/2) coarse points to m fine ones.

    Fine point 2j copies coarse point j, 2j+1 averages j and j+1 (copies j
    at the end), so constants interpolate exactly; m = 1 is the identity.
    """
    coarse = (m + 1) // 2
    fine = np.arange(m)
    pairs = fine[(fine % 2 == 1) & (fine // 2 + 1 < coarse)]
    rows = np.concatenate((fine, pairs))
    cols = np.concatenate((fine // 2, pairs // 2 + 1))
    vals = np.ones(rows.size)
    vals[pairs] = vals[m:] = 0.5
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, coarse))


def multigrid_preconditioner(system, shape):
    """One symmetric V-cycle for the SPD ``system`` on a ``shape`` grid.

    Level l+1 is the Galerkin product P'A_lP, P = kron(P_h, P_w) the linear
    interpolation of each side from half its length, down to a grid of at
    most COARSEST_UNKNOWNS unknowns solved by LU. Each level runs one
    damped-Jacobi sweep before and one after its coarse correction. On the
    coarse levels eig(D^-1 A) reaches ~3.9, so their damping is capped at
    2*omega/g, g = max_i sum_j |a_ij| / a_ii >= that eigenvalue: every sweep
    contracts, which keeps the V-cycle positive definite (g < 2 on the
    finest level). The levels are a flat list: no reference cycle.
    """
    levels = []
    a = system.tocsr()
    height, width = shape
    while a.shape[0] > COARSEST_UNKNOWNS:
        p = sp.kron(_interpolation(height), _interpolation(width), format="csr")
        diagonal = a.diagonal()
        bound = ((abs(a) @ np.ones(a.shape[0])) / diagonal).max()
        omega = JACOBI_OMEGA * min(1.0, 2.0 / bound)
        restrict = p.T.tocsr()
        levels.append((a, omega / diagonal, p, restrict))
        a = restrict @ a @ p
        height, width = (height + 1) // 2, (width + 1) // 2
    coarsest = splu(a.tocsc())
    return LinearOperator(system.shape, matvec=partial(_vcycle, levels, coarsest),
                          dtype=np.float64)


def _vcycle(levels, coarsest, r, depth=0):
    """V-cycle approximation of A_depth^-1 r, from a zero initial guess."""
    r = r.ravel()  # LinearOperator.matvec may pass an (n, 1) column
    if depth == len(levels):
        return coarsest.solve(r)
    a, smoother, p, restrict = levels[depth]
    x = smoother * r
    x += p @ _vcycle(levels, coarsest, restrict @ (r - a @ x), depth + 1)
    x += smoother * (r - a @ x)
    return x


def _dot(u, v):
    """Inner product of two vectors in numpy's einsum loop, not BLAS."""
    return np.einsum("i,i->", u, v)


def _norm(u):
    return np.sqrt(_dot(u, u))


def cg(system, b, x0, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned conjugate gradient for the SPD ``system`` and b != 0:
    the iteration and stopping test of ``scipy.sparse.linalg.cg``, with the
    inner products in ``_dot``.

    Stops before a step once ||r|| < max(atol, rtol*||b||). Returns (x, 0)
    on convergence and (x, maxiter) when the iterations run out.
    """
    tol = max(atol, rtol * _norm(b))
    x = x0.copy()
    r = b - system @ x
    rho_prev = p = None
    for iteration in range(maxiter):
        if _norm(r) < tol:
            return x, 0
        z = M.matvec(r)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = system @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
        if callback is not None:
            callback(x)
    return x, maxiter


def wls_filter(h, params):
    """Solve (I + eta*A) sigma = h to the configured relative residual.

    Uses conjugate gradient preconditioned with one multigrid V-cycle
    (``multigrid_preconditioner``); raises SolverError with the achieved
    residual if the tolerance is not met.
    """
    h = validate_image(h)
    if params.eta == 0.0:
        return h.copy()

    # one expression, so that A itself is not held through the solve
    system = (sp.eye(h.size, format="csr")
              + params.eta * build_laplacian(h, params)).tocsr()

    b = h.ravel()
    b_norm = _norm(b)
    if b_norm == 0.0:
        return np.zeros_like(h)

    precond = multigrid_preconditioner(system, h.shape)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, _ = cg(
        system,
        b,
        x0=b,
        rtol=params.solver_tol,
        atol=0.0,
        maxiter=params.max_iter,
        M=precond,
        callback=count,
    )
    residual = _norm(system @ x - b) / b_norm
    if residual > params.solver_tol:
        raise SolverError(residual, params.solver_tol, iterations)
    return x.reshape(h.shape)


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
