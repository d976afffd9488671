"""Edge-preserving weighted-least-squares filter and 4-level decomposition.

The filtered base layer is the minimizer of

    sum_q (sigma_q - h_q)^2 + eta * [lam_x(q) * (Dx sigma)_q^2
                                     + lam_y(q) * (Dy sigma)_q^2]

i.e. the solution of the SPD sparse system (I + eta*A) sigma = h with A the
5-point Laplacian weighted by inverse gradient magnitudes of the guide.
Repeated filtering yields the 4-level base-layer stack R0..R3.

The system is solved by conjugate gradient preconditioned with one
symmetric multigrid V-cycle, the multilevel preconditioning of Laplacian
systems of Szeliski (SIGGRAPH 2006) and Krishnan, Fattal & Szeliski
(SIGGRAPH 2013): the smoothness weights reach 1/eps_w, where a diagonal
preconditioner needs over a thousand CG iterations on the smoothest base
layer. The cycle is Dendy's black-box multigrid (J. Comput. Phys. 1982)
for this 5-point diffusion operator, whose coefficients jump by 1e4 at
the guide's edges and are strongly anisotropic along them:
- the interpolation is operator-dependent, its weights read from each
  level's 3x3 stencil (``_operator_interpolation``), so a coarse
  correction does not leak across an edge, and the Galerkin coarse
  operators are 9-point;
- the smoother is alternating line relaxation: exact tridiagonal solves of
  all grid rows (x-lines), then of all columns (y-lines), before the coarse
  correction, and y-lines then x-lines after it, so the cycle is symmetric.
  Each level factors its line blocks once with LAPACK ``dpttrf``; a sweep
  is one ``dpttrs`` call over all lines of a direction.
On the benchmark's 8-bit 256x192 random-dot images CG needs 18/28/10
iterations per level (linear interpolation with point Jacobi: 145/96/31).
scipy's LAPACK wrappers hold the GIL, so the ``dpttrs`` sweeps of the two
views' concurrent decompositions run one at a time; the sparse products
between them overlap.

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
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import LinearOperator, splu

from .core import gradient, validate_image

# The largest grid solved directly.
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


def _coupling(a, shape, dy, dx):
    """Entries a[q, q'] from each point q of the ``shape`` grid to its
    (dy, dx) neighbour q', as a grid; zero where q' is off the grid.

    Read from one band of ``a``: a band of offset dy*width + dx also holds
    couplings that wrap round a row end (on a width-2 grid the east and the
    south-west offset are both 1), so the off-grid column is zeroed.
    """
    height, width = shape
    n = height * width
    offset = dy * width + dx
    out = np.zeros(n)
    if abs(offset) < n:
        band = a.diagonal(offset)
        if offset >= 0:
            out[:n - offset] = band
        else:
            out[-offset:] = band
    out = out.reshape(shape)
    if dx:
        out[:, -1 if dx > 0 else 0] = 0.0
    return out


def _operator_interpolation(a, shape):
    """Operator-dependent interpolation P from the coarse grid of the even
    rows and columns (Dendy 1982, de Zeeuw 1990).

    A coarse point copies itself. A fine point between two coarse points in
    x (in y) takes the weights of its equation with the 3x3 stencil summed
    down each column (along each row): -west/centre and -east/centre. A
    point between four coarse points solves its own equation for the
    interpolants of its eight neighbours. Weights across an edge of the
    guide follow the small couplings there and vanish, where linear
    interpolation would smear the edge. Zero weights are not stored.
    """
    height, width = shape
    ch, cw = (height + 1) // 2, (width + 1) // 2
    # column sums at x-edge points (even row, odd column), row sums at
    # y-edge points (odd row, even column), the full stencil at centre ones
    col_sums = [np.zeros((ch, width // 2)) for _ in range(3)]
    row_sums = [np.zeros((height // 2, cw)) for _ in range(3)]
    stencil = {}
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            c = _coupling(a, shape, dy, dx)
            col_sums[dx + 1] += c[0::2, 1::2]
            row_sums[dy + 1] += c[1::2, 0::2]
            stencil[dy, dx] = c[1::2, 1::2].copy()
    # edge weights, padded by one zero line so that each centre point finds
    # the edge points on both its sides (a missing one has zero coupling)
    west, east = (np.zeros((height // 2 + 1, width // 2)) for _ in range(2))
    west[:ch] = -col_sums[0] / col_sums[1]
    east[:ch] = -col_sums[2] / col_sums[1]
    north, south = (np.zeros((height // 2, width // 2 + 1)) for _ in range(2))
    north[:, :cw] = -row_sums[0] / row_sums[1]
    south[:, :cw] = -row_sums[2] / row_sums[1]

    # up to four weights per fine point, to coarse points (I, J), (I, J+1),
    # (I+1, J), (I+1, J+1) for (I, J) = (i // 2, j // 2): increasing columns
    weights = np.zeros((height, width, 4))
    weights[0::2, 0::2, 0] = 1.0
    weights[0::2, 1::2, 0] = west[:ch]
    weights[0::2, 1::2, 1] = east[:ch]
    weights[1::2, 0::2, 0] = north[:, :cw]
    weights[1::2, 0::2, 2] = south[:, :cw]
    # a centre point's weight to a corner: its coupling to that corner plus
    # its couplings to the two edge points beside it times their weights
    c = stencil
    centre = weights[1::2, 1::2]
    centre[..., 0] = c[-1, -1] + c[-1, 0] * west[:-1] + c[0, -1] * north[:, :-1]
    centre[..., 1] = c[-1, 1] + c[-1, 0] * east[:-1] + c[0, 1] * north[:, 1:]
    centre[..., 2] = c[1, -1] + c[1, 0] * west[1:] + c[0, -1] * south[:, :-1]
    centre[..., 3] = c[1, 1] + c[1, 0] * east[1:] + c[0, 1] * south[:, 1:]
    centre /= -c[0, 0][..., None]
    # the last row (column) of an even side has no coarse point after it;
    # its weights to one are 0 already, and zeroing them keeps every stored
    # column on the coarse grid, which csr_matrix does not check
    if height % 2 == 0:
        weights[-1, :, 2:] = 0.0
    if width % 2 == 0:
        weights[:, -1, 1::2] = 0.0

    rows, cols = np.indices((height, width), dtype=np.int32) // 2
    columns = (rows * cw + cols)[..., None] + np.array([0, 1, cw, cw + 1],
                                                       dtype=np.int32)
    keep = weights != 0.0
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=2).ravel())))
    return sp.csr_matrix((weights[keep], columns[keep], indptr),
                         shape=(height * width, ch * cw))


def _line_factors(a, shape):
    """LDL' factors (LAPACK dpttrf) of the x-line and the y-line parts of
    ``a``: its tridiagonal couplings along each grid row, in row-major
    order, and along each column, in column-major order. A zero coupling
    at each line end splits one factorization into independent lines."""
    diagonal = _coupling(a, shape, 0, 0)
    factors = []
    for d, e in ((diagonal, _coupling(a, shape, 0, 1)),
                 (diagonal.T, _coupling(a, shape, 1, 0).T)):
        d, e, info = dpttrf(d.ravel(), e.ravel()[:-1])
        if info:
            raise np.linalg.LinAlgError(
                f"line block not positive definite at unknown {info}")
        factors.append((d, e))
    return factors


def _relax(level, r, axis):
    """One line sweep x = T^-1 r with T the x-line (axis 0) or y-line
    (axis 1) blocks of the level's operator."""
    _, _, _, factors, (height, width) = level
    d, e = factors[axis]
    if axis == 0:
        return dpttrs(d, e, r)[0]
    x = dpttrs(d, e, r.reshape(height, width).T.ravel(), overwrite_b=True)[0]
    return x.reshape(width, height).T.ravel()


def multigrid_preconditioner(system, shape):
    """One symmetric V-cycle for the SPD ``system`` on a ``shape`` grid.

    Level l+1 is the Galerkin product P'A_lP, P the operator-dependent
    interpolation (``_operator_interpolation``) from the grid of even rows
    and columns, down to a grid of at most COARSEST_UNKNOWNS unknowns solved
    by LU. Each level relaxes with exact line solves: x-lines then y-lines
    before its coarse correction, y-lines then x-lines after it, so the
    V-cycle is symmetric. A line sweep x += T^-1 (r - Ax) contracts in the
    A-norm because 2T - A is A with the sign of every coupling between
    adjacent lines flipped, which is similar to A; so the V-cycle is
    positive definite with eig(BA) in (0, 1]. The levels are a flat list:
    no reference cycle.
    """
    levels = []
    a = system.tocsr()
    while a.shape[0] > COARSEST_UNKNOWNS:
        p = _operator_interpolation(a, shape)
        restrict = p.T.tocsr()
        levels.append((a, p, restrict, _line_factors(a, shape), shape))
        a = restrict @ a @ p
        shape = ((shape[0] + 1) // 2, (shape[1] + 1) // 2)
    coarsest = splu(a.tocsc())
    return LinearOperator(system.shape, matvec=partial(_vcycle, levels, coarsest),
                          dtype=np.float64)


def _vcycle(levels, coarsest, r, depth=0):
    """V-cycle approximation of A_depth^-1 r, from a zero initial guess."""
    r = r.ravel()  # LinearOperator.matvec may pass an (n, 1) column
    if depth == len(levels):
        return coarsest.solve(r)
    level = levels[depth]
    a, p, restrict = level[:3]
    x = _relax(level, r, 0)
    x += _relax(level, r - a @ x, 1)
    x += p @ _vcycle(levels, coarsest, restrict @ (r - a @ x), depth + 1)
    x += _relax(level, r - a @ x, 1)
    x += _relax(level, r - a @ x, 0)
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
