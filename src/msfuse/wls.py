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
  correction does not leak across an edge; the Galerkin coarse operators
  P'AP are 9-point, and P' is P's transpose view, not a second matrix;
- the smoother is alternating line relaxation: exact tridiagonal solves of
  all grid rows (x-lines), then of all columns (y-lines), before the coarse
  correction, and y-lines then x-lines after it, so the cycle is symmetric.
  Each level factors its line blocks once with LAPACK ``dpttrf``; a sweep
  is one ``dpttrs`` call over all lines of a direction.
On the benchmark's 8-bit 256x192 random-dot images CG needs 18/28/10
iterations per level (linear interpolation with point Jacobi: 145/96/31).

Each level's 3x3 stencil is read once, off nine probe products, one per
colour of grid points (``_stencil``; Curtis, Powell & Reid 1974): the
finest off I + eta*A, the coarser ones off the three products a V-cycle
makes. P and the line factors are built from those grids, and each
operator is a scipy ``dia_matrix`` whose bands ``_dia`` writes once, in
increasing offset order: the five bands -W, -1, 0, 1, W of I + eta*A
(``build_system``), the nine of each coarser stencil. Diagonal storage
holds no column indices and its product runs unit-stride loops over whole
bands (Bell & Garland, SC 2009): the finest operator takes 5 image-sized
arrays, against 8 in CSR. The product adds the bands in order, as a CSR
row with sorted columns is summed, so the finest products are those of
the CSR assembly to the bit.
The sweeps call LAPACK through the function pointer that
``scipy.linalg.cython_lapack`` exports, with ctypes, which releases the GIL
(scipy's f2py wrappers hold it), so the two views' concurrent
decompositions overlap in their sweeps as in their sparse products.

The CG loop is scipy's iteration written out (``cg``) with every inner
product and norm in numpy's own loop (``_dot``), not BLAS: the base layers
are then bit-identical for any BLAS thread count, and the two views'
decompositions run in parallel threads without contending for the BLAS
thread server.
"""

import ctypes
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cython_lapack
from scipy.linalg.lapack import dpttrf
from scipy.sparse.linalg import splu

from .core import gradient, validate_image

# The largest grid solved directly.
COARSEST_UNKNOWNS = 256

# dpttrs(n, nrhs, d, e, b, ldb, info) as its cython_lapack capsule is named;
# SciPy's double is a typedef whose name ends in _d
_DPTTRS_SIGNATURE = re.compile(
    r"void \(int \*, int \*, (?:(?:double|\w*_d) \*, ){3}int \*, int \*\)")
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bind_dpttrs(capsule):
    """LAPACK dpttrs behind a cython_lapack ``capsule``, as a ctypes
    function of seven addresses that releases the GIL while it runs."""
    name = _capsule_name(capsule)
    if not _DPTTRS_SIGNATURE.fullmatch(name.decode()):
        raise ImportError(
            f"cython_lapack dpttrs has the signature {name.decode()!r}, "
            "not (int *, int *, double *, double *, double *, int *, int *)")
    function = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 7)
    return function(_capsule_pointer(capsule, name))


_dpttrs = _bind_dpttrs(cython_lapack.__pyx_capi__["dpttrs"])


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
        for name in ("eta", "alpha", "eps_w", "solver_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.eps_w <= 0:
            raise ValueError("eps_w must be > 0")
        if self.solver_tol <= 0:
            raise ValueError("solver_tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def smoothness_weights(guide, params):
    """Per-pixel smoothing weights (lam_x, lam_y) from the guide's gradients.

    lam_axis(q) = (|grad_axis(q)|^alpha + eps_w)^-1: strong gradients get
    small weights so edges survive the smoothing term.
    """
    guide = validate_image(guide)
    lam_x = 1.0 / (np.abs(gradient(guide, "x")) ** params.alpha + params.eps_w)
    lam_y = 1.0 / (np.abs(gradient(guide, "y")) ** params.alpha + params.eps_w)
    return lam_x, lam_y


def build_system(guide, params):
    """The filter's SPD operator I + eta*A as a dia_matrix (``_dia``), A the
    weighted 5-point Laplacian Dx'*Lx*Dx + Dy'*Ly*Dy of the guide.

    Dx/Dy are the forward differences of ``gradient`` (zero at the trailing
    border), so each edge q -> q+1 (q -> q+width) of weight lam_x(q)
    (lam_y(q)) puts -eta*lam between its ends and +eta*lam on the diagonal
    of both: the couplings to the east (south) are the weights of the edges
    from each pixel, those to the west (north) the weights of the edges into
    it, none across the border.
    """
    guide = validate_image(guide)
    east, south = smoothness_weights(guide, params)
    east[:, -1] = 0.0
    south[-1] = 0.0
    west, north = np.zeros_like(east), np.zeros_like(south)
    west[:, 1:] = east[:, :-1]
    north[1:] = south[:-1]
    centre = ((west + east) + (north + south)) * params.eta + 1.0
    for c in (west, east, north, south):
        c *= -params.eta
    return _dia({(0, 0): centre, (0, -1): west, (0, 1): east,
                 (-1, 0): north, (1, 0): south}, guide.shape)


def _dia(couplings, shape):
    """The dia_matrix of the ``couplings`` on a ``shape`` grid, which
    ``_stencil`` reads back: a dict of grids, the one of key (dy, dx)
    holding a[q, q'] at each point q for its (dy, dx) neighbour q', zero
    where q' is off the grid.

    The grid goes into the band of offset dy*width + dx, which scipy stores
    at column q' = q + offset. Grids whose offsets coincide sum into one band
    (on a width-2 grid the east and the south-west offset are both 1), a
    band off the matrix is left out, and the offsets increase: the product
    sums the bands in this order, as a CSR row with sorted columns is
    summed.
    """
    height, width = shape
    n = height * width
    offsets = sorted({dy * width + dx for dy, dx in couplings
                      if abs(dy * width + dx) < n})
    data = np.zeros((len(offsets), n))
    for (dy, dx), c in couplings.items():
        offset = dy * width + dx
        if offset in offsets:
            band = data[offsets.index(offset)]
            if offset >= 0:
                band[offset:] += c.ravel()[:n - offset]
            else:
                band[:n + offset] += c.ravel()[-offset:]
    return sp.dia_matrix((data, offsets), shape=(n, n))


def _stencil(apply, shape, offsets):
    """The couplings (``_dia``'s dict of grids) of the operator ``apply``
    on a ``shape`` grid to each neighbour (dy, dx) whose band offset
    dy*width + dx is in ``offsets``, read off nine probe products.

    The operator's stencil is 3x3 (Dendy 1982), and the 3x3 neighbourhood of
    every point holds one point of each colour (i % 3, j % 3). So with e the
    indicator of one colour, (Ae)_q is q's coupling to its neighbour of that
    colour, and exactly 0 where that neighbour is off the grid (Curtis,
    Powell & Reid, IMA J. Appl. Math. 1974). The probe has the coupling's
    bits: a banded product sums one stored entry times 1.0 and zeros, and
    no row of P or AP has two entries of one colour, so P'(A(Pe)) sums the
    terms of the CSR product P'AP in its order, with zeros between them.
    """
    height, width = shape
    stencil = {(dy, dx): np.empty(shape) for dy in (-1, 0, 1)
               for dx in (-1, 0, 1) if dy * width + dx in offsets}
    for cy in range(3):
        for cx in range(3):
            e = np.zeros(shape)
            e[cy::3, cx::3] = 1.0
            y = apply(e.ravel()).reshape(shape)
            for (dy, dx), c in stencil.items():
                # the points whose (dy, dx) neighbour has e's colour
                rows = slice((cy - dy) % 3, None, 3)
                cols = slice((cx - dx) % 3, None, 3)
                c[rows, cols] = y[rows, cols]
    return stencil


def _operator_interpolation(stencil, shape):
    """Operator-dependent interpolation P of the ``stencil`` (``_stencil``)
    from the grid of even rows and columns (Dendy 1982, de Zeeuw 1990).

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
    # y-edge points (odd row, even column), the full stencil at centre ones;
    # a neighbour without a grid has zero coupling
    col_sums = [sum(g[0::2, 1::2] for (_, dx), g in stencil.items() if dx == k)
                for k in (-1, 0, 1)]
    row_sums = [sum(g[1::2, 0::2] for (dy, _), g in stencil.items() if dy == k)
                for k in (-1, 0, 1)]
    c = defaultdict(float, {key: g[1::2, 1::2] for key, g in stencil.items()})
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
    centre = weights[1::2, 1::2]
    centre[..., 0] = c[-1, -1] + c[-1, 0] * west[:-1] + c[0, -1] * north[:, :-1]
    centre[..., 1] = c[-1, 1] + c[-1, 0] * east[:-1] + c[0, 1] * north[:, 1:]
    centre[..., 2] = c[1, -1] + c[1, 0] * west[1:] + c[0, -1] * south[:, :-1]
    centre[..., 3] = c[1, 1] + c[1, 0] * east[1:] + c[0, 1] * south[:, 1:]
    centre /= -c[0, 0][..., None]

    keep = weights != 0.0
    # the column of (I, J) at each fine point, broadcast to its four weights
    base = np.add.outer(np.arange(height, dtype=np.int32) // 2 * cw,
                        np.arange(width, dtype=np.int32) // 2)[..., None]
    columns = np.broadcast_to(base, keep.shape)[keep]
    columns += np.broadcast_to(np.array([0, 1, cw, cw + 1], dtype=np.int32),
                               keep.shape)[keep]
    indptr = np.zeros(height * width + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=2, dtype=np.int32), out=indptr[1:])
    return sp.csr_matrix((weights[keep], columns, indptr),
                         shape=(height * width, ch * cw))


def _line_factors(stencil, shape):
    """LDL' factors (LAPACK dpttrf) of the x-line and the y-line parts of
    the operator of the ``stencil`` (``_stencil``) on a ``shape`` grid: its
    tridiagonal couplings along each grid row, in row-major order, and along
    each column, in column-major order. A zero coupling at each line end
    splits one factorization into independent lines; a missing grid (on a
    grid one row high) holds zeros."""
    diagonal = stencil[0, 0]
    factors = []
    for d, e in ((diagonal, stencil.get((0, 1), np.zeros(shape))),
                 (diagonal.T, stencil.get((1, 0), np.zeros(shape)).T)):
        d, e, info = dpttrf(d.ravel(), e.ravel()[:-1])
        if info:
            raise np.linalg.LinAlgError(
                f"line block not positive definite at unknown {info}")
        factors.append((d, e))
    return factors


def _line_sweep(d, e, b):
    """A call of no arguments that overwrites ``b`` with T^-1 b, T the lines
    that dpttrf factored into (d, e). Every argument is bound here, so the
    call converts nothing. ``info`` flags only illegal arguments: not read.
    """
    if not (d.size == e.size + 1 == b.size and all(
            v.dtype == np.float64 and v.flags.c_contiguous for v in (d, e, b))):
        raise ValueError("line sweep needs contiguous float64 d, e, b of "
                         "sizes n, n - 1, n")
    ints = np.array([d.size, 1, 0], dtype=np.intc)  # n (= ldb), nrhs, info
    n, nrhs, info = (ints.ctypes.data + k * ints.itemsize for k in range(3))
    sweep = partial(_dpttrs, n, nrhs, d.ctypes.data, e.ctypes.data,
                    b.ctypes.data, n, info)
    sweep.arrays = ints, d, e, b  # the memory the addresses point into
    return sweep


def multigrid_preconditioner(system, shape):
    """One symmetric V-cycle for the SPD ``system`` on a ``shape`` grid, a
    dia_matrix with its bands in increasing offset order (``build_system``),
    as a function of a 1-D residual, which it does not write into.

    Level l+1 is the Galerkin product P'A_lP, read off probes (``_stencil``),
    P the operator-dependent interpolation (``_operator_interpolation``)
    from the grid of even rows and columns, down to a grid of at most
    COARSEST_UNKNOWNS unknowns solved by LU. Each level relaxes with exact line solves: x-lines then y-lines
    before its coarse correction, y-lines then x-lines after it, so the
    V-cycle is symmetric. A line sweep x += T^-1 (r - Ax) contracts in the
    A-norm because 2T - A is A with the sign of every coupling between
    adjacent lines flipped, which is similar to A; so the V-cycle is
    positive definite with eig(BA) in (0, 1]. The sweeps solve in a buffer
    the preconditioner owns, so it runs one V-cycle at a time.
    """
    return partial(_vcycle, *_levels(system, shape))


def _levels(system, shape):
    """The V-cycle's levels above the direct solve, a flat list (no
    reference cycle), and the LU factors of the coarsest grid. A level is
    (A, P, P', shape, buffer, sweeps): A a dia_matrix, the finest one
    ``system`` itself, P' the CSC view ``p.T`` of P's arrays, whose products
    sum as a CSR copy's do. Both line sweeps solve in ``buffer``, the first
    unknowns of one buffer that all levels share, which holds nothing of a
    level while the coarser levels run. Each level's stencil is read once
    (``_stencil``), the coarser ones off the products P'(A(Pv)), and gives
    its P, its line factors and a coarser level's bands (``_dia``)."""
    shared = np.empty(system.shape[0])
    levels = []
    a = system
    stencil = _stencil(system.__matmul__, shape, system.offsets)
    while a.shape[0] > COARSEST_UNKNOWNS:
        p = _operator_interpolation(stencil, shape)
        buffer = shared[:a.shape[0]]
        sweeps = [_line_sweep(d, e, buffer)
                  for d, e in _line_factors(stencil, shape)]
        levels.append((a, p, p.T, shape, buffer, sweeps))
        shape = ((shape[0] + 1) // 2, (shape[1] + 1) // 2)
        nine = [dy * shape[1] + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        del stencil  # freed before the coarser one is read
        stencil = _stencil(lambda v: p.T @ (a @ (p @ v)), shape, nine)
        a = _dia(stencil, shape)
    return levels, splu(a.tocsc())


def _relax(level, r, x, axis):
    """One line sweep x += T^-1 (r - Ax), T the x-line (axis 0) or y-line
    (axis 1) blocks of the level's operator, solved in the level's buffer:
    the y-lines as a column-major copy of the residual."""
    a, _, _, (height, width), buffer, sweeps = level
    if axis == 0:
        np.subtract(r, a @ x, out=buffer)
        sweeps[0]()
        x += buffer
        return
    columns = buffer.reshape(width, height)
    np.copyto(columns, _residual(a, r, x).reshape(height, width).T)
    sweeps[1]()
    x += columns.T.ravel()


def _residual(a, r, x):
    """r - Ax, written into the product's array."""
    residual = a @ x
    return np.subtract(r, residual, out=residual)


def _vcycle(levels, coarsest, r, depth=0):
    """V-cycle approximation of A_depth^-1 r, from a zero initial guess."""
    if depth == len(levels):
        return coarsest.solve(r)
    level = levels[depth]
    a, p, restrict, _, buffer, sweeps = level
    np.copyto(buffer, r)  # the x-line sweep from x = 0
    sweeps[0]()
    x = buffer.copy()
    _relax(level, r, x, 1)
    x += p @ _vcycle(levels, coarsest, restrict @ _residual(a, r, x), depth + 1)
    _relax(level, r, x, 1)
    _relax(level, r, x, 0)
    return x


def _dot(u, v):
    """Inner product of two vectors in numpy's einsum loop, not BLAS."""
    return np.einsum("i,i->", u, v)


def _norm(u):
    return np.sqrt(_dot(u, u))


def cg(system, b, x0, *, rtol, atol, maxiter, M, callback=None):
    """Preconditioned conjugate gradient for the SPD ``system`` and b != 0:
    the iteration and stopping test of ``scipy.sparse.linalg.cg``, with the
    inner products in ``_dot`` and ``M`` a function of the residual.

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
        z = M(r)
        rho = _dot(r, z)
        if iteration > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = system @ p
        alpha = rho / _dot(p, q)
        # z is spent once p is formed: its array takes alpha*p, then alpha*q
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, q, out=z)
        rho_prev = rho
        del z, q  # not held through the next V-cycle
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

    b = h.ravel()
    b_norm = _norm(b)
    if b_norm == 0.0:
        return np.zeros_like(h)

    system = build_system(h, params)
    precond = multigrid_preconditioner(system, h.shape)
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    x, _ = cg(system, b, x0=b, rtol=params.solver_tol, atol=0.0,
              maxiter=params.max_iter, M=precond, callback=count)
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
