"""Guided-filter cost aggregation.

Each disparity slice of the cost volume is smoothed with the kernel
induced by the guide image,

    L(i,j) = 1/|lam|^2 * sum_{l: i,j in lam_l} [1 + (W_i - d_l)(W_j - d_l)
                                                    / (phi_l^2 + xi)]

normalized by N_i = sum_j L(i,j). The implementation is the standard
two-pass box-filter algorithm (per-window linear fit, then averaging of
the coefficients), which coincides with the explicit kernel sum at
pixels whose every covering window lies fully inside the image; the
explicit form is the oracle in tests/test_aggregate.py.

Box sums are separable: window sums along the rows, then along the
columns. Each is taken over the whole C-contiguous (k, H, W) stack as one
flat array, so every block-sized ufunc call is one contiguous 1-D pass:
along a line of cells ``step`` apart (1 along the rows, W along the
columns), the sum of m consecutive cells is doubled to 2m by adding the
array to itself shifted by m cells, and one more source cell is added
where the binary digits of 2r + 1 call for it (1, 2, 4, 8, 9 at r = 4).
Each of these adds either reads ahead of the cell it writes or reads
another array, so numpy makes no copy. The few cells at the end of the
array whose doubled sums would read past it are summed from the source
directly. Windows that cross the end of a line are wrong in the flat
pass; the first and last r cells of every line are written afterwards
from running sums taken from each end, which clip the window to the
image bounds.

Cost is filtered a block of disparity slices at a time (filter_block):
block_length slices, the fewest that hold at least BLOCK_BYTES, so one
slice per block when a slice alone is that large. A block is a (k, H, W)
stack that lies in the first of three stack-sized scratch buffers
(block_scratch) and is filtered there in place, with the (H, W) guide
terms of guide_stats broadcast over the slices; each box sum takes one
of the other buffers as its work buffer. Each slice's result is
bit-identical to filtering it alone, and the scratch is bounded by the
block, not by the disparity range. aggregate_cost copies the blocks of a
whole volume through the scratch; the pipeline writes each raw cost
block into the scratch and never assembles a volume.
"""

from dataclasses import dataclass

import numpy as np

from .core import validate_image

# Least size of a block of disparity slices filtered at once (see
# block_length), so that each ufunc call on a block has cells enough to run
# in parallel with another block's; its scratch is three blocks, the first
# of which holds the block.
BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class GuidedFilterParams:
    radius: int = 4
    xi: float = 1e-4

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.xi <= 0:
            raise ValueError("xi must be > 0")


def _window_sums(src, out, radius, axis):
    """Sums of ``src`` over the 2r + 1 cells around each cell along ``axis``
    (-1 or -2) of its (..., H, W) shape, clipped to the line, into ``out``,
    a buffer of its shape that does not overlap it.

    Both are summed as flat arrays (see the module doc): the windows of all
    cells at least r from both ends of their line at once, then the first
    and last r cells of every line from running sums at each end.
    """
    length = src.shape[axis]
    step = 1 if axis == -1 else src.shape[-1]
    flat = src.reshape(-1)
    head = out.reshape(-1)
    if not np.may_share_memory(head, out):
        raise ValueError("out must be C-contiguous or reversed C-contiguous")
    n = flat.size
    if length > 2 * radius:
        # head[i] holds the sum of m cells from flat[i] on, step apart, m
        # going to 2r + 1 by the binary digits of 2r + 1, so that it ends
        # with the window of cell i + r * step. A doubling in place cannot
        # read past the end of head, so the cells from head[valid] on miss
        # part of their windows: those are summed from flat instead.
        head = head[radius * step :]
        acc, m, valid = flat, 1, n
        for digit in bin(2 * radius + 1)[3:]:
            valid = max(min(valid - m * step, head.size), 0)
            np.add(acc[:valid], acc[m * step : m * step + valid], out=head[:valid])
            acc, m = head, 2 * m
            if digit == "1":
                valid = min(valid, n - m * step)
                np.add(head[:valid], flat[m * step : m * step + valid],
                       out=head[:valid])
                m += 1
        full = n - 2 * radius * step
        rest = head[valid:full]
        np.copyto(rest, flat[valid:full])
        for t in range(1, 2 * radius + 1):
            rest += flat[valid + t * step : full + t * step]

    def line(a, i):
        return a[(Ellipsis, i) + (slice(None),) * (-1 - axis)]

    # the first and last r cells of every line, from running sums that
    # start at either end of the line, which clips their windows
    near = min(radius + 1, length)  # cells in the window of an end cell
    for count, at, window in (
            (min(radius, length), lambda i: i, slice(0, near)),
            (min(radius, length - radius), lambda i: -1 - i,
             slice(length - near, length))):
        if count > 0:
            np.add.reduce(line(src, window), axis=axis, out=line(out, at(0)))
        for i in range(1, count):
            if i + radius < length:
                np.add(line(out, at(i - 1)), line(src, at(i + radius)),
                       out=line(out, at(i)))
            else:
                np.copyto(line(out, at(i)), line(out, at(i - 1)))


def _box_sum(img, radius, work=None):
    """Sums over the window clipped to image bounds, of an image or of every
    slice of a (k, H, W) stack, written over ``img`` and returned: window
    sums along the rows into ``work``, then along the columns back into
    ``img`` (see the module doc).

    ``img`` must be C-contiguous, or such an array reversed on every axis
    (a 180-degree rotation of each slice), so that its reshape(-1) is a
    view. ``work`` is a buffer of its shape, allocated when not given,
    which is overwritten.
    """
    if work is None:
        work = np.empty(img.shape)
    _window_sums(img, work, radius, -1)
    _window_sums(work, img, radius, -2)
    return img


def window_counts(shape, radius):
    """Pixel count of the border-clipped window at every position."""
    return _box_sum(np.ones(shape), radius)


def box_mean(img, radius):
    """Mean over the (2r+1)^2 window, shrinking at the borders."""
    img = validate_image(img)
    return _box_sum(img.copy(), radius) / window_counts(img.shape, radius)


def block_length(shape):
    """Disparity slices of an (H, W) image per block: the fewest float64
    slices that hold BLOCK_BYTES, at least one."""
    return -(-BLOCK_BYTES // (8 * shape[0] * shape[1]))


def blocks(n, length):
    """(start, stop) of ceil(n / length) consecutive blocks that tile
    range(n), the longer ones first, whose lengths differ by at most one."""
    count = -(-n // length)
    size, longer = divmod(n, count)
    start = 0
    for i in range(count):
        stop = start + size + (i < longer)
        yield start, stop
        start = stop


def guide_stats(guide, params, counts=None):
    """Input-independent terms of the filter: window counts (computed
    unless given), the guide's window mean and its regularized window
    variance var_w + xi."""
    r = params.radius
    if counts is None:
        counts = window_counts(guide.shape, r)
    mean_w = _box_sum(guide.copy(), r) / counts
    var_w = _box_sum(guide * guide, r) / counts - mean_w * mean_w
    return counts, mean_w, var_w + params.xi


def block_scratch(shape):
    """Work buffers of filter_block for a (k, H, W) stack: three C-contiguous
    stack-sized buffers, the first of which holds the stack that is filtered
    in place. Their [:n] views serve a stack of n <= k slices."""
    return tuple(np.empty(shape) for _ in range(3))


def _filter(guide, scratch, stats, radius):
    """Per-window linear fit a_l*W + b_l of every slice of the (k, H, W)
    stack p = scratch[0], coefficients averaged over the windows covering
    each pixel; the result overwrites p and is returned.

    The (H, W) guide and stats broadcast over the slices. W*p is taken
    first, then p is box-summed in place, and every later box sum too, with
    whichever of the three buffers is free as its work buffer. p then holds
    mean_w*mean_p and a*mean_w, then the result. Every elementwise
    operation is the one of the textbook form, in its order, so each slice
    is filtered as if it were alone.
    """
    counts, mean_w, var_w_xi = stats
    p, mean_p, tmp = scratch
    np.multiply(guide, p, out=tmp)
    np.divide(_box_sum(p, radius, mean_p), counts, out=mean_p)
    _box_sum(tmp, radius, p)
    tmp /= counts
    np.multiply(mean_w, mean_p, out=p)
    tmp -= p  # cov_wp
    tmp /= var_w_xi  # a
    np.multiply(tmp, mean_w, out=p)
    np.subtract(mean_p, p, out=mean_p)  # b
    _box_sum(tmp, radius, p)
    tmp /= counts
    tmp *= guide
    _box_sum(mean_p, radius, p)
    mean_p /= counts
    np.add(tmp, mean_p, out=p)
    return p


def guided_filter(guide, input, params):
    """Fast guided filter of one image."""
    guide = validate_image(guide)
    p = validate_image(input)
    if guide.shape != p.shape:
        raise ValueError(f"shapes differ: {guide.shape} vs {p.shape}")
    scratch = block_scratch((1,) + p.shape)
    scratch[0][0] = p
    return _filter(guide, scratch, guide_stats(guide, params), params.radius)[0]


def filter_block(guide, stats, params, scratch):
    """Guided-filter every slice of the (k, H, W) stack scratch[0] in place
    with the validated guide and its guide_stats; tiny negative undershoots
    are clamped to 0. ``scratch`` is from block_scratch. Returns the
    stack."""
    block = _filter(guide, scratch, stats, params.radius)
    return np.maximum(block, 0.0, out=block)


def aggregate_cost(guide, volume, params):
    """Guided-filter every disparity slice with the same guide (see
    filter_block).

    Works in place: the input is consumed, and the returned volume is
    ``volume`` itself, its data overwritten, a block at a time.
    """
    guide = validate_image(guide)
    if guide.shape != (volume.height, volume.width):
        raise ValueError(
            f"guide shape {guide.shape} does not match volume "
            f"({volume.height}, {volume.width})"
        )
    stats = guide_stats(guide, params)
    plan = list(blocks(volume.n_disparities, block_length(guide.shape)))
    scratch = block_scratch((plan[0][1],) + guide.shape)
    for start, stop in plan:
        part = [s[: stop - start] for s in scratch]
        part[0][...] = volume.data[start:stop]
        volume.data[start:stop] = filter_block(guide, stats, params, part)
    return volume
