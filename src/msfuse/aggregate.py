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

Box sums take the four window corners of every pixel as plain slices of
one array: the integral image (leading zero row and column) edge-padded
by the radius r, whose row i is integral row clip(i - r, 0, H), columns
alike, so windows clip to the image bounds with no index arithmetic. The
integral is two running sums (np.add.accumulate), down the columns from
the source into the interior and then in place along the rows: the same
additions in the same order as cumsum.

Cost is filtered a block of disparity slices at a time (filter_block):
block_length slices, the fewest that hold at least BLOCK_BYTES, so one
slice per block when a slice alone is that large. A block is a (k, H, W)
stack that lies in the interior of the padded integral buffer itself
(scratch_block), so its first box sum integrates it where it lies,
filtered in place with the (H, W) guide terms of guide_stats broadcast
over the slices. Each slice's result is
bit-identical to filtering it alone, and the scratch is three buffers of
about one block each, bounded by the block, not by the disparity range:
the padded buffer and two temporaries. aggregate_cost copies the blocks
of a whole volume through the scratch; the pipeline writes each raw cost
block into the scratch and never assembles a volume.
"""

from dataclasses import dataclass

import numpy as np

from .core import validate_image

# Least size of a block of disparity slices filtered at once (see
# block_length), so that each ufunc call on a block has cells enough to run
# in parallel with another block's; its scratch is about three blocks: the
# padded integral, which holds the block, and two temporaries.
BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class GuidedFilterParams:
    radius: int = 4
    xi: float = 1e-4

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.xi <= 0:
            raise ValueError("xi must be > 0")


def _padded(shape, radius):
    """Zeroed buffer for _box_sum's edge-padded integral of an (..., H, W)
    array: r + 1 rows and columns on the top and left (the integral's zero
    row and column, edge-padded), r on the bottom and right."""
    side = 2 * radius + 1
    return np.zeros(tuple(shape[:-2]) + (shape[-2] + side, shape[-1] + side))


def _interior(padded, radius):
    """The (..., H, W) view of a _padded buffer that holds the array to be
    box-summed, and then its integral."""
    lo = radius + 1
    return padded[..., lo : padded.shape[-2] - radius, lo : padded.shape[-1] - radius]


def _box_sum(img, radius, padded=None, out=None):
    """Windowed sum over the window clipped to image bounds, of an image or
    of every slice of a (k, H, W) stack: four slices of the edge-padded
    integral image (O(1) per pixel; see the module doc).

    The integral is built in ``padded`` (from _padded; reusable, as its top
    and left borders are never written), integrating ``img`` from where it
    lies: ``img`` may be the interior of ``padded``, which is then
    overwritten by its integral. ``out`` may be ``img`` unless that is the
    interior; it must not overlap ``padded`` otherwise.
    """
    if padded is None:
        padded = _padded(img.shape, radius)
    lo, side = radius + 1, 2 * radius + 1
    height, width = img.shape[-2:]
    integral = _interior(padded, radius)
    np.add.accumulate(img, axis=-2, out=integral)
    np.add.accumulate(integral, axis=-1, out=integral)
    padded[..., lo : lo + height, lo + width :] = integral[..., -1:]
    padded[..., lo + height :, :] = padded[..., lo + height - 1, None, :]

    out = np.subtract(padded[..., side:, side:], padded[..., :height, side:],
                      out=out)
    out -= padded[..., side:, :width]
    out += padded[..., :height, :width]
    return out


def window_counts(shape, radius):
    """Pixel count of the border-clipped window at every position."""
    return _box_sum(np.ones(shape), radius)


def box_mean(img, radius):
    """Mean over the (2r+1)^2 window, shrinking at the borders."""
    img = validate_image(img)
    return _box_sum(img, radius) / window_counts(img.shape, radius)


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
    mean_w = _box_sum(guide, r) / counts
    var_w = _box_sum(guide * guide, r) / counts - mean_w * mean_w
    return counts, mean_w, var_w + params.xi


def block_scratch(shape, radius):
    """Work buffers of filter_block for a (k, H, W) stack: the padded
    integral buffer, whose interior holds the stack (scratch_block), and two
    stack-sized temporaries. Their [:n] views serve a stack of n <= k
    slices."""
    return _padded(shape, radius), np.empty(shape), np.empty(shape)


def scratch_block(scratch, radius):
    """The (k, H, W) stack that filter_block filters in place: the interior
    of the scratch's padded buffer."""
    return _interior(scratch[0], radius)


def _filter(guide, scratch, stats, radius):
    """Per-window linear fit a_l*W + b_l of every slice of the (k, H, W)
    stack p = scratch_block(scratch), coefficients averaged over the
    windows covering each pixel; the result overwrites p and is returned.

    The (H, W) guide and stats broadcast over the slices. W*p is taken
    first, then p is integrated where it lies for box(p); later box sums
    integrate their input into the interior. The interior then holds
    mean_w*mean_p and a*mean_w, then the result. Every elementwise
    operation is the one of the textbook form, in its order, so each slice
    is filtered as if it were alone.
    """
    counts, mean_w, var_w_xi = stats
    padded, mean_p, tmp = scratch
    p = _interior(padded, radius)
    np.multiply(guide, p, out=tmp)
    _box_sum(p, radius, padded, mean_p)
    mean_p /= counts
    _box_sum(tmp, radius, padded, tmp)
    tmp /= counts
    np.multiply(mean_w, mean_p, out=p)
    tmp -= p  # cov_wp
    tmp /= var_w_xi  # a
    np.multiply(tmp, mean_w, out=p)
    np.subtract(mean_p, p, out=mean_p)  # b
    _box_sum(tmp, radius, padded, tmp)
    tmp /= counts
    tmp *= guide
    _box_sum(mean_p, radius, padded, mean_p)
    mean_p /= counts
    np.add(tmp, mean_p, out=p)
    return p


def guided_filter(guide, input, params):
    """Fast guided filter of one image."""
    guide = validate_image(guide)
    p = validate_image(input)
    if guide.shape != p.shape:
        raise ValueError(f"shapes differ: {guide.shape} vs {p.shape}")
    scratch = block_scratch((1,) + p.shape, params.radius)
    scratch_block(scratch, params.radius)[0] = p
    return _filter(guide, scratch, guide_stats(guide, params), params.radius)[0].copy()


def filter_block(guide, stats, params, scratch):
    """Guided-filter every slice of the (k, H, W) stack scratch_block(scratch)
    in place with the validated guide and its guide_stats; tiny negative
    undershoots are clamped to 0. ``scratch`` is from block_scratch.
    Returns the stack."""
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
    scratch = block_scratch((plan[0][1],) + guide.shape, params.radius)
    for start, stop in plan:
        part = [s[: stop - start] for s in scratch]
        scratch_block(part, params.radius)[...] = volume.data[start:stop]
        volume.data[start:stop] = filter_block(guide, stats, params, part)
    return volume
