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
integral is a running sum down the rows (whole rows added at a time),
then along each row, the same additions in the same order as cumsum.

aggregate_cost works in place, a block of at most BLOCK_BYTES of
disparity slices at a time: the block is copied into a contiguous
(k, H, W) stack, filtered there with the (H, W) guide terms broadcast
over the slices, and copied back. Each slice's result is bit-identical
to filtering it alone, and scratch memory is bounded by the block, not
by the disparity range.
"""

from dataclasses import dataclass

import numpy as np

from .core import validate_image

# Largest block of disparity slices aggregate_cost filters at once; its
# scratch is about four blocks: the stack, two temporaries and the padded
# integral.
BLOCK_BYTES = 2 << 20


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


def _box_sum(img, radius, padded=None, out=None):
    """Windowed sum over the window clipped to image bounds, of an image or
    of every slice of a (k, H, W) stack: four slices of the edge-padded
    integral image (O(1) per pixel; see the module doc).

    The integral is built in ``padded`` (from _padded; reusable, as its top
    and left borders are never written). ``out`` may be ``img`` itself.
    """
    height, width = img.shape[-2:]
    if padded is None:
        padded = _padded(img.shape, radius)
    lo, side = radius + 1, 2 * radius + 1
    integral = padded[..., lo : lo + height, lo : lo + width]
    integral[...] = img
    for i in range(1, height):
        np.add(integral[..., i - 1, :], integral[..., i, :],
               out=integral[..., i, :])
    # NumPy's running sum is fast along the contiguous last axis only
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


def _guide_stats(guide, params):
    """Input-independent terms of the filter: window counts, the guide's
    window mean and its regularized window variance var_w + xi."""
    r = params.radius
    counts = window_counts(guide.shape, r)
    mean_w = _box_sum(guide, r) / counts
    var_w = _box_sum(guide * guide, r) / counts - mean_w * mean_w
    return counts, mean_w, var_w + params.xi


def _scratch(shape, radius):
    """Work buffers of _filter for a (k, H, W) stack: the padded integral
    buffer and two stack-sized temporaries. Their [:n] views serve a stack
    of n <= k slices."""
    return _padded(shape, radius), np.empty(shape), np.empty(shape)


def _filter(guide, p, stats, radius, scratch):
    """Per-window linear fit a_l*W + b_l of every slice of the (k, H, W)
    stack p, coefficients averaged over the windows covering each pixel;
    the result overwrites p.

    The (H, W) guide and stats broadcast over the slices. p is read by
    box(p) and W*p, then holds mean_w*mean_p and a*mean_w, then the
    result. Every elementwise operation is the one of the textbook form,
    in its order, so each slice is filtered as if it were alone.
    """
    counts, mean_w, var_w_xi = stats
    padded, mean_p, tmp = scratch
    _box_sum(p, radius, padded, mean_p)
    mean_p /= counts
    np.multiply(guide, p, out=tmp)
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


def guided_filter(guide, input, params):
    """Fast guided filter of one image."""
    guide = validate_image(guide)
    p = validate_image(input)
    if guide.shape != p.shape:
        raise ValueError(f"shapes differ: {guide.shape} vs {p.shape}")
    out = p[None].copy()
    _filter(guide, out, _guide_stats(guide, params), params.radius,
            _scratch(out.shape, params.radius))
    return out[0]


def aggregate_cost(guide, volume, params):
    """Guided-filter every disparity slice with the same guide; tiny
    negative undershoots are clamped to 0.

    Works in place: the input is consumed, and the returned volume is
    ``volume`` itself, its data overwritten. Slices are filtered in blocks
    of at most BLOCK_BYTES (see the module doc).
    """
    guide = validate_image(guide)
    if guide.shape != (volume.height, volume.width):
        raise ValueError(
            f"guide shape {guide.shape} does not match volume "
            f"({volume.height}, {volume.width})"
        )
    r = params.radius
    stats = _guide_stats(guide, params)
    data = volume.data
    block = max(1, BLOCK_BYTES // (guide.size * data.itemsize))
    shape = (min(block, volume.n_disparities),) + guide.shape
    work = np.empty(shape)
    scratch = _scratch(shape, r)
    for k in range(0, volume.n_disparities, block):
        p = data[:, :, k : k + block]
        n = p.shape[2]
        stack = work[:n]
        stack[...] = p.transpose(2, 0, 1)
        _filter(guide, stack, stats, r, [s[:n] for s in scratch])
        np.maximum(stack, 0.0, out=p.transpose(2, 0, 1))
    return volume
