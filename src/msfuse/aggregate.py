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
alike, so windows clip to the image bounds with no index arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .core import CostVolume, validate_image


@dataclass(frozen=True)
class GuidedFilterParams:
    radius: int = 4
    xi: float = 1e-4

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if self.xi <= 0:
            raise ValueError("xi must be > 0")


def _box_sum(img, radius):
    """Windowed sum over the window clipped to image bounds: four slices of
    the edge-padded integral image (O(1) per pixel; see the module doc)."""
    height, width = img.shape
    integral = np.zeros((height + 1, width + 1))
    np.cumsum(img, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])

    padded = np.pad(integral, radius, mode="edge")
    y0, x0 = slice(0, height), slice(0, width)
    y1 = slice(2 * radius + 1, 2 * radius + 1 + height)
    x1 = slice(2 * radius + 1, 2 * radius + 1 + width)
    return padded[y1, x1] - padded[y0, x1] - padded[y1, x0] + padded[y0, x0]


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


def _filter(guide, p, stats, radius):
    """Per-window linear fit a_l*W + b_l of p, coefficients averaged over
    the windows covering each pixel."""
    counts, mean_w, var_w_xi = stats
    mean_p = _box_sum(p, radius) / counts
    cov_wp = _box_sum(guide * p, radius) / counts - mean_w * mean_p
    a = cov_wp / var_w_xi
    b = mean_p - a * mean_w
    return _box_sum(a, radius) / counts * guide + _box_sum(b, radius) / counts


def guided_filter(guide, input, params):
    """Fast guided filter of one image."""
    guide = validate_image(guide)
    p = validate_image(input)
    if guide.shape != p.shape:
        raise ValueError(f"shapes differ: {guide.shape} vs {p.shape}")
    return _filter(guide, p, _guide_stats(guide, params), params.radius)


def aggregate_cost(guide, volume, params):
    """Guided-filter every disparity slice with the same guide; tiny
    negative undershoots are clamped to 0."""
    guide = validate_image(guide)
    if guide.shape != (volume.height, volume.width):
        raise ValueError(
            f"guide shape {guide.shape} does not match volume "
            f"({volume.height}, {volume.width})"
        )
    stats = _guide_stats(guide, params)
    out = np.empty_like(volume.data)
    for k in range(volume.n_disparities):
        out[:, :, k] = _filter(guide, volume.data[:, :, k], stats, params.radius)
    np.maximum(out, 0.0, out=out)
    return CostVolume(d_min=volume.d_min, d_max=volume.d_max, data=out)
