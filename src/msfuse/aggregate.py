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
    """Windowed sum over the window clipped to image bounds, via an
    integral image (O(1) per pixel)."""
    height, width = img.shape
    integral = np.zeros((height + 1, width + 1))
    np.cumsum(img, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])

    y = np.arange(height)
    x = np.arange(width)
    y0 = np.maximum(y - radius, 0)
    y1 = np.minimum(y + radius, height - 1) + 1
    x0 = np.maximum(x - radius, 0)
    x1 = np.minimum(x + radius, width - 1) + 1
    return (
        integral[np.ix_(y1, x1)]
        - integral[np.ix_(y0, x1)]
        - integral[np.ix_(y1, x0)]
        + integral[np.ix_(y0, x0)]
    )


def window_counts(shape, radius):
    """Pixel count of the border-clipped window at every position."""
    return _box_sum(np.ones(shape), radius)


def box_mean(img, radius):
    """Mean over the (2r+1)^2 window, shrinking at the borders."""
    img = validate_image(img)
    return _box_sum(img, radius) / window_counts(img.shape, radius)


def guided_filter(guide, input, params):
    """Fast guided filter: per-window linear fit a_l*W + b_l, coefficients
    averaged over the windows covering each pixel."""
    guide = validate_image(guide)
    p = validate_image(input)
    if guide.shape != p.shape:
        raise ValueError(f"shapes differ: {guide.shape} vs {p.shape}")
    r = params.radius

    counts = window_counts(guide.shape, r)
    mean_w = _box_sum(guide, r) / counts
    mean_p = _box_sum(p, r) / counts
    mean_wp = _box_sum(guide * p, r) / counts
    mean_ww = _box_sum(guide * guide, r) / counts

    cov_wp = mean_wp - mean_w * mean_p
    var_w = mean_ww - mean_w * mean_w

    a = cov_wp / (var_w + params.xi)
    b = mean_p - a * mean_w

    mean_a = _box_sum(a, r) / counts
    mean_b = _box_sum(b, r) / counts
    return mean_a * guide + mean_b


def aggregate_cost(guide, volume, params):
    """Guided-filter every disparity slice with the same guide; tiny
    negative undershoots are clamped to 0."""
    guide = validate_image(guide)
    if guide.shape != (volume.height, volume.width):
        raise ValueError(
            f"guide shape {guide.shape} does not match volume "
            f"({volume.height}, {volume.width})"
        )
    out = np.empty_like(volume.data)
    for k in range(volume.n_disparities):
        out[:, :, k] = guided_filter(guide, volume.data[:, :, k], params)
    np.maximum(out, 0.0, out=out)
    return CostVolume(d_min=volume.d_min, d_max=volume.d_max, data=out)
