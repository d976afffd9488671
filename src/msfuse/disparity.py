"""Disparity extraction: winner-take-all, parabolic subpixel refinement,
left-right consistency and background-favoring invalid fill."""

from dataclasses import dataclass

import numpy as np

from .core import INVALID_DISPARITY


@dataclass(frozen=True)
class DisparityParams:
    lr_threshold: float = 1.0
    subpixel: bool = True
    fill_invalid: bool = True

    def __post_init__(self):
        if self.lr_threshold <= 0:
            raise ValueError("lr_threshold must be > 0")


def wta(volume):
    """Per-pixel argmin over disparities; ties go to the smallest c.

    A running minimum over the (H, W) slices: np.argmin along the leading
    axis would first copy the whole volume. A slice wins only where it is
    strictly below the minimum so far, so ties keep the smaller disparity.
    """
    data = volume.data
    best = data[0].copy()
    winners = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, data.shape[0]):
        np.copyto(winners, k, where=data[k] < best)
        np.minimum(best, data[k], out=best)
    return (volume.d_min + winners).astype(np.float64)


def subpixel_refine(volume, d):
    """Parabola fit through the winner and its two neighbors.

    Offset = (c- - c+) / (2*(c- - 2*c0 + c+)), clamped to [-0.5, 0.5];
    boundary winners and degenerate (flat) parabolas are left unchanged.
    """
    d = np.asarray(d, dtype=np.float64)
    k = np.rint(d).astype(np.intp) - volume.d_min
    interior = (k > 0) & (k < volume.n_disparities - 1)
    if not interior.any():
        return d.copy()

    iy, ix = np.nonzero(interior)
    kk = k[iy, ix]
    c_minus = volume.data[kk - 1, iy, ix]
    c_zero = volume.data[kk, iy, ix]
    c_plus = volume.data[kk + 1, iy, ix]

    denom = 2.0 * (c_minus - 2.0 * c_zero + c_plus)
    degenerate = np.abs(denom) <= 1e-12
    safe = np.where(degenerate, 1.0, denom)
    offset = np.where(degenerate, 0.0, np.clip((c_minus - c_plus) / safe, -0.5, 0.5))
    out = d.copy()
    out[iy, ix] = d[iy, ix] + offset
    return out


def lr_consistency(d_left, d_right, threshold):
    """Invalidate left pixels whose right-view disparity disagrees.

    Pixel i survives iff |d_left(i) - d_right(i - round(d_left(i)))| is
    within threshold and the projected pixel is in bounds.
    """
    d_left = np.asarray(d_left, dtype=np.float64)
    d_right = np.asarray(d_right, dtype=np.float64)
    if d_left.shape != d_right.shape:
        raise ValueError(f"shapes differ: {d_left.shape} vs {d_right.shape}")

    height, width = d_left.shape
    x = np.arange(width)[None, :]
    proj = x - np.rint(d_left).astype(np.intp)
    in_bounds = (proj >= 0) & (proj < width)
    proj_clamped = np.clip(proj, 0, width - 1)
    mate = np.take_along_axis(d_right, proj_clamped, axis=1)

    valid = (
        in_bounds
        & (d_left != INVALID_DISPARITY)
        & (mate != INVALID_DISPARITY)
        & (np.abs(d_left - mate) <= threshold)
    )
    out = np.where(valid, d_left, INVALID_DISPARITY)
    return out


def fill_invalid(d):
    """Fill invalid pixels with min(nearest valid left, nearest valid right)
    along the row; fully invalid rows stay invalid."""
    d = np.asarray(d, dtype=np.float64)
    width = d.shape[1]
    valid = d != INVALID_DISPARITY
    cols = np.arange(width)
    # nearest valid column to the left/right of every position, per row
    left_idx = np.maximum.accumulate(np.where(valid, cols, -1), axis=1)
    right_idx = np.minimum.accumulate(np.where(valid, cols, width)[:, ::-1], axis=1)[:, ::-1]

    left_val = np.take_along_axis(d, np.maximum(left_idx, 0), axis=1)
    right_val = np.take_along_axis(d, np.minimum(right_idx, width - 1), axis=1)
    fill = np.minimum(
        np.where(left_idx >= 0, left_val, np.inf),
        np.where(right_idx < width, right_val, np.inf),
    )
    keep = valid | ~valid.any(axis=1, keepdims=True)
    return np.where(keep, d, fill)
