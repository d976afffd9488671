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


class RunningWinner:
    """Winner-take-all over disparity slices folded in increasing order, a
    block at a time, with the costs c-, c0 and c+ at and around the winner
    that subpixel refinement reads; no volume is needed.

    A slice wins only where it is strictly below the minimum so far, so
    ties keep the smaller disparity, and the winner's costs are copied as
    it wins (c+ at the next slice), so the result equals wta and
    subpixel_refine on the whole volume, bit for bit.
    """

    def __init__(self, shape):
        self.n = 0  # slices folded so far
        self.winners = np.zeros(shape, dtype=np.intp)
        self.c_zero = np.full(shape, np.inf)
        self.c_minus = np.zeros(shape)
        self.c_plus = np.zeros(shape)
        self._last = None  # the previous slice, and where it won
        self._won = np.zeros(shape, dtype=bool)

    def fold(self, block):
        """Fold the (k, H, W) slices n, n + 1, ... of the cost volume."""
        for costs in block:
            np.copyto(self.c_plus, costs, where=self._won)
            won = costs < self.c_zero
            np.copyto(self.winners, self.n, where=won)
            np.copyto(self.c_zero, costs, where=won)
            if self._last is not None:
                np.copyto(self.c_minus, self._last, where=won)
            self._last, self._won = costs, won
            self.n += 1
        self._last = self._last.copy()  # the caller may reuse the block

    def disparity(self, d_min, subpixel):
        """The winning disparities, parabola-refined if ``subpixel``."""
        d = (d_min + self.winners).astype(np.float64)
        if not subpixel:
            return d
        return _parabola(d, self.winners, self.n, self.c_minus, self.c_zero,
                         self.c_plus)


def wta(volume):
    """Per-pixel argmin over disparities; ties go to the smallest c.

    A running minimum over the (H, W) slices (RunningWinner): np.argmin
    along the leading axis would first copy the whole volume.
    """
    winner = RunningWinner(volume.data.shape[1:])
    winner.fold(volume.data)
    return winner.disparity(volume.d_min, subpixel=False)


def _parabola(d, k, n_disp, c_minus, c_zero, c_plus):
    """d moved to the vertex of the parabola through the costs at slices
    k - 1, k and k + 1 (see subpixel_refine)."""
    interior = (k > 0) & (k < n_disp - 1)
    denom = 2.0 * (c_minus - 2.0 * c_zero + c_plus)
    flat = ~interior | (np.abs(denom) <= 1e-12)
    offset = np.clip((c_minus - c_plus) / np.where(flat, 1.0, denom), -0.5, 0.5)
    return np.where(flat, d, d + offset)


def subpixel_refine(volume, d):
    """Parabola fit through the winner and its two neighbors.

    Offset = (c- - c+) / (2*(c- - 2*c0 + c+)), clamped to [-0.5, 0.5];
    boundary winners and degenerate (flat) parabolas are left unchanged.
    """
    d = np.asarray(d, dtype=np.float64)
    k = np.rint(d).astype(np.intp) - volume.d_min
    n = volume.n_disparities
    costs = lambda i: np.take_along_axis(
        volume.data, np.clip(i, 0, n - 1)[None], axis=0)[0]
    return _parabola(d, k, n, costs(k - 1), costs(k), costs(k + 1))


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
    height, width = d.shape
    valid = d != INVALID_DISPARITY
    cols = np.arange(width)
    # nearest valid column to the left/right of every position, per row; a
    # valid pixel is its own nearest, and -1 and width mean "none"
    left = np.maximum.accumulate(np.where(valid, cols, -1), axis=1)
    right = np.minimum.accumulate(np.where(valid, cols, width)[:, ::-1], axis=1)[:, ::-1]
    # d with a trailing inf column, which the indices -1 and width both read
    padded = np.empty((height, width + 1))
    padded[:, :width] = d
    padded[:, width] = np.inf
    fill = np.take_along_axis(padded, left, axis=1)
    np.minimum(fill, np.take_along_axis(padded, right, axis=1), out=fill)
    fill[left[:, -1] < 0] = INVALID_DISPARITY  # rows with no valid pixel
    return fill
