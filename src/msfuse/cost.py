"""Fused matching cost: truncated absolute difference + truncated gradient
difference + census Hamming distance, per candidate disparity.

Costs follow the rectified-stereo convention: left pixel j at disparity c
is compared against right pixel j - c. Out-of-range right samples are
charged the maximal truncated cost of each term so border pixels cannot
spuriously win winner-take-all.
"""

from dataclasses import dataclass

import numpy as np

from .core import CostVolume, gradient, validate_image


@dataclass(frozen=True)
class CostParams:
    d_min: int = 0
    d_max: int = 16
    w_ad: float = 0.3
    w_grad: float = 0.3
    w_cen: float = 0.4
    tau_ad: float = 0.12
    tau_grad: float = 0.08
    census_radius: int = 2

    def __post_init__(self):
        if not (0 <= self.d_min <= self.d_max):
            raise ValueError("need 0 <= d_min <= d_max")
        if min(self.w_ad, self.w_grad, self.w_cen) < 0:
            raise ValueError("mixing weights must be nonnegative")
        if self.w_ad + self.w_grad + self.w_cen <= 0:
            raise ValueError("at least one mixing weight must be positive")
        if self.tau_ad <= 0 or self.tau_grad <= 0:
            raise ValueError("truncation thresholds must be > 0")
        if not 1 <= self.census_radius <= 3:
            raise ValueError("census_radius must be in [1, 3] (uint64 codes)")


def census_transform(img, radius):
    """Census codes: bit k set iff the k-th neighbor (row-major order,
    center skipped) is strictly less than the center pixel.

    Out-of-bounds neighbors are NaN padding, which compares False, so their
    bit is 0 as if they took the center value.
    Codes fit in uint64 for radius <= 3.
    """
    img = validate_image(img)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    n_bits = (2 * radius + 1) ** 2 - 1
    if n_bits > 64:
        raise ValueError(f"census window too large ({n_bits} bits > 64)")

    height, width = img.shape
    padded = np.pad(img, radius, constant_values=np.nan)
    codes = np.zeros((height, width), dtype=np.uint64)
    bit = 0
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            if dy == radius and dx == radius:
                continue
            neighbor = padded[dy : dy + height, dx : dx + width]
            codes |= (neighbor < img).astype(np.uint64) << np.uint64(bit)
            bit += 1
    return codes


def match_cost(left, right, params):
    """Build the fused cost volume E(j, c) for c in [d_min, d_max].

    E = w_ad * min(|L - R|, tau_ad)
      + w_grad * min(|dxL - dxR|, tau_grad)
      + w_cen * hamming(censusL, censusR) / code_bits
    """
    left = validate_image(left)
    right = validate_image(right)
    if left.shape != right.shape:
        raise ValueError(f"image shapes differ: {left.shape} vs {right.shape}")

    height, width = left.shape
    n_disp = params.d_max - params.d_min + 1
    n_bits = (2 * params.census_radius + 1) ** 2 - 1

    grad_l = gradient(left, "x")
    grad_r = gradient(right, "x")
    cen_l = census_transform(left, params.census_radius)
    cen_r = census_transform(right, params.census_radius)

    max_cost = params.w_ad * params.tau_ad + params.w_grad * params.tau_grad + params.w_cen
    volume = np.full((n_disp, height, width), max_cost)

    for k, c in enumerate(range(params.d_min, params.d_max + 1)):
        if c >= width:
            continue
        # columns j >= c have an in-bounds right sample at j - c
        cols = slice(c, width)
        src = slice(0, width - c)
        ad = np.minimum(np.abs(left[:, cols] - right[:, src]), params.tau_ad)
        gr = np.minimum(np.abs(grad_l[:, cols] - grad_r[:, src]), params.tau_grad)
        ham = np.bitwise_count(cen_l[:, cols] ^ cen_r[:, src]).astype(np.float64)
        volume[k, :, cols] = (
            params.w_ad * ad + params.w_grad * gr + params.w_cen * ham / n_bits
        )

    return CostVolume(d_min=params.d_min, d_max=params.d_max, data=volume)
