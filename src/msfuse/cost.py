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

    The codes of np.fliplr(img) are np.fliplr of these codes with the bits
    of neighbors (dy, dx) and (dy, -dx) swapped; the same swap in two codes
    keeps their Hamming distance.
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


def cost_terms(left, right, params, codes=None):
    """Per-view inputs of the fused cost, computed once and shared by every
    disparity: (left, right, x-gradients of both, census codes of both).

    ``codes``, if given, stand for the census codes of left and right: any
    pair with the same Hamming distances, such as the mirrored codes of the
    mirrored images (see census_transform).
    """
    left = validate_image(left)
    right = validate_image(right)
    if left.shape != right.shape:
        raise ValueError(f"image shapes differ: {left.shape} vs {right.shape}")
    if codes is None:
        codes = (census_transform(left, params.census_radius),
                 census_transform(right, params.census_radius))
    return (left, right, gradient(left, "x"), gradient(right, "x"), *codes)


def cost_block(terms, params, c0, out):
    """Fused costs of disparities c0, c0 + 1, ... into the slices of the
    (k, H, W) array ``out``; ``terms`` comes from cost_terms.

    E = w_ad * min(|L - R|, tau_ad)
      + w_grad * min(|dxL - dxR|, tau_grad)
      + w_cen * hamming(censusL, censusR) / code_bits
    """
    left, right, grad_l, grad_r, cen_l, cen_r = terms
    width = left.shape[1]
    n_bits = (2 * params.census_radius + 1) ** 2 - 1
    out[...] = params.w_ad * params.tau_ad + params.w_grad * params.tau_grad + params.w_cen

    # every term is written in place, into the output slice or one of two
    # per-call scratch slices; each cell sums in the order of the formula,
    # (w_ad * ad + w_grad * gr) + (w_cen * ham) / n_bits
    term = np.empty(left.shape)
    xor = term.view(np.uint64)  # the codes' xor, once the gradient term is added
    ham = np.empty(left.shape, np.uint8)
    for k, c in enumerate(range(c0, min(c0 + len(out), width))):
        # columns j >= c have an in-bounds right sample at j - c
        cols = slice(c, width)
        src = slice(0, width - c)
        cost, t = out[k, :, cols], term[:, src]
        np.subtract(left[:, cols], right[:, src], out=cost)
        np.abs(cost, out=cost)
        np.minimum(cost, params.tau_ad, out=cost)
        np.multiply(cost, params.w_ad, out=cost)
        np.subtract(grad_l[:, cols], grad_r[:, src], out=t)
        np.abs(t, out=t)
        np.minimum(t, params.tau_grad, out=t)
        np.multiply(t, params.w_grad, out=t)
        np.add(cost, t, out=cost)
        np.bitwise_xor(cen_l[:, cols], cen_r[:, src], out=xor[:, src])
        np.bitwise_count(xor[:, src], out=ham[:, src])
        np.multiply(ham[:, src], params.w_cen, out=t)
        np.divide(t, n_bits, out=t)
        np.add(cost, t, out=cost)
    return out


def match_cost(left, right, params):
    """Build the fused cost volume E(j, c) for c in [d_min, d_max] (see
    cost_block)."""
    terms = cost_terms(left, right, params)
    n_disp = params.d_max - params.d_min + 1
    volume = cost_block(terms, params, params.d_min,
                        np.empty((n_disp,) + terms[0].shape))
    return CostVolume(d_min=params.d_min, d_max=params.d_max, data=volume)
