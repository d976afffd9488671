"""Fused matching cost: truncated absolute difference + truncated gradient
difference + census Hamming distance, per candidate disparity.

Costs follow the rectified-stereo convention: left pixel j at disparity c
is compared against right pixel j - c. Out-of-range right samples are
charged the maximal truncated cost of each term so border pixels cannot
spuriously win winner-take-all.
"""

from dataclasses import dataclass

import numpy as np

from .core import CostVolume, validate_image


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
            raise ValueError(
                "census_radius must be in [1, 3] (codes of at most 64 bits)")


def census_transform(img, radius):
    """Census codes: bit k set iff the k-th neighbor (row-major order,
    center skipped) is strictly less than the center pixel.

    Out-of-bounds neighbors are NaN padding, which compares False, so their
    bit is 0 as if they took the center value.
    Codes are uint32 up to radius 2 (24 bits) and uint64 at radius 3.

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

    dtype = np.uint32 if n_bits <= 32 else np.uint64
    height, width = img.shape
    padded = np.pad(img, radius, constant_values=np.nan)
    codes = np.zeros((height, width), dtype=dtype)
    bit = 0
    for dy in range(2 * radius + 1):
        for dx in range(2 * radius + 1):
            if dy == radius and dx == radius:
                continue
            neighbor = padded[dy : dy + height, dx : dx + width]
            codes |= (neighbor < img).astype(dtype) << dtype(bit)
            bit += 1
    return codes


def padded_gradient(img):
    """The x-gradient of an (H, W) image with a zero column in front,
    G = [0 | gradient(img, "x")], shape (H, W + 1).

    G's last column is 0 too (the forward difference's trailing border), so
    np.fliplr(G) has the same layout for the mirrored image, negated:
    np.fliplr(G)[:, 1:] is -gradient(np.fliplr(img), "x") up to the sign of
    zeros. cost_block reads gradients only through |dxL - dxR|, which
    negating both leaves bit-identical.
    """
    g = np.zeros((img.shape[0], img.shape[1] + 1))
    np.subtract(img[:, 1:], img[:, :-1], out=g[:, 1:-1])
    return g


def cost_terms(left, right, params):
    """Per-view inputs of the fused cost, computed once and shared by every
    disparity: (left, right, padded x-gradients of both, census codes of
    both); see padded_gradient."""
    left = validate_image(left)
    right = validate_image(right)
    if left.shape != right.shape:
        raise ValueError(f"image shapes differ: {left.shape} vs {right.shape}")
    return (left, right, padded_gradient(left), padded_gradient(right),
            census_transform(left, params.census_radius),
            census_transform(right, params.census_radius))


def mirrored_terms(terms):
    """Cost terms of the mirrored pair (fliplr right, fliplr left) as views
    of the cost_terms of (left, right): every term mirrored, the roles
    swapped. cost_block gives them the costs of
    cost_terms(fliplr right, fliplr left) bit for bit: the mirrored padded
    gradients are the negated ones (see padded_gradient), and the mirrored
    codes swap the bits of neighbors (dy, dx) and (dy, -dx) in both codes,
    which keeps every Hamming distance (see census_transform)."""
    left, right, grad_l, grad_r, cen_l, cen_r = terms
    return tuple(np.fliplr(t) for t in (right, left, grad_r, grad_l, cen_r, cen_l))


def cost_block(terms, params, c0, out, work):
    """Fused costs of disparities c0, c0 + 1, ... into the slices of the
    (k, H, W) array ``out``; ``terms`` comes from cost_terms or
    mirrored_terms. ``work`` is two contiguous float64 (H, W) arrays that
    it overwrites.

    E = w_ad * min(|L - R|, tau_ad)
      + w_grad * min(|dxL - dxR|, tau_grad)
      + w_cen * hamming(censusL, censusR) / code_bits
    """
    left, right, grad_l, grad_r, cen_l, cen_r = terms
    width = left.shape[1]
    n_bits = (2 * params.census_radius + 1) ** 2 - 1
    out[...] = params.w_ad * params.tau_ad + params.w_grad * params.tau_grad + params.w_cen

    # every term is written in place, into the output slice or a work
    # array; each cell sums in the order of the formula,
    # (w_ad * ad + w_grad * gr) + (w_cen * ham) / n_bits
    term, spare = work
    # term holds the codes' xor once the gradient term is added to the cost
    xor = np.ndarray(left.shape, cen_l.dtype, buffer=term)
    ham = np.ndarray(left.shape, np.uint8, buffer=spare)
    for k, c in enumerate(range(c0, min(c0 + len(out), width))):
        # columns j >= c have an in-bounds right sample at j - c; a padded
        # gradient's column j + 1 holds the gradient at j
        cols = slice(c, width)
        src = slice(0, width - c)
        cost, t = out[k, :, cols], term[:, src]
        np.subtract(left[:, cols], right[:, src], out=cost)
        np.abs(cost, out=cost)
        np.minimum(cost, params.tau_ad, out=cost)
        np.multiply(cost, params.w_ad, out=cost)
        np.subtract(grad_l[:, c + 1 :], grad_r[:, 1 : width - c + 1], out=t)
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
    shape = terms[0].shape
    n_disp = params.d_max - params.d_min + 1
    volume = cost_block(terms, params, params.d_min, np.empty((n_disp,) + shape),
                        np.empty((2,) + shape))
    return CostVolume(d_min=params.d_min, d_max=params.d_max, data=volume)
