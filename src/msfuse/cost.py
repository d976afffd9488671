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

    The codes of img[::-1, ::-1], the image turned by 180 degrees, are these
    codes turned alike with their bit order reversed, as neighbor (dy, dx)
    becomes (-dy, -dx); the same permutation of two codes keeps their
    Hamming distance.
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


def cost_terms(left, right, params):
    """Per-view inputs of the fused cost, computed once and shared by every
    disparity: (left, right, census codes of both). cost_block forms the
    x-gradients from the images in its work arrays."""
    left = validate_image(left)
    right = validate_image(right)
    if left.shape != right.shape:
        raise ValueError(f"image shapes differ: {left.shape} vs {right.shape}")
    return (left, right, census_transform(left, params.census_radius),
            census_transform(right, params.census_radius))


def mirrored_terms(terms):
    """Cost terms of the rotated pair (rot right, rot left), rot turning an
    image by 180 degrees, as views of the cost_terms of (left, right): every
    term rotated, the roles swapped. cost_block gives them the costs of
    cost_terms(rot right, rot left) bit for bit: the rotated images are that
    pair, whose x-gradients cost_block forms from them, and the rotated
    codes reverse the bit order of both codes, which keeps every Hamming
    distance (see census_transform). A rotated view's reshape(-1) is a view
    too, read backwards."""
    left, right, cen_l, cen_r = terms
    return tuple(t[::-1, ::-1] for t in (right, left, cen_r, cen_l))


def cost_block(terms, params, c0, out, work):
    """Fused costs of disparities c0, c0 + 1, ... into the slices of the
    C-contiguous (k, H, W) array ``out``; ``terms`` comes from cost_terms or
    mirrored_terms. ``work`` is two contiguous float64 (H, W) arrays that
    it overwrites: first with the x-gradients dxL and dxR of the images
    (core.gradient's forward difference, 0 in the last column), from which
    every slice's gradient term is made, then with the other terms.

    E = w_ad * min(|L - R|, tau_ad)
      + w_grad * min(|dxL - dxR|, tau_grad)
      + w_cen * hamming(censusL, censusR) / code_bits

    Every term is one pass over the flattened images: at disparity c, left
    cell i against right cell i - c, so that the first c cells of a row
    meet the end of the row above. Those cells, whose right sample is out
    of range, are then given the border cost. No ufunc call casts an
    operand, as that allocates numpy's iteration buffers: the uint8 Hamming
    counts are copied to a float64 work array, then weighted.
    """
    left, right, cen_l, cen_r = (t.reshape(-1) for t in terms)
    height, width = terms[0].shape
    size = height * width
    n_bits = (2 * params.census_radius + 1) ** 2 - 1
    # cells i >= c have a right sample at i - c, in range for columns j >= c
    slices = [(out[k].reshape(-1)[c:], slice(c, size), slice(0, size - c))
              for k, c in enumerate(range(c0, min(c0 + len(out), width)))]

    # every term is written in place, into the output slice or a work
    # array; each cell sums in the order of the formula,
    # (w_ad * ad + w_grad * gr) + (w_cen * ham) / n_bits, the gradient
    # term first written to the slice (a + b is b + a, bit for bit)
    term, spare = (w.reshape(-1) for w in work)
    for img, grad in ((left, term), (right, spare)):
        np.subtract(img[1:], img[:-1], out=grad[:-1])
    for grad in work:
        grad[:, -1] = 0
    for cost, cols, src in slices:
        np.subtract(term[cols], spare[src], out=cost)
        np.abs(cost, out=cost)
        np.minimum(cost, params.tau_grad, out=cost)
        np.multiply(cost, params.w_grad, out=cost)
    # term holds the codes' xor once the AD term is added to the cost
    xor = np.ndarray(size, cen_l.dtype, buffer=work[0])
    ham = np.ndarray(size, np.uint8, buffer=work[1])
    for cost, cols, src in slices:
        t = term[src]
        np.subtract(left[cols], right[src], out=t)
        np.abs(t, out=t)
        np.minimum(t, params.tau_ad, out=t)
        np.multiply(t, params.w_ad, out=t)
        np.add(t, cost, out=cost)
        np.bitwise_xor(cen_l[cols], cen_r[src], out=xor[src])
        np.bitwise_count(xor[src], out=ham[src])
        t[...] = ham[src]
        np.multiply(t, params.w_cen, out=t)
        np.divide(t, n_bits, out=t)
        np.add(cost, t, out=cost)
    border = params.w_ad * params.tau_ad + params.w_grad * params.tau_grad + params.w_cen
    for k, c in enumerate(range(c0, c0 + len(out))):
        out[k, :, :c] = border
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
