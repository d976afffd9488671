"""Binocular triangulation and ASCII PLY export.

Standard rectified pinhole model: depth Z = focal * baseline / disparity,
X and Y scaled from the principal-point-relative pixel coordinates.

export_ply writes each value as the shortest decimal that reads back as
the same float32, in numpy's positional form (_fmt). The digits of a
block of values are found at once with integer arithmetic on the float32
mantissa and exponent, and the text is built as bytes in numpy arrays, so
no Python string is made per value.
"""

from dataclasses import dataclass

import numpy as np

from .core import INVALID_DISPARITY

# Disparities at or below this are treated as "at infinity" and skipped.
MIN_DISPARITY = 1e-6
# Points formatted and written per block by export_ply; its buffers peak at
# ~0.45 KiB per point of a block, whatever the size of the cloud.
PLY_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CameraRig:
    focal_px: float
    baseline_m: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.focal_px <= 0:
            raise ValueError("focal length must be > 0")
        if self.baseline_m <= 0:
            raise ValueError("baseline must be > 0")


@dataclass(frozen=True)
class PointCloud:
    """Row-major list of (X, Y, Z) meters with source pixel bookkeeping."""

    points: np.ndarray  # (N, 3) float64
    pixels: np.ndarray  # (N, 2) int (x, y)
    intensity: np.ndarray | None = None  # (N,) float64

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite coordinates")
        if pts.size and (pts[:, 2] <= 0).any():
            raise ValueError("point cloud contains non-positive depths")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def triangulate(d, rig, intensity=None):
    """One 3D point per pixel with a valid, strictly positive disparity.

    Z = focal * baseline / c; X = (x - cx) * Z / focal; Y likewise. Pixels
    with invalid or near-zero disparity are skipped (infinite depth is a
    per-pixel condition, not an error).
    """
    d = np.asarray(d, dtype=np.float64)
    if intensity is not None:
        intensity = np.asarray(intensity, dtype=np.float64)
        if intensity.shape != d.shape:
            raise ValueError("intensity image shape must match disparity map")

    height, width = d.shape
    mask = (d != INVALID_DISPARITY) & (d > MIN_DISPARITY)
    ys, xs = np.nonzero(mask)  # row-major point order
    c = d[ys, xs]

    z = rig.focal_px * rig.baseline_m / c
    x = (xs - rig.cx) * z / rig.focal_px
    y = (ys - rig.cy) * z / rig.focal_px

    return PointCloud(
        points=np.column_stack([x, y, z]),
        pixels=np.column_stack([xs, ys]),
        intensity=intensity[ys, xs] if intensity is not None else None,
    )




def _fmt(v):
    # shortest decimal string that round-trips the float32 value
    return np.format_float_positional(np.float32(v), unique=True, trim="-")


def _binade_tables():
    """(k9, shift, factor) per biased float32 exponent b of the binades
    2**-13 <= |v| < 2**30 that _text_fields formats itself; factor is 0
    for the other exponents.

    10**k9 is the place of the ninth significant digit of the binade's lower
    end, so a value of the binade is below 2e9 units of 10**k9. A value
    m * 2**(b-150) with 24-bit mantissa m is 4m * factor / 2**shift such
    units: k9 <= 0, so factor is 2**max(s, 0) * 5**-k9 with
    s = b - 152 - k9, shift is max(-s, 0), and 4m * factor < 2**54."""
    k9, shift, factor = (np.zeros(256, np.int64) for _ in range(3))
    for b in range(127 - 13, 127 + 30):
        exp2 = b - 127
        # the place of the leading digit of 2**exp2
        lead = len(str(1 << exp2)) - 1 if exp2 >= 0 else -len(str(1 << -exp2))
        k = lead - 8
        s = b - 152 - k
        k9[b] = k
        shift[b], factor[b] = max(-s, 0), 2 ** max(s, 0) * 5 ** -k
    return k9, shift, factor


_K9, _SHIFT, _FACTOR = _binade_tables()
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POW10_INT32 = _POW10[:10].astype(np.int32)
_POW10_FLOAT = _POW10[:13].astype(np.float64)


def _word_tables():
    """Lookup tables of native uint32 words, each four ASCII bytes with zero
    bytes as padding.

    groups: 0000..9999 in full, then with leading zeros dropped (0 keeps
    its "0"), then with trailing zeros dropped (0 is all padding).
    head: 0..99 as the last two bytes, the leading zero dropped.
    point: "." and 000..999 in full, then with trailing zeros dropped (0 is
    all padding, the "." included)."""
    v = np.arange(10000)
    text = np.stack([v // 10 ** (3 - j) % 10 + ord("0") for j in range(4)], 1).astype(np.uint8)
    lead, trail = text.copy(), text.copy()
    for j in range(3):
        lead[v < 10 ** (3 - j), j] = 0
    for j in range(4):
        trail[v % 10 ** (4 - j) == 0, j] = 0
    head = np.hstack([np.zeros((100, 2), np.uint8), lead[:100, 2:]])
    dot = np.full((1000, 1), ord("."), np.uint8)
    point = np.concatenate([np.hstack([dot, text[:1000, 1:]]),
                            np.hstack([dot * (v[:1000, None] > 0), trail[:1000, 1:]])])
    groups = np.concatenate([text, lead, trail])
    return (groups.view(np.uint32).ravel(), head.view(np.uint32).ravel(),
            point.view(np.uint32).ravel())


_GROUPS, _HEAD, _POINT = _word_tables()
_MINUS = np.array([0, ord("-"), 0, 0], np.uint8).view(np.uint32)[0]


def _shortest(bits):
    """(digits, k9, places) of the float32 bit patterns ``bits``: the
    shortest decimal that rounds back to each value is digits * 10**k9
    (digits < 2e9), with ``places`` digits after the point. Exact for ±0
    (0, 0, 0) and the window 2**-13 <= |v| < 2**30; digits are 0 for the
    other values.

    This is the shortest round-trip problem (Steele & White, PLDI 1990;
    Ryu, Adams, PLDI 2018), solved with integer arithmetic for all values
    at once. With n9 the value in units of 10**k9, its binade's ninth
    significant place (_binade_tables), the integers of its rounding
    interval, ends included when the mantissa is even (round half to
    even), are those in (below, high]. The shortest digits are at the
    coarsest place 10**p that has a multiple in that range: of the two
    multiples next to n9, the nearer one that lies in the range, a tie
    going to the even one.
    """
    b = (bits >> 23 & 0xFF).astype(np.intp)
    k9, shift, factor = _K9.take(b), _SHIFT.take(b), _FACTOR.take(b)

    x = factor * ((bits & 0x7FFFFF | 0x800000) << 2)  # n9 = x / 2**shift
    odd = bits & 1
    # a power of two is nearer its lower neighbour
    gap = factor * (2 - (bits & 0x7FFFFF == 0))
    below = ((x - gap + odd - 1) >> shift).astype(np.int32)
    high = ((x + 2 * factor - odd) >> shift).astype(np.int32)
    # p: how many of the places 10**1 .. 10**9 have a multiple in range;
    # few values have one of 10**3, so the rest of the count runs on those
    p = np.zeros(len(bits), np.int32)
    top, bottom = high.copy(), below.copy()
    for _ in range(3):
        top //= 10
        bottom //= 10
        p += top > bottom
    more = np.flatnonzero(p == 3)
    top, bottom = top[more], bottom[more]
    for _ in range(6):
        top //= 10
        bottom //= 10
        p[more] += top > bottom
    scale = _POW10_INT32.take(p)
    # floor(n9 / 10**p); a float64 quotient of integers below 2**31 by a
    # power of ten is never rounded up to the next integer
    f = ((x >> shift) / _POW10_FLOAT.take(p)).astype(np.int32)
    fs = f * scale
    down = fs > below
    up = fs <= high - scale  # fs + 10**p <= high, with no int32 overflow
    # n9 less the midpoint of fs and fs + 10**p, in units of 2**-(shift + 1);
    # at the midpoint the even one of f and f + 1 wins
    above = 2 * x - ((2 * fs.astype(np.int64) + scale) << shift)
    up &= ~down | (above + (f & 1) > 0)
    # outside the window factor is 0, so x is 0 and so are the digits
    return fs + up * scale, k9, np.maximum(-(k9 + p), 0)


def _text_fields(values):
    """``_fmt`` of each float32 of ``values`` as the non-zero bytes of one
    row of a uint8 matrix. The first byte of each row is zero.

    A row is words of four bytes: the sign and the top two integer digits,
    groups of four integer digits, "." with the first three fraction
    digits, then groups of four more. Leading zeros of the integer part
    (but its units digit) and trailing zeros of the fraction are zero
    bytes, as is the "." of an integer. The digits come from _shortest;
    the values it leaves out, all that numpy prints in scientific notation
    (|v| < 1e-4 or >= 1e16) among them, go to ``_fmt``.
    """
    values = np.asarray(values, dtype=np.float32).ravel()
    bits = values.view(np.uint32)
    digits, k9, places = _shortest(bits)

    point = _POW10.take(-k9)
    whole = (digits / _POW10_FLOAT.take(-k9)).astype(np.int64)  # exact, as f is
    n_int = 1 + int((whole.max(initial=0) >= _POW10[2:10:4]).sum())  # words
    n_frac = int(places.max(initial=0))
    n_groups = -(-max(n_frac - 3, 0) // 4)  # after the point word
    n_words = n_int + (1 + n_groups if n_frac else 0)
    rest = np.flatnonzero((digits == 0) & (bits & 0x7FFFFFFF != 0))
    texts = [_fmt(v).encode() for v in values[rest].tolist()]
    n_words = max([n_words] + [len(t) // 4 + 1 for t in texts])

    words = np.zeros((len(values), n_words), np.uint32)
    number = whole
    for g in range(n_int - 1):  # units first
        upper = whole // 10000
        form = 10000 * (number < _POW10[4 * g + 4])  # leading zeros dropped
        if g:
            form += 10000 * (number < _POW10[4 * g])  # above the number: padding
        words[:, n_int - 1 - g] = _GROUPS.take(whole - upper * 10000 + form)
        whole = upper
    top = _HEAD.take(whole)
    if n_int > 1:
        top *= number >= _POW10[4 * n_int - 4]
    words[:, 0] = top | (bits >> 31) * _MINUS
    if n_frac:
        # the fraction digits as an integer of 3 + 4 * n_groups digits
        wide = int(-k9.min())
        fraction = (digits - number * point) * _POW10.take(wide + k9)
        if wide > 3 + 4 * n_groups:
            fraction //= _POW10[wide - 3 - 4 * n_groups]
        else:
            fraction *= _POW10[3 + 4 * n_groups - wide]
        for j in range(n_groups - 1, -1, -1):
            upper = fraction // 10000
            trail = 20000 * (places < 7 + 4 * j)  # trailing zeros dropped
            words[:, n_int + 1 + j] = _GROUPS.take(fraction - upper * 10000 + trail)
            fraction = upper
        words[:, n_int] = _POINT.take(fraction + 1000 * (places <= 3))
    fields = words.view(np.uint8)
    for row, text in zip(rest.tolist(), texts):
        fields[row] = 0
        fields[row, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
    return fields


def _ply_rows(block):
    """The PLY vertex lines of a (rows, properties) float32 block, as bytes."""
    fields = _text_fields(block)
    # the byte before each value: none, " " between values, "\n" between rows
    sep = np.full(block.shape, ord(" "), np.uint8)
    sep[:, 0] = ord("\n")
    sep[0, 0] = 0
    fields[:, 0] = sep.ravel()
    return fields[fields != 0].tobytes() + b"\n"


def export_ply(cloud, path):
    """ASCII PLY 1.0 with float x/y/z (and intensity when present).

    Each value is written as ``_fmt`` of its float32: the shortest decimal
    that reads back as the same float32, positional, with no trailing
    zeros (``_text_fields``). The file is written in binary mode, one
    buffer per block of PLY_BLOCK_ROWS points."""
    names = ["x", "y", "z"] + (["intensity"] if cloud.intensity is not None else [])
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {name}" for name in names] + ["end_header"]
    with open(path, "wb") as f:
        f.write("".join(line + "\n" for line in header).encode("ascii"))
        for start in range(0, len(cloud), PLY_BLOCK_ROWS):
            points = cloud.points[start:start + PLY_BLOCK_ROWS]
            block = np.empty((len(points), len(names)), np.float32)
            block[:, :3] = points
            if cloud.intensity is not None:
                block[:, 3] = cloud.intensity[start:start + PLY_BLOCK_ROWS]
            f.write(_ply_rows(block))
