"""Shared image / cost-volume types, PGM/PFM I/O and gradients.

Images are plain 2D float64 numpy arrays (row-major, intensities in [0,1]
when loaded from integer formats). Validation helpers enforce the
finiteness/shape invariants shared by every downstream module.
"""

import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

# Sentinel for pixels with no valid disparity (disparities are nonnegative).
INVALID_DISPARITY = -1.0


class FormatError(Exception):
    """Raised for malformed PGM/PFM headers or truncated payloads."""


def validate_image(img):
    """Check the image invariants; return the array as float64."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image must be at least 1x1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("image contains non-finite values")
    return arr


@dataclass(frozen=True)
class CostVolume:
    """Per-(disparity, pixel) matching costs, shape (d_max-d_min+1, H, W)."""

    d_min: int
    d_max: int
    data: np.ndarray

    def __post_init__(self):
        if self.d_min > self.d_max:
            raise ValueError(f"d_min {self.d_min} > d_max {self.d_max}")
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"cost volume must be 3D, got {arr.shape}")
        if arr.shape[0] != self.d_max - self.d_min + 1:
            raise ValueError(
                f"disparity axis {arr.shape[0]} does not match range "
                f"[{self.d_min}, {self.d_max}]"
            )
        # two reductions, with no volume-sized temporary; NaN propagates
        # through both, and -inf is the minimum
        low, high = (arr.min(), arr.max()) if arr.size else (0.0, 0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            raise ValueError("cost volume contains non-finite values")
        if low < 0:
            raise ValueError("cost volume contains negative costs")
        object.__setattr__(self, "data", arr)

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def n_disparities(self):
        return self.d_max - self.d_min + 1


def _read_token(f):
    """Read one whitespace-delimited header token, skipping '#' comments."""
    tok = b""
    while True:
        ch = f.read(1)
        if ch == b"":
            raise FormatError("unexpected end of file in header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_number(f, kind):
    """Read one header token and parse it with ``kind`` (int or float)."""
    tok = _read_token(f)
    try:
        return kind(tok)
    except ValueError:
        raise FormatError(f"non-numeric header field {tok!r}")


def load_image(path):
    """Load a grayscale PGM (P5, 8/16-bit) or PFM ('Pf') image.

    Integer formats are scaled to [0,1] by the max representable value;
    PFM samples are taken verbatim.
    """
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic == b"P5":
            return _load_pgm_body(f)
        if magic == b"Pf":
            return _load_pfm_body(f)
        if magic == b"PF":
            raise FormatError("color PFM not supported (grayscale 'Pf' only)")
        raise FormatError(f"unrecognized magic {magic!r}")


def _load_pgm_body(f):
    width = _read_number(f, int)
    height = _read_number(f, int)
    maxval = _read_number(f, int)
    if width < 1 or height < 1:
        raise FormatError(f"bad PGM dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise FormatError(f"unsupported PGM maxval {maxval}")
    dtype = np.dtype(">u2") if maxval == 65535 else np.dtype("u1")
    raw = _read_payload(f, width * height * dtype.itemsize, "PGM")
    data = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    return data.astype(np.float64) / maxval


def _load_pfm_body(f):
    width = _read_number(f, int)
    height = _read_number(f, int)
    scale = _read_number(f, float)
    if width < 1 or height < 1:
        raise FormatError(f"bad PFM dimensions {width}x{height}")
    if scale == 0 or not np.isfinite(scale):
        raise FormatError("PFM scale must be finite and nonzero")
    dtype = np.dtype("<f4") if scale < 0 else np.dtype(">f4")
    raw = _read_payload(f, width * height * 4, "PFM")
    data = np.frombuffer(raw, dtype=dtype).reshape(height, width)
    if not np.isfinite(data).all():
        raise FormatError("PFM contains non-finite samples")
    # PFM stores rows bottom-to-top.
    return validate_image(np.flipud(data))


def _read_payload(f, size, kind):
    """The ``size`` payload bytes of a ``kind`` image. A regular file's
    length is checked first, so that a header claiming more than the file
    holds fails before the read allocates the claim."""
    info = os.fstat(f.fileno())
    if stat.S_ISREG(info.st_mode) and size > info.st_size - f.tell():
        raise FormatError(f"truncated {kind} payload")
    raw = f.read(size)
    if len(raw) != size:
        raise FormatError(f"truncated {kind} payload")
    return raw


def save_image(img, path, format="pfm"):
    """Write an image as 'pgm8', 'pgm16' or 'pfm'.

    PGM output clamps to [0,1] before quantization; PFM round-trips
    float32 values bit-exactly.
    """
    arr = validate_image(img)
    height, width = arr.shape
    if format in ("pgm8", "pgm16"):
        maxval, dtype = (255, np.uint8) if format == "pgm8" else (65535, ">u2")
        q = np.rint(np.clip(arr, 0.0, 1.0) * maxval).astype(dtype)
        with open(path, "wb") as f:
            f.write(b"P5\n%d %d\n%d\n" % (width, height, maxval))
            f.write(q.tobytes())
    elif format == "pfm":
        data = np.flipud(arr).astype("<f4")
        with open(path, "wb") as f:
            f.write(b"Pf\n%d %d\n" % (width, height))
            f.write(b"-1.0\n")
            f.write(data.tobytes())
    else:
        raise ValueError(f"unknown format {format!r}")


def gradient(img, axis):
    """Forward difference g(q) = img(q+1) - img(q); trailing border gets 0."""
    arr = validate_image(img)
    g = np.zeros_like(arr)
    if axis == "x":
        g[:, :-1] = arr[:, 1:] - arr[:, :-1]
    elif axis == "y":
        g[:-1, :] = arr[1:, :] - arr[:-1, :]
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return g
