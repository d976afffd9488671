"""Binocular triangulation and ASCII PLY export.

Standard rectified pinhole model: depth Z = focal * baseline / disparity,
X and Y scaled from the principal-point-relative pixel coordinates.
"""

from dataclasses import dataclass

import numpy as np

from .core import INVALID_DISPARITY

# Disparities at or below this are treated as "at infinity" and skipped.
MIN_DISPARITY = 1e-6
# Points formatted and written per block by export_ply.
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


def _fmt_column(values):
    """``_fmt`` of every value. numpy's str of a float32 has the same
    shortest round-trip digits: positional with a trailing ".0" on whole
    numbers, or scientific for tiny and huge values, which go to ``_fmt``.

    Each distinct bit pattern is formatted once (an 8-bit intensity column
    has at most 256); the floats themselves would merge -0.0 with 0.0."""
    values = np.asarray(values, dtype=np.float32)
    bits, inverse = np.unique(values.view(np.uint32), return_inverse=True)
    distinct = bits.view(np.float32)
    texts = [_fmt(v) if "e" in text else text.removesuffix(".0")
             for v, text in zip(distinct.tolist(), distinct.astype(str).tolist())]
    return [texts[i] for i in inverse.tolist()]


def export_ply(cloud, path):
    """ASCII PLY 1.0 with float x/y/z (and intensity when present)."""
    columns = list(cloud.points.T)
    names = ["x", "y", "z"]
    if cloud.intensity is not None:
        columns.append(cloud.intensity)
        names.append("intensity")
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    header += [f"property float {name}" for name in names] + ["end_header"]
    with open(path, "w") as f:
        f.write("".join(line + "\n" for line in header))
        # a block of rows at a time: the strings of a whole cloud take ~24 MiB
        for start in range(0, len(cloud), PLY_BLOCK_ROWS):
            block = [_fmt_column(c[start:start + PLY_BLOCK_ROWS]) for c in columns]
            f.write("".join(" ".join(row) + "\n" for row in zip(*block)))
