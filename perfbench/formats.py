"""PGM/PFM/PLY readers and writers owned by the benchmark.

The benchmark writes its inputs and checks the program's outputs with
these, not with msfuse's own I/O, so a fault in the code under test
cannot corrupt the inputs or hide itself in the check.
"""

import numpy as np


def write_pgm8(path, img):
    """Binary P5 with maxval 255; `img` holds intensities in [0, 1]."""
    q = np.rint(np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    height, width = q.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (width, height))
        f.write(q.tobytes())


def write_pfm(path, img):
    """Grayscale little-endian PFM, rows stored bottom to top."""
    arr = np.asarray(img, dtype=np.float64)
    height, width = arr.shape
    with open(path, "wb") as f:
        f.write(b"Pf\n%d %d\n-1.0\n" % (width, height))
        f.write(np.flipud(arr).astype("<f4").tobytes())


def read_pfm(path):
    """Float32 image from a grayscale PFM, top row first."""
    with open(path, "rb") as f:
        data = f.read()
    lines = data.split(b"\n", 3)
    if len(lines) != 4 or lines[0].strip() != b"Pf":
        raise ValueError(f"{path}: not a grayscale PFM")
    width, height = (int(v) for v in lines[1].split())
    scale = float(lines[2])
    payload = lines[3]
    if len(payload) != width * height * 4:
        raise ValueError(f"{path}: PFM payload is {len(payload)} bytes, "
                         f"expected {width * height * 4}")
    dtype = "<f4" if scale < 0 else ">f4"
    return np.flipud(np.frombuffer(payload, dtype=dtype).reshape(height, width))


def read_ply_vertex_count(path):
    """(declared `element vertex` count, number of data lines) of an ASCII PLY."""
    declared = None
    with open(path) as f:
        for line in f:
            if line.startswith("element vertex "):
                declared = int(line.split()[2])
            if line.strip() == "end_header":
                break
        else:
            raise ValueError(f"{path}: PLY header has no end_header")
        rows = sum(1 for line in f if line.strip())
    if declared is None:
        raise ValueError(f"{path}: PLY header has no vertex element")
    return declared, rows
