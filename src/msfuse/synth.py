"""Deterministic random-dot stereogram generator for pipeline testing.

Uses numpy's default PCG64 generator seeded solely by `seed`, so the same
seed always reproduces the same pair byte for byte.
"""

import numpy as np


def random_dot_pair(width, height, disp, seed):
    """Left image, right image shifted by `disp`, and ground truth.

    Left pixel x corresponds to right pixel x - disp; the disoccluded band
    at the right edge of the right image gets fresh random fill. Returns
    (left, right, gt) where gt is the constant true disparity map.
    """
    for name, size in (("width", width), ("height", height)):
        if size < 1:
            raise ValueError(f"{name} {size} must be at least 1")
    if disp < 0 or disp >= width / 4:
        raise ValueError(f"disparity {disp} must be in [0, width/4)")
    rng = np.random.default_rng(seed)
    left = rng.random((height, width))
    right = np.empty_like(left)
    if disp > 0:
        right[:, : width - disp] = left[:, disp:]
        right[:, width - disp :] = rng.random((height, disp))
    else:
        right[:] = left
    gt = np.full((height, width), float(disp))
    return left, right, gt
