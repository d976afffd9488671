"""Layered stereo scene with ground truth, generated from a seed.

The scene has three parts, placed as fractions of the image size so
every size shows the same layout:

- a background plane slanted in x and y,
- one fronto-parallel foreground rectangle that occludes it, which
  leaves a disoccluded strip beside it in the right view,
- one horizontal band where the background is a flat gray, so matching
  there has no texture to go on.

The layout is fixed; the seed draws only the textures. Every seed
therefore gives the same amount of work, and the same seed gives the
same bytes.

Run as a script to write one scene:
    python3 perfbench/scene.py WIDTH HEIGHT SEED OUT_PREFIX
"""

import sys

import numpy as np

from formats import write_pfm, write_pgm8

# Background disparity at the left/right image edge and its rise from top
# to bottom, and the occluder's disparity; all as fractions of the width.
BG_LEFT, BG_RIGHT, BG_DOWN = 0.075, 0.19, 0.03
FG = 0.35
# Occluder rectangle and textureless band, as fractions of width/height.
FG_X, FG_Y = (0.44, 0.75), (0.25, 0.65)
BAND_Y = (0.77, 0.89)
BAND_GRAY = 0.5


def _texture(rng, height, width):
    """Uniform noise smoothed by a [1, 2, 1]/4 binomial in x and y, so
    sampling it between pixels does not alias."""
    t = rng.random((height + 2, width + 2))
    t = (t[:, :-2] + 2.0 * t[:, 1:-1] + t[:, 2:]) / 4.0
    return (t[:-2] + 2.0 * t[1:-1] + t[2:]) / 4.0


def _sample_rows(tex, u):
    """Row-wise linear interpolation of tex at fractional columns u."""
    width = tex.shape[1]
    u = np.clip(u, 0.0, width - 1.0)
    i0 = np.minimum(np.floor(u).astype(np.intp), width - 2)
    frac = u - i0
    rows = np.arange(tex.shape[0])[:, None]
    return (1.0 - frac) * tex[rows, i0] + frac * tex[rows, i0 + 1]


def layered_scene(width, height, seed):
    """(left, right, gt): float64 images in [0, 1] and the left view's
    true disparity in pixels."""
    rng = np.random.default_rng(seed)
    x = np.arange(width, dtype=np.float64)[None, :]
    y = np.arange(height, dtype=np.float64)[:, None]

    # Background plane d = a + b*x + c*y, textured in left-view columns
    # u = x. Right pixel x' sees the background point whose u solves
    # u - d(u) = x'; the texture extends past the left view's right edge
    # to the largest such u.
    a = BG_LEFT * width
    b = (BG_RIGHT - BG_LEFT) * width / (width - 1)
    c = BG_DOWN * width / (height - 1)
    u_bg = (x + a + c * y) / (1.0 - b)
    bg_tex = _texture(rng, height, int(np.ceil(u_bg.max())) + 2)
    band = slice(int(BAND_Y[0] * height), int(BAND_Y[1] * height))
    bg_tex[band] = BAND_GRAY

    d_fg = FG * width
    fx0, fx1 = int(FG_X[0] * width), int(FG_X[1] * width)
    fy0, fy1 = int(FG_Y[0] * height), int(FG_Y[1] * height)
    fg_tex = _texture(rng, height, width)

    in_fg = (x >= fx0) & (x < fx1) & (y >= fy0) & (y < fy1)
    left = np.where(in_fg, fg_tex, bg_tex[:, :width])
    gt = np.where(in_fg, d_fg, a + b * x + c * y)

    # The right view shows the occluder where x' + d_fg falls inside it.
    right = _sample_rows(bg_tex, np.broadcast_to(u_bg, (height, width)))
    u_fg = x + d_fg
    sees_fg = (u_fg >= fx0) & (u_fg < fx1) & (y >= fy0) & (y < fy1)
    right = np.where(sees_fg, _sample_rows(fg_tex, np.broadcast_to(u_fg, (height, width))), right)
    return left, right, gt


def write_pair(prefix, left, right, gt):
    """Write PREFIXleft.pgm, PREFIXright.pgm and PREFIXgt.pfm."""
    write_pgm8(prefix + "left.pgm", left)
    write_pgm8(prefix + "right.pgm", right)
    write_pfm(prefix + "gt.pfm", gt)


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    width, height, seed = (int(v) for v in sys.argv[1:4])
    write_pair(sys.argv[4], *layered_scene(width, height, seed))
