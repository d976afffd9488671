"""Compare the PLY value formatter with numpy's float32 text over every bit
pattern of a range of binades.

    python tests/ply_exhaustive.py [--binades=LO:HI] [--stride N]

Checks every N-th positive float32 of the binades 2**LO <= v < 2**(HI+1)
and its negation: ``reconstruct._text_fields`` must give numpy's ``str``
of the float32 without its trailing ".0", or ``reconstruct._fmt`` where
``str`` uses scientific notation. The default, binades -8:5, holds the
intensities and most coordinates of the benchmark workloads; the smallest
coordinates, near the principal point, reach 2**-11. Prints the number
of values checked and exits 1 at the first chunk with a mismatch, naming
the value. pytest does not collect this file.
"""

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from msfuse.reconstruct import _fmt, _text_fields  # noqa: E402

CHUNK = 1 << 18  # bit patterns per comparison, ~40 MiB of numpy text


def expected(values):
    """numpy's text of each float32, as the writer must give it."""
    return [_fmt(v) if "e" in text else text.removesuffix(".0")
            for v, text in zip(values.tolist(), values.astype(str).tolist())]


def check(values):
    """The first (value, formatter text, numpy text) that differ, or None."""
    fields = _text_fields(values)
    fields[:, 0] = ord("\n")  # the first byte of each field is free
    want = expected(values)
    if fields[fields != 0].tobytes() == "".join("\n" + t for t in want).encode():
        return None
    for value, row, text in zip(values.tolist(), fields, want):
        mine = bytes(row[row != 0]).decode()[1:]
        if mine != text:
            return value, mine, text
    raise AssertionError("texts differ in bulk but in no value")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binades", default="-8:5",
                        help="LO:HI, the binades 2**LO .. 2**HI (default -8:5)")
    parser.add_argument("--stride", type=int, default=1,
                        help="check every N-th bit pattern (default 1: all)")
    args = parser.parse_args()
    lo, hi = map(int, args.binades.split(":"))
    if not -126 <= lo <= hi <= 127 or args.stride < 1:
        parser.error("need -126 <= LO <= HI <= 127 and --stride >= 1")

    start = int(np.float32(2.0 ** lo).view(np.uint32))
    stop = int(np.float32(2.0 ** hi).view(np.uint32)) + (1 << 23)  # inf at most
    t0 = time.perf_counter()
    count = 0
    for first in range(start, stop, CHUNK * args.stride):
        bits = np.arange(first, min(first + CHUNK * args.stride, stop), args.stride,
                         dtype=np.uint32)
        values = bits.view(np.float32)
        for signed in (values, -values):
            bad = check(signed)
            if bad:
                print(f"mismatch at {bad[0]!r}: formatter {bad[1]!r}, numpy {bad[2]!r}")
                return 1
        count += 2 * len(values)
    print(f"{count} values of the binades 2**{lo} .. 2**{hi} (stride {args.stride}) "
          f"match numpy's float32 text; {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
