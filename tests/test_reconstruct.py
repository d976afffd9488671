import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msfuse import reconstruct
from msfuse.core import INVALID_DISPARITY
from msfuse.reconstruct import (
    CameraRig,
    PointCloud,
    _fmt,
    _shortest,
    _text_fields,
    export_ply,
    triangulate,
)

F32 = np.float32
# float32 values where numpy's str changes form: signed zeros, the
# subnormal range, and both sides of the 1e-4 and 1e16 notation switches
BOUNDARY_VALUES = [
    0.0, -0.0, 1e-45, -1e-45, 1.1754942e-38, 1.1754944e-38,
    np.nextafter(F32(1e-4), F32(0)), F32(1e-4), np.nextafter(F32(1e-4), F32(1)),
    np.nextafter(F32(1e16), F32(0)), F32(1e16), np.nextafter(F32(1e16), F32(1e17)),
    1.5e16, -1.5e16, 3.4028235e38, 1.0, -1.0, 0.1, 123456.0, 16777217.0,
]
# float32 bit patterns other than NaN and ±inf
FINITE_BITS = st.integers(0, 2**32 - 1).filter(lambda bits: bits >> 23 & 0xFF != 0xFF)


def field_texts(values):
    """The text of each value in the rows of _text_fields."""
    return [bytes(row[row != 0]).decode() for row in _text_fields(values)]


def power_boundaries():
    """Every power of two of float32, ±, with its two neighbours, and the
    float32 nearest each power of ten, with its two neighbours."""
    powers = np.arange(256, dtype=np.uint32) << 23
    tens = np.float32(10.0 ** np.arange(-45, 39)).view(np.uint32)
    bits = np.concatenate([powers, tens])[:, None] + np.array([-1, 0, 1])
    bits = bits.ravel().astype(np.uint32)
    values = bits[(bits >> 23 & 0xFF) != 0xFF].view(np.float32)
    return np.concatenate([values, -values])


def project_disparity(cloud, rig, shape):
    """Inverse of triangulate: disparity map from a point cloud (pixels
    without a point stay invalid). Used for round-trip checks."""
    d = np.full(shape, INVALID_DISPARITY)
    if len(cloud):
        xs, ys = cloud.pixels[:, 0], cloud.pixels[:, 1]
        d[ys, xs] = rig.focal_px * rig.baseline_m / cloud.points[:, 2]
    return d


def parse_ply(path):
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0] == "ply"
    assert lines[1] == "format ascii 1.0"
    n = None
    props = []
    for k, line in enumerate(lines[2:], 2):
        if line.startswith("element vertex"):
            n = int(line.split()[-1])
        elif line.startswith("property float"):
            props.append(line.split()[-1])
        elif line == "end_header":
            body = lines[k + 1 :]
            break
    assert n is not None
    rows = [list(map(float, row.split())) for row in body if row]
    assert len(rows) == n
    return props, np.array(rows).reshape(n, len(props))


class TestTriangulate:
    rig = CameraRig(focal_px=100.0, baseline_m=0.1, cx=4.0, cy=4.0)

    def test_principal_point_depth(self):
        d = np.full((9, 9), INVALID_DISPARITY)
        d[4, 4] = 10.0
        cloud = triangulate(d, self.rig)
        assert len(cloud) == 1
        np.testing.assert_allclose(cloud.points[0], [0.0, 0.0, 1.0])

    def test_lateral_offset(self):
        d = np.full((9, 60), INVALID_DISPARITY)
        d[4, 54] = 10.0
        rig = CameraRig(focal_px=100.0, baseline_m=0.1, cx=4.0, cy=4.0)
        cloud = triangulate(d, rig)
        np.testing.assert_allclose(cloud.points[0], [0.5, 0.0, 1.0])

    def test_plane_roundtrip(self):
        # fronto-parallel plane at Z = 2 m seen through the rig
        rig = CameraRig(focal_px=525.0, baseline_m=0.1, cx=31.5, cy=23.5)
        d = np.full((48, 64), rig.focal_px * rig.baseline_m / 2.0)
        cloud = triangulate(d, rig)
        assert len(cloud) == 48 * 64
        np.testing.assert_allclose(cloud.points[:, 2], 2.0, rtol=1e-9)
        xs, ys = cloud.pixels[:, 0], cloud.pixels[:, 1]
        np.testing.assert_allclose(
            cloud.points[:, 0], (xs - rig.cx) * 2.0 / rig.focal_px, rtol=1e-9, atol=1e-15
        )
        np.testing.assert_allclose(
            cloud.points[:, 1], (ys - rig.cy) * 2.0 / rig.focal_px, rtol=1e-9, atol=1e-15
        )

    def test_project_roundtrip(self):
        rng = np.random.default_rng(70)
        d = rng.uniform(1.0, 20.0, (12, 12))
        d[rng.random((12, 12)) < 0.2] = INVALID_DISPARITY
        rig = CameraRig(focal_px=300.0, baseline_m=0.05, cx=5.5, cy=5.5)
        back = project_disparity(triangulate(d, rig), rig, d.shape)
        valid = d != INVALID_DISPARITY
        np.testing.assert_allclose(back[valid], d[valid], rtol=1e-9)
        assert (back[~valid] == INVALID_DISPARITY).all()

    def test_halving_disparity_doubles_depth(self):
        rng = np.random.default_rng(71)
        d = rng.uniform(2.0, 10.0, (6, 6))
        z1 = triangulate(d, self.rig).points[:, 2]
        z2 = triangulate(d / 2.0, self.rig).points[:, 2]
        np.testing.assert_array_equal(z2, 2.0 * z1)

    def test_baseline_scale_equivariance(self):
        rng = np.random.default_rng(72)
        d = rng.uniform(1.0, 10.0, (6, 6))
        rig2 = CameraRig(focal_px=100.0, baseline_m=0.2, cx=4.0, cy=4.0)
        p1 = triangulate(d, self.rig).points
        p2 = triangulate(d, rig2).points
        np.testing.assert_allclose(p2, 2.0 * p1, rtol=1e-15)

    def test_near_zero_and_invalid_skipped(self):
        d = np.array([[INVALID_DISPARITY, 0.0, 1e-9, 5.0]])
        assert len(triangulate(d, self.rig)) == 1

    def test_fully_invalid_empty(self):
        d = np.full((3, 3), INVALID_DISPARITY)
        assert len(triangulate(d, self.rig)) == 0

    def test_rejects_bad_rig(self):
        with pytest.raises(ValueError):
            CameraRig(focal_px=0.0, baseline_m=0.1, cx=0, cy=0)
        with pytest.raises(ValueError):
            CameraRig(focal_px=10.0, baseline_m=-1.0, cx=0, cy=0)


def reference_ply(cloud):
    """The PLY text written one point at a time with ``_fmt``."""
    names = ["x", "y", "z"] + (["intensity"] if cloud.intensity is not None else [])
    lines = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    lines += [f"property float {name}" for name in names] + ["end_header"]
    for n in range(len(cloud)):
        values = list(cloud.points[n])
        if cloud.intensity is not None:
            values.append(cloud.intensity[n])
        lines.append(" ".join(_fmt(v) for v in values))
    return "".join(line + "\n" for line in lines)


class TestExportPly:
    @given(arrays(F32, st.integers(0, 40),
                  elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    def test_column_format_matches_scalar(self, values):
        assert field_texts(values) == [_fmt(v) for v in values]

    @given(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=6),
           st.lists(st.integers(0, 7), max_size=40))
    def test_column_format_with_repeats_and_signed_zeros(self, pool, picks):
        # repeats get the same text, and -0.0 keeps its sign apart from 0.0
        pool = np.array(pool + [0.0, -0.0], dtype=F32)
        values = pool[np.array(picks, dtype=np.intp) % len(pool)]
        assert field_texts(values) == [_fmt(v) for v in values]

    def test_column_format_boundaries(self):
        values = np.array(BOUNDARY_VALUES, dtype=F32)
        assert field_texts(values) == [_fmt(v) for v in values]
        assert field_texts(values)[:3] == ["0", "-0", "0." + "0" * 44 + "1"]

    @given(st.lists(FINITE_BITS, max_size=64))
    def test_fields_match_fmt_on_any_bit_pattern(self, patterns):
        values = np.array(patterns, dtype=np.uint32).view(F32)
        assert field_texts(values) == [_fmt(v) for v in values]

    def test_fields_match_fmt_at_powers_of_two_and_ten(self):
        # binade and decade edges, the window's edges 2**-13 and 2**30,
        # subnormals and the largest finite values among them
        values = power_boundaries()
        assert field_texts(values) == [_fmt(v) for v in values]

    def test_shortest_digits_of_powers_of_ten(self):
        # one digit each, also at the top of a binade that starts a decade
        # lower (0.1 is in [2**-4, 2**-3)); the text alone would not show
        # a fraction digit too many there, as trailing zeros are dropped
        exponents = np.arange(-3, 9)
        digits, k9, places = _shortest(F32(10.0 ** exponents).view(np.uint32))
        assert places.tolist() == np.maximum(-exponents, 0).tolist()
        assert (digits == 10 ** (exponents - k9)).all()

    def test_matches_pointwise_writer(self, tmp_path):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-5, 5, (200, 3)) * 10.0 ** rng.integers(-8, 18, (200, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 1e-30
        pts[: len(BOUNDARY_VALUES), 0] = BOUNDARY_VALUES
        cloud = PointCloud(points=pts, pixels=np.zeros((200, 2), dtype=int),
                           intensity=rng.random(200))
        path = tmp_path / "c.ply"
        export_ply(cloud, path)
        assert path.read_text() == reference_ply(cloud)

    def test_blocks_join_into_the_pointwise_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(reconstruct, "PLY_BLOCK_ROWS", 7)
        rng = np.random.default_rng(12)
        pts = rng.uniform(-5, 5, (23, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.5
        for intensity in (None, rng.random(23)):
            cloud = PointCloud(points=pts, pixels=np.zeros((23, 2), dtype=int),
                               intensity=intensity)
            path = tmp_path / "c.ply"
            export_ply(cloud, path)
            assert path.read_text() == reference_ply(cloud)

    def test_export_memory_is_set_by_the_block(self, tmp_path):
        # a 640x480 cloud: its text takes 12 MiB, its points 7 MiB, and the
        # writer holds one block of PLY_BLOCK_ROWS points (~1.7 MiB) at a time
        n = 640 * 480
        rng = np.random.default_rng(13)
        pts = rng.uniform(-5, 5, (n, 3))
        pts[:, 2] = np.abs(pts[:, 2]) + 0.5
        cloud = PointCloud(points=pts, pixels=np.zeros((n, 2), dtype=int),
                           intensity=rng.random(n))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            export_ply(cloud, tmp_path / "c.ply")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1024 * reconstruct.PLY_BLOCK_ROWS

    def test_empty_cloud(self, tmp_path):
        cloud = PointCloud(
            points=np.empty((0, 3)), pixels=np.empty((0, 2), dtype=int)
        )
        path = tmp_path / "c.ply"
        export_ply(cloud, path)
        props, rows = parse_ply(path)
        assert props == ["x", "y", "z"]
        assert rows.shape == (0, 3)

    def test_single_point_line(self, tmp_path):
        cloud = PointCloud(points=np.array([[0.0, 0.0, 1.0]]), pixels=np.array([[0, 0]]))
        path = tmp_path / "c.ply"
        export_ply(cloud, path)
        assert path.read_text().splitlines()[-1] == "0 0 1"

    def test_roundtrip_1000_points(self, tmp_path):
        rng = np.random.default_rng(73)
        pts = rng.uniform(-5, 5, (1000, 3))
        pts[:, 2] = rng.uniform(0.1, 10.0, 1000)
        cloud = PointCloud(points=pts, pixels=np.zeros((1000, 2), dtype=int))
        path = tmp_path / "c.ply"
        export_ply(cloud, path)
        _, rows = parse_ply(path)
        # shortest-repr strings recover the exact float32 coordinates
        np.testing.assert_array_equal(rows.astype(np.float32), pts.astype(np.float32))

    def test_intensity_property(self, tmp_path):
        cloud = PointCloud(
            points=np.array([[1.0, 2.0, 3.0]]),
            pixels=np.array([[0, 0]]),
            intensity=np.array([0.25]),
        )
        path = tmp_path / "c.ply"
        export_ply(cloud, path)
        props, rows = parse_ply(path)
        assert props == ["x", "y", "z", "intensity"]
        np.testing.assert_array_equal(rows[0], [1, 2, 3, 0.25])

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.array([[0.0, 0.0, -1.0]]), pixels=np.array([[0, 0]]))
