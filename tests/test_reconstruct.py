import numpy as np
import pytest

from msfuse.core import INVALID_DISPARITY
from msfuse.reconstruct import (
    CameraRig,
    PointCloud,
    export_ply,
    triangulate,
)


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


class TestExportPly:
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
