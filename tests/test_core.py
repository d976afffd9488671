import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msfuse.core import (CostVolume, FormatError, gradient, load_image, save_image,
                         validate_image)


def small_images(max_side=8):
    shapes = st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    )
    return shapes.flatmap(
        lambda s: arrays(
            np.float64,
            s,
            elements=st.floats(-10, 10, allow_nan=False, width=32),
        )
    )


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            validate_image(np.array([[0.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            validate_image(np.array([[np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_image(np.zeros((0, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            validate_image(np.zeros(5))


class TestPgm:
    def test_load_8bit_scaling(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(path)
        assert img.shape == (2, 2)
        np.testing.assert_array_equal(
            img, np.array([[0.0, 1.0], [128 / 255, 64 / 255]])
        )

    def test_save_8bit_bytes(self, tmp_path):
        path = tmp_path / "t.pgm"
        save_image(np.array([[0.0, 1.0]]), path, format="pgm8")
        assert path.read_bytes().endswith(bytes([0, 255]))

    def test_save_clamps(self, tmp_path):
        path = tmp_path / "t.pgm"
        save_image(np.array([[1.5, -0.3]]), path, format="pgm8")
        assert path.read_bytes().endswith(bytes([255, 0]))

    def test_16bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.random((5, 7))
        path = tmp_path / "t.pgm"
        save_image(img, path, format="pgm16")
        back = load_image(path)
        assert np.abs(back - img).max() <= 0.5 / 65535 + 1e-12

    def test_header_comment(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x7f")
        assert load_image(path)[0, 0] == 127 / 255

    def test_truncated_is_format_error(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(FormatError):
            load_image(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(FormatError):
            load_image(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.pgm")


class TestPfm:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.standard_normal((8, 8)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.pfm"
        save_image(img, path, format="pfm")
        np.testing.assert_array_equal(load_image(path), img)

    @settings(max_examples=30, deadline=None)
    @given(img=small_images())
    def test_roundtrip_property(self, img, tmp_path_factory):
        # values representable in float32, so the round trip is exact
        path = tmp_path_factory.mktemp("pfm") / "t.pfm"
        save_image(img, path, format="pfm")
        np.testing.assert_array_equal(load_image(path), img)

    def test_row_order_bottom_to_top(self, tmp_path):
        # bottom row is stored first
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "t.pfm"
        save_image(img, path, format="pfm")
        raw = path.read_bytes()
        first = np.frombuffer(raw[-16:], dtype="<f4")
        np.testing.assert_array_equal(first, [3, 4, 1, 2])

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n4 4\n-1.0\n\x00\x00")
        with pytest.raises(FormatError):
            load_image(path)


@pytest.mark.parametrize("header", [b"P5\n8192 8192\n255\n",
                                    b"Pf\n8192 8192\n-1.0\n"], ids=["pgm", "pfm"])
def test_forged_header_fails_before_the_read(tmp_path, header):
    # a 20-byte file whose header claims 64 MiB (PGM) or 256 MiB (PFM): the
    # claim is checked against the file's length, not allocated by the read
    path = tmp_path / "forged"
    path.write_bytes(header.ljust(20, b"\x00"))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated"):
            load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_loads_from_a_pipe(tmp_path):
    # a pipe has no length to check a header against: its payload is read
    fifo = tmp_path / "t.pgm"
    os.mkfifo(fifo)
    with ThreadPoolExecutor(1) as pool:
        writing = pool.submit(fifo.write_bytes, b"P5\n2 1\n255\n\x00\xff")
        img = load_image(fifo)
        writing.result(timeout=10)
    np.testing.assert_array_equal(img, [[0.0, 1.0]])


class TestGradient:
    def test_constant_is_zero(self):
        img = np.full((5, 6), 3.7)
        assert not gradient(img, "x").any()
        assert not gradient(img, "y").any()

    def test_x_ramp(self):
        width = 8
        img = np.tile(np.arange(width) / width, (4, 1))
        g = gradient(img, "x")
        np.testing.assert_allclose(g[:, :-1], 1 / width)
        assert not g[:, -1].any()

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.random((4, 4))
        gx = gradient(img, "x")
        gy = gradient(img, "y")
        for y in range(4):
            for x in range(4):
                ex = img[y, x + 1] - img[y, x] if x < 3 else 0.0
                ey = img[y + 1, x] - img[y, x] if y < 3 else 0.0
                assert gx[y, x] == ex
                assert gy[y, x] == ey

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a, b = rng.random((2, 6, 6))
        for axis in ("x", "y"):
            np.testing.assert_allclose(
                gradient(2.5 * a - 0.5 * b, axis),
                2.5 * gradient(a, axis) - 0.5 * gradient(b, axis),
                atol=1e-14,
            )

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            gradient(np.zeros((2, 2)), "z")


class TestCostVolume:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "non-finite"), (np.inf, "non-finite"), (-np.inf, "non-finite"),
        (-5e-324, "negative"),
    ])
    def test_rejects(self, bad, message):
        data = np.full((2, 3, 4), 0.5)
        data[1, 2, 3] = bad
        with pytest.raises(ValueError, match=message):
            CostVolume(d_min=0, d_max=1, data=data)

    def test_non_finite_reported_before_negative(self):
        data = np.full((2, 3, 4), 0.5)
        data[0, 0, 0], data[1, 1, 1] = -1.0, np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CostVolume(d_min=0, d_max=1, data=data)

    def test_accepts_zeros_and_empty_images(self):
        CostVolume(d_min=0, d_max=1, data=np.zeros((2, 3, 4)))
        CostVolume(d_min=0, d_max=1, data=np.zeros((2, 0, 4)))

    def test_check_holds_no_volume_sized_temporary(self):
        # a strided view, as the pipeline checks a block inside the filter's
        # padded buffer
        data = np.full((16, 136, 136), 0.5)[:, 4:-4, 4:-4]
        tracemalloc.start()
        try:
            CostVolume(d_min=0, d_max=15, data=data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a boolean mask of the volume would be data.size bytes
        assert peak < data.size // 2
