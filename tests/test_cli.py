import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msfuse.cli import main
from msfuse.core import load_image, save_image
from msfuse.synth import random_dot_pair
from msfuse.wls import WlsParams, decompose


def run(args):
    return main([str(a) for a in args])


def stalled_solve_inputs(tmp_path):
    """A 32x24 generated pair's left image path and a config whose WLS
    solves stop after one CG iteration, far above their tolerance."""
    assert run(["gen-synthetic", 32, 24, 3, "--out-prefix", f"{tmp_path}/"]) == 0
    cfg = tmp_path / "stall.cfg"
    cfg.write_text("wls.max_iter = 1\n")
    return tmp_path / "left.pgm", cfg


class TestGenSynthetic:
    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            assert run(
                ["gen-synthetic", 32, 16, 4, "--seed", 42, "--out-prefix", f"{tmp_path}/{sub}/"]
            ) == 0
        for name in ("left.pgm", "right.pgm", "gt.pfm"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_zero_disparity_identical(self, tmp_path):
        assert run(["gen-synthetic", 16, 8, 0, "--out-prefix", f"{tmp_path}/"]) == 0
        assert np.array_equal(
            load_image(tmp_path / "left.pgm"), load_image(tmp_path / "right.pgm")
        )

    def test_invalid_geometry_exit_1(self, tmp_path):
        assert run(["gen-synthetic", 16, 8, 8, "--out-prefix", f"{tmp_path}/"]) == 1

    def test_shift_content(self, tmp_path):
        assert run(["gen-synthetic", 24, 8, 3, "--out-prefix", f"{tmp_path}/"]) == 0
        left = load_image(tmp_path / "left.pgm")
        right = load_image(tmp_path / "right.pgm")
        np.testing.assert_array_equal(right[:, :-3], left[:, 3:])
        np.testing.assert_array_equal(load_image(tmp_path / "gt.pfm"), 3.0)


class TestDecompose:
    def test_constant_input(self, tmp_path):
        img_path = tmp_path / "in.pfm"
        save_image(np.full((8, 8), 0.5), img_path, format="pfm")
        assert run(["decompose", img_path, "--out-prefix", tmp_path / "out_"]) == 0
        for s in range(4):
            np.testing.assert_allclose(
                load_image(tmp_path / f"out_base_{s}.pfm"), 0.5, atol=1e-7
            )
        for s in range(3):
            np.testing.assert_allclose(
                load_image(tmp_path / f"out_detail_{s}.pfm"), 0.0, atol=1e-7
            )

    def test_eta_zero_identity(self, tmp_path):
        rng = np.random.default_rng(90)
        img = rng.random((8, 8)).astype(np.float32).astype(np.float64)
        img_path = tmp_path / "in.pfm"
        save_image(img, img_path, format="pfm")
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("wls.eta = 0\n")
        assert run(
            ["decompose", img_path, "--config", cfg, "--out-prefix", tmp_path / "o_"]
        ) == 0
        for s in range(4):
            np.testing.assert_array_equal(load_image(tmp_path / f"o_base_{s}.pfm"), img)

    def test_bases_match_module(self, tmp_path):
        rng = np.random.default_rng(91)
        img = rng.random((12, 12)).astype(np.float32).astype(np.float64)
        img_path = tmp_path / "in.pfm"
        save_image(img, img_path, format="pfm")
        assert run(["decompose", img_path, "--out-prefix", tmp_path / "o_"]) == 0
        layers = decompose(img, WlsParams())
        for s in range(4):
            got = load_image(tmp_path / f"o_base_{s}.pfm")
            assert np.abs(got - layers[s]).max() <= 1e-5

    def test_missing_input_exit_2(self, tmp_path):
        assert run(["decompose", tmp_path / "nope.pfm"]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            b"P5\nabc\n",
            b"Pf\n2 1\n-1.0\n" + np.array([0.5, np.nan], dtype="<f4").tobytes(),
            b"Pf\n2 1\nnan\n" + np.array([0.5, 0.25], dtype=">f4").tobytes(),
        ],
        ids=["pgm-non-numeric-header", "pfm-nan-sample", "pfm-nan-scale"],
    )
    def test_bad_image_exit_2_names_file(self, tmp_path, capsys, content):
        path = tmp_path / "bad.img"
        path.write_bytes(content)
        assert run(["decompose", path, "--out-prefix", tmp_path / "o_"]) == 2
        assert f"bad image {path}:" in capsys.readouterr().err
        assert not list(tmp_path.glob("o_*"))

    def test_stalled_solve_exit_3_no_outputs(self, tmp_path, capsys):
        left, cfg = stalled_solve_inputs(tmp_path)
        assert run(
            ["decompose", left, "--config", cfg, "--out-prefix", tmp_path / "o_"]
        ) == 3
        assert "WLS solver stalled" in capsys.readouterr().err
        assert not list(tmp_path.glob("o_*"))


class TestEvalMask:
    def _write_mask(self, path, arr):
        save_image(np.asarray(arr, dtype=np.float64), path, format="pfm")

    def test_identical_masks(self, tmp_path, capsys):
        mask = np.zeros((4, 4))
        mask[:2] = 1.0
        self._write_mask(tmp_path / "m.pfm", mask)
        assert run(["eval-mask", tmp_path / "m.pfm", tmp_path / "m.pfm"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["acc=1.0000", "sen=1.0000"]

    def test_fixture_values(self, tmp_path, capsys):
        # tp=2 tn=2 fp=1 fn=0 on a 5-pixel row
        pred = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        truth = np.array([[1.0, 1.0, 0.0, 0.0, 0.0]])
        self._write_mask(tmp_path / "p.pfm", pred)
        self._write_mask(tmp_path / "t.pfm", truth)
        assert run(["eval-mask", tmp_path / "p.pfm", tmp_path / "t.pfm"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["acc=0.8000", "sen=1.0000"]

    def test_auc_fixture(self, tmp_path, capsys):
        scores = np.array([[0.9, 0.4, 0.8]])
        truth = np.array([[1.0, 1.0, 0.0]])
        pred = truth
        self._write_mask(tmp_path / "p.pfm", pred)
        self._write_mask(tmp_path / "t.pfm", truth)
        self._write_mask(tmp_path / "s.pfm", scores)
        assert run(
            ["eval-mask", tmp_path / "p.pfm", tmp_path / "t.pfm", "--scores", tmp_path / "s.pfm"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "auc=0.5000"

    def test_size_mismatch_exit_1(self, tmp_path, capsys):
        self._write_mask(tmp_path / "p.pfm", np.zeros((2, 2)))
        self._write_mask(tmp_path / "t.pfm", np.zeros((2, 3)))
        assert run(["eval-mask", tmp_path / "p.pfm", tmp_path / "t.pfm"]) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'p.pfm'} is (2, 2)" in err
        assert f"{tmp_path / 't.pfm'} is (2, 3)" in err

    def test_scores_size_mismatch_exit_1(self, tmp_path, capsys):
        self._write_mask(tmp_path / "p.pfm", np.zeros((2, 3)))
        self._write_mask(tmp_path / "t.pfm", np.eye(2, 3))
        self._write_mask(tmp_path / "s.pfm", np.zeros((3, 2)))
        assert run(
            ["eval-mask", tmp_path / "p.pfm", tmp_path / "t.pfm", "--scores", tmp_path / "s.pfm"]
        ) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 's.pfm'} is (3, 2)" in err
        assert f"{tmp_path / 't.pfm'} is (2, 3)" in err

    def test_no_positives_exit_3(self, tmp_path, capsys):
        self._write_mask(tmp_path / "p.pfm", np.ones((3, 3)))
        self._write_mask(tmp_path / "t.pfm", np.zeros((3, 3)))
        assert run(["eval-mask", tmp_path / "p.pfm", tmp_path / "t.pfm"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "sensitivity undefined without positives" in err

    def test_single_class_with_scores_exit_3(self, tmp_path):
        self._write_mask(tmp_path / "p.pfm", np.ones((3, 3)))
        self._write_mask(tmp_path / "t.pfm", np.ones((3, 3)))
        self._write_mask(tmp_path / "s.pfm", np.ones((3, 3)) * 0.5)
        assert run(
            ["eval-mask", tmp_path / "p.pfm", tmp_path / "t.pfm", "--scores", tmp_path / "s.pfm"]
        ) == 3


class TestReconstruct:
    def _gen_pair(self, tmp_path, width=48, height=32, disp=3, seed=5):
        left, right, _ = random_dot_pair(width, height, disp, seed)
        save_image(left, tmp_path / "l.pfm", format="pfm")
        save_image(right, tmp_path / "r.pfm", format="pfm")
        return tmp_path / "l.pfm", tmp_path / "r.pfm"

    def _fast_config(self, tmp_path, extra=""):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("cost.d_max = 8\ngf.radius = 2\n" + extra)
        return cfg

    def test_zero_disparity_self_match(self, tmp_path):
        left, _ = self._gen_pair(tmp_path, disp=0)
        cfg = self._fast_config(tmp_path, "disp.subpixel = false\n")
        out_d = tmp_path / "d.pfm"
        assert run(
            ["reconstruct", left, left, "--config", cfg,
             "--out-disparity", out_d, "--out-cloud", tmp_path / "c.ply"]
        ) == 0
        d = load_image(out_d)
        assert (d[8:-8, 16:-16] == 0.0).all()

    def test_recovers_generated_disparity(self, tmp_path):
        left, right = self._gen_pair(tmp_path, width=64, height=48, disp=3)
        cfg = self._fast_config(tmp_path)
        out_d = tmp_path / "d.pfm"
        assert run(
            ["reconstruct", left, right, "--config", cfg,
             "--out-disparity", out_d, "--out-cloud", tmp_path / "c.ply"]
        ) == 0
        d = load_image(out_d)
        inner = d[8:-8, 8:-8]
        assert np.mean(np.abs(inner - 3.0) <= 1.0) >= 0.95

    def test_dump_dir_contents(self, tmp_path):
        left, right = self._gen_pair(tmp_path)
        cfg = self._fast_config(tmp_path)
        dump = tmp_path / "dump"
        assert run(
            ["reconstruct", left, right, "--config", cfg,
             "--out-disparity", tmp_path / "d.pfm",
             "--out-cloud", tmp_path / "c.ply", "--dump-dir", dump]
        ) == 0
        for s in range(4):
            assert (dump / f"base_left_{s}.pfm").exists()
            assert (dump / f"base_right_{s}.pfm").exists()
            assert (dump / f"agg_min_{s}.pfm").exists()
        valid = load_image(dump / "valid.pfm")
        assert set(np.unique(valid)) <= {0.0, 1.0}

    def test_missing_config_exit_2_no_outputs(self, tmp_path):
        left, right = self._gen_pair(tmp_path)
        out_d = tmp_path / "d.pfm"
        assert run(
            ["reconstruct", left, right, "--config", tmp_path / "nope.cfg",
             "--out-disparity", out_d, "--out-cloud", tmp_path / "c.ply"]
        ) == 2
        assert not out_d.exists()
        assert not (tmp_path / "c.ply").exists()

    def test_bad_dump_dir_exit_2_before_work(self, tmp_path, monkeypatch, capsys):
        # a dump directory that cannot be made fails before the pipeline
        # runs, not after the disparity and the cloud are written
        left, right = self._gen_pair(tmp_path)

        def pipeline_run(*args, **kwargs):
            raise AssertionError("pipeline.run ran with an unusable dump dir")

        monkeypatch.setattr("msfuse.pipeline.run", pipeline_run)
        out_d, out_c = tmp_path / "d.pfm", tmp_path / "c.ply"
        assert run(
            ["reconstruct", left, right, "--out-disparity", out_d,
             "--out-cloud", out_c, "--dump-dir", left]
        ) == 2
        assert f"cannot create {left}: " in capsys.readouterr().err
        assert not out_d.exists()
        assert not out_c.exists()

    @pytest.mark.parametrize(
        "text", ["cost.d_min = 5\ncost.d_max = 2\n", "cost.census_radius = 4\n",
                 "wls.max_iter = 0\n",
                 # unfiltered base layers, 10000 CG iterations per solve, and
                 # a fault after the decompositions, were they accepted
                 "wls.solver_tol = inf\n", "wls.solver_tol = nan\n",
                 "fusion.zeta = nan\n"]
    )
    def test_bad_stage_params_exit_1_before_work(
        self, tmp_path, monkeypatch, capsys, text
    ):
        left, right = self._gen_pair(tmp_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)

        def decompose(*args):
            raise AssertionError("decompose ran on a bad config")

        monkeypatch.setattr("msfuse.wls.decompose", decompose)
        assert run(
            ["reconstruct", left, right, "--config", cfg,
             "--out-disparity", tmp_path / "d.pfm", "--out-cloud", tmp_path / "c.ply"]
        ) == 1
        assert f"bad config {cfg}: " in capsys.readouterr().err

    def test_stalled_solve_exit_3_no_outputs(self, tmp_path, capsys):
        left, cfg = stalled_solve_inputs(tmp_path)
        out_d, out_c = tmp_path / "d.pfm", tmp_path / "c.ply"
        assert run(
            ["reconstruct", left, tmp_path / "right.pgm", "--config", cfg,
             "--out-disparity", out_d, "--out-cloud", out_c]
        ) == 3
        assert "WLS solver stalled" in capsys.readouterr().err
        assert not out_d.exists()
        assert not out_c.exists()

    def test_size_mismatch_exit_1(self, tmp_path, capsys):
        save_image(np.zeros((4, 4)), tmp_path / "a.pfm", format="pfm")
        save_image(np.zeros((4, 5)), tmp_path / "b.pfm", format="pfm")
        assert run(
            ["reconstruct", tmp_path / "a.pfm", tmp_path / "b.pfm",
             "--out-disparity", tmp_path / "d.pfm", "--out-cloud", tmp_path / "c.ply"]
        ) == 1
        err = capsys.readouterr().err
        assert f"{tmp_path / 'a.pfm'} is (4, 4)" in err
        assert f"{tmp_path / 'b.pfm'} is (4, 5)" in err

    def test_thread_determinism(self, tmp_path, monkeypatch):
        left, right = self._gen_pair(tmp_path)
        cfg = self._fast_config(tmp_path)
        outputs = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("MSFUSE_THREADS", threads)
            sub = tmp_path / f"t{threads}"
            sub.mkdir()
            assert run(
                ["reconstruct", left, right, "--config", cfg,
                 "--out-disparity", sub / "d.pfm", "--out-cloud", sub / "c.ply"]
            ) == 0
            outputs[threads] = (
                (sub / "d.pfm").read_bytes(),
                (sub / "c.ply").read_bytes(),
            )
        assert outputs["1"] == outputs["8"]

    @pytest.mark.parametrize("flag", ["--out-disparity", "--out-cloud"])
    def test_unwritable_output_exit_2_no_tmp(self, tmp_path, capsys, flag):
        left, right = self._gen_pair(tmp_path)
        cfg = self._fast_config(tmp_path)
        outputs = {"--out-disparity": tmp_path / "d.pfm", "--out-cloud": tmp_path / "c.ply"}
        outputs[flag] = tmp_path / "missing" / outputs[flag].name
        argv = ["reconstruct", left, right, "--config", cfg]
        for name, path in outputs.items():
            argv += [name, path]
        assert run(argv) == 2
        assert str(outputs[flag]) in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))


class TestUsage:
    def test_no_command_exit_1(self):
        assert run([]) == 1

    def test_unknown_command_exit_1(self):
        assert run(["frobnicate"]) == 1

    def test_import_leaves_out_scipy_stats(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", "import sys, msfuse.cli; print('scipy.stats' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "False"
