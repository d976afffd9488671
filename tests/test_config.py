import re
from pathlib import Path

import pytest

from msfuse.config import ConfigError, PipelineConfig

FLOAT_KEYS = [key for key, value in PipelineConfig().values.items()
              if type(value) is float]


class TestParsing:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg["wls.eta"] == 1.0
        assert cfg["cost.d_max"] == 16
        assert cfg["fusion.zeta"] == 0.3
        assert cfg["disp.subpixel"] is True

    def test_overrides_and_comments(self):
        cfg = PipelineConfig.parse(
            "# pipeline tuning\n"
            "wls.eta = 2.5\n"
            "cost.d_max = 32  # wider search\n"
            "\n"
            "disp.subpixel = false\n"
        )
        assert cfg["wls.eta"] == 2.5
        assert cfg["cost.d_max"] == 32
        assert cfg["disp.subpixel"] is False

    def test_unknown_key_fatal(self):
        with pytest.raises(ConfigError):
            PipelineConfig.parse("wls.etta = 1.0\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            PipelineConfig.parse("wls.eta = fast\n")
        # a non-finite float for an int key, given as a number, not text
        for value in (float("inf"), float("nan")):
            with pytest.raises(ConfigError, match="cost.d_max"):
                PipelineConfig({"cost.d_max": value})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_fatal(self, key, text):
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig.parse(f"{key} = {text}\n")
        with pytest.raises(ConfigError, match="finite"):
            PipelineConfig({key: float(text)})

    def test_bad_syntax(self):
        with pytest.raises(ConfigError):
            PipelineConfig.parse("just some words\n")

    def test_canonical_roundtrip_fixed_point(self):
        cfg = PipelineConfig.parse("wls.eta = 0.125\ncost.census_radius = 3\n")
        text = cfg.canonical()
        again = PipelineConfig.parse(text)
        assert again == cfg
        assert again.canonical() == text

    def test_every_key_in_canonical(self):
        text = PipelineConfig().canonical()
        assert "rig.focal_px" in text
        assert "gf.xi" in text
        assert text.count("=") == len(PipelineConfig().values)

    def test_readme_block_is_canonical(self):
        # the keys come from the parameter dataclasses: renaming or
        # reordering a field changes the file format and must show here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```\n(wls\..*?)```", readme, re.DOTALL).group(1)
        lines = [line.split("#", 1)[0].rstrip() for line in block.splitlines()]
        assert lines == PipelineConfig().canonical().splitlines()


class TestBundles:
    def test_param_objects(self):
        cfg = PipelineConfig.parse("wls.eta = 0.5\ngf.radius = 3\nfusion.zeta = 0.7\n")
        assert cfg.wls_params().eta == 0.5
        assert cfg.guided_filter_params().radius == 3
        assert cfg.fusion_params().zeta == 0.7
        assert cfg.cost_params().d_max == 16
        assert cfg.disparity_params().lr_threshold == 1.0

    def test_rig_auto_center(self):
        rig = PipelineConfig().camera_rig((48, 64))
        assert rig.cx == pytest.approx(31.5)
        assert rig.cy == pytest.approx(23.5)

    def test_rig_explicit_center(self):
        cfg = PipelineConfig.parse("rig.cx = 10\nrig.cy = 20\n")
        rig = cfg.camera_rig((48, 64))
        assert (rig.cx, rig.cy) == (10.0, 20.0)

    def test_rig_insane_center_rejected(self):
        cfg = PipelineConfig.parse("rig.cx = 100000\n")
        with pytest.raises(ConfigError):
            cfg.camera_rig((48, 64))
