"""Flat `key = value` pipeline configuration.

Every stage tunable takes its name, type and default from the stage's
parameter dataclass; unknown keys, non-finite floats and values a stage
rejects are fatal when the config is built, before any work. The
canonical text form lists every key in a fixed order, so
parse -> print -> parse is a fixed point.
"""

import math
from dataclasses import fields

from .aggregate import GuidedFilterParams
from .cost import CostParams
from .disparity import DisparityParams
from .fusion import FusionParams
from .reconstruct import CameraRig
from .wls import WlsParams


class ConfigError(ValueError):
    """Unknown key, bad syntax, an untypeable or non-finite value, or one a
    stage rejects."""


def _parse_bool(text):
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


# config-key prefix -> parameter dataclass; the dataclass defaults are the
# config defaults, and its field order is the canonical key order
_PARAMS = {
    "wls": WlsParams,
    "cost": CostParams,
    "gf": GuidedFilterParams,
    "fusion": FusionParams,
    "disp": DisparityParams,
}

# key -> (type, default); rig.cx / rig.cy < 0 mean "image center"
_SCHEMA = {
    f"{prefix}.{f.name}": (type(f.default), f.default)
    for prefix, cls in _PARAMS.items()
    for f in fields(cls)
}
_SCHEMA.update({
    "rig.focal_px": (float, 525.0),
    "rig.baseline_m": (float, 0.1),
    "rig.cx": (float, -1.0),
    "rig.cy": (float, -1.0),
})


class PipelineConfig:
    """All pipeline tunables, keyed by flat names (e.g. 'wls.eta')."""

    def __init__(self, overrides=None):
        self.values = {key: default for key, (_, default) in _SCHEMA.items()}
        for key, value in (overrides or {}).items():
            if key not in _SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            typ, _ = _SCHEMA[key]
            try:
                if isinstance(value, str) and typ is bool:
                    value = _parse_bool(value)
                value = typ(value)  # int(inf) raises OverflowError
            except (ValueError, TypeError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r}") from exc
            if typ is float and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            self.values[key] = value
        self._bundles = {}
        for prefix, cls in _PARAMS.items():
            kwargs = {f.name: self[f"{prefix}.{f.name}"] for f in fields(cls)}
            try:
                self._bundles[prefix] = cls(**kwargs)
            except ValueError as exc:
                raise ConfigError(f"{prefix}.*: {exc}") from exc

    def __getitem__(self, key):
        return self.values[key]

    def __eq__(self, other):
        return isinstance(other, PipelineConfig) and self.values == other.values

    @classmethod
    def parse(cls, text):
        """Parse `key = value` lines; '#' starts a comment."""
        overrides = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            overrides[key] = value
        return cls(overrides)

    @classmethod
    def load(cls, path):
        with open(path) as f:
            return cls.parse(f.read())

    def canonical(self):
        """Canonical text form: every key, schema order, round-trippable."""
        lines = []
        for key, (typ, _) in _SCHEMA.items():
            value = self.values[key]
            if typ is bool:
                text = "true" if value else "false"
            else:
                text = repr(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    # typed parameter bundles for the pipeline modules

    def wls_params(self):
        return self._bundles["wls"]

    def cost_params(self):
        return self._bundles["cost"]

    def guided_filter_params(self):
        return self._bundles["gf"]

    def fusion_params(self):
        return self._bundles["fusion"]

    def disparity_params(self):
        return self._bundles["disp"]

    def camera_rig(self, image_shape):
        """CameraRig for a given image; negative cx/cy mean image center."""
        height, width = image_shape
        cx = self["rig.cx"] if self["rig.cx"] >= 0 else (width - 1) / 2.0
        cy = self["rig.cy"] if self["rig.cy"] >= 0 else (height - 1) / 2.0
        if cx > 10 * width or cy > 10 * height:
            raise ConfigError("principal point implausibly far outside the image")
        return CameraRig(
            focal_px=self["rig.focal_px"],
            baseline_m=self["rig.baseline_m"],
            cx=cx,
            cy=cy,
        )
