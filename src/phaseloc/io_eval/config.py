"""Scenario configuration files.

Flat, commented key=value text with dotted sections, e.g.::

    # geometry mirrors a 1.4 m standoff rack setup
    seed = 7
    carrier.frequency_hz = 866.9e6

    trajectory.x = 1.4
    trajectory.z = 0.0
    trajectory.y_start = -0.5
    trajectory.y_stop = 0.5
    trajectory.spacing = 0.01

    noise.sigma_slope = 0.006
    noise.sigma_intercept = 0.0084
    # noise.constant_sigma = 0.02

    jump.probability = 0.05
    # jump.guard_band = 0.31415926535897931

    # interference.bias_rad = 0.5
    # interference.period = 10
    # interference.offset = 5

    region.x = 0.0
    region.y_min = -0.5
    region.y_max = 0.5
    region.z_min = 0.0
    region.z_max = 0.7
    region.resolution = 0.01

    tag.1.id = T01
    tag.1.x = 0.0
    tag.1.y = 0.12
    tag.1.z = 0.24
    tag.1.phi0 = random

``#`` starts a comment anywhere on a line.  A key outside this set is an
error, so a misspelling cannot fall back to a default unnoticed.
``tag.<k>.phi0`` accepts a number in radians or the word ``random``,
which draws a per-tag offset in [0, 2*pi) from a stream derived from the
seed, so a fixed (file, seed) pair always builds the identical scenario.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from ..phase_model import TWO_PI, CarrierConfig, Position3D
from ..solver import SearchRegion
from ..synthesis import (
    DEFAULT_JUMP_GUARD_BAND,
    InterferenceSchedule,
    NoiseModel,
    Scenario,
    TagTruth,
    linear_track,
)

_PHI0_STREAM = 0x_70C4_0FF5  # keeps phi0 draws out of the synthesis streams
_KEYS = frozenset({
    "seed", "carrier.frequency_hz",
    *(f"trajectory.{k}" for k in ("x", "z", "y_start", "y_stop", "spacing")),
    *(f"noise.{k}" for k in ("sigma_slope", "sigma_intercept", "constant_sigma")),
    "jump.probability", "jump.guard_band",
    *(f"interference.{k}" for k in ("bias_rad", "period", "offset")),
    *(f"region.{a}{end}" for a in "xyz" for end in ("", "_min", "_max")), "region.resolution",
})
_TAG_FIELDS = frozenset({"id", "x", "y", "z", "phi0"})


class ConfigError(ValueError):
    """Malformed or incomplete scenario configuration."""


def parse_keyvalues(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse the flat key=value format into a string map."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _check_keys(kv: dict[str, str], source: str) -> None:
    """Reject a key outside the fixed set and tag.<k>.{id,x,y,z,phi0}, so a
    misspelled key is an error rather than a silently applied default."""
    for key in kv:
        parts = key.split(".")
        tag_key = len(parts) == 3 and parts[0] == "tag" and parts[2] in _TAG_FIELDS
        if key not in _KEYS and not tag_key:
            raise ConfigError(f"{source}: unknown key {key!r}")


def _get_float(kv: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in kv:
        return default
    try:
        value = float(kv[key])
    except ValueError as exc:
        raise ConfigError(f"key {key}: expected a number, got {kv[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key}: expected a finite number, got {kv[key]!r}")
    return value


def _get_int(kv: dict[str, str], key: str, default: int = 0) -> int:
    value = _get_float(kv, key, default)
    if value != int(value):
        raise ConfigError(f"key {key}: expected an integer, got {kv[key]!r}")
    return int(value)


def _require_float(kv: dict[str, str], key: str) -> float:
    value = _get_float(kv, key)
    if value is None:
        raise ConfigError(f"missing required key {key}")
    return value


def _tag_keys(kv: dict[str, str]) -> list[str]:
    indices = {k.split(".")[1] for k in kv if k.startswith("tag.") and k.count(".") == 2}
    if not indices:
        raise ConfigError("config defines no tags (expected tag.<k>.id entries)")

    def sort_key(s: str):
        return (0, int(s)) if s.isdigit() else (1, s)

    return sorted(indices, key=sort_key)


def build_region(bounds: dict[str, tuple[float, float]], resolution: float) -> SearchRegion:
    """The SearchRegion over {axis: (lo, hi)} for config keys and --region
    alike; raises ValueError unless x, y and z are all given and valid."""
    missing = sorted({"x", "y", "z"} - set(bounds))
    if missing:
        raise ValueError(f"missing axes: {', '.join(missing)}")
    return SearchRegion(x=bounds["x"], y=bounds["y"], z=bounds["z"], resolution=resolution)


def _config_region(kv: dict[str, str]) -> SearchRegion | None:
    axes = {}
    for name in ("x", "y", "z"):
        fixed = _get_float(kv, f"region.{name}")
        lo = _get_float(kv, f"region.{name}_min")
        hi = _get_float(kv, f"region.{name}_max")
        if fixed is not None:
            if lo is not None or hi is not None:
                raise ConfigError(f"region.{name} conflicts with region.{name}_min/_max")
            axes[name] = (fixed, fixed)
        elif lo is not None and hi is not None:
            axes[name] = (lo, hi)
        elif lo is not None or hi is not None:
            raise ConfigError(f"region.{name}_min and region.{name}_max must come together")
    if not axes:
        return None
    try:
        return build_region(axes, _get_float(kv, "region.resolution", 0.01))
    except ValueError as exc:
        raise ConfigError(f"bad region: {exc}") from exc


def load_scenario(
    path: str | Path, seed_override: int | None = None
) -> tuple[Scenario, SearchRegion | None]:
    """Build a Scenario (and the optional search region) from a config file.

    seed_override replaces the file's seed before any randomized field
    (e.g. phi0 = random) is resolved.
    """
    path = Path(path)
    kv = parse_keyvalues(path.read_text(encoding="utf-8"), source=str(path))
    _check_keys(kv, str(path))

    seed = seed_override
    if seed is None:
        raw_seed = kv.get("seed", "0")
        try:
            seed = int(raw_seed)
        except ValueError as exc:
            raise ConfigError(f"seed must be an integer, got {raw_seed!r}") from exc
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    try:
        trajectory = linear_track(
            x=_require_float(kv, "trajectory.x"),
            z=_require_float(kv, "trajectory.z"),
            y_start=_require_float(kv, "trajectory.y_start"),
            y_stop=_require_float(kv, "trajectory.y_stop"),
            spacing=_require_float(kv, "trajectory.spacing"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad trajectory: {exc}") from exc

    interference = None
    if "interference.bias_rad" in kv or "interference.period" in kv:
        if "interference.bias_rad" not in kv or "interference.period" not in kv:
            raise ConfigError("interference needs both bias_rad and period")
        try:
            interference = InterferenceSchedule(
                bias_rad=_require_float(kv, "interference.bias_rad"),
                period=_get_int(kv, "interference.period"),
                offset=_get_int(kv, "interference.offset", 0),
            )
        except ValueError as exc:
            raise ConfigError(f"bad interference schedule: {exc}") from exc

    phi0_rng = np.random.default_rng(np.random.SeedSequence([int(seed), _PHI0_STREAM]))
    try:
        tags = []
        for k in _tag_keys(kv):
            if kv.get(f"tag.{k}.phi0") == "random":
                phi0 = float(phi0_rng.uniform(0.0, TWO_PI))
            else:
                phi0 = _get_float(kv, f"tag.{k}.phi0", 0.0)
            tags.append(
                TagTruth(
                    tag_id=kv.get(f"tag.{k}.id", f"tag{k}"),
                    position=Position3D(
                        _require_float(kv, f"tag.{k}.x"),
                        _require_float(kv, f"tag.{k}.y"),
                        _require_float(kv, f"tag.{k}.z"),
                    ),
                    phi0=phi0,
                )
            )
        scenario = Scenario(
            tags=tuple(tags),
            trajectory=trajectory,
            carrier=CarrierConfig(frequency=_require_float(kv, "carrier.frequency_hz")),
            noise=NoiseModel(
                sigma_slope=_get_float(kv, "noise.sigma_slope", 0.006),
                sigma_intercept=_get_float(kv, "noise.sigma_intercept", 0.0084),
                constant_sigma=_get_float(kv, "noise.constant_sigma"),
            ),
            jump_probability=_get_float(kv, "jump.probability", 0.0),
            jump_guard_band=_get_float(kv, "jump.guard_band", DEFAULT_JUMP_GUARD_BAND),
            interference=interference,
            rng_seed=int(seed),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc

    return scenario, _config_region(kv)
