"""Synthetic wrapped-phase streams for a tag/antenna scenario.

Measured phases are modeled as Gaussian around the forward model, with a
distance-dependent STD sigma(d) = slope*d + intercept fitted from bench
measurements (constant-sigma override available for short-range work).
Noise is added to the unwrapped phase and the sum is re-wrapped, so reads
whose true phase sits near the 0/2*pi boundary can land on the wrong side
on their own; an explicit jump injector exaggerates that pathology on
demand, and a deterministic interference schedule can bias a subset of
reads to mimic unmodeled contamination.

Each tag's reads come out as one SampleStream whose poses are the
trajectory's own read-only array.  Generation is deterministic: each tag
derives an independent substream from (rng_seed, tag_id), so per-tag
output never depends on how many other tags the scenario holds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .phase_model import (
    TWO_PI,
    CarrierConfig,
    Position3D,
    SampleStream,
    pose_array,
    squared_norm_rows,
    wrap_2pi,
)

DEFAULT_SIGMA_SLOPE = 0.006  # rad per meter
DEFAULT_SIGMA_INTERCEPT = 0.0084  # rad
DEFAULT_JUMP_GUARD_BAND = 0.1 * math.pi  # rad around the 0/2*pi boundary
MAX_TRACK_POSES = 100_000  # a linear track's pose cap, checked before any pose is built


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered antenna sampling positions as one read-only (N, 3) array
    in meters, N >= 2 (see pose_array); pose k produces read k of every
    tag's stream, and every stream shares this array."""

    poses: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "poses", pose_array(self.poses, 2))

    def as_array(self) -> np.ndarray:
        return self.poses


def linear_track(
    x: float, z: float, y_start: float, y_stop: float, spacing: float
) -> Trajectory:
    """Straight track along Y at fixed standoff x and height z.

    Poses run y_start, y_start+spacing, ... up to and including y_stop
    when the span divides evenly, at most MAX_TRACK_POSES of them.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    steps = (y_stop - y_start) / spacing + 1e-9
    if not steps >= 1.0:
        raise ValueError("track must contain at least 2 poses")
    if not steps < MAX_TRACK_POSES:
        raise ValueError(f"track would hold more than the cap of {MAX_TRACK_POSES} poses")
    n = int(math.floor(steps)) + 1
    ys = y_start + spacing * np.arange(n)
    return Trajectory(np.column_stack((np.full(n, x), ys, np.full(n, z))))


@dataclass(frozen=True)
class NoiseModel:
    """Phase noise STD as a function of one-way distance.

    sigma(d) = sigma_slope*d + sigma_intercept, unless constant_sigma
    pins it to one value regardless of distance.
    """

    sigma_slope: float = DEFAULT_SIGMA_SLOPE
    sigma_intercept: float = DEFAULT_SIGMA_INTERCEPT
    constant_sigma: float | None = None

    def __post_init__(self) -> None:
        if self.constant_sigma is not None and not self.constant_sigma >= 0.0:
            raise ValueError(f"constant_sigma must be >= 0, got {self.constant_sigma!r}")

    def sigma(self, dist):
        """STD in radians at distance(s) ``dist`` (scalar or ndarray)."""
        if self.constant_sigma is not None:
            if np.ndim(dist) == 0:
                return float(self.constant_sigma)
            return np.full(np.shape(dist), float(self.constant_sigma))
        s = self.sigma_slope * np.asarray(dist, dtype=float) + self.sigma_intercept
        if np.any(s < 0):
            raise ValueError("sigma(d) is negative over the requested distance range")
        if np.ndim(dist) == 0:
            return float(s)
        return s


@dataclass(frozen=True)
class TagTruth:
    """Ground-truth placement of one tag plus its constant phase offset."""

    tag_id: str
    position: Position3D
    phi0: float = 0.0


@dataclass(frozen=True)
class InterferenceSchedule:
    """Deterministic additive phase bias: sample n is biased by bias_rad
    whenever n % period == offset.  Stands in for unmodeled contamination
    (reflection, scattering) without simulating propagation."""

    bias_rad: float
    period: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if not (0 <= self.offset < self.period):
            raise ValueError(f"offset must lie in [0, period), got {self.offset}")

    def bias_vector(self, n_samples: int) -> np.ndarray:
        bias = np.zeros(n_samples)
        bias[self.offset :: self.period] = self.bias_rad
        return bias


@dataclass(frozen=True)
class Scenario:
    """Everything the simulator and benchmark harness need for one run."""

    tags: tuple[TagTruth, ...]
    trajectory: Trajectory
    carrier: CarrierConfig
    noise: NoiseModel = field(default_factory=NoiseModel)
    jump_probability: float = 0.0
    jump_guard_band: float = DEFAULT_JUMP_GUARD_BAND
    interference: InterferenceSchedule | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        if not (0.0 <= self.jump_probability <= 1.0):
            raise ValueError(f"jump probability must lie in [0,1], got {self.jump_probability!r}")
        if not (0.0 <= self.jump_guard_band <= math.pi):
            raise ValueError(f"guard band must lie in [0, pi], got {self.jump_guard_band!r}")
        ids = [t.tag_id for t in self.tags]
        if len(set(ids)) != len(ids):
            raise ValueError("tag ids must be unique within a scenario")


def _tag_rng(rng_seed: int, tag_id: str) -> np.random.Generator:
    # Stable 64-bit digest of the tag id; Python's hash() is salted per run.
    digest = hashlib.blake2b(tag_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(
        np.random.SeedSequence([int(rng_seed), int.from_bytes(digest, "big")])
    )


def inject_jump(
    phases: np.ndarray,
    rng: np.random.Generator,
    probability: float,
    guard_band: float = DEFAULT_JUMP_GUARD_BAND,
) -> np.ndarray:
    """A copy of ``phases`` with near-boundary reads maybe flipped to the
    other side of 0/2*pi.

    Reads within guard_band of the boundary are visited in index order;
    each draws a uniform for the decision and, when it jumps, one more for
    where it lands: at a uniform fraction of its distance b from the
    boundary, on the opposite side (1.95*pi jumps to about 0.03*pi).
    Other reads draw nothing."""
    out = np.array(phases, dtype=float)
    if probability <= 0.0:
        return out
    near = np.flatnonzero((out < guard_band) | (out > TWO_PI - guard_band))
    for i in near:
        if rng.uniform() >= probability:
            continue
        u = rng.uniform()
        phase = float(out[i])
        if phase > TWO_PI - guard_band:
            jumped = u * (TWO_PI - phase)  # land just right of 0
        else:
            jumped = TWO_PI - u * phase  # land just left of 2*pi
        out[i] = wrap_2pi(jumped)
    return out


def synthesize(scenario: Scenario) -> dict[str, SampleStream]:
    """Generate one wrapped-phase stream per tag, keyed by tag id.

    For tag t and pose n the emitted phase is
    wrap(4*pi*d[n]/lambda + phi0_t + bias[n] + eps[n]) with
    eps[n] ~ N(0, sigma(d[n])^2), then the jump injector runs over the
    wrapped stream.  Every stream's poses are the trajectory's own
    read-only pose array.  Fixed seed means byte-identical output.
    """
    if not scenario.tags:
        raise ValueError("scenario has no tags")
    poses_xyz = scenario.trajectory.poses
    n = poses_xyz.shape[0]
    wavelength = scenario.carrier.wavelength
    bias = (
        scenario.interference.bias_vector(n)
        if scenario.interference is not None
        else np.zeros(n)
    )

    out: dict[str, SampleStream] = {}
    for tag in scenario.tags:
        rng = _tag_rng(scenario.rng_seed, tag.tag_id)
        dists = np.sqrt(squared_norm_rows(poses_xyz - tag.position.as_array()))
        eps = rng.standard_normal(n) * scenario.noise.sigma(dists)
        unwrapped = 4.0 * math.pi * dists / wavelength + tag.phi0 + bias + eps
        phases = wrap_2pi(unwrapped)
        if scenario.jump_probability > 0.0:
            phases = inject_jump(phases, rng, scenario.jump_probability, scenario.jump_guard_band)
        out[tag.tag_id] = SampleStream(poses_xyz, phases, scenario.carrier)
    return out
