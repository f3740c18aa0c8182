"""Synthetic wrapped-phase streams for a tag/antenna scenario.

Measured phases are modeled as Gaussian around the forward model, with a
distance-dependent STD sigma(d) = slope*d + intercept fitted from bench
measurements (constant-sigma override available for short-range work).
Noise is added to the unwrapped phase and the sum is re-wrapped, so reads
whose true phase sits near the 0/2*pi boundary can land on the wrong side
on their own; an explicit jump injector exaggerates that pathology on
demand, and a deterministic interference schedule can bias a subset of
reads to mimic unmodeled contamination.

Generation is deterministic: each tag derives an independent substream
from (rng_seed, tag_id), so per-tag output never depends on how many
other tags the scenario holds.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .phase_model import (
    TWO_PI,
    CarrierConfig,
    PhaseSample,
    Position3D,
    distances_to_point,
    poses_to_array,
    wrap_2pi,
)

DEFAULT_SIGMA_SLOPE = 0.006  # rad per meter
DEFAULT_SIGMA_INTERCEPT = 0.0084  # rad
DEFAULT_JUMP_GUARD_BAND = 0.1 * math.pi  # rad around the 0/2*pi boundary
MAX_TRACK_POSES = 100_000  # a linear track's pose cap, checked before any pose is built


@dataclass(frozen=True)
class Trajectory:
    """Ordered antenna sampling positions; pose k produces sample_index k.

    spacing records the nominal distance between consecutive poses (pure
    metadata; the poses themselves are authoritative).
    """

    poses: tuple[Position3D, ...]
    spacing: float

    def __post_init__(self) -> None:
        if len(self.poses) < 2:
            raise ValueError(f"trajectory needs at least 2 poses, got {len(self.poses)}")
        object.__setattr__(self, "poses", tuple(self.poses))

    def as_array(self) -> np.ndarray:
        return poses_to_array(self.poses)


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
    return Trajectory(
        poses=tuple(Position3D(x, float(y), z) for y in ys),
        spacing=spacing,
    )


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
    sample: PhaseSample,
    rng: np.random.Generator,
    probability: float,
    guard_band: float = DEFAULT_JUMP_GUARD_BAND,
) -> PhaseSample:
    """Maybe flip a near-boundary read to the other side of 0/2*pi.

    Reads farther than guard_band from the boundary come back untouched.
    A read at distance b from the boundary lands at a uniform fraction of
    b on the opposite side, e.g. 1.95*pi jumps to about 0.03*pi.
    """
    phase = sample.phase_wrapped
    near_low = phase < guard_band
    near_high = phase > TWO_PI - guard_band
    if probability <= 0.0 or not (near_low or near_high):
        return sample
    if rng.uniform() >= probability:
        return sample
    u = rng.uniform()
    if near_high:
        jumped = u * (TWO_PI - phase)  # land just right of 0
    else:
        jumped = TWO_PI - u * phase  # land just left of 2*pi
    return PhaseSample(
        antenna_pose=sample.antenna_pose,
        carrier=sample.carrier,
        phase_wrapped=wrap_2pi(jumped),
        sample_index=sample.sample_index,
        tag_id=sample.tag_id,
        sigma_hint=sample.sigma_hint,
    )


def synthesize(scenario: Scenario) -> dict[str, list[PhaseSample]]:
    """Generate one wrapped-phase stream per tag, keyed by tag id.

    For tag t and pose n the emitted phase is
    wrap(4*pi*d[n]/lambda + phi0_t + bias[n] + eps[n]) with
    eps[n] ~ N(0, sigma(d[n])^2), then the jump injector runs over the
    wrapped stream.  sigma_hint carries sigma(d[n]).  Fixed seed means
    byte-identical output.
    """
    if not scenario.tags:
        raise ValueError("scenario has no tags")
    poses_xyz = scenario.trajectory.as_array()
    n = poses_xyz.shape[0]
    if n < 2:
        raise ValueError("scenario trajectory has fewer than 2 poses")
    wavelength = scenario.carrier.wavelength
    bias = (
        scenario.interference.bias_vector(n)
        if scenario.interference is not None
        else np.zeros(n)
    )

    out: dict[str, list[PhaseSample]] = {}
    for tag in scenario.tags:
        rng = _tag_rng(scenario.rng_seed, tag.tag_id)
        dists = distances_to_point(poses_xyz, tag.position)
        sigma = np.asarray(scenario.noise.sigma(dists), dtype=float)
        eps = rng.standard_normal(n) * sigma
        unwrapped = 4.0 * math.pi * dists / wavelength + tag.phi0 + bias + eps
        wrapped = wrap_2pi(unwrapped)

        samples = [
            PhaseSample(
                antenna_pose=scenario.trajectory.poses[i],
                carrier=scenario.carrier,
                phase_wrapped=float(wrapped[i]),
                sample_index=i,
                tag_id=tag.tag_id,
                sigma_hint=float(sigma[i]),
            )
            for i in range(n)
        ]
        if scenario.jump_probability > 0.0:
            samples = [
                inject_jump(s, rng, scenario.jump_probability, scenario.jump_guard_band)
                for s in samples
            ]
        out[tag.tag_id] = samples
    return out
