"""Geometry and the deterministic wrapped-phase forward model.

A passive backscatter tag is read over a round-trip channel, so the
baseband phase advances by 4*pi*d/lambda for a one-way distance d, plus a
per-tag offset phi0 (transceiver circuits + tag reflection) that is
constant along a trajectory but unknown in advance.  Readers report the
phase modulo 2*pi, wrapped into [0, 2*pi).

Poses travel as one read-only (N, 3) array that pose_array checks for
Trajectory, SampleStream and GridEvaluator alike; one tag's reads travel
as a SampleStream: poses, a phase column and the carrier they share.

Everything in this module is pure and thread-safe; the domain types are
immutable after construction.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value
TWO_PI = 2.0 * math.pi


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Position3D:
    """A point in meters. X is normal to the rack plane, Y runs along the
    antenna track, Z is altitude."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        _require_finite("coordinate", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class CarrierConfig:
    """Carrier frequency in Hz; wavelength is derived as c/f."""

    frequency: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValueError(f"carrier frequency must be positive, got {self.frequency!r}")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency


@dataclass(frozen=True)
class PhaseSample:
    """One tag read: where the antenna was, and the wrapped phase it saw.
    SampleStream indexing hands these out; the stream did the checks."""

    antenna_pose: Position3D
    carrier: CarrierConfig
    phase_wrapped: float


def _read_only(values) -> np.ndarray:
    """values as a read-only float array nothing can write to: kept when
    it and every array it views are read-only, copied otherwise (a
    read-only view of a writable array still moves with its base)."""
    arr = np.asarray(values, dtype=float)
    view = arr
    while isinstance(view, np.ndarray) and not view.flags.writeable:
        view = view.base
    if view is not None:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def pose_array(poses, min_poses: int = 0) -> np.ndarray:
    """Antenna poses as a read-only, finite (N, 3) float array with
    N >= min_poses.  An input that can still be written, itself or
    through an array it views, is copied, so later writes to it change
    nothing; a read-only one (a trajectory's pose array) is kept."""
    arr = _read_only(poses)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] < min_poses:
        raise ValueError(f"poses must be an (N, 3) array, N >= {min_poses}; got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("poses must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SampleStream:
    """One tag's reads on one carrier as read-only columns: antenna poses
    (N, 3) in meters (see pose_array) and wrapped phases (N,) in [0, 2*pi),
    in trajectory order.  len(), integer indexing and iteration give
    PhaseSample views of single reads."""

    poses: np.ndarray
    phases: np.ndarray
    carrier: CarrierConfig

    def __post_init__(self) -> None:
        poses, phases = pose_array(self.poses), _read_only(self.phases)
        if phases.shape != poses.shape[:1]:
            raise ValueError(f"need (N, 3) poses, (N,) phases; got {poses.shape}, {phases.shape}")
        if not ((phases >= 0.0) & (phases < TWO_PI)).all():
            raise ValueError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return self.phases.shape[0]

    def __getitem__(self, index: int) -> PhaseSample:
        index = operator.index(index)
        x, y, z = (float(v) for v in self.poses[index])
        return PhaseSample(Position3D(x, y, z), self.carrier, float(self.phases[index]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def distance(ant: Position3D, tag: Position3D) -> float:
    """Euclidean distance in meters between antenna and tag."""
    return math.sqrt(
        (ant.x - tag.x) ** 2 + (ant.y - tag.y) ** 2 + (ant.z - tag.z) ** 2
    )


def wrap_2pi(angle):
    """Wrap an angle (scalar or ndarray) into [0, 2*pi).

    Idempotent; values within one ulp of a period boundary come back as
    exactly 0.0, never 2*pi.
    """
    wrapped = np.fmod(angle, TWO_PI)
    wrapped = np.where(wrapped < 0.0, wrapped + TWO_PI, wrapped)
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def wrap_pm_pi(angle):
    """Wrap an angle (scalar or ndarray) into (-pi, pi]."""
    wrapped = math.pi - np.mod(math.pi - np.asarray(angle, dtype=float), TWO_PI)
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(wrapped)
    return wrapped


def predict_phase(
    ant: Position3D, tag: Position3D, carrier: CarrierConfig, phi0: float = 0.0
) -> float:
    """Noise-free wrapped phase a reader at ``ant`` would report for ``tag``:
    the round-trip phase 4*pi*d/lambda + phi0, wrapped into [0, 2*pi).

    Sign convention is +4*pi*d/lambda; readers that report the conjugate
    convention are handled by a sign-flip option at ingestion time, not
    here.
    """
    return wrap_2pi(4.0 * math.pi * distance(ant, tag) / carrier.wavelength + phi0)


def squared_norm_rows(delta: np.ndarray) -> np.ndarray:
    """Row-wise |delta|^2 over the last axis of an (..., 3) array, summed
    in the same (x, then y, then z) order as the scalar ``distance`` so
    vectorized and scalar paths agree bit-for-bit."""
    return delta[..., 0] ** 2 + delta[..., 1] ** 2 + delta[..., 2] ** 2
