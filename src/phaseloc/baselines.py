"""Comparison methods: SARFID-style coherent summation and Tagoram-style
CDF-weighted holograms.

These are stand-ins matching how the two systems are used as baselines,
not faithful reimplementations of either pipeline.  SARFID scores a
candidate by the magnitude of the phase-aligned coherent sum (the
synthetic-aperture matched filter), which cancels the per-tag offset as a
common complex rotation instead of differencing.  Tagoram scores
reference-subtracted cosine residuals weighted by a two-sided Gaussian
tail probability, so reads that disagree with the candidate geometry by
many sigma contribute almost nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .likelihood import DifferentialScheme, pair_indices
from .phase_model import PhaseSample, Position3D, distances_to_point, poses_to_array, wrap_pm_pi
from .synthesis import DEFAULT_SIGMA_INTERCEPT, DEFAULT_SIGMA_SLOPE

# Constant-sigma noise model evaluated at the default 1.4 m standoff.
DEFAULT_TAGORAM_SIGMA = DEFAULT_SIGMA_SLOPE * 1.4 + DEFAULT_SIGMA_INTERCEPT

_KINDS = ("sarfid", "tagoram")


@dataclass(frozen=True)
class BaselineSpec:
    """Baseline selector: kind "sarfid" or "tagoram", plus the sigma used
    by Tagoram's Gaussian-CDF weighting."""

    kind: str
    tagoram_sigma: float = DEFAULT_TAGORAM_SIGMA

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not (self.tagoram_sigma > 0.0):
            raise ValueError(f"tagoram_sigma must be > 0, got {self.tagoram_sigma!r}")

    def __call__(self, phases: np.ndarray, dists: np.ndarray, wavelength: float) -> np.ndarray:
        """Scores per candidate row of ``dists``; the spec is its own scorer."""
        if self.kind == "sarfid":
            return sarfid_batch(phases, dists, wavelength)
        return tagoram_batch(phases, dists, wavelength, self.tagoram_sigma)


def sarfid_batch(phases: np.ndarray, dists: np.ndarray, wavelength: float) -> np.ndarray:
    """Coherent-sum magnitude per candidate row of ``dists``, in [0, 1].

    |sum_n exp(j*(phi[n] - 4*pi*d[n]/lambda))| / N.  A common phase shift
    on all reads rotates every term equally, so the magnitude is
    invariant to the per-tag offset.
    """
    phases = np.asarray(phases, dtype=float)
    dists = np.atleast_2d(np.asarray(dists, dtype=float))
    residual = phases[None, :] - 4.0 * math.pi * dists / wavelength
    return np.abs(np.exp(1j * residual).mean(axis=1))


def tagoram_batch(
    phases: np.ndarray,
    dists: np.ndarray,
    wavelength: float,
    sigma: float,
) -> np.ndarray:
    """CDF-weighted cosine score per candidate row of ``dists``.

    Residuals referenced to the first read are wrapped to (-pi, pi] (a tail
    probability of an unwrapped circular residual would be meaningless),
    then each pair contributes w*cos(residual) with
    w = 2*(1 - Phi(|residual|/sigma)) = erfc(|residual|/(sigma*sqrt(2))).
    """
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    phases = np.asarray(phases, dtype=float)
    dists = np.atleast_2d(np.asarray(dists, dtype=float))
    idx_a, idx_b = pair_indices(DifferentialScheme.reference(0), phases.shape[0])
    dphi_m = phases[idx_a] - phases[idx_b]
    geom = 4.0 * math.pi * (dists[:, idx_a] - dists[:, idx_b]) / wavelength
    residual = wrap_pm_pi(dphi_m[None, :] - geom)
    weights = erfc(np.abs(residual) / (sigma * math.sqrt(2.0)))
    return (weights * np.cos(residual)).sum(axis=1)


def sarfid_score(samples: list[PhaseSample], candidate: Position3D, wavelength: float) -> float:
    """Coherent-sum magnitude of one candidate; 1 means perfect alignment."""
    if not samples:
        raise ValueError("need at least 1 sample")
    phases = np.array([s.phase_wrapped for s in samples])
    dists = distances_to_point(poses_to_array(s.antenna_pose for s in samples), candidate)
    return float(sarfid_batch(phases, dists[None, :], wavelength)[0])


def tagoram_score(
    samples: list[PhaseSample],
    candidate: Position3D,
    wavelength: float,
    spec: BaselineSpec,
) -> float:
    """CDF-weighted score of one candidate; N-1 means all pairs agree."""
    if len(samples) < 2:
        raise ValueError(f"need at least 2 samples, got {len(samples)}")
    phases = np.array([s.phase_wrapped for s in samples])
    dists = distances_to_point(poses_to_array(s.antenna_pose for s in samples), candidate)
    return float(tagoram_batch(phases, dists[None, :], wavelength, spec.tagoram_sigma)[0])
