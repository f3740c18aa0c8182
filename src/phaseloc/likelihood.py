"""The seven scoring methods for wrapped-phase positioning.

The per-tag phase offset phi0 is unknown, so the likelihood kernels work
on differences of measured phases: either consecutive reads ("misaligned"
subtraction) or every read against one fixed reference read.  For a
candidate tag position the geometric counterpart of a measured difference
is 4*pi*(d_a - d_b)/lambda, which must be folded into the same branch the
measurement lives in; because the true branch is unknowable from the data
alone, the fold is exposed as an explicit branch strategy.

Per differential pair with residual r = dphi_measured - dphi_geometric:

* nlf, the naive -r^2 with the geometric difference folded into a branch,
  which is discontinuous when a measurement jumps across the 0/2*pi
  boundary;
* clf, cos(r), periodic and hence immune to such jumps, matching nlf to
  second order for small residuals;
* slf, -sin(r)^2, likewise periodic, but with period pi, so residual pi
  scores like residual 0 and slf holograms can show spurious maxima that
  clf does not (the solver does not special-case this; inspect the peak
  diagnostics);
* wclf and wslf multiply each clf/slf term by a weight in [0, 1] built
  from the same residual, |cos r| and exp(-sin(r)^2), which equals 1
  exactly when r is a multiple of pi and down-ranks contaminated reads.
  No weight exists for nlf.

The two comparison methods are stand-ins matching how SARFID and Tagoram
are used as baselines, not faithful reimplementations of either pipeline.
sarfid scores a candidate by the magnitude of the phase-aligned coherent
sum (the synthetic-aperture matched filter), which cancels the per-tag
offset as a common complex rotation instead of differencing.  tagoram
scores reference-subtracted cosine residuals weighted by a two-sided
Gaussian tail probability, so reads that disagree with the candidate
geometry by many sigma contribute almost nothing.

All functions are pure, and batch scoring over many candidates is
order-stable (per-pair sums always run in sample order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .phase_model import TWO_PI, PhaseSample, wrap_2pi, wrap_pm_pi
from .synthesis import DEFAULT_SIGMA_INTERCEPT, DEFAULT_SIGMA_SLOPE

METHOD_NAMES = ("nlf", "clf", "slf", "wclf", "wslf", "sarfid", "tagoram")

# Branch strategies for folding the geometric phase difference.
BRANCH_NONNEGATIVE = "nonnegative"
BRANCH_NEGATIVE = "negative"
BRANCH_NEAREST = "nearest"

# Constant-sigma noise model evaluated at the default 1.4 m standoff.
DEFAULT_TAGORAM_SIGMA = DEFAULT_SIGMA_SLOPE * 1.4 + DEFAULT_SIGMA_INTERCEPT


class SamplingConditionError(ValueError):
    """The pose spacing puts |4*pi*dd/lambda| >= 2*pi, so the sign-pattern
    unwrap rule is ill-posed.  Callers fall back to delta_phi_d_mod."""


@dataclass(frozen=True)
class DifferentialScheme:
    """How measured phases are paired before differencing.

    kind "misaligned" pairs each read with its predecessor; kind
    "reference" pairs every read with one fixed read (default the first
    recorded position).
    """

    kind: str
    reference_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("misaligned", "reference"):
            raise ValueError(f"unknown differential scheme kind {self.kind!r}")

    @classmethod
    def misaligned(cls) -> "DifferentialScheme":
        return cls(kind="misaligned")

    @classmethod
    def reference(cls, index: int = 0) -> "DifferentialScheme":
        return cls(kind="reference", reference_index=index)


@dataclass(frozen=True)
class MethodSpec:
    """One of the METHOD_NAMES with its settings: the differential scheme
    (the five likelihood methods; sarfid and tagoram accept only
    reference:0) and the sigma of tagoram's Gaussian-CDF weighting.  The
    spec is its own scorer."""

    name: str
    scheme: DifferentialScheme = DifferentialScheme.reference(0)
    tagoram_sigma: float = DEFAULT_TAGORAM_SIGMA

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.name!r} (expected one of {', '.join(METHOD_NAMES)})"
            )
        if self.name in ("sarfid", "tagoram") and self.scheme != DifferentialScheme.reference(0):
            raise ValueError(f"{self.name} takes no differential scheme; only reference:0 is accepted")
        if not (self.tagoram_sigma > 0.0):
            raise ValueError(f"tagoram_sigma must be > 0, got {self.tagoram_sigma!r}")

    def __call__(self, phases: np.ndarray, dists: np.ndarray, wavelength: float) -> np.ndarray:
        """Scores per candidate row of ``dists``."""
        if self.name == "sarfid":
            return sarfid_batch(phases, dists, wavelength)
        return objective_batch(phases, dists, self, wavelength)


def pair_indices(scheme: DifferentialScheme, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) such that pair k differences sample a[k] minus
    sample b[k].  Misaligned gives (n, n-1) for n=1..N-1; reference gives
    (n, r) for every n != r.  Both yield N-1 pairs."""
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if scheme.kind == "misaligned":
        a = np.arange(1, n_samples)
        return a, a - 1
    r = scheme.reference_index
    if not (0 <= r < n_samples):
        raise ValueError(f"reference index {r} out of range for {n_samples} samples")
    a = np.concatenate([np.arange(0, r), np.arange(r + 1, n_samples)])
    return a, np.full(len(a), r)


def shared_wavelength(samples: list[PhaseSample]) -> float:
    """Wavelength of the carrier all samples share; rejects mixed carriers
    (channel-hopping streams are out of scope for these kernels)."""
    if not samples:
        raise ValueError("empty sample list")
    freqs = {s.carrier.frequency for s in samples}
    if len(freqs) != 1:
        raise ValueError(f"samples must share one carrier, got frequencies {sorted(freqs)}")
    return samples[0].carrier.wavelength


def delta_phi_d_unwrap(ddist: float, dphi_measured: float, wavelength: float) -> float:
    """Geometric phase difference under the sign-pattern unwrap rule.

    Valid only while |4*pi*ddist/wavelength| < 2*pi (pose spacing below
    half a wavelength); otherwise raises SamplingConditionError and the
    caller should fall back to delta_phi_d_mod.  The 2*pi correction is
    applied when the distance difference and the measured difference
    disagree in sign; a zero on either side takes the uncorrected value.
    """
    base = 4.0 * math.pi * ddist / wavelength
    if not abs(base) < TWO_PI:
        raise SamplingConditionError(
            f"|4*pi*ddist/wavelength| = {abs(base)!r} >= 2*pi; pose spacing too coarse"
        )
    if ddist < 0.0 and dphi_measured > 0.0:
        return base + TWO_PI
    if ddist > 0.0 and dphi_measured < 0.0:
        return base - TWO_PI
    return base


def delta_phi_d_mod(
    ddist: float,
    wavelength: float,
    branch: str = BRANCH_NEAREST,
    dphi_measured: float | None = None,
) -> float:
    """Geometric phase difference folded by modulo 2*pi, with an explicit
    branch choice standing in for the unknowable sign condition.

    branch "nonnegative" returns the fold in [0, 2*pi); "negative" returns
    it shifted to [-2*pi, 0); "nearest" picks whichever of the two is
    closest to dphi_measured (which must then be given).
    """
    folded = wrap_2pi(4.0 * math.pi * ddist / wavelength)
    if branch == BRANCH_NONNEGATIVE:
        return folded
    if branch == BRANCH_NEGATIVE:
        return folded - TWO_PI
    if branch == BRANCH_NEAREST:
        if dphi_measured is None:
            raise ValueError("nearest branch needs dphi_measured")
        if abs(dphi_measured - folded) <= abs(dphi_measured - (folded - TWO_PI)):
            return folded
        return folded - TWO_PI
    raise ValueError(f"unknown branch {branch!r}")


def objective_batch(
    phases: np.ndarray,
    dists: np.ndarray,
    spec: MethodSpec,
    wavelength: float,
    nlf_branch: str = BRANCH_NEAREST,
) -> np.ndarray:
    """Differential score per candidate for every method but sarfid.

    phases is the (N,) wrapped measurement vector; dists is (M, N) with
    row m holding candidate m's distances to the N poses.  Returns (M,)
    sums over the scheme's pairs.  tagoram wraps each residual to
    (-pi, pi] (a tail probability of an unwrapped circular residual would
    be meaningless) and weights cos(residual) by
    2*(1 - Phi(|residual|/sigma)) = erfc(|residual|/(sigma*sqrt(2))).
    """
    if spec.name == "sarfid":
        raise ValueError("sarfid is not a differential method; use sarfid_batch")
    phases = np.asarray(phases, dtype=float)
    dists = np.atleast_2d(np.asarray(dists, dtype=float))
    idx_a, idx_b = pair_indices(spec.scheme, phases.shape[0])
    dphi_m = phases[idx_a] - phases[idx_b]
    geom = 4.0 * math.pi * (dists[:, idx_a] - dists[:, idx_b]) / wavelength

    if spec.name == "nlf":
        folded = wrap_2pi(geom)
        res_hi = dphi_m[None, :] - folded
        if nlf_branch == BRANCH_NONNEGATIVE:
            res = res_hi
        elif nlf_branch == BRANCH_NEGATIVE:
            res = res_hi + TWO_PI
        elif nlf_branch == BRANCH_NEAREST:
            res_lo = res_hi + TWO_PI
            res = np.where(np.abs(res_hi) <= np.abs(res_lo), res_hi, res_lo)
        else:
            raise ValueError(f"unknown branch {nlf_branch!r}")
        return -(res**2).sum(axis=1)

    res = dphi_m[None, :] - geom
    if spec.name == "tagoram":
        res = wrap_pm_pi(res)
        weights = erfc(np.abs(res) / (spec.tagoram_sigma * math.sqrt(2.0)))
        return (weights * np.cos(res)).sum(axis=1)
    if spec.name in ("clf", "wclf"):
        terms = np.cos(res)
        if spec.name == "wclf":
            terms = np.abs(terms) * terms
    else:
        sin2 = np.sin(res) ** 2
        terms = -sin2
        if spec.name == "wslf":
            terms = np.exp(-sin2) * terms
    return terms.sum(axis=1)


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
