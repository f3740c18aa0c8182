"""Variant likelihood kernels for wrapped-phase positioning.

The per-tag phase offset phi0 is unknown, so all kernels work on
differences of measured phases: either consecutive reads ("misaligned"
subtraction) or every read against one fixed reference read.  For a
candidate tag position the geometric counterpart of a measured difference
is 4*pi*(d_a - d_b)/lambda, which must be folded into the same branch the
measurement lives in; because the true branch is unknowable from the data
alone, the fold is exposed as an explicit branch strategy.

Three likelihood terms are provided per differential pair:

* NLF, the naive negative squared residual, which is discontinuous when a
  measurement jumps across the 0/2*pi boundary;
* CLF, cos(residual), periodic and hence immune to such jumps, matching
  NLF to second order for small residuals;
* SLF, -sin(residual)^2, likewise periodic (with period pi, so it admits
  spurious maxima at residual pi that CLF does not - see slf_term).

Weighted variants multiply each CLF/SLF term by a weight in [0, 1] built
from the same residual, down-ranking contaminated reads.

All functions are pure; sample lists are treated as read-only shared
state, and batch scoring over many candidates is order-stable (per-pair
sums always run in sample order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_model import (
    TWO_PI,
    PhaseSample,
    Position3D,
    distance,
    wrap_2pi,
)

# Branch strategies for folding the geometric phase difference.
BRANCH_NONNEGATIVE = "nonnegative"
BRANCH_NEGATIVE = "negative"
BRANCH_NEAREST = "nearest"

_VARIANTS = ("nlf", "clf", "slf")


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
class LikelihoodSpec:
    """Which kernel to run: variant in {nlf, clf, slf}, a differential
    scheme, and whether per-pair weights are applied (clf/slf only)."""

    variant: str
    scheme: DifferentialScheme
    weighted: bool = False

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown likelihood variant {self.variant!r}")
        if self.weighted and self.variant == "nlf":
            raise ValueError("weights are defined only for clf and slf variants")

    def __call__(self, phases: np.ndarray, dists: np.ndarray, wavelength: float) -> np.ndarray:
        """Scores per candidate row of ``dists``; the spec is its own scorer."""
        return objective_batch(phases, dists, self, wavelength)


@dataclass(frozen=True)
class DifferentialPair:
    """One differenced observation: the raw measured-phase difference (no
    re-wrapping, so it lies in (-2*pi, 2*pi)), the candidate-dependent
    distance difference in meters, and the (n, other) sample indices."""

    dphi_measured: float
    ddist: float
    indices: tuple[int, int]


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


def build_differentials(
    samples: list[PhaseSample],
    candidate: Position3D,
    scheme: DifferentialScheme,
) -> list[DifferentialPair]:
    """Differential pairs for one candidate position.

    Requires >= 2 samples sharing one carrier.  dphi_measured is the raw
    difference of the two wrapped measurements; ddist is the difference of
    the candidate-to-antenna distances for the paired poses.
    """
    shared_wavelength(samples)
    idx_a, idx_b = pair_indices(scheme, len(samples))
    dists = [distance(s.antenna_pose, candidate) for s in samples]
    return [
        DifferentialPair(
            dphi_measured=samples[a].phase_wrapped - samples[b].phase_wrapped,
            ddist=dists[a] - dists[b],
            indices=(int(a), int(b)),
        )
        for a, b in zip(idx_a, idx_b)
    ]


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


def nlf_term(
    pair: DifferentialPair,
    wavelength: float,
    branch: str = BRANCH_NEAREST,
) -> float:
    """Naive likelihood term -(dphi_measured - dphi_geometric)^2, <= 0.

    Sensitive to boundary jumps: a measurement crossing 0/2*pi drags the
    raw difference by nearly 2*pi and the term craters.
    """
    dpd = delta_phi_d_mod(pair.ddist, wavelength, branch, pair.dphi_measured)
    return -((pair.dphi_measured - dpd) ** 2)


def _residual(pair: DifferentialPair, wavelength: float) -> float:
    return pair.dphi_measured - 4.0 * math.pi * pair.ddist / wavelength


def clf_term(pair: DifferentialPair, wavelength: float) -> float:
    """Cosine likelihood term cos(residual), in [-1, 1].

    2*pi-periodic in the measured difference, so no branch correction is
    needed and boundary jumps barely move it.
    """
    return math.cos(_residual(pair, wavelength))


def slf_term(pair: DifferentialPair, wavelength: float) -> float:
    """Sine likelihood term -sin(residual)^2, in [-1, 0].

    Note the pi-periodicity: residual pi scores 0 just like residual 0,
    so SLF holograms can show spurious maxima where CLF would not.  The
    solver does not special-case this; inspect the peak diagnostics.
    """
    return -math.sin(_residual(pair, wavelength)) ** 2


def weight(pair: DifferentialPair, wavelength: float, variant: str) -> float:
    """Per-pair weight in [0, 1] for the weighted kernels.

    clf weights by |cos(residual)|, slf by exp(-sin(residual)^2); both
    equal 1 exactly when the residual is a multiple of pi and decay as the
    measured difference strays from the candidate's geometry.  Rejects
    nlf, for which no weight is defined.
    """
    r = _residual(pair, wavelength)
    if variant == "clf":
        return abs(math.cos(r))
    if variant == "slf":
        return math.exp(-math.sin(r) ** 2)
    raise ValueError(f"no weight defined for variant {variant!r}")


def objective(
    samples: list[PhaseSample],
    candidate: Position3D,
    spec: LikelihoodSpec,
    wavelength: float,
    nlf_branch: str = BRANCH_NEAREST,
) -> float:
    """Total (optionally weighted) likelihood score of one candidate.

    Sums the variant term over the scheme's differential pairs in sample
    order; weights are recomputed for this candidate, never frozen from a
    preliminary estimate.
    """
    pairs = build_differentials(samples, candidate, spec.scheme)
    total = 0.0
    for pair in pairs:
        if spec.variant == "nlf":
            term = nlf_term(pair, wavelength, nlf_branch)
        elif spec.variant == "clf":
            term = clf_term(pair, wavelength)
        else:
            term = slf_term(pair, wavelength)
        if spec.weighted:
            term *= weight(pair, wavelength, spec.variant)
        total += term
    return total


def objective_batch(
    phases: np.ndarray,
    dists: np.ndarray,
    spec: LikelihoodSpec,
    wavelength: float,
    nlf_branch: str = BRANCH_NEAREST,
) -> np.ndarray:
    """Vectorized objective over many candidates at once.

    phases is the (N,) wrapped measurement vector; dists is (M, N) with
    row m holding candidate m's distances to the N poses.  Returns (M,)
    scores identical (to float round-off) to calling ``objective`` per
    candidate.
    """
    phases = np.asarray(phases, dtype=float)
    dists = np.atleast_2d(np.asarray(dists, dtype=float))
    idx_a, idx_b = pair_indices(spec.scheme, phases.shape[0])
    dphi_m = phases[idx_a] - phases[idx_b]
    geom = 4.0 * math.pi * (dists[:, idx_a] - dists[:, idx_b]) / wavelength

    if spec.variant == "nlf":
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
    if spec.variant == "clf":
        terms = np.cos(res)
        if spec.weighted:
            terms = np.abs(terms) * terms
    else:
        sin2 = np.sin(res) ** 2
        terms = -sin2
        if spec.weighted:
            terms = np.exp(-sin2) * terms
    return terms.sum(axis=1)
