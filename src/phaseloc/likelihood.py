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

All functions are pure.  Every differential method but nlf reads a pair
only through cos r and sin r, the real and imaginary parts of the pair
phasor u = A_a * conj(A_b) * exp(j*dphi) = exp(j*r), with the steering
phasors A = exp(-j*4*pi*d/lambda); nlf reads the residual dphi -
wrap(4*pi*d_a/lambda - 4*pi*d_b/lambda) itself.  pair_values is the one
pairing rule: by slices of per-read values it forms both sides of every
pair, each stream's measured differences dphi and the geometry every
stream shares (A_a * conj(A_b), conj(A_(n-1)) * A_n under misaligned, or
nlf's folded differences), for a block of cells (objective_batch) and a
track's windows (solver) alike.  _pair_sums writes each method's
per-pair term once, from that geometry and each stream's own side of its
pairs (exp(j*dphi), or dphi), and sums it.  One stream's (N,) phases are
a stack of one: its sums are its row of any (S, N) stack's, bit for bit.
sarfid is scored through its LinearForm everywhere: per cell y = sum_n
exp(j*phi_n) * A_n, finished as |y|/N, summed over a block's steering
phasors or convolved along a track.

On an evenly stepped track, GridEvaluator builds each line of cells'
steering sequence once and reduces it in one of two ways.  Under
misaligned, and for nlf, wclf, wslf and tagoram under reference:r, a
cell's pairs are formed from its window of the sequence by pair_values
and go through _pair_sums, with A read from the sequence instead of
computed per cell and pose.  Under reference:r clf and slf, and sarfid,
are linear in w_n = exp(j*phi_n)*A_n, so the sequence is convolved with
each stream's inputs; linear_form gives those inputs and the finish:
sarfid |sum_n w_n|/N; clf Re[conj(w_r) * sum_n w_n] - 1; slf
1/2*Re[conj(w_r)^2 * sum_n w_n^2] - 1/2 - P/2, since -sin^2 x = (cos 2x -
1)/2 over P = N-1 pairs.  It agrees with the cell blocks to about 1e-12
of the score scale.

tagoram weights every pair's cos r by erfc(|r|/(sigma*sqrt(2))), through
the same steps for every pair; scipy.special is imported when tagoram is
first scored.  Asked for tagoram's majorant instead, _pair_sums sums
exp(-(sin r/(sigma*sqrt(2)))^2) over the same u, which bounds each pair's
term from above at every sigma: the cheap pass of
GridEvaluator.best_cells.

The pair terms of a C-order (..., M, P) block are summed pairwise per
row, whatever M and however many streams share it.  A block of one
candidate row is the exception GridEvaluator avoids: numpy 2.4 multiplies
a one-element complex array in place without fused multiply-adds, so a
one-cell, one-pair block can differ from the same cell in a taller block
in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_model import TWO_PI, wrap_2pi
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
        # an infinite sigma makes every weight 1; one so small that the bound
        # pi/(sigma*sqrt(2)) of |r|/(sigma*sqrt(2)) overflows breaks them too
        sigma = self.tagoram_sigma
        if not (0.0 < sigma < math.inf and math.pi / (sigma * math.sqrt(2.0)) < math.inf):
            raise ValueError(
                f"tagoram_sigma must be finite and > 0 with finite pi/(sigma*sqrt(2)), got {sigma!r}"
            )

    def __call__(self, phases: np.ndarray, dists: np.ndarray, wavelength: float) -> np.ndarray:
        """Scores per candidate row of ``dists``: (M,) for one stream's
        (N,) phases, (S, M) for S streams' stacked (S, N) phases."""
        return objective_batch(phases, dists, self, wavelength)


def pair_indices(scheme: DifferentialScheme, n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (a, b) such that pair k differences sample a[k] minus
    sample b[k].  Misaligned gives (n, n-1) for n=1..N-1; reference gives
    (n, r) for every n != r.  Both yield N-1 pairs.  pair_values forms
    the same pairs by slices; these arrays are its index-array reference."""
    _check_reads(scheme, n_samples)
    if scheme.kind == "misaligned":
        a = np.arange(1, n_samples)
        return a, a - 1
    r = scheme.reference_index
    a = np.concatenate([np.arange(0, r), np.arange(r + 1, n_samples)])
    return a, np.full(len(a), r)


def _check_reads(scheme: DifferentialScheme, n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    if scheme.kind == "reference" and not (0 <= scheme.reference_index < n_samples):
        raise ValueError(f"reference index {scheme.reference_index} out of range for {n_samples} samples")


def pair_values(
    scheme: DifferentialScheme, values: np.ndarray, out: np.ndarray | None = None, fold: bool = False
) -> np.ndarray:
    """Per-pair values (..., N-1) of per-read values (..., N) under
    scheme, pair k being pair_indices' (a[k], b[k]), formed by slices, so
    values may be any view (a track's sliding windows).  Real values give
    the differences v_a - v_b, folded into [0, 2*pi) in place when fold is
    set (as phase_model.wrap_2pi folds, to within an ulp of 4*pi); complex
    values give the pair phasors v_a * conj(v_b), computed as
    conj(v_(n-1)) * v_n under misaligned.  The result is written into out
    when given.  Raises as pair_indices does.

    Both sides of every differential pair come from here: each stream's
    measured differences dphi, and the geometry every stream shares, nlf's
    folded differences of kd = 4*pi*d/lambda or the others' pair phasors
    of the steering phasors A."""
    n = values.shape[-1]
    _check_reads(scheme, n)
    if out is None:
        out = np.empty(values.shape[:-1] + (n - 1,), dtype=values.dtype)
    phasor = np.iscomplexobj(values)
    if scheme.kind == "misaligned" and phasor:
        np.multiply(np.conjugate(values[..., :-1], out=out), values[..., 1:], out=out)
    elif scheme.kind == "misaligned":
        np.subtract(values[..., 1:], values[..., :-1], out=out)
    else:
        r = scheme.reference_index
        at_r = np.conjugate(values[..., r, None]) if phasor else values[..., r, None]
        combine = np.multiply if phasor else np.subtract
        combine(values[..., :r], at_r, out=out[..., :r])
        combine(values[..., r + 1 :], at_r, out=out[..., r:])
    if fold:  # fmod keeps the sign: x - 2*pi*k in (-2*pi, 2*pi), then shifted into [0, 2*pi)
        np.fmod(out, TWO_PI, out=out)
        out += TWO_PI
        np.fmod(out, TWO_PI, out=out)
    return out


def measured_sides(spec: MethodSpec, phases: np.ndarray) -> np.ndarray:
    """Each stream's side of its pairs: the measured differences dphi for
    nlf, exp(j*dphi) for the other differential methods."""
    dphi = pair_values(spec.scheme, np.asarray(phases, dtype=float))
    return dphi if spec.name == "nlf" else np.exp(1j * dphi)


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
    """Score per candidate for every method.

    phases is the (N,) wrapped measurement vector, or (S, N) for S
    streams over the same poses; dists is (M, N) with row m holding
    candidate m's distances to the N poses.  Returns (M,) scores, or
    (S, M).  sarfid goes through its LinearForm: per row, the sum of the
    steering phasors times the inputs, then finish.  The differential
    methods sum over the scheme's pairs: pair_values builds the pair
    geometry once for all streams, nlf's folded differences of 4*pi*d/lambda
    or the others' pair phasors, and _pair_sums sums every stream's terms
    against it, so a stream's row equals its (N,) call bit for bit.
    tagoram weights cos r by 2*(1 - Phi(|r|/sigma)) =
    erfc(|r|/(sigma*sqrt(2))) with r = atan2(sin r, cos r) in [-pi, pi],
    since a tail probability of an unwrapped circular residual would be
    meaningless.
    """
    phases = np.asarray(phases, dtype=float)
    dists = np.atleast_2d(np.asarray(dists, dtype=float))
    if spec.name == "sarfid":
        form = linear_form(spec, phases)
        sums = (_steering(dists, wavelength) * form.inputs[:, None, :]).sum(axis=-1)
        return form.finish(sums, None, 0).reshape(phases.shape[:-1] + (-1,))
    measured = measured_sides(spec, phases)
    if spec.name == "nlf":  # scaled before the difference, as on a track
        pairs = pair_values(spec.scheme, dists * (4.0 * math.pi / wavelength), fold=True)
    else:  # the (M, P) pair phasors; the steering goes before the sums' scratch comes
        steering = _steering(dists, wavelength)
        pairs = pair_values(spec.scheme, steering)
        del steering
    return _pair_sums(spec, pairs, measured[..., None, :], nlf_branch=nlf_branch)


def _pair_sums(
    spec: MethodSpec,
    pairs: np.ndarray,
    measured: np.ndarray,
    scratch: np.ndarray | None = None,
    nlf_branch: str = BRANCH_NEAREST,
    majorant: bool = False,
) -> np.ndarray:
    """Sums over the last axis of a differential method's pair terms, from
    the geometry every stream shares and the streams' own side of each
    pair, broadcast against it; each method's term is written here once.
    tagoram's term is erfc(|r|/(sigma*sqrt(2))) * cos r, r = atan2(sin r,
    cos r).  With majorant, tagoram sums exp(-(Im u/(sigma*sqrt(2)))^2)
    instead, which is at least that for every r: where cos r <= 0 the term
    is <= 0, elsewhere sin^2 r <= r^2 and erfc x <= exp(-x^2) for x >= 0.
    The exponent is (Im u)^2 times -g^2, g = 1/(sigma*sqrt(2)) capped at
    1e150, clamped at -700: both only raise the bound, and keep the product
    finite at any sigma (where 2*sigma^2 underflows g^2 stays 1e300) and
    exp clear of its slow subnormal results.

    For nlf, pairs holds the folded geometric differences
    wrap(4*pi*(d_a - d_b)/lambda), measured the measured differences
    dphi, and the residual is dphi - pairs.  For the other methods pairs
    holds the pair phasors A_a * conj(A_b), measured exp(j*dphi), and
    u = pairs * exp(j*dphi) = exp(j*r) gives cos r and sin r as its real
    and imaginary parts.  Every array of the broadcast shape is written,
    in C order, into scratch, a float64 buffer of at least three times its
    size (two for nlf), or into one such buffer allocated here.  pairs may
    be the start of scratch itself, which then takes u (or nlf's
    residuals) in place.
    """
    shape = np.broadcast_shapes(pairs.shape, measured.shape)
    size = math.prod(shape)
    if scratch is None:
        scratch = np.empty((2 if spec.name == "nlf" else 3) * size)
    if spec.name == "nlf":
        res = np.subtract(measured, pairs, out=scratch[:size].reshape(shape))
        return _nlf_scores(res, nlf_branch, scratch[size : 2 * size].reshape(shape))
    u = np.multiply(pairs, measured, out=scratch[: 2 * size].view(complex).reshape(shape))
    re, im = u.real, u.imag
    if spec.name == "clf":
        return re.sum(axis=-1)
    terms = scratch[2 * size : 3 * size].reshape(shape)
    if spec.name == "tagoram":
        scale = spec.tagoram_sigma * math.sqrt(2.0)
        if majorant:  # 1/scale capped so that its square stays finite
            np.multiply(np.square(im, out=terms), -min(1.0 / scale, 1e150) ** 2, out=terms)
            return np.exp(np.maximum(terms, -700.0, out=terms), out=terms).sum(axis=-1)
        from scipy.special import erfc  # imported here: ~225 ms that the other methods never need

        np.abs(np.arctan2(im, re, out=terms), out=terms)
        terms /= scale
        erfc(terms, out=terms)
        terms *= re
        return terms.sum(axis=-1)
    if spec.name == "wclf":
        np.abs(re, out=terms)
        terms *= re
        return terms.sum(axis=-1)
    np.square(im, out=terms)
    if spec.name == "wslf":  # the weights overwrite u once its sin r has been read
        weights = np.negative(terms, out=scratch[:size].reshape(shape))
        terms *= np.exp(weights, out=weights)
    return -terms.sum(axis=-1)  # sign-symmetric rounding: the sum of the negated terms


def _nlf_scores(res: np.ndarray, nlf_branch: str, lo: np.ndarray) -> np.ndarray:
    """-sum over the last axis of squared residuals, with the geometric
    differences folded into [0, 2*pi) and shifted by the branch; res is
    overwritten, and lo, of res's shape, holds the shifted residuals.
    "nearest" keeps the smaller of res^2 and (res + 2*pi)^2: squaring
    rounds monotonically, so that is the square of the smaller magnitude."""
    if nlf_branch == BRANCH_NEGATIVE:
        res += TWO_PI
    elif nlf_branch == BRANCH_NEAREST:
        np.square(np.add(res, TWO_PI, out=lo), out=lo)
        return -np.minimum(np.square(res, out=res), lo, out=res).sum(axis=-1)
    elif nlf_branch != BRANCH_NONNEGATIVE:
        raise ValueError(f"unknown branch {nlf_branch!r}")
    return -np.square(res, out=res).sum(axis=-1)


@dataclass(frozen=True)
class LinearForm:
    """A method whose score is linear in the phasors w_n = exp(j*phi_n)*A_n:
    per cell, one sum y = sum_n inputs[..., n] * K_n, then finish(y).

    K_n is the steering phasor A_n = exp(-j*4*pi*d_n/lambda) of the cell
    to pose n raised to ``power``, and inputs holds one per pose.  clf and
    slf take the reference index r as their ``anchor``, and their finish
    also reads K_r, the cell's kernel at the reference pose; sarfid has
    none.
    """

    name: str
    inputs: np.ndarray  # (S, N) complex, one row per stream
    power: int
    anchor: int | None

    def finish(self, sums: np.ndarray, anchor_kernel: np.ndarray | None, stream: int) -> np.ndarray:
        """Scores of stream ``stream`` from its sums y and, with an anchor,
        K_r at the same cells."""
        n = self.inputs.shape[-1]
        if self.name == "sarfid":  # |sum_n w_n| / N
            return np.abs(sums) / n
        # Re[conj(w_r) * sum_n w_n] - |w_r|^2, or the same of w^2, over n-1 pairs
        re = np.multiply(anchor_kernel, self.inputs[stream, self.anchor])
        re = np.multiply(np.conjugate(re, out=re), sums, out=re).real - 1.0
        if self.name == "clf":
            return re
        re *= 0.5  # -sin^2 r = (cos 2r - 1)/2 over the n-1 pairs
        re -= 0.5 * (n - 1)
        return re


def linear_form(spec: MethodSpec, phases: np.ndarray) -> LinearForm | None:
    """sarfid's, or clf's or slf's under reference:r, LinearForm for (N,)
    or (S, N) phases (as (1, ...) or (S, ...) inputs); None for the other
    methods and schemes.  Raises as pair_indices does for fewer than two
    reads or a reference index out of range."""
    if spec.name not in ("clf", "slf", "sarfid") or spec.scheme.kind == "misaligned":
        return None
    phases = np.atleast_2d(np.asarray(phases, dtype=float))
    if spec.name == "sarfid":
        return LinearForm(spec.name, np.exp(1j * phases), 1, None)
    _check_reads(spec.scheme, phases.shape[-1])  # raises as the pairs do
    power = 1 if spec.name == "clf" else 2
    return LinearForm(spec.name, np.exp(1j * power * phases), power, spec.scheme.reference_index)


def _steering(dists: np.ndarray, wavelength: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(-j*4*pi*d/lambda) per entry of dists; cos and sin into one
    complex array cost less than np.exp of an imaginary array.  With out,
    a complex array of dists' shape, float64 dists is overwritten."""
    if out is None:
        neg_kd = (-4.0 * math.pi / wavelength) * np.asarray(dists, dtype=float)
        out = np.empty(neg_kd.shape, dtype=complex)
    else:
        neg_kd = np.multiply(-4.0 * math.pi / wavelength, dists, out=dists)
    np.cos(neg_kd, out=out.real)
    np.sin(neg_kd, out=out.imag)
    return out

