"""SARFID coherent-sum and Tagoram CDF-weighted baselines.

The complex-sum and erfc oracles are the references for objective_batch's
sarfid and tagoram branches; tagoram's pair sums are checked bit for bit
against the same formula written out with numpy, and its Gaussian
majorant is checked to bound every pair's term.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import phaseloc.solver as solver_mod

from phaseloc import (
    CarrierConfig,
    MethodSpec,
    NoiseModel,
    Position3D,
    SampleStream,
    Scenario,
    SearchRegion,
    TagTruth,
    argmax_estimate,
    evaluate_hologram,
    linear_track,
    predict_phase,
    synthesize,
    wrap_2pi,
)
from phaseloc.likelihood import DEFAULT_TAGORAM_SIGMA, _pair_sums

TWO_PI = 2.0 * math.pi
CARRIER = CarrierConfig(866.9e6)
LAM = CARRIER.wavelength


def candidate_dists(poses, cand):
    """(1, N) distances from one candidate to the poses."""
    return np.array([[math.dist((p.x, p.y, p.z), (cand.x, cand.y, cand.z)) for p in poses]])


def sarfid_score(phases, poses, cand):
    return float(MethodSpec("sarfid")(np.asarray(phases), candidate_dists(poses, cand), LAM)[0])


def tagoram_score(phases, poses, cand, sigma):
    spec = MethodSpec("tagoram", tagoram_sigma=sigma)
    return float(spec(np.asarray(phases), candidate_dists(poses, cand), LAM)[0])


def circle_poses(dist, n):
    return [
        Position3D(dist * math.cos(a), dist * math.sin(a), 0.0)
        for a in np.linspace(0.0, TWO_PI, n, endpoint=False)
    ]


class TestBaselineSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MethodSpec("music")

    def test_bad_sigma(self):
        for sigma in (0.0, -0.1, math.nan, math.inf, 1e-320):
            with pytest.raises(ValueError):
                MethodSpec("tagoram", tagoram_sigma=sigma)


class TestSarfid:
    def test_truth_noise_free_is_one(self):
        poses = [Position3D(1.4, y, 0.0) for y in np.linspace(-0.3, 0.3, 20)]
        truth = Position3D(0.0, 0.1, 0.2)
        phases = [predict_phase(p, truth, CARRIER, 0.0) for p in poses]
        score = sarfid_score(phases, poses, truth)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_phi0_invariance(self):
        poses = [Position3D(1.4, y, 0.0) for y in np.linspace(-0.3, 0.3, 20)]
        truth = Position3D(0.0, 0.1, 0.2)
        for phi0 in (0.7, 2.9, 5.5):
            phases = [predict_phase(p, truth, CARRIER, phi0) for p in poses]
            score = sarfid_score(phases, poses, truth)
            assert score == pytest.approx(1.0, abs=1e-12)

    def test_uniform_residual_spread_cancels(self):
        # constant distance, phases stepping 2*pi/N: perfectly destructive
        n = 8
        poses = circle_poses(1.0, n)
        base = predict_phase(poses[0], Position3D(0, 0, 0), CARRIER, 0.0)
        phases = [wrap_2pi(base + TWO_PI * k / n) for k in range(n)]
        score = sarfid_score(phases, poses, Position3D(0, 0, 0))
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_global_shift_invariance_noisy(self):
        rng = np.random.default_rng(61)
        poses = [Position3D(1.4, float(y), 0.0) for y in rng.uniform(-0.4, 0.4, 15)]
        phases = rng.uniform(0.0, TWO_PI, 15)
        cand = Position3D(0.0, 0.05, 0.3)
        base = sarfid_score(phases, poses, cand)
        shifted = sarfid_score(wrap_2pi(phases + 1.234), poses, cand)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_matches_independent_complex_sum_oracle(self):
        rng = np.random.default_rng(67)
        poses = [Position3D(1.4, float(y), float(z)) for y, z in rng.uniform(-0.4, 0.4, (12, 2))]
        phases = rng.uniform(0.0, TWO_PI, 12)
        cand = Position3D(0.0, 0.11, 0.21)
        got = sarfid_score(phases, poses, cand)

        total = 0.0 + 0.0j
        for p, ph in zip(poses, phases):
            d = math.sqrt((p.x - cand.x) ** 2 + (p.y - cand.y) ** 2 + (p.z - cand.z) ** 2)
            total += cmath.exp(1j * (ph - 4.0 * math.pi * d / LAM))
        assert got == pytest.approx(abs(total) / 12, rel=1e-12)

    def test_needs_a_sample(self):
        region = SearchRegion(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.0, 0.0))
        with pytest.raises(ValueError):
            empty = SampleStream(np.empty((0, 3)), np.empty(0), CARRIER)
            evaluate_hologram(empty, region, MethodSpec("sarfid"))


class TestTagoram:
    def test_zero_residuals_score_n_minus_one(self):
        poses = [Position3D(1.4, y, 0.0) for y in np.linspace(-0.3, 0.3, 9)]
        truth = Position3D(0.0, 0.1, 0.2)
        phases = [predict_phase(p, truth, CARRIER, 1.3) for p in poses]
        score = tagoram_score(phases, poses, truth, 0.02)
        assert score == pytest.approx(len(poses) - 1, rel=1e-9)

    def test_three_sigma_residual_weight_below_percent(self):
        sigma = 0.05
        poses = circle_poses(1.0, 2)
        base = predict_phase(poses[0], Position3D(0, 0, 0), CARRIER, 0.0)
        phases = [base, wrap_2pi(base + 3 * sigma)]  # single pair, residual 3*sigma
        score = tagoram_score(phases, poses, Position3D(0, 0, 0), sigma)
        w = score / math.cos(3 * sigma)
        assert 0.0 < w < 0.01

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(71)
        poses = [Position3D(1.4, float(y), float(z)) for y, z in rng.uniform(-0.4, 0.4, (10, 2))]
        phases = rng.uniform(0.0, TWO_PI, 10)
        cand = Position3D(0.0, -0.08, 0.33)
        sigma = 0.03
        got = tagoram_score(phases, poses, cand, sigma)

        d = [
            math.sqrt((p.x - cand.x) ** 2 + (p.y - cand.y) ** 2 + (p.z - cand.z) ** 2)
            for p in poses
        ]
        total = 0.0
        for n in range(1, 10):
            res = (phases[n] - phases[0]) - 4.0 * math.pi * (d[n] - d[0]) / LAM
            res = math.pi - (math.pi - res) % TWO_PI
            w = erfc(abs(res) / (sigma * math.sqrt(2.0)))
            total += w * math.cos(res)
        assert got == pytest.approx(total, rel=1e-12, abs=1e-12)

    def test_weights_monotone_in_residual_magnitude(self):
        poses = circle_poses(1.0, 2)
        base = predict_phase(poses[0], Position3D(0, 0, 0), CARRIER, 0.0)
        prev = math.inf
        for r in np.linspace(0.0, math.pi, 40):
            phases = [base, wrap_2pi(base + r)]
            score = tagoram_score(phases, poses, Position3D(0, 0, 0), 0.5)
            w = score / math.cos(r) if abs(math.cos(r)) > 1e-9 else None
            if w is not None and not math.isclose(math.cos(r), 0.0, abs_tol=1e-6):
                assert w <= prev + 1e-12
                prev = w

    def test_needs_two_samples(self):
        poses = circle_poses(1.0, 1)
        with pytest.raises(ValueError):
            tagoram_score([1.0], poses, Position3D(0, 0, 0), 0.02)


class TestBaselineHolograms:
    def test_noise_free_localization_within_one_cell(self):
        truth = Position3D(0.0, 0.12, 0.24)
        sc = Scenario(
            tags=(TagTruth("T1", truth, phi0=2.6),),
            trajectory=linear_track(x=1.4, z=0.0, y_start=-0.3, y_stop=0.3, spacing=0.02),
            carrier=CARRIER,
            noise=NoiseModel(constant_sigma=0.0),
            rng_seed=7,
        )
        samples = synthesize(sc)["T1"]
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        for spec in (MethodSpec("sarfid"), MethodSpec("tagoram")):
            est = argmax_estimate(evaluate_hologram(samples, region, spec), truth=truth)
            assert est.err_combined_yz <= math.hypot(0.02, 0.02) + 1e-12, spec.name


def tagoram_terms(u, sigma):
    """tagoram's term erfc(|r|/(sigma*sqrt(2))) * cos r of each pair phasor
    u = exp(j*r), as numpy computes it."""
    return erfc(np.abs(np.arctan2(u.imag, u.real)) / (sigma * math.sqrt(2.0))) * u.real


def full_tagoram_sums(pairs, measured, sigma):
    """tagoram's pair sums, every pair weighted by the plain formula."""
    return tagoram_terms(np.multiply(pairs, measured), sigma).sum(axis=-1)


@st.composite
def tagoram_pairs(draw):
    """(sigma, pairs, measured): sigma from 1e-12 to 0.5, and pair phasors
    whose products with the first stream's phasors sit uniformly on the
    circle or within a few ulps of pi/2 (where cos r changes sign) or pi
    (where r wraps), with |u| a few ulps off 1."""
    sigma = draw(st.one_of(st.sampled_from([DEFAULT_TAGORAM_SIGMA, 1e-12, 0.5]),
                           st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0**e)))
    streams = draw(st.sampled_from([0, 1, 3]))  # 0: one stream's (P,) phasors
    rows, count = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    near = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, count)
    at_edges = np.array([math.pi / 2, math.pi])[rng.integers(0, 2, shape)]
    at_edges *= 1 + rng.integers(-6, 7, shape) * 2.0**-52
    angles = np.where(rng.random(shape) < near, at_edges, rng.uniform(-math.pi, math.pi, shape))
    angles *= rng.choice([-1.0, 1.0], shape)
    pairs = (1 + rng.integers(-4, 5, shape) * 2.0**-52) * np.exp(1j * angles)
    measured = np.exp(1j * rng.uniform(-math.pi, math.pi, (max(streams, 1), 1, count)))
    measured[0] = 1.0  # the first stream's u is the pairs themselves
    return sigma, pairs, measured[0, 0] if streams == 0 else measured


class TestTagoramFullTerm:
    """tagoram's pair sums against the plain formula on every pair."""

    @settings(max_examples=300, deadline=None)
    @given(tagoram_pairs())
    def test_pair_sums_match_full_formula_bit_for_bit(self, case):
        sigma, pairs, measured = case
        got = _pair_sums(MethodSpec("tagoram", tagoram_sigma=sigma), pairs, measured)
        want = full_tagoram_sums(pairs, measured, sigma)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # the sign of a zero sum included

    def test_nan_pair_keeps_its_row_nan(self):
        # a NaN phase makes both parts of its pair phasor NaN
        pairs = np.exp(1j * np.random.default_rng(4).uniform(-math.pi, math.pi, (3, 50)))
        pairs[1, 7] = complex(math.nan, math.nan)
        got = _pair_sums(MethodSpec("tagoram"), pairs, np.ones(50, complex))
        want = full_tagoram_sums(pairs, np.ones(50, complex), DEFAULT_TAGORAM_SIGMA)
        assert np.isnan(got).tolist() == [False, True, False]
        assert got[[0, 2]].tobytes() == want[[0, 2]].tobytes() and np.isnan(want[1])


def to_complex64(values, rng):
    """values in complex64, each part rounded down or up at random: either
    float32 neighbour of the float64 part, not only the nearest."""
    parts = []
    for part in (values.real, values.imag):
        near = part.astype(np.float32)
        down = np.where(near > part, np.nextafter(near, np.float32(-np.inf)), near)
        up = np.where(near < part, np.nextafter(near, np.float32(np.inf)), near)
        parts.append(np.where(rng.random(part.shape) < 0.5, down, up))
    return parts[0] + np.complex64(1j) * parts[1]


# the smallest sigma MethodSpec accepts: pi/(sigma*sqrt(2)) must stay finite
SIGMA_MIN = math.nextafter(math.pi / math.sqrt(2.0) / np.finfo(float).max, math.inf)
EPS32 = float(np.finfo(np.float32).eps)
# _bound_slack's per pair: float32 exp's rounding, and the float64 term's and |u| off 1
PAIR_SLACK = solver_mod.TERM_ULPS * (EPS32 + 16 * 2.0**-52)


class TestTagoramMajorant:
    @settings(max_examples=300, deadline=None)
    @given(
        exponent=st.floats(math.log10(SIGMA_MIN), 1.0),
        residuals=st.lists(st.tuples(st.floats(-math.pi, math.pi), st.booleans()), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_majorant_bounds_every_pair_term(self, exponent, residuals, seed):
        # the float32 majorant of a pair, from complex64 copies of its three
        # float64 phasors (A_a, A_b and exp(j*dphi)) that are up to an ulp off
        # in each part, is at least the float64 term erfc(|r|/(sigma*sqrt(2)))
        # * cos r of the same phasors less the per-pair slack of best_cells'
        # width, for phasors up to TERM_ULPS eps off the unit circle.  Residuals
        # a few sigma from 0 (the flagged ones) are where shrinking |Im u| has
        # to cover u's float32 rounding
        sigma = max(10.0**exponent, SIGMA_MIN)
        spec = MethodSpec("tagoram", tagoram_sigma=sigma)
        r = np.array([min(max(x * sigma * math.sqrt(2.0), -math.pi), math.pi) if near else x
                      for x, near in residuals])
        rng, count, ulps = np.random.default_rng(seed), len(r), solver_mod.TERM_ULPS
        a, b = rng.uniform(-math.pi, math.pi, (2, count))  # the two reads' -4*pi*d/lambda, folded
        phasors = [(1.0 + rng.integers(-ulps, ulps + 1, count) * 2.0**-52) * np.exp(1j * angle)
                   for angle in (a, b, r - a + b)]
        full = tagoram_terms(phasors[0] * np.conjugate(phasors[1]) * phasors[2], sigma)  # u = exp(j*r)
        at_a, at_b, measured = (to_complex64(phasor, rng) for phasor in phasors)
        # one pair per row: each row's sum is its pair's majorant term
        bound = _pair_sums(spec, (at_a * np.conjugate(at_b))[:, None], measured[:, None], majorant=True)
        assert (full <= bound + PAIR_SLACK).all(), (sigma, r[full > bound + PAIR_SLACK])
        assert (bound > 0.0).all() and (bound <= 1.0).all()

    @settings(max_examples=300, deadline=None)
    @given(
        exponent=st.floats(math.log10(SIGMA_MIN), 1.0),
        residuals=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shrink_covers_the_stated_rounding(self, exponent, residuals, seed):
        # the float32 u may lie anywhere within 4.4 float32 eps of the float64
        # u (likelihood._pair_sums): here it is moved that far, |Im u| outward,
        # the way that lowers the majorant most, at residuals within 8 sigma
        # of 0 (where Im u is small, so is its rounding to complex64)
        sigma = max(10.0**exponent, SIGMA_MIN)
        spec = MethodSpec("tagoram", tagoram_sigma=sigma)
        r = np.clip(np.array(residuals) * sigma * math.sqrt(2.0), -math.pi, math.pi)
        rng, ulps = np.random.default_rng(seed), solver_mod.TERM_ULPS
        u = (1.0 + rng.integers(-4 * ulps, 4 * ulps + 1, len(r)) * 2.0**-52) * np.exp(1j * r)
        moved = u + 4.4 * EPS32 * np.where(u.imag < 0.0, -1j, 1j)
        bound = _pair_sums(spec, moved.astype(np.complex64)[:, None], np.ones(1, np.complex64), majorant=True)
        full = tagoram_terms(u, sigma)
        assert (full <= bound + PAIR_SLACK).all(), (sigma, r[full > bound + PAIR_SLACK])
