"""SARFID coherent-sum and Tagoram CDF-weighted baselines.

The complex-sum and erfc oracles are the references for sarfid_batch and
for objective_batch's tagoram branch.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import erfc

from phaseloc import (
    CarrierConfig,
    MethodSpec,
    NoiseModel,
    Position3D,
    Scenario,
    SearchRegion,
    TagTruth,
    argmax_estimate,
    evaluate_hologram,
    linear_track,
    predict_phase,
    sarfid_batch,
    synthesize,
    wrap_2pi,
)

TWO_PI = 2.0 * math.pi
CARRIER = CarrierConfig(866.9e6)
LAM = CARRIER.wavelength


def candidate_dists(poses, cand):
    """(1, N) distances from one candidate to the poses."""
    return np.array([[math.dist((p.x, p.y, p.z), (cand.x, cand.y, cand.z)) for p in poses]])


def sarfid_score(phases, poses, cand):
    return float(sarfid_batch(np.asarray(phases), candidate_dists(poses, cand), LAM)[0])


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
        for sigma in (0.0, -0.1, math.nan):
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
            evaluate_hologram([], region, MethodSpec("sarfid"))


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
