"""Forward-model, angle-wrapping and sample-stream contracts."""

import math

import numpy as np
import pytest

from phaseloc import (
    CarrierConfig,
    PhaseSample,
    Position3D,
    SampleStream,
    SPEED_OF_LIGHT,
    distance,
    predict_phase,
    wrap_2pi,
    wrap_pm_pi,
)

TWO_PI = 2.0 * math.pi

# Frozen from a 50-digit mpmath evaluation of sqrt(1.4^2 + 0.5^2 + 0.3^2).
DIST_ORACLE = 1.51657508881031
# Frozen from mpmath: mod(4*pi*1.4 / (299792458/866.9e6), 2*pi).
PHASE_ORACLE_1p4M_866p9MHZ = 0.6073829294008679


class TestDistance:
    def test_identity(self):
        p = Position3D(0.0, 0.0, 0.0)
        assert distance(p, p) == 0.0

    def test_pythagorean_triple(self):
        assert distance(Position3D(0, 0, 0), Position3D(3, 4, 0)) == 5.0

    def test_high_precision_oracle(self):
        d = distance(Position3D(1.4, 0.0, 0.0), Position3D(0.0, 0.5, 0.3))
        assert math.isclose(d, DIST_ORACLE, rel_tol=1e-14)

    def test_symmetry_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = Position3D(*rng.uniform(-5, 5, 3))
            b = Position3D(*rng.uniform(-5, 5, 3))
            assert distance(a, b) == distance(b, a) >= 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Position3D(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Position3D(0.0, math.inf, 0.0)


class TestWrap2Pi:
    def test_zero(self):
        assert wrap_2pi(0.0) == 0.0

    def test_single_period_shift(self):
        assert math.isclose(wrap_2pi(-math.pi / 2), 3 * math.pi / 2, rel_tol=1e-15)

    def test_odd_multiple(self):
        assert math.isclose(wrap_2pi(7 * math.pi), math.pi, rel_tol=1e-14)

    def test_boundary_returns_exact_zero(self):
        assert wrap_2pi(TWO_PI) == 0.0
        assert wrap_2pi(-TWO_PI) == 0.0
        assert wrap_2pi(-1e-20) == 0.0  # one ulp below the boundary

    def test_idempotent_property(self):
        rng = np.random.default_rng(11)
        angles = rng.uniform(-50, 50, 100_000)
        wrapped = wrap_2pi(angles)
        assert np.all((wrapped >= 0.0) & (wrapped < TWO_PI))
        assert np.array_equal(wrap_2pi(wrapped), wrapped)

    def test_congruent_mod_2pi(self):
        rng = np.random.default_rng(13)
        for x in rng.uniform(-20, 20, 500):
            w = wrap_2pi(x)
            assert math.isclose(
                math.cos(w) + math.sin(w), math.cos(x) + math.sin(x), abs_tol=1e-12
            )

    def test_wrap_pm_pi_range(self):
        rng = np.random.default_rng(17)
        vals = wrap_pm_pi(rng.uniform(-30, 30, 10_000))
        assert np.all((vals > -math.pi) & (vals <= math.pi))
        assert wrap_pm_pi(math.pi) == math.pi
        assert wrap_pm_pi(-math.pi) == math.pi
        assert wrap_pm_pi(0.0) == 0.0


class TestCarrierConfig:
    def test_wavelength_derivation(self):
        c = CarrierConfig(frequency=866.9e6)
        assert math.isclose(c.wavelength, SPEED_OF_LIGHT / 866.9e6, rel_tol=1e-12)
        assert c.wavelength == 0.3458212688891452  # frozen oracle

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            CarrierConfig(frequency=0.0)
        with pytest.raises(ValueError):
            CarrierConfig(frequency=-1.0)


class TestPredictPhase:
    def setup_method(self):
        self.carrier = CarrierConfig(frequency=866.9e6)
        self.lam = self.carrier.wavelength

    def test_zero_distance(self):
        p = Position3D(0, 0, 0)
        assert predict_phase(p, p, self.carrier, 0.0) == 0.0

    def test_quarter_wavelength(self):
        ant = Position3D(0, 0, 0)
        tag = Position3D(self.lam / 4, 0, 0)
        assert math.isclose(predict_phase(ant, tag, self.carrier, 0.0), math.pi, rel_tol=1e-12)

    def test_frozen_oracle_at_rack_standoff(self):
        ant = Position3D(1.4, 0, 0)
        tag = Position3D(0, 0, 0)
        phase = predict_phase(ant, tag, self.carrier, 0.0)
        assert math.isclose(phase, PHASE_ORACLE_1p4M_866p9MHZ, abs_tol=1e-12)

    def test_phi0_2pi_periodicity(self):
        ant, tag = Position3D(1.4, 0.2, 0.1), Position3D(0, 0.5, 0.3)
        base = predict_phase(ant, tag, self.carrier, 1.234)
        for k in (-2, -1, 1, 3):
            shifted = predict_phase(ant, tag, self.carrier, 1.234 + TWO_PI * k)
            assert math.isclose(shifted, base, abs_tol=1e-9)

    def test_rigid_translation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = rng.uniform(-2, 2, 3)
            b = rng.uniform(-2, 2, 3)
            t = rng.uniform(-3, 3, 3)
            p0 = predict_phase(Position3D(*a), Position3D(*b), self.carrier, 0.7)
            p1 = predict_phase(Position3D(*(a + t)), Position3D(*(b + t)), self.carrier, 0.7)
            assert math.isclose(p0, p1, abs_tol=1e-9)

    def test_half_wavelength_radial_periodicity(self):
        ant = Position3D(0, 0, 0)
        for d in (0.5, 1.4, 2.3):
            near = predict_phase(ant, Position3D(d, 0, 0), self.carrier, 0.3)
            far = predict_phase(ant, Position3D(d + self.lam / 2, 0, 0), self.carrier, 0.3)
            assert math.isclose(near, far, abs_tol=1e-9)


POSES = np.array([[1.4, -0.1, 0.0], [1.4, 0.0, 0.0], [1.4, 0.1, 0.0]])
CARRIER = CarrierConfig(866.9e6)


class TestPhaseSample:
    def test_rejects_out_of_range_phase(self):
        # the per-read checks live in SampleStream, which hands out PhaseSamples
        for bad in (TWO_PI, -0.1, math.nan):
            with pytest.raises(ValueError, match="phases"):
                SampleStream(POSES, np.array([0.5, bad, 1.0]), CARRIER)

    def test_accepts_valid(self):
        s = SampleStream(POSES, np.array([0.5, 1.0, 0.0]), CARRIER)[1]
        assert s == PhaseSample(Position3D(1.4, 0.0, 0.0), CARRIER, 1.0)


class TestSampleStream:
    def test_sequence_of_reads(self):
        stream = SampleStream(POSES, np.array([0.5, 1.0, 6.0]), CARRIER)
        assert len(stream) == 3
        assert [s.phase_wrapped for s in stream] == [0.5, 1.0, 6.0]
        assert stream[-1].antenna_pose == Position3D(1.4, 0.1, 0.0)
        assert stream[np.int64(0)].carrier is CARRIER
        with pytest.raises(IndexError):
            stream[3]
        with pytest.raises(TypeError):
            stream[1:]

    @pytest.mark.parametrize("poses, phases, match", [
        (POSES[:, :2], [0.5, 1.0, 2.0], "N, 3"),
        (POSES[0], [0.5], "N, 3"),
        (POSES, [0.5, 1.0], "N, 3"),
        (POSES, [[0.5, 1.0, 2.0]], "N, 3"),
        (np.where(POSES == 0.1, math.inf, POSES), [0.5, 1.0, 2.0], "finite"),
        (np.where(POSES == 0.1, math.nan, POSES), [0.5, 1.0, 2.0], "finite"),
    ])
    def test_rejects_bad_columns(self, poses, phases, match):
        with pytest.raises(ValueError, match=match):
            SampleStream(poses, np.array(phases), CARRIER)

    def test_columns_are_read_only_copies(self):
        poses, phases = POSES.copy(), np.array([0.5, 1.0, 2.0])
        stream = SampleStream(poses, phases, CARRIER)
        phases[0] = 3.0
        assert stream.phases[0] == 0.5
        with pytest.raises(ValueError):
            stream.poses[0, 0] = 0.0
        with pytest.raises(ValueError):
            stream.phases[0] = 0.0

    def test_read_only_input_is_shared(self):
        poses = POSES.copy()
        poses.setflags(write=False)
        a = SampleStream(poses, np.array([0.5, 1.0, 2.0]), CARRIER)
        b = SampleStream(poses, np.array([1.5, 2.0, 3.0]), CARRIER)
        assert a.poses is poses and b.poses is poses

    def test_empty_stream(self):
        assert len(SampleStream(np.empty((0, 3)), np.empty(0), CARRIER)) == 0
