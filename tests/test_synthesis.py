"""Synthetic stream generation: noise model, determinism, jump injection."""

import math
import tracemalloc

import numpy as np
import pytest

from phaseloc import (
    CarrierConfig,
    InterferenceSchedule,
    NoiseModel,
    Position3D,
    Scenario,
    TagTruth,
    Trajectory,
    inject_jump,
    linear_track,
    predict_phase,
    synthesize,
    wrap_2pi,
    wrap_pm_pi,
)
from phaseloc.synthesis import MAX_TRACK_POSES, _tag_rng

TWO_PI = 2.0 * math.pi
CARRIER = CarrierConfig(866.9e6)


def basic_scenario(**overrides):
    defaults = dict(
        tags=(TagTruth("T1", Position3D(0.0, 0.12, 0.24), phi0=1.9),),
        trajectory=linear_track(x=1.4, z=0.0, y_start=-0.3, y_stop=0.3, spacing=0.02),
        carrier=CARRIER,
        noise=NoiseModel(constant_sigma=0.0),
        rng_seed=7,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestTrajectory:
    def test_linear_track_poses(self):
        traj = linear_track(x=1.4, z=0.1, y_start=-0.2, y_stop=0.2, spacing=0.1)
        assert len(traj.poses) == 5
        assert Position3D(*traj.poses[0]) == Position3D(1.4, -0.2, 0.1)
        assert traj.poses[-1, 1] == pytest.approx(0.2)
        # bitwise [x, y_start + spacing*k, z], the grid the poses always had
        want = np.array([[1.4, -0.2 + 0.1 * k, 0.1] for k in range(5)])
        assert traj.poses.tobytes() == want.tobytes()
        assert traj.as_array() is traj.poses

    @pytest.mark.parametrize("poses, match", [  # a single pose: test_needs_two_poses
        ([[1.4, 0.0, 0.0], [1.4, math.nan, 0.0]], "finite"),
        ([[1.4, 0.0], [1.4, 0.1]], "N, 3"),
    ], ids=["nan", "n-by-2"])
    def test_rejects_bad_poses(self, poses, match):
        with pytest.raises(ValueError, match=match):
            Trajectory(np.array(poses))

    def test_poses_are_read_only_and_shared(self):
        poses = np.array([[1.4, 0.0, 0.0], [1.4, 0.1, 0.0]])
        traj = Trajectory(poses)
        poses[0, 0] = 9.0  # a writable input is copied
        assert traj.poses[0, 0] == 1.4
        with pytest.raises(ValueError):
            traj.poses[0, 0] = 0.0
        sc = basic_scenario(tags=(TagTruth("A", Position3D(0, 0, 0.1)),
                                  TagTruth("B", Position3D(0, 0.1, 0.2))))
        streams = synthesize(sc)
        assert all(s.poses is sc.trajectory.poses for s in streams.values())

    def test_needs_two_poses(self):
        with pytest.raises(ValueError, match="N >= 2"):
            Trajectory(poses=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            linear_track(x=0, z=0, y_start=0.0, y_stop=0.005, spacing=0.01)

    def test_pose_cap(self):
        assert len(linear_track(x=0, z=0, y_start=0.0, y_stop=MAX_TRACK_POSES - 1.0,
                                spacing=1.0).poses) == MAX_TRACK_POSES
        with pytest.raises(ValueError, match="cap"):
            linear_track(x=0, z=0, y_start=0.0, y_stop=float(MAX_TRACK_POSES), spacing=1.0)
        for spacing in (1e-300, 5e-324):  # the pose count overflows a float
            with pytest.raises(ValueError, match="cap"):
                linear_track(x=0, z=0, y_start=-0.5, y_stop=0.5, spacing=spacing)

    def test_pose_cap_rejects_before_allocating(self):
        # 1e8 poses at 1e-8 spacing would need gigabytes
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=1e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestNoiseModel:
    def test_sigma_line(self):
        nm = NoiseModel()
        assert nm.sigma(1.0) == pytest.approx(0.0144, rel=1e-12)
        assert nm.sigma(1.4) == pytest.approx(0.006 * 1.4 + 0.0084, rel=1e-12)

    def test_constant_override(self):
        nm = NoiseModel(constant_sigma=0.05)
        assert nm.sigma(0.5) == 0.05
        assert np.all(nm.sigma(np.array([0.5, 3.0])) == 0.05)

    def test_negative_sigma_rejected(self):
        nm = NoiseModel(sigma_slope=-1.0, sigma_intercept=0.0084)
        with pytest.raises(ValueError):
            nm.sigma(1.0)


class TestSynthesize:
    def test_noise_free_matches_forward_model(self):
        sc = basic_scenario()
        samples = synthesize(sc)["T1"]
        assert len(samples) == len(sc.trajectory.poses)
        for s in samples:
            want = predict_phase(s.antenna_pose, sc.tags[0].position, CARRIER, sc.tags[0].phi0)
            assert abs(s.phase_wrapped - want) < 5e-16  # within an ulp of the wrap
        # read n sits at trajectory pose n
        assert [s.antenna_pose for s in samples] == [Position3D(*p) for p in sc.trajectory.poses]

    def test_same_seed_identical_streams(self):
        sc = basic_scenario(noise=NoiseModel(), rng_seed=99)
        a = synthesize(sc)["T1"]
        b = synthesize(sc)["T1"]
        assert a.phases.tobytes() == b.phases.tobytes()
        assert a.poses.tobytes() == b.poses.tobytes()

    def test_sigma_hint_uses_distance_model(self):
        # first pose is exactly 1.0 m from the tag, so its noise is
        # sigma(1.0) = 0.0144 times the tag stream's first normal draw
        traj = Trajectory(poses=np.array([[1.4, 0, 0], [1.4, 0.1, 0]]))
        sc = basic_scenario(
            tags=(TagTruth("T1", Position3D(0.4, 0.0, 0.0)),),
            trajectory=traj,
            noise=NoiseModel(),
        )
        samples = synthesize(sc)["T1"]
        noise_free = predict_phase(Position3D(1.4, 0, 0), sc.tags[0].position, CARRIER)
        eps = wrap_pm_pi(samples[0].phase_wrapped - noise_free)
        draw = _tag_rng(sc.rng_seed, "T1").standard_normal(2)[0]
        assert eps == pytest.approx(0.0144 * draw, rel=1e-9)

    def test_per_tag_streams_independent_of_other_tags(self):
        tags2 = (
            TagTruth("A", Position3D(0.0, -0.1, 0.2), phi0=0.5),
            TagTruth("B", Position3D(0.0, 0.2, 0.4), phi0=2.5),
        )
        sc2 = basic_scenario(tags=tags2, noise=NoiseModel())
        sc1 = basic_scenario(tags=tags2[:1], noise=NoiseModel())
        full = synthesize(sc2)["A"]
        alone = synthesize(sc1)["A"]
        assert [s.phase_wrapped for s in full] == [s.phase_wrapped for s in alone]

    def test_phases_stay_in_range(self):
        sc = basic_scenario(noise=NoiseModel(constant_sigma=2.0), rng_seed=3)
        for samples in synthesize(sc).values():
            for s in samples:
                assert 0.0 <= s.phase_wrapped < TWO_PI

    def test_empty_tags_rejected(self):
        sc = basic_scenario()
        object.__setattr__(sc, "tags", ())
        with pytest.raises(ValueError):
            synthesize(sc)

    def test_duplicate_tag_ids_rejected(self):
        with pytest.raises(ValueError):
            basic_scenario(
                tags=(
                    TagTruth("X", Position3D(0, 0, 0.1)),
                    TagTruth("X", Position3D(0, 0.1, 0.2)),
                )
            )

    def test_sigma_std_matches_model_quick(self):
        # 20k draws at fixed distance; the full 1e5-draw check is in acceptance
        d = 1.5
        angles = np.linspace(0.0, TWO_PI, 20_000, endpoint=False)
        poses = tuple(Position3D(d * math.cos(a), d * math.sin(a), 0.0) for a in angles)
        sc = basic_scenario(
            tags=(TagTruth("T1", Position3D(0, 0, 0), phi0=0.7),),
            trajectory=Trajectory(poses=[(p.x, p.y, p.z) for p in poses]),
            noise=NoiseModel(),
            rng_seed=5,
        )
        samples = synthesize(sc)["T1"]
        resid = [
            wrap_pm_pi(s.phase_wrapped - predict_phase(s.antenna_pose, sc.tags[0].position, CARRIER, 0.7))
            for s in samples
        ]
        want = 0.006 * d + 0.0084
        assert np.std(resid, ddof=1) == pytest.approx(want, rel=0.05)


class TestInterference:
    def test_bias_vector_pattern(self):
        sched = InterferenceSchedule(bias_rad=0.5, period=10, offset=5)
        bias = sched.bias_vector(25)
        assert list(np.flatnonzero(bias)) == [5, 15]
        assert bias[5] == 0.5

    def test_bias_applied_before_wrap(self):
        sched = InterferenceSchedule(bias_rad=0.5, period=4, offset=1)
        sc = basic_scenario(interference=sched)
        samples = synthesize(sc)["T1"]
        truth, phi0 = sc.tags[0].position, sc.tags[0].phi0
        for n, s in enumerate(samples):
            want = predict_phase(s.antenna_pose, truth, CARRIER, phi0)
            if n % 4 == 1:
                want = wrap_2pi(want + 0.5)
            assert abs(s.phase_wrapped - want) < 5e-16

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            InterferenceSchedule(bias_rad=0.5, period=0)
        with pytest.raises(ValueError):
            InterferenceSchedule(bias_rad=0.5, period=4, offset=4)


class TestInjectJump:
    def test_forced_jump_lands_opposite_low_side(self):
        rng = np.random.default_rng(1)
        out = inject_jump(np.array([1.95 * math.pi]), rng, probability=1.0)
        assert 0.0 <= out[0] < 0.1 * math.pi

    def test_forced_jump_lands_opposite_high_side(self):
        rng = np.random.default_rng(2)
        out = inject_jump(np.array([0.04 * math.pi]), rng, probability=1.0)
        assert out[0] > 1.9 * math.pi

    def test_outside_guard_band_unchanged(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        phases = np.array([math.pi, 1.0, 5.0])
        out = inject_jump(phases, rng, probability=1.0)
        assert np.array_equal(out, phases) and out is not phases
        assert rng.bit_generator.state == state  # nothing drawn

    def test_zero_probability_identity(self):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        phases = np.array([0.01, 1.95 * math.pi, math.pi])
        assert np.array_equal(inject_jump(phases, rng, probability=0.0), phases)
        assert rng.bit_generator.state == state

    def test_draws_in_index_order(self):
        # one decision draw per near-boundary read, one landing draw per jump
        phases = np.array([0.02, math.pi, 6.2, 3.0, 0.1])
        out = inject_jump(phases, np.random.default_rng(2), probability=0.5)
        assert list(out != phases) == [True, False, False, False, True]
        rng = np.random.default_rng(2)
        want = phases.copy()
        for i in (0, 2, 4):
            if rng.uniform() < 0.5:
                u = rng.uniform()
                want[i] = u * (TWO_PI - phases[i]) if phases[i] > math.pi else TWO_PI - u * phases[i]
        assert np.array_equal(out, want)

    def test_jump_probability_invariants(self):
        sc = basic_scenario(noise=NoiseModel(), jump_probability=1.0, rng_seed=12)
        for samples in synthesize(sc).values():
            for s in samples:
                assert 0.0 <= s.phase_wrapped < TWO_PI

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            basic_scenario(jump_probability=1.5)
