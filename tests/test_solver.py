"""Grid regions, holograms, argmax estimates and refinement."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import phaseloc.solver as solver_mod
from phaseloc import (
    METHOD_NAMES,
    CarrierConfig,
    DifferentialScheme,
    GridEvaluator,
    Hologram,
    MethodSpec,
    NoiseModel,
    Position3D,
    SampleStream,
    Scenario,
    SearchRegion,
    TagTruth,
    argmax_estimate,
    evaluate_hologram,
    find_peak_regions,
    linear_track,
    objective_batch,
    refine_local,
    sarfid_batch,
    synthesize,
)
from phaseloc.io_eval import resolve_method
from phaseloc.phase_model import squared_norm_rows

CARRIER = CarrierConfig(866.9e6)


def noise_free_samples(
    truth=Position3D(0.0, 0.12, 0.24), phi0=1.9, seed=7, spacing=0.02, y_half=0.3
):
    sc = Scenario(
        tags=(TagTruth("T1", truth, phi0=phi0),),
        trajectory=linear_track(x=1.4, z=0.0, y_start=-y_half, y_stop=y_half, spacing=spacing),
        carrier=CARRIER,
        noise=NoiseModel(constant_sigma=0.0),
        rng_seed=seed,
    )
    return synthesize(sc)["T1"]


def reads(stream, start, stop=None):
    """Reads start..stop of a stream, as a stream of their own."""
    cut = slice(start, stop)
    return SampleStream(stream.poses[cut], stream.phases[cut], stream.carrier)


def assert_positions_close(a, b, tol=1e-9):
    assert abs(a.x - b.x) <= tol and abs(a.y - b.y) <= tol and abs(a.z - b.z) <= tol


CLF = MethodSpec("clf", DifferentialScheme.reference(0))


class TestSearchRegion:
    def test_shape_and_cells(self):
        r = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.05), resolution=0.01)
        assert r.shape == (1, 21, 6)
        assert r.cell_count == 126

    def test_single_cell_region(self):
        r = SearchRegion(x=(0.0, 0.0), y=(0.2, 0.2), z=(0.3, 0.3), resolution=0.01)
        assert r.shape == (1, 1, 1)
        assert r.position_at(0) == Position3D(0.0, 0.2, 0.3)

    def test_grid_hits_exact_centimeters(self):
        r = SearchRegion(x=(0.0, 0.0), y=(-0.7, 0.7), z=(0.0, 0.7), resolution=0.01)
        ys = r.axis_cells(1)
        assert len(ys) == 141
        assert ys[0] == -0.7 and abs(ys[-1] - 0.7) < 1e-12

    def test_cell_cap(self):
        with pytest.raises(ValueError):
            SearchRegion(x=(0, 1), y=(0, 1), z=(0, 1), resolution=0.001)

    def test_cell_cap_rejects_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                SearchRegion(x=(0.0, 0.0), y=(0.0, 1.0), z=(0.0, 0.0), resolution=5e-8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_degenerate_and_bad_resolution(self):
        with pytest.raises(ValueError):
            SearchRegion(x=(1.0, 0.0), y=(0, 1), z=(0, 1))
        with pytest.raises(ValueError):
            SearchRegion(x=(0, 0), y=(0, 1), z=(0, 1), resolution=0.0)

    def test_candidates_c_order(self):
        r = SearchRegion(x=(0.0, 0.0), y=(0.0, 0.01), z=(0.0, 0.01), resolution=0.01)
        cands = r.candidates()
        assert cands.shape == (4, 3)
        # z varies fastest
        assert list(cands[:, 2]) == [0.0, 0.01, 0.0, 0.01]
        assert list(cands[:, 1]) == [0.0, 0.0, 0.01, 0.01]


class TestEvaluateHologram:
    def test_normalization_bounds(self):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        holo = evaluate_hologram(samples, region, CLF)
        assert holo.scores.min() == 0.0
        assert holo.scores.max() == 1.0
        assert holo.raw_max > holo.raw_min

    def test_single_cell_hologram_is_one(self):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(0.1, 0.1), z=(0.2, 0.2))
        holo = evaluate_hologram(samples, region, CLF)
        assert holo.scores.shape == (1, 1, 1)
        assert holo.scores[0, 0, 0] == 1.0

    def test_deterministic(self):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        a = evaluate_hologram(samples, region, CLF)
        b = evaluate_hologram(samples, region, CLF)
        assert np.array_equal(a.scores, b.scores)
        assert (a.raw_min, a.raw_max) == (b.raw_min, b.raw_max)

    def test_peak_within_one_cell_of_truth(self):
        truth = Position3D(0.0, 0.12, 0.24)
        samples = noise_free_samples(truth)
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        est = argmax_estimate(evaluate_hologram(samples, region, CLF), truth=truth)
        assert est.err_combined_yz <= math.hypot(0.02, 0.02) + 1e-12

    def test_requires_two_samples(self):
        samples = reads(noise_free_samples(), 0, 1)
        region = SearchRegion(x=(0.0, 0.0), y=(0, 0.1), z=(0, 0.1))
        with pytest.raises(ValueError):
            evaluate_hologram(samples, region, CLF)

    def test_scores_are_read_only(self):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(0.0, 0.1), z=(0.0, 0.1), resolution=0.05)
        holo = evaluate_hologram(samples, region, CLF)
        with pytest.raises(ValueError):
            holo.scores[0, 0, 0] = 5.0

    def test_matches_independent_full_scan_oracle(self):
        # Independent oracle: per-cell scalar objective, plain argmax.
        rng = np.random.default_rng(53)
        truth = Position3D(0.0, 0.1, 0.2)
        sc = Scenario(
            tags=(TagTruth("T1", truth, phi0=0.8),),
            trajectory=linear_track(x=1.4, z=0.0, y_start=-0.2, y_stop=0.2, spacing=0.04),
            carrier=CARRIER,
            noise=NoiseModel(constant_sigma=0.1),
            rng_seed=int(rng.integers(1 << 32)),
        )
        samples = synthesize(sc)["T1"]
        region = SearchRegion(x=(0.0, 0.0), y=(-0.07, 0.07), z=(0.1, 0.24), resolution=0.02)
        holo = evaluate_hologram(samples, region, CLF)
        est = argmax_estimate(holo, tag_id="T1")

        phases = np.array([s.phase_wrapped for s in samples])
        poses = np.array([s.antenna_pose.as_array() for s in samples])
        best_idx, best_score = None, -math.inf
        for idx, cand in enumerate(region.candidates()):
            dists = np.sqrt(((poses - cand) ** 2).sum(axis=1))
            score = objective_batch(phases, dists, CLF, CARRIER.wavelength)[0]
            if score > best_score:
                best_idx, best_score = idx, score
        assert est.position == region.position_at(best_idx)

    def test_monotone_affine_invariance(self):
        samples = noise_free_samples(seed=11)
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)

        def raw(phases, dists, wavelength):
            residual = phases[None, :] - 4 * math.pi * dists / wavelength
            return np.cos(residual).sum(axis=1)

        def mapped(phases, dists, wavelength):
            return 3.5 * raw(phases, dists, wavelength) - 2.0

        a = argmax_estimate(evaluate_hologram(samples, region, raw))
        b = argmax_estimate(evaluate_hologram(samples, region, mapped))
        assert a.position == b.position

    def test_subbox_restriction_keeps_estimate(self):
        truth = Position3D(0.0, 0.12, 0.24)
        samples = noise_free_samples(truth)
        big = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        small = SearchRegion(x=(0.0, 0.0), y=(0.0, 0.2), z=(0.1, 0.4), resolution=0.02)
        a = argmax_estimate(evaluate_hologram(samples, big, CLF))
        b = argmax_estimate(evaluate_hologram(samples, small, CLF))
        # same cell; anchors differ, so grid points may differ by an ulp
        assert_positions_close(a.position, b.position)


def manual_hologram(scores):
    scores = np.asarray(scores, dtype=float)
    ny, nz = scores.shape
    region = SearchRegion(
        x=(0.0, 0.0), y=(0.0, 0.01 * (ny - 1)), z=(0.0, 0.01 * (nz - 1)), resolution=0.01
    )
    return Hologram(region=region, scores=scores[None, :, :], raw_min=0.0, raw_max=1.0)


class TestArgmaxEstimate:
    def test_single_cell(self):
        region = SearchRegion(x=(0.0, 0.0), y=(0.2, 0.2), z=(0.3, 0.3))
        holo = Hologram(region=region, scores=np.ones((1, 1, 1)), raw_min=1.0, raw_max=1.0)
        est = argmax_estimate(holo)
        assert est.position == Position3D(0.0, 0.2, 0.3)
        assert est.peak_ratio == math.inf

    def test_tie_breaks_to_lowest_linear_index(self):
        scores = np.zeros((5, 5))
        scores[1, 1] = 1.0
        scores[3, 4] = 1.0  # equal maxima; (1,1) has the lower linear index
        est = argmax_estimate(manual_hologram(scores))
        assert est.position == Position3D(0.0, 0.01, 0.01)
        assert est.peak_ratio == 1.0

    def test_errors_vs_truth(self):
        scores = np.zeros((4, 4))
        scores[2, 1] = 1.0
        est = argmax_estimate(manual_hologram(scores), truth=Position3D(0.0, 0.0, 0.0))
        assert est.err_y == pytest.approx(0.02)
        assert est.err_z == pytest.approx(0.01)
        assert est.err_combined_yz == pytest.approx(math.hypot(0.02, 0.01))
        assert est.err_x == 0.0


class TestFindPeakRegions:
    def test_two_separated_plateaus(self):
        scores = np.zeros((7, 7))
        scores[1, 1] = scores[1, 2] = 1.0
        scores[5, 5] = 0.9995
        peaks = find_peak_regions(manual_hologram(scores), threshold=0.999)
        assert len(peaks) == 2
        assert peaks[0][1] == 1.0

    def test_connected_ridge_is_one_region(self):
        scores = np.zeros((5, 5))
        scores[2, :] = 1.0
        peaks = find_peak_regions(manual_hologram(scores), threshold=0.999)
        assert len(peaks) == 1

    def test_mirror_ambiguity_and_half_space_restriction(self):
        truth = Position3D(0.0, 0.12, 0.4)
        samples = noise_free_samples(truth, y_half=0.5)
        full = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(-0.6, 0.6), resolution=0.01)
        holo = evaluate_hologram(samples, full, CLF)
        peaks = find_peak_regions(holo, threshold=0.999)
        assert len(peaks) == 2
        zs = sorted(full.position_at(flat).z for flat, _ in peaks)
        assert zs[0] == pytest.approx(-0.4, abs=0.011)
        assert zs[1] == pytest.approx(+0.4, abs=0.011)

        half = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.6), resolution=0.01)
        peaks = find_peak_regions(evaluate_hologram(samples, half, CLF), threshold=0.999)
        assert len(peaks) == 1
        assert half.position_at(peaks[0][0]).z == pytest.approx(0.4, abs=0.011)


class TestRefineLocal:
    def test_noise_free_refinement_is_tight(self):
        # truth off the coarse grid along z only; y stays grid-aligned so
        # the flat z-ridge cannot trade a y offset for a large z excursion
        truth = Position3D(0.0, 0.12, 0.243)
        samples = noise_free_samples(truth, y_half=0.5)
        region = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.5), resolution=0.02)
        holo = evaluate_hologram(samples, region, CLF)
        res = refine_local(holo, samples)
        assert res.refined
        coarse = argmax_estimate(holo).position
        # never leaves the 3x3-cell neighborhood of the coarse peak
        assert abs(res.position.y - coarse.y) <= 0.03 + 1e-9
        assert abs(res.position.z - coarse.z) <= 0.03 + 1e-9
        err = math.hypot(res.position.y - truth.y, res.position.z - truth.z)
        assert err <= math.hypot(0.002, 0.002) + 1e-9

    def test_exact_peak_unchanged(self):
        truth = Position3D(0.0, 0.12, 0.24)
        samples = noise_free_samples(truth)
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        holo = evaluate_hologram(samples, region, CLF)
        res = refine_local(holo, samples)
        assert res.refined
        assert abs(res.position.y - 0.12) <= 0.002 + 1e-12
        assert abs(res.position.z - 0.24) <= 0.002 + 1e-12

    def test_flat_hologram_flagged(self):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(0.0, 0.04), z=(0.0, 0.04), resolution=0.02)

        def flat(phases, dists, wavelength):
            return np.zeros(dists.shape[0])

        holo = evaluate_hologram(samples, region, flat)
        res = refine_local(holo, samples, method=flat)
        assert not res.refined
        assert res.position == region.position_at(0)


BLOCK_SPECS = [MethodSpec(name) for name in METHOD_NAMES] + [
    MethodSpec(name, DifferentialScheme.misaligned()) for name in ("nlf", "clf", "slf", "wclf", "wslf")
]


@st.composite
def block_scenes(draw):
    """A region with 1-3 free axes, N poses and phases, and a BLOCK size
    from one entry (two cells per block) up to the whole grid, with a
    ragged last block whenever the row count does not divide the cells."""
    free = draw(st.sets(st.integers(0, 2), min_size=1))
    bounds, res = [], []
    for axis in range(3):
        lo, step = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.005, 0.2))
        count = draw(st.integers(2, 6)) if axis in free else 1
        bounds.append((lo, lo + (count - 1) * step))
        res.append(step)
    region = SearchRegion(*bounds, resolution=tuple(res))
    n = draw(st.integers(2, 60))
    poses = draw(arrays(float, (n, 3), elements=st.floats(-2.0, 2.0)))
    phases = draw(arrays(float, n, elements=st.floats(0.0, 2.0 * math.pi, exclude_max=True)))
    return region, poses, phases, draw(st.integers(1, region.cell_count * n))


class TestGridEvaluator:
    def test_distance_cache_consistency(self):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.02)
        poses = np.array([[s.antenna_pose.x, s.antenna_pose.y, s.antenna_pose.z] for s in samples])
        ev = GridEvaluator(region, poses)
        a = ev.hologram(samples, CLF)
        b = evaluate_hologram(samples, region, CLF)
        assert np.array_equal(a.scores, b.scores)

    @settings(max_examples=150, deadline=None)
    @given(scene=block_scenes())
    # 5 cells in blocks of 2: the last cell would be a one-row block, whose
    # 8 clf terms numpy would sum pairwise instead of in order
    @example(scene=(
        SearchRegion(x=(0.0, 0.5), y=(0.0, 0.0), z=(0.0, 0.0), resolution=0.125),
        np.zeros((9, 3)), np.array([2.0, 0, 0, 0, 0, 0, 0, 0, 0]), 18,
    ))
    def test_block_path_matches_whole_matrix(self, scene):
        region, poses, phases, block = scene
        cells = region.candidates()
        dists = np.sqrt(squared_norm_rows(cells[:, None, :] - poses[None, :, :]))
        lam = CARRIER.wavelength
        with mock.patch.object(solver_mod, "BLOCK", block):
            ev = GridEvaluator(region, poses)
            for spec in BLOCK_SPECS:
                assert np.array_equal(ev.raw_scores(phases, spec, lam), spec(phases, dists, lam)), spec

    def test_scoring_stays_in_block_budget(self):
        # 27 x 27 x 27 = 19,683 cells x 101 poses: a cached distance matrix
        # alone would take 16 MB, and wslf's temporaries six times that
        region = SearchRegion(x=(0.0, 0.26), y=(-0.13, 0.13), z=(0.0, 0.26), resolution=0.01)
        samples = noise_free_samples(spacing=0.01, y_half=0.5)
        m, n = region.cell_count, len(samples)
        assert (m, n) == (19_683, 101)
        tracemalloc.start()
        try:
            evaluate_hologram(samples, region, MethodSpec("wslf"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # GridEvaluator's stated budget: 4 MiB of block arrays, plus the
        # per-axis tables and the hologram's raw, shifted and normalized scores
        assert peak < 4 * 2**20 + 8 * n * sum(region.shape) + 3 * 8 * m

    @pytest.mark.parametrize("method", [CLF, MethodSpec("sarfid")])
    def test_truncated_stream_rejected(self, method):
        samples = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.02)
        ev = GridEvaluator(region, samples.poses)
        with pytest.raises(ValueError, match="poses"):
            ev.hologram(reads(samples, 10), method)

    def test_refine_without_method_rejected(self):
        holo = manual_hologram(np.eye(4))
        with pytest.raises(ValueError):
            refine_local(holo, noise_free_samples())


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_method_spec_is_its_own_scorer(name):
    poses = noise_free_samples().poses
    cells = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.02).candidates()
    dists = np.linalg.norm(cells[:, None, :] - poses[None, :, :], axis=2)
    phases = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, len(poses))
    lam = CARRIER.wavelength
    spec = resolve_method(name)
    if name == "sarfid":
        direct = sarfid_batch(phases, dists, lam)
        with pytest.raises(ValueError, match="sarfid_batch"):
            objective_batch(phases, dists, spec, lam)
    else:
        direct = objective_batch(phases, dists, spec, lam)
    assert np.array_equal(spec(phases, dists, lam), direct)
