"""Grid regions, holograms, argmax estimates and refinement."""

import math
import os
import select
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

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


def peaks_per_component(holo):
    """find_peak_regions as one rescan of the labels per component: the
    best cell of each, ties to the lowest flat index, strongest first."""
    labels, n = ndimage.label(holo.scores >= solver_mod.PEAK_THRESHOLD,
                              structure=np.ones((3, 3, 3), dtype=int))
    flat = holo.scores.ravel()
    peaks = []
    for lab in range(1, n + 1):
        members = np.flatnonzero(labels.ravel() == lab)
        best = members[np.argmax(flat[members])]
        peaks.append((int(best), float(flat[best])))
    return sorted(peaks, key=lambda p: (-p[1], p[0]))


class TestFindPeakRegions:
    def test_tied_plateau_keeps_lowest_flat_index(self):
        scores = np.zeros((9, 9))
        scores[2, 2:7] = 0.9995
        scores[2, 4] = scores[3, 5] = scores[2, 6] = 1.0  # a tie inside one component
        scores[7, 1] = scores[7, 2] = 1.0  # a second component, tied with the first
        scores[5, 8] = 0.9992
        holo = manual_hologram(scores)
        peaks = find_peak_regions(holo)
        assert peaks == peaks_per_component(holo)
        assert peaks == [(2 * 9 + 4, 1.0), (7 * 9 + 1, 1.0), (5 * 9 + 8, 0.9992)]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_many_components_match_per_component_scan(self, seed):
        rng = np.random.default_rng(seed)
        region = SearchRegion(x=(0.0, 0.05), y=(0.0, 0.19), z=(0.0, 0.19), resolution=0.01)
        scores = rng.choice([0.0, 0.9992, 0.9995, 1.0], p=[0.94, 0.02, 0.02, 0.02], size=region.shape)
        holo = Hologram(region=region, scores=scores, raw_min=0.0, raw_max=1.0)
        peaks = find_peak_regions(holo)
        assert len(peaks) > 20
        assert peaks == peaks_per_component(holo)

    def test_two_separated_plateaus(self):
        scores = np.zeros((7, 7))
        scores[1, 1] = scores[1, 2] = 1.0
        scores[5, 5] = 0.9995
        peaks = find_peak_regions(manual_hologram(scores))
        assert len(peaks) == 2
        assert peaks[0][1] == 1.0

    def test_connected_ridge_is_one_region(self):
        scores = np.zeros((5, 5))
        scores[2, :] = 1.0
        peaks = find_peak_regions(manual_hologram(scores))
        assert len(peaks) == 1

    def test_mirror_ambiguity_and_half_space_restriction(self):
        truth = Position3D(0.0, 0.12, 0.4)
        samples = noise_free_samples(truth, y_half=0.5)
        full = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(-0.6, 0.6), resolution=0.01)
        holo = evaluate_hologram(samples, full, CLF)
        peaks = find_peak_regions(holo)
        assert len(peaks) == 2
        zs = sorted(full.position_at(flat).z for flat, _ in peaks)
        assert zs[0] == pytest.approx(-0.4, abs=0.011)
        assert zs[1] == pytest.approx(+0.4, abs=0.011)

        half = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.6), resolution=0.01)
        peaks = find_peak_regions(evaluate_hologram(samples, half, CLF))
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
        res = refine_local(holo, samples)
        assert not res.refined
        assert res.position == region.position_at(0)


BLOCK_SPECS = [MethodSpec(name) for name in METHOD_NAMES] + [
    MethodSpec(name, DifferentialScheme.misaligned()) for name in ("nlf", "clf", "slf", "wclf", "wslf")
]


PHASES = st.floats(0.0, 2.0 * math.pi, exclude_max=True)


@st.composite
def regions(draw):
    """A region with 1-3 free axes of 2-6 cells each."""
    free = draw(st.sets(st.integers(0, 2), min_size=1))
    bounds, res = [], []
    for axis in range(3):
        lo, step = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.005, 0.2))
        count = draw(st.integers(2, 6)) if axis in free else 1
        bounds.append((lo, lo + (count - 1) * step))
        res.append(step)
    return SearchRegion(*bounds, resolution=tuple(res))


@st.composite
def block_scenes(draw, streams=st.just(0)):
    """A region, N poses, phases of shape (N,) (or (S, N) for S drawn from
    ``streams``) and a BLOCK size from one entry (two cells per block) up
    to the whole grid, with a ragged last block whenever the row count
    does not divide the cells."""
    region = draw(regions())
    n, s = draw(st.integers(2, 60)), draw(streams)
    poses = draw(arrays(float, (n, 3), elements=st.floats(-2.0, 2.0)))
    phases = draw(arrays(float, (s, n) if s else n, elements=PHASES))
    return region, poses, phases, draw(st.integers(1, region.cell_count * max(1, s) * n))


@st.composite
def stacked_scenes(draw):
    """A region, N in 2-40 poses, S in 2-6 stacked phase rows and a
    reference index."""
    region = draw(regions())
    n, s = draw(st.integers(2, 40)), draw(st.integers(2, 6))
    poses = draw(arrays(float, (n, 3), elements=st.floats(-2.0, 2.0)))
    phases = draw(arrays(float, (s, n), elements=PHASES))
    return region, poses, phases, draw(st.integers(0, n - 1))


def stacked_specs(ref):
    """nlf under both schemes, the four other likelihoods under
    misaligned and reference:ref, and the two baselines."""
    schemes = (DifferentialScheme.misaligned(), DifferentialScheme.reference(ref))
    likelihoods = [
        MethodSpec(name, scheme) for name in ("clf", "slf", "wclf", "wslf") for scheme in schemes
    ]
    return [MethodSpec("nlf", scheme) for scheme in schemes], likelihoods + [
        MethodSpec("sarfid"), MethodSpec("tagoram")
    ]


def score_scale(spec, n):
    """The largest change an error eps in one residual can make to a score,
    per unit eps: every term's slope is at most 1 (tagoram's erfc weight
    adds sqrt(2/pi)/sigma), over N-1 terms (sarfid: a mean of unit
    phasors)."""
    if spec.name == "sarfid":
        return 1.0
    slope = 1.0 + math.sqrt(2.0 / math.pi) / spec.tagoram_sigma if spec.name == "tagoram" else 1.0
    return slope * (n - 1)


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
        ev = GridEvaluator(region, poses)
        for spec in BLOCK_SPECS:
            whole = spec(phases, dists, lam)
            for workers in (1, 2, 3):
                with mock.patch.multiple(solver_mod, BLOCK=block, WORKERS=workers):
                    assert np.array_equal(ev.raw_scores(phases, spec, lam), whole), (spec, workers)

    @settings(max_examples=100, deadline=None)
    @given(scene=block_scenes(streams=st.integers(2, 4)))
    # 5 cells of 3 streams x 9 poses with BLOCK below S*N: two cells per
    # block and a lone last cell that joins its neighbour
    @example(scene=(
        SearchRegion(x=(0.0, 0.5), y=(0.0, 0.0), z=(0.0, 0.0), resolution=0.125),
        np.zeros((9, 3)), np.tile([2.0, 0, 0, 0, 0, 0, 0, 0, 0], (3, 1)), 5,
    ))
    def test_stacked_block_path_matches_whole_matrix(self, scene):
        region, poses, phases, block = scene
        cells = region.candidates()
        dists = np.sqrt(squared_norm_rows(cells[:, None, :] - poses[None, :, :]))
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        for spec in BLOCK_SPECS:
            whole = spec(phases, dists, lam)
            for workers in (1, 2, 3):
                with mock.patch.multiple(solver_mod, BLOCK=block, WORKERS=workers):
                    assert np.array_equal(ev.raw_scores(phases, spec, lam), whole), (spec, workers)

    @settings(max_examples=150, deadline=None)
    @given(scene=stacked_scenes())
    @example(scene=(  # N = 2
        SearchRegion(x=(0.0, 0.2), y=(0.0, 0.0), z=(0.0, 0.0), resolution=0.1),
        np.array([[1.4, -0.1, 0.0], [1.4, 0.1, 0.0]]), np.array([[0.1, 6.0], [3.0, 3.0]]), 1,
    ))
    @example(scene=(  # duplicate poses: misaligned pairs with zero distance difference
        SearchRegion(x=(0.0, 0.0), y=(-0.2, 0.2), z=(0.0, 0.3), resolution=0.1),
        np.repeat([[1.4, -0.3, 0.0], [1.4, 0.3, 0.0]], 3, axis=0),
        np.array([[0.5, 0.5, 0.6, 2.0, 2.1, 2.0], [6.0, 0.1, 6.2, 3.0, 1.0, 3.0]]), 0,
    ))
    @example(scene=(  # candidates exactly at poses (d = 0)
        SearchRegion(x=(0.0, 0.0), y=(0.0, 0.1), z=(0.0, 0.0), resolution=0.05),
        np.array([[0.0, 0.0, 0.0], [0.0, 0.05, 0.0], [0.0, 0.1, 0.0], [0.3, 0.1, 0.0]]),
        np.array([[0.0, 1.0, 2.0, 3.0], [5.0, 4.0, 3.0, 2.0], [0.0, 0.0, 0.0, 0.0]]), 2,
    ))
    @example(scene=(  # constant phases
        SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.1),
        linear_track(x=1.4, z=0.0, y_start=-0.3, y_stop=0.3, spacing=0.02).as_array(),
        np.full((3, 31), 1.25), 15,
    ))
    def test_stacked_scores_match_single_stream(self, scene):
        # The phasor path carries each residual with an error of a few ulps
        # of 4*pi*d/lambda; nlf keeps the residual form and is bitwise equal.
        region, poses, phases, ref = scene
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        bitwise, phasor = stacked_specs(ref)
        for spec in bitwise:
            single = np.stack([ev.raw_scores(row, spec, lam) for row in phases])
            assert np.array_equal(ev.raw_scores(phases, spec, lam), single), spec
        for spec in phasor:
            tol = 1e-12 * score_scale(spec, phases.shape[1])
            stacked = ev.raw_scores(phases, spec, lam)
            for row, got in zip(phases, stacked):
                want = ev.raw_scores(row, spec, lam)
                assert np.max(np.abs(got - want)) <= tol, spec
                # a different argmax only on a true tie
                assert want[np.argmax(got)] >= want.max() - tol, spec

    def test_holograms_match_one_stream_at_a_time(self):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.05)
        streams = [noise_free_samples(phi0=phi0) for phi0 in (0.3, 1.9, 4.0)]
        ev = GridEvaluator(region, streams[0].poses)
        for spec in (MethodSpec("nlf"), MethodSpec("sarfid")):
            for stacked, stream in zip(ev.holograms(streams, spec), streams):
                assert np.array_equal(stacked.scores, ev.hologram(stream, spec).scores)
        # a stacked stream's scores do not depend on the other streams
        for spec in (CLF, MethodSpec("tagoram")):
            stacked = ev.holograms(streams, spec)
            for k, stream in enumerate(streams):
                (alone,) = ev.holograms([stream], spec)
                assert np.array_equal(alone.scores, stacked[k].scores), spec

    def test_streams_per_pass_bounds_blocks_and_raw_scores(self):
        poses = noise_free_samples().poses  # 31 poses
        plane = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        # 806 cells: blocks of PASS_CELLS cells bound the pass
        with mock.patch.object(solver_mod, "WORKERS", 1):
            s = GridEvaluator(plane, poses).streams_per_pass
            assert s == solver_mod.BLOCK // (solver_mod.PASS_CELLS * 31) == 66
            assert solver_mod.BLOCK // (s * 31) >= solver_mod.PASS_CELLS
            # 501 x 261 = 130,761 cells: the pass's raw scores bound it
            fine = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.52), resolution=0.002)
            assert GridEvaluator(fine, poses).streams_per_pass == solver_mod.PASS_SCORES // 130_761 == 8
            # a single stream per pass once one stream's poses fill a block
            assert GridEvaluator(plane, np.zeros((70_000, 3))).streams_per_pass == 1
        # each worker's block still holds PASS_CELLS cells
        with mock.patch.object(solver_mod, "WORKERS", 2):
            s = GridEvaluator(plane, poses).streams_per_pass
            assert s == 33 and solver_mod.BLOCK // 2 // (s * 31) >= solver_mod.PASS_CELLS

    @pytest.mark.parametrize("poses, match", [
        ([[1.4, 0.0, 0.0]], "N >= 2"),
        ([[1.4, 0.0, 0.0], [1.4, math.nan, 0.0]], "finite"),
        ([[1.4, 0.0], [1.4, 0.1]], "N, 3"),
    ], ids=["single", "nan", "n-by-2"])
    def test_rejects_bad_poses(self, poses, match):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.05)
        with pytest.raises(ValueError, match=match):
            GridEvaluator(region, np.array(poses))

    def test_caller_pose_writes_do_not_reach_evaluator(self):
        # the tables are built at construction, so the evaluator must not
        # share a writable array the caller can still move
        stream = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        poses = stream.poses.copy()
        ev = GridEvaluator(region, poses)
        before = ev.hologram(stream, CLF).scores
        poses[:, 0] = 0.7  # the caller moves its track afterwards
        moved = SampleStream(poses, stream.phases, stream.carrier)
        with pytest.raises(ValueError, match="poses"):
            ev.hologram(moved, CLF)
        assert np.array_equal(ev.hologram(stream, CLF).scores, before)

    def test_read_only_view_of_writable_poses_is_copied(self):
        # a read-only view still moves with its writable base
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        base = linear_track(x=1.4, z=0.0, y_start=-0.3, y_stop=0.3, spacing=0.02).poses.copy()
        view = base[:]
        view.setflags(write=False)
        ev = GridEvaluator(region, view)
        base[:, 0] = 0.7
        assert np.all(ev.poses[:, 0] == 1.4)
        assert ev._sq[0][0, 0] == (0.0 - 1.4) ** 2
        # a trajectory's own array, and read-only views of it, stay shared
        track = linear_track(x=1.4, z=0.0, y_start=-0.3, y_stop=0.3, spacing=0.02)
        assert GridEvaluator(region, track.poses).poses is track.poses
        part = track.poses[::2]
        assert GridEvaluator(region, part).poses is part

    @pytest.mark.parametrize("raising_share", [0, 1])
    def test_share_error_raised_after_every_share_finished(self, raising_share):
        # 7 blocks of 2 cells dealt to 2 shares: share 0 scores on the
        # calling thread, share 1 on the pool
        stream = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.0, 0.26), resolution=0.02)
        finished = []

        def method(phases, dists, wavelength):
            share = 0 if threading.current_thread() is threading.main_thread() else 1
            if share != raising_share:
                time.sleep(0.05)  # the other share is still scoring when the error comes
            finished.append(share)
            if share == raising_share:
                raise ValueError(f"share {share} cannot score")
            return np.zeros(dists.shape[0])

        with mock.patch.multiple(solver_mod, BLOCK=2 * 2 * 31, WORKERS=2):
            ev = GridEvaluator(region, stream.poses)
            with pytest.raises(ValueError, match=f"share {raising_share}"):
                ev.hologram(stream, method)
        # the share without an error scored all its blocks before the call returned
        assert finished.count(1 - raising_share) == (4 if raising_share else 3)

    def test_more_workers_than_cpus_score_the_same(self):
        # 5 shares on 4 pool threads and the caller, switching threads often
        region = SearchRegion(x=(0.0, 0.04), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        phases = np.stack([noise_free_samples(phi0=phi0).phases for phi0 in (0.3, 1.9, 4.0)])
        ev = GridEvaluator(region, noise_free_samples().poses)
        lam = CARRIER.wavelength
        with mock.patch.multiple(solver_mod, BLOCK=4096, WORKERS=1):
            want = [(ev.raw_scores(phases[0], spec, lam), ev.raw_scores(phases, spec, lam))
                    for spec in BLOCK_SPECS]
        interval = sys.getswitchinterval()
        with ThreadPoolExecutor(4) as pool, \
                mock.patch.multiple(solver_mod, BLOCK=4096, WORKERS=5, _pool=pool):
            sys.setswitchinterval(1e-6)
            try:
                for spec, (one, stacked) in zip(BLOCK_SPECS, want):
                    assert np.array_equal(ev.raw_scores(phases[0], spec, lam), one), spec
                    assert np.array_equal(ev.raw_scores(phases, spec, lam), stacked), spec
            finally:
                sys.setswitchinterval(interval)

    def test_one_cpu_starts_no_thread(self):
        stream = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        pool = mock.Mock(spec=solver_mod._pool)
        pool.submit.side_effect = AssertionError("a pool thread was asked to score")
        with mock.patch.multiple(solver_mod, BLOCK=64, WORKERS=1, _pool=pool):
            threads = threading.active_count()
            ev = GridEvaluator(region, stream.poses)
            for spec in (CLF, MethodSpec("sarfid")):
                ev.hologram(stream, spec)
                ev.holograms([stream, stream], spec)
        assert threading.active_count() == threads

    # Python 3.12+ warns at any fork of a multi-threaded process, which is
    # the situation this test sets up on purpose
    @pytest.mark.filterwarnings("ignore:This process .*is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_without_hanging(self):
        stream = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        with mock.patch.multiple(solver_mod, BLOCK=2048, WORKERS=2):
            ev = GridEvaluator(region, stream.poses)
            parent = ev.raw_scores(stream.phases, CLF, CARRIER.wavelength)  # starts a pool thread
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: score again, send the scores, never return
                code = 1
                try:
                    os.close(read_end)
                    child = ev.raw_scores(stream.phases, CLF, CARRIER.wavelength)
                    with os.fdopen(write_end, "wb") as out:
                        out.write(child.tobytes())
                    code = 0
                finally:
                    os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            ready, _, _ = select.select([pipe], [], [], 30.0)
            data = pipe.read() if ready else None
        if data is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        assert data is not None, "the forked child hung scoring"
        assert os.waitstatus_to_exitcode(status) == 0
        assert data == parent.tobytes()

    def test_holograms_reject_unusable_streams(self):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.05)
        stream = noise_free_samples()
        ev = GridEvaluator(region, stream.poses)
        other = SampleStream(stream.poses, stream.phases, CarrierConfig(915e6))
        with pytest.raises(ValueError, match="wavelength"):
            ev.holograms([stream, other], CLF)
        with pytest.raises(ValueError, match="poses"):
            ev.holograms([stream, reads(stream, 10)], CLF)
        with pytest.raises(ValueError, match="no streams"):
            ev.holograms([], CLF)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stacked"])
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_scoring_stays_in_block_budget(self, name, stacked):
        # 27 x 27 x 27 = 19,683 cells x 101 poses: a cached distance matrix
        # alone would take 16 MB, and wslf's temporaries six times that
        region = SearchRegion(x=(0.0, 0.26), y=(-0.13, 0.13), z=(0.0, 0.26), resolution=0.01)
        streams = [noise_free_samples(phi0=0.7 * k, spacing=0.01, y_half=0.5) for k in range(8)]
        m, n = region.cell_count, len(streams[0])
        assert (m, n) == (19_683, 101)
        tables = 8 * n * sum(region.shape)
        # hologram scores one stream's (N,) phases from its residuals,
        # holograms 8 streams' stacked (8, N) phases from steering phasors
        count = len(streams) if stacked else 1
        tracemalloc.start()
        try:
            ev = GridEvaluator(region, streams[0].poses)
            if stacked:
                ev.holograms(streams, MethodSpec(name))
            else:
                ev.hologram(streams[0], MethodSpec(name))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # GridEvaluator's stated budget: 4 MiB of block arrays while
        # S*N <= 32,768, plus the tables, the (S, M) raw scores and,
        # per hologram, its shifted and normalized scores
        assert peak < 4 * 2**20 + tables + (2 * count + 1) * 8 * m, peak

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
