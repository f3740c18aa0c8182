"""Grid regions, holograms, argmax estimates and refinement."""

import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
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
    synthesize,
)
from phaseloc.io_eval import resolve_method
from phaseloc.likelihood import DEFAULT_TAGORAM_SIGMA, pair_indices
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

    def test_shape_and_axis_cells_are_kept(self):
        # computed once per region: later calls, position_at's too, read the
        # kept shape and read-only axis cells
        r = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.01)
        cells = [r.axis_cells(axis) for axis in range(3)]
        with mock.patch.object(solver_mod, "_axis_count", side_effect=AssertionError("recounted")):
            assert r.shape == (1, 101, 71) and r.shape is r.shape
            assert all(r.axis_cells(axis) is cells[axis] for axis in range(3))
            assert r.position_at(3 * 71 + 5) == Position3D(0.0, cells[1][3], cells[2][5])
        for axis in cells:
            with pytest.raises(ValueError, match="read-only"):
                axis[0] = 1.0
        assert r == SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.01)

    def test_grid_hits_exact_centimeters(self):
        r = SearchRegion(x=(0.0, 0.0), y=(-0.7, 0.7), z=(0.0, 0.7), resolution=0.01)
        ys = r.axis_cells(1)
        assert len(ys) == 141
        assert ys[0] == -0.7 and abs(ys[-1] - 0.7) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-2.0, 2.0), span=st.floats(0.0, 2.0), res=st.floats(1e-3, 0.5))
    @example(lo=0.0, span=0.7, res=0.01)  # 0 + 0.01*70 = 0.7000000000000001
    @example(lo=0.0, span=0.7, res=0.02)  # rack-log's z grid: 0 + 0.02*35, the same
    def test_cell_centres_stay_within_bounds(self, lo, span, res):
        hi = lo + span
        region = SearchRegion(x=(lo, hi), y=(0.0, 0.0), z=(0.0, 0.0), resolution=res)
        cells = region.axis_cells(0)
        assert cells[0] == lo and lo <= cells.min() and cells.max() <= hi
        assert np.all(np.diff(cells) > 0)
        assert region.position_at(len(cells) - 1).x == cells[-1] <= hi
        if (lo, span) == (0.0, 0.7):
            assert cells[-1] == 0.7

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

    @pytest.mark.parametrize("res", [math.inf, -math.inf, math.nan, (0.01, math.inf, 0.01)])
    def test_non_finite_resolution_rejected(self, res):
        # lo + inf*0 would make the cell centers NaN
        with pytest.raises(ValueError, match="finite and positive"):
            SearchRegion(x=(0, 0), y=(0, 1), z=(0, 1), resolution=res)

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


def ratio_by_masks(scores):
    """argmax_estimate's peak_ratio from two full-grid masks: the peak over
    the largest score outside its 3x3x3 neighbourhood box."""
    peak = np.unravel_index(int(np.argmax(scores)), scores.shape)
    outside = np.ones(scores.shape, dtype=bool)
    outside[tuple(slice(max(0, p - 1), p + 2) for p in peak)] = False
    if not outside.any():
        return math.inf
    second = float(scores[outside].max())
    return math.inf if second <= 0.0 else float(scores[peak]) / second


@st.composite
def peaked_grids(draw):
    """Scores on 1-6 cells per axis, from a few levels (so ties are common),
    with the maximum anywhere: corners, edges and faces included."""
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    levels = st.sampled_from([-0.5, 0.0, 0.25, 0.9992, 0.9995, 1.0])
    return draw(arrays(float, shape, elements=levels))


class TestPeakRatio:
    @settings(max_examples=300, deadline=None)
    @given(scores=peaked_grids())
    @example(scores=np.ones((4, 5, 6)))  # all ones: the peak ties every cell outside
    @example(scores=np.ones((1, 1, 1)))  # no cell outside the neighbourhood
    @example(scores=np.arange(27.0).reshape(3, 3, 3)[::-1, ::-1, ::-1].copy())  # peak in a corner
    @example(scores=np.pad([[[1.0]]], ((1, 1), (0, 5), (1, 1))))  # box covers two axes whole
    def test_slabs_give_the_mask_formula_bit_for_bit(self, scores):
        region = SearchRegion(*((0.0, 0.01 * (n - 1)) for n in scores.shape), resolution=0.01)
        holo = Hologram(region=region, scores=scores, raw_min=0.0, raw_max=1.0)
        got, want = argmax_estimate(holo).peak_ratio, ratio_by_masks(scores)
        assert got == want or (math.isnan(got) and math.isnan(want)), (got, want)

    @pytest.mark.parametrize("shape, peak", [
        ((3, 3, 3), (1, 1, 1)), ((1, 3, 2), (0, 1, 0)), ((1, 1, 1), (0, 0, 0)), ((2, 2, 2), (1, 0, 1)),
    ])
    def test_no_cell_outside_the_neighbourhood_is_inf(self, shape, peak):
        scores = np.full(shape, 0.5)
        scores[peak] = 1.0
        region = SearchRegion(*((0.0, 0.01 * (n - 1)) for n in shape), resolution=0.01)
        holo = Hologram(region=region, scores=scores, raw_min=0.0, raw_max=1.0)
        assert argmax_estimate(holo).peak_ratio == math.inf == ratio_by_masks(scores)


def peaks_labelled_whole_grid(holo):
    """find_peak_regions labelling every cell of the grid, not only the
    box around the cells above the cut."""
    scores = holo.scores.ravel()
    labels, _ = ndimage.label(holo.scores >= solver_mod.PEAK_THRESHOLD,
                              structure=np.ones((3, 3, 3), dtype=int))
    cells = np.flatnonzero(labels)
    labs = labels.ravel()[cells]
    order = np.lexsort((cells, -scores[cells], labs))
    best = cells[order][np.diff(labs[order], prepend=0) != 0]
    best = best[np.lexsort((best, -scores[best]))]
    return [(int(c), float(scores[c])) for c in best]


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

    @settings(max_examples=300, deadline=None)
    @given(scores=peaked_grids())
    @example(scores=np.zeros((4, 4, 4)))  # no cell above the cut
    @example(scores=np.pad([[[1.0, 0.9995]]], ((0, 3), (2, 1), (1, 1))))  # box on the x=0 face
    @example(scores=np.pad([[[1.0], [0.9992]]], ((3, 0), (0, 2), (2, 0))))  # on three far faces
    @example(scores=np.pad([[[0.9995]], [[1.0]]], ((1, 1), (0, 0), (0, 0))))  # one-cell y and z
    def test_bounding_box_labels_match_whole_grid(self, scores):
        # plateaus, several components, and boxes touching each face
        region = SearchRegion(*((0.0, 0.01 * (n - 1)) for n in scores.shape), resolution=0.01)
        holo = Hologram(region=region, scores=scores, raw_min=0.0, raw_max=1.0)
        peaks = find_peak_regions(holo)
        assert peaks == peaks_labelled_whole_grid(holo)
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

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("axis, pinned", [(0, 2), (1, 0), (2, 0)], ids=["x", "y", "z"])
    def test_peak_on_a_region_bound_refines_inside_the_region(self, axis, pinned, side):
        # The tag sits 4 mm beyond one bound of a free axis, so the coarse
        # peak is the cell on that bound and the unclipped fine argmax, 4 mm
        # past it, would leave the region.  One cross-track axis is pinned:
        # on a track, cells on a circle around it score alike.
        bounds = [(0.0, 0.2), (-0.1, 0.1), (0.1, 0.3)]
        bounds[pinned] = (0.2, 0.2) if pinned == 2 else (0.0, 0.0)
        truth = [bounds[0][0], 0.02, 0.2]
        lo, hi = bounds[axis]
        truth[axis] = lo - 0.004 if side == "lower" else hi + 0.004
        samples = noise_free_samples(Position3D(*truth))
        region = SearchRegion(*bounds, resolution=0.02)
        for method in (CLF, MethodSpec("wslf")):
            holo = evaluate_hologram(samples, region, method)
            coarse = argmax_estimate(holo).position
            res = refine_local(holo, samples)
            assert res.refined
            got = (res.position.x, res.position.y, res.position.z)
            assert got[axis] == pytest.approx(lo if side == "lower" else hi, abs=1e-12)
            for c, want, (a, b) in zip(got, (coarse.x, coarse.y, coarse.z), region.bounds):
                assert a - 1e-12 <= c <= b + 1e-12
                assert abs(c - want) <= 0.03 + 1e-12

    def test_peak_on_the_track_plane_keeps_the_region_side(self):
        # The region's z_min is the track's plane, so fine cells at +z and -z
        # tie bit for bit; the tie rule would pick the -z twin, outside.
        samples = noise_free_samples(Position3D(0.0, 0.06, 0.002))
        region = SearchRegion(x=(0.0, 0.0), y=(-0.2, 0.2), z=(0.0, 0.3), resolution=0.02)
        holo = evaluate_hologram(samples, region, MethodSpec("wslf"))
        assert argmax_estimate(holo).position.z == 0.0
        res = refine_local(holo, samples)
        assert res.refined and res.position.z == pytest.approx(0.002, abs=1e-12)

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


def pose_sets(n):
    """N poses in [-2, 2]^3 holding at least two distinct positions (one
    position determines nothing, and GridEvaluator rejects it)."""
    return arrays(float, (n, 3), elements=st.floats(-2.0, 2.0)).filter(
        lambda poses: (poses != poses[0]).any()
    )


# poses mirrored about the plane y = 0, where every cell of the block
# examples below lies: a cell's distances to them, and so its steering
# phasors, are equal bit for bit, as at one pose
MIRRORED = np.array([[0.0, (-1) ** k * 0.5, 0.0] for k in range(9)])


@st.composite
def block_scenes(draw, streams=st.just(0)):
    """A region, N poses, phases of shape (N,) (or (S, N) for S drawn from
    ``streams``) and a BLOCK size from one entry (two cells per block) up
    to the whole grid, with a ragged last block whenever the row count
    does not divide the cells."""
    region = draw(regions())
    n, s = draw(st.integers(2, 60)), draw(streams)
    poses = draw(pose_sets(n))
    phases = draw(arrays(float, (s, n) if s else n, elements=PHASES))
    return region, poses, phases, draw(st.integers(1, region.cell_count * max(1, s) * n))


@st.composite
def stacked_scenes(draw):
    """A region, N in 2-40 poses, S in 2-6 stacked phase rows and a
    reference index."""
    region = draw(regions())
    n, s = draw(st.integers(2, 40)), draw(st.integers(2, 6))
    poses = draw(pose_sets(n))
    phases = draw(arrays(float, (s, n), elements=PHASES))
    return region, poses, phases, draw(st.integers(0, n - 1))


def stacked_specs(ref):
    """The five likelihoods under misaligned and reference:ref, and the
    two baselines."""
    schemes = (DifferentialScheme.misaligned(), DifferentialScheme.reference(ref))
    likelihoods = [
        MethodSpec(name, scheme) for name in ("nlf", "clf", "slf", "wclf", "wslf") for scheme in schemes
    ]
    return likelihoods + [MethodSpec("sarfid"), MethodSpec("tagoram")]


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
    # 5 cells in blocks of 2, whose lone last cell joins its neighbour
    @example(scene=(
        SearchRegion(x=(0.0, 0.5), y=(0.0, 0.0), z=(0.0, 0.0), resolution=0.125),
        MIRRORED, np.array([2.0, 0, 0, 0, 0, 0, 0, 0, 0]), 18,
    ))
    # 9 cells of one pair A * conj(A): numpy multiplies a one-element complex
    # array in place without FMA, so one-cell blocks (without the two-cell
    # floor, or the lone last cell's merge) give sin r = 0, not ~1e-17
    @example(scene=(
        SearchRegion(x=(0.0, 0.25), y=(0.0, 0.0), z=(0.0, 0.25), resolution=0.125),
        MIRRORED[:2], np.zeros(2), 1,
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
        MIRRORED, np.tile([2.0, 0, 0, 0, 0, 0, 0, 0, 0], (3, 1)), 5,
    ))
    # 3 cells of 2 streams x one pair A * conj(A) with BLOCK below S*N, none
    # at the poses (where A = 1): a one-cell block gives sin r = 0, not ~1e-17
    @example(scene=(
        SearchRegion(x=(0.125, 0.375), y=(0.0, 0.0), z=(0.0, 0.0), resolution=0.125),
        MIRRORED[:2], np.zeros((2, 2)), 1,
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
        # One stream is scored as a stack of one, from the same pair
        # geometry and per-pair terms, so its row of a stack is bitwise its own.
        region, poses, phases, ref = scene
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        for spec in stacked_specs(ref):
            single = np.stack([ev.raw_scores(row, spec, lam) for row in phases])
            assert np.array_equal(ev.raw_scores(phases, spec, lam), single), spec

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
        poses = noise_free_samples().poses.copy()  # 31 poses
        poses[15, 0] += 0.001  # one pose nudged across the track: the block path
        plane = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        assert GridEvaluator(plane, poses)._track is None
        # 806 cells: blocks of PASS_CELLS cells bound the pass
        with mock.patch.object(solver_mod, "WORKERS", 1):
            s = GridEvaluator(plane, poses).streams_per_pass
            assert s == solver_mod.BLOCK // (solver_mod.PASS_CELLS * 31) == 66
            assert solver_mod.BLOCK // (s * 31) >= solver_mod.PASS_CELLS
            # 501 x 261 = 130,761 cells: the pass's raw scores bound it
            fine = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.52), resolution=0.002)
            assert GridEvaluator(fine, poses).streams_per_pass == solver_mod.PASS_SCORES // 130_761 == 8
            # a single stream per pass once one stream's poses fill a block
            many = np.zeros((70_000, 3))
            many[1, 0] = 0.001  # two distinct positions, off any track
            assert GridEvaluator(plane, many).streams_per_pass == 1
        # each worker's block still holds PASS_CELLS cells
        with mock.patch.object(solver_mod, "WORKERS", 2):
            s = GridEvaluator(plane, poses).streams_per_pass
            assert s == 33 and solver_mod.BLOCK // 2 // (s * 31) >= solver_mod.PASS_CELLS

    @pytest.mark.parametrize("workers", [1, 2])
    def test_streams_per_pass_on_a_track_bounds_raw_scores(self, workers):
        # a track chunk's scratch does not grow with the streams: a pass
        # holds at most PASS_SCORES raw scores and PASS_SCORES stacked
        # phases, whatever the workers
        poses = noise_free_samples().poses  # 31 poses
        long_poses = noise_free_samples(y_half=30.0).poses  # 3001 poses
        with mock.patch.object(solver_mod, "WORKERS", workers):
            for region, track, cells, s in [
                (SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02), poses, 806, 1300),
                (SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.52), resolution=0.002), poses, 130_761, 8),
                (SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 1.1), resolution=0.001), poses, 1_102_101, 1),
                # more poses than cells: the stacked phases bound the pass
                (SearchRegion(x=(0.0, 0.0), y=(-0.02, 0.02), z=(0.0, 0.02), resolution=0.02), long_poses, 6, 349),
            ]:
                ev = GridEvaluator(region, track)
                assert ev._track is not None and region.cell_count == cells
                assert ev.streams_per_pass == s
                assert s * max(cells, len(track)) <= solver_mod.PASS_SCORES or s == 1
        assert solver_mod.PASS_SCORES // 6 == 174_762

    @pytest.mark.parametrize("poses, match", [
        ([[1.4, 0.0, 0.0]], "N >= 2"),
        ([[1.4, 0.0, 0.0], [1.4, math.nan, 0.0]], "finite"),
        ([[1.4, 0.0], [1.4, 0.1]], "N, 3"),
    ], ids=["single", "nan", "n-by-2"])
    def test_rejects_bad_poses(self, poses, match):
        region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.05)
        with pytest.raises(ValueError, match=match):
            GridEvaluator(region, np.array(poses))

    def test_coincident_poses_are_rejected(self):
        # five reads at one pose: every cell's pair phasors are 1 up to
        # rounding, so an argmax there would be noise
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.3), resolution=0.05)
        poses = np.array([[1.4, 0.0, 0.0]] * 5)
        with pytest.raises(ValueError, match="poses hold fewer than two distinct positions"):
            GridEvaluator(region, poses)
        stream = SampleStream(poses, np.linspace(0.1, 0.5, 5), CARRIER)
        for name in ("wslf", "tagoram"):
            with pytest.raises(ValueError, match="poses hold fewer than two distinct positions"):
                evaluate_hologram(stream, region, MethodSpec(name))
        poses[2, 2] = 1e-3  # two distinct positions are enough
        assert GridEvaluator(region, poses).region == region

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
        # 5 shares on 4 threads and the caller, switching threads often
        region = SearchRegion(x=(0.0, 0.04), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        phases = np.stack([noise_free_samples(phi0=phi0).phases for phi0 in (0.3, 1.9, 4.0)])
        ev = GridEvaluator(region, noise_free_samples().poses)
        lam = CARRIER.wavelength
        with mock.patch.multiple(solver_mod, BLOCK=4096, WORKERS=1):
            want = [(ev.raw_scores(phases[0], spec, lam), ev.raw_scores(phases, spec, lam))
                    for spec in BLOCK_SPECS]
        interval = sys.getswitchinterval()
        with mock.patch.multiple(solver_mod, BLOCK=4096, WORKERS=5):
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
        pool = mock.Mock(side_effect=AssertionError("a scoring thread was asked for"))
        with mock.patch.multiple(solver_mod, BLOCK=64, WORKERS=1, ThreadPoolExecutor=pool):
            threads = threading.active_count()
            ev = GridEvaluator(region, stream.poses)
            for spec in (CLF, MethodSpec("sarfid")):
                ev.hologram(stream, spec)
                ev.holograms([stream, stream], spec)
        assert threading.active_count() == threads

    def test_no_scoring_thread_outlives_its_pass(self):
        # a second share scores on a thread of its own, which is gone once
        # the pass returns, so a later fork finds no idle scoring thread
        stream = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        scorers = set()

        def method(phases, dists, wavelength):
            scorers.add(threading.current_thread())
            return CLF(phases, dists, wavelength)

        with mock.patch.multiple(solver_mod, BLOCK=2048, WORKERS=2):
            ev = GridEvaluator(region, stream.poses)
            ev.hologram(stream, method)
            ev.holograms([stream, stream], CLF)
        assert len(scorers) == 2 and threading.main_thread() in scorers
        assert not any(t.is_alive() for t in scorers - {threading.main_thread()})
        assert not [t for t in threading.enumerate() if t.name.startswith("phaseloc-score")]

    # Python 3.12+ warns at any fork of a multi-threaded process; the
    # scoring threads are gone by the fork, but a thread of another test
    # may not be
    @pytest.mark.filterwarnings("ignore:This process .*is multi-threaded:DeprecationWarning")
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scores_without_hanging(self):
        stream = noise_free_samples()
        region = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 0.5), resolution=0.02)
        with mock.patch.multiple(solver_mod, BLOCK=2048, WORKERS=2):
            ev = GridEvaluator(region, stream.poses)
            parent = ev.raw_scores(stream.phases, CLF, CARRIER.wavelength)  # on two threads
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

    @pytest.mark.parametrize(
        "stacked, path",
        [(False, "track"), (True, "track"), (False, "blocks"), (True, "blocks")],
        ids=["one", "stacked", "one-blocks", "stacked-blocks"],
    )
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_scoring_stays_in_block_budget(self, name, stacked, path):
        # 27 x 27 x 27 = 19,683 cells x 101 poses: a cached distance matrix
        # alone would take 16 MB, and wslf's temporaries six times that
        region = SearchRegion(x=(0.0, 0.26), y=(-0.13, 0.13), z=(0.0, 0.26), resolution=0.01)
        streams = [noise_free_samples(phi0=0.7 * k, spacing=0.01, y_half=0.5) for k in range(8)]
        if path == "blocks":  # one pose nudged 1 mm across the track: no track, so cell blocks
            poses = streams[0].poses.copy()
            poses[50, 0] += 0.001
            streams = [SampleStream(poses, s.phases, s.carrier) for s in streams]
        m, n = region.cell_count, len(streams[0])
        assert (m, n) == (19_683, 101)
        tables = 8 * n * sum(region.shape)
        # hologram scores one stream's (N,) phases, holograms 8 streams'
        # stacked (8, N) phases against the geometry they share
        count = len(streams) if stacked else 1
        tracemalloc.start()
        try:
            ev = GridEvaluator(region, streams[0].poses)
            assert (ev._track is None) == (path == "blocks")
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


def track_specs(ref):
    """The methods the track path scores: the five likelihoods under
    misaligned and reference:ref, sarfid and tagoram."""
    schemes = (DifferentialScheme.misaligned(), DifferentialScheme.reference(ref))
    likelihoods = ("nlf", "clf", "slf", "wclf", "wslf")
    return [MethodSpec(name, scheme) for name in likelihoods for scheme in schemes] + [
        MethodSpec("sarfid"), MethodSpec("tagoram")
    ]


def off_fold(spec, dists, wavelength):
    """Cells whose score does not hinge on rounding.  nlf folds each
    geometric difference 4*pi*(d_a - d_b)/lambda into [0, 2*pi), so where
    one lies within rounding of a multiple of 2*pi (a cell midway between
    two poses, say) a last-bit change moves a term by up to pi^2; such
    cells are left out for nlf, kept for every other method."""
    if spec.name != "nlf":
        return np.ones(len(dists), dtype=bool)
    idx_a, idx_b = pair_indices(spec.scheme, dists.shape[1])
    geom = 4.0 * math.pi * (dists[:, idx_a] - dists[:, idx_b]) / wavelength
    return (np.abs(geom - 2.0 * math.pi * np.round(geom / (2.0 * math.pi))) > 1e-9).all(axis=1)


def assert_track_matches(got, want, spec, dists, n):
    """got within 1e-12 of the score scale of want, off nlf's folds."""
    keep = off_fold(spec, dists, CARRIER.wavelength)
    tol = 1e-12 * score_scale(spec, n)
    assert got.shape == want.shape, spec
    assert np.max(np.abs(got - want)[..., keep], initial=0.0) <= tol, spec


@st.composite
def track_scenes(draw):
    """N in 8-40 poses stepped evenly along x, y or z, ascending or
    descending; a region of 8-14 cells on that axis, stepping q pose steps
    or 1/q of one (q in 1-3), and 1-3 cells on each other axis; phases of
    shape (N,) or (S, N) for S in 1-4; and a reference index."""
    axis, n, q = draw(st.integers(0, 2)), draw(st.integers(8, 40)), draw(st.integers(1, 3))
    step = draw(st.floats(0.005, 0.05))
    along = q * step if draw(st.booleans()) else step / q
    poses = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(3)]] * n)
    poses[:, axis] = draw(st.floats(-1.0, 1.0)) + step * np.arange(n)
    if draw(st.booleans()):
        poses = poses[::-1].copy()
    bounds, res = [], []
    for ax in range(3):
        lo = draw(st.floats(-1.0, 1.0))
        if ax == axis:
            count, r = draw(st.integers(8, 14)), along
        else:
            count, r = draw(st.integers(1, 3)), draw(st.floats(0.005, 0.2))
        bounds.append((lo, lo + (count - 1) * r))
        res.append(r)
    s = draw(st.integers(0, 4))
    phases = draw(arrays(float, (s, n) if s else n, elements=PHASES))
    return SearchRegion(*bounds, resolution=tuple(res)), poses, phases, draw(st.integers(0, n - 1))


@st.composite
def grouped_track_scenes(draw):
    """Track scenes whose cross-track axes repeat radii: N in 8-40 poses on
    a track as in track_scenes, at cross-track coordinates often 0; on each
    cross-track axis 2-5 cells one shared step apart, at offsets from the
    track that run over whole steps and hold 0 and 1 (a region symmetric
    about the track when they run -k..k, a commensurate grid like the
    volume's otherwise); phases of shape (N,) or (S, N); a reference
    index; and a BLOCK size."""
    axis, n, q = draw(st.integers(0, 2)), draw(st.integers(8, 40)), draw(st.integers(1, 3))
    step = draw(st.floats(0.005, 0.05))
    along = q * step if draw(st.booleans()) else step / q
    cross_step = draw(st.floats(0.005, 0.2))
    at = [draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))) for _ in range(3)]
    poses = np.array([at] * n)
    poses[:, axis] = draw(st.floats(-1.0, 1.0)) + step * np.arange(n)
    if draw(st.booleans()):
        poses = poses[::-1].copy()
    bounds, res = [], []
    for ax in range(3):
        if ax == axis:
            lo, count, r = draw(st.floats(-1.0, 1.0)), draw(st.integers(8, 14)), along
        else:
            first = draw(st.integers(-3, 0))
            lo, count, r = at[ax] + first * cross_step, draw(st.integers(max(2, 2 - first), 5)), cross_step
        bounds.append((lo, lo + (count - 1) * r))
        res.append(r)
    s = draw(st.integers(0, 3))
    phases = draw(arrays(float, (s, n) if s else n, elements=PHASES))
    block = draw(st.one_of(st.just(solver_mod.BLOCK), st.integers(1, 2000)))
    return SearchRegion(*bounds, resolution=tuple(res)), poses, phases, draw(st.integers(0, n - 1)), block


def line_cross(ev):
    """Each line's squared cross-track distance, lines in C order."""
    u, v = (ax for ax in range(3) if ax != ev._track.axis)
    return (ev._sq[u][:, 0, None] + ev._sq[v][None, :, 0]).ravel()


def groups_of(track):
    return [track.members[lo:hi] for lo, hi in zip(track.starts[:-1], track.starts[1:])]


def whole_matrix(region, poses):
    cells = region.candidates()
    return np.sqrt(squared_norm_rows(cells[:, None, :] - poses[None, :, :]))


# 51 poses 4 mm apart under 2 cm cells, as rack-log's scene: r = 5*s
RACK_TRACK = linear_track(x=1.4, z=0.0, y_start=-0.1, y_stop=0.1, spacing=0.004).as_array()
RACK_PLANE = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.1), resolution=0.02)
# 41 poses 1 cm apart under a refine_local grid of 1 mm cells: s = 10*r
REFINE_TRACK = linear_track(x=1.4, z=0.0, y_start=-0.2, y_stop=0.2, spacing=0.01).as_array()
REFINE_GRID = SearchRegion(x=(0.0, 0.0), y=(0.105, 0.135), z=(0.225, 0.255), resolution=0.001)
UNEVEN_TRACK = REFINE_TRACK.copy()
UNEVEN_TRACK[12, 1] += 1e-11  # 4e-10 rad of one pose's phase: past the 1e-12 gate


class TestTrackPath:
    @settings(max_examples=150, deadline=None)
    @given(scene=track_scenes())
    @example(scene=(RACK_PLANE, RACK_TRACK, np.linspace(0.0, 6.0, 51) % (2 * math.pi), 7))
    @example(scene=(REFINE_GRID, REFINE_TRACK, np.tile(np.linspace(0.0, 6.2, 41), (3, 1)), 40))
    def test_track_path_matches_block_path(self, scene):
        region, poses, phases, ref = scene
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        assert ev._track is not None
        dists = whole_matrix(region, poses)
        for spec in track_specs(ref):
            want = spec(phases, dists, lam)
            assert_track_matches(ev.raw_scores(phases, spec, lam), want, spec, dists, len(poses))

    @settings(max_examples=60, deadline=None)
    @given(scene=track_scenes(), block=st.one_of(st.just(solver_mod.BLOCK), st.integers(1, 2000)))
    # 14 cells a line under 40 poses in shares of 2 cells: segments of one line
    @example(scene=(
        SearchRegion(x=(0.0, 0.0), y=(0.0, 0.13), z=(0.5, 0.52), resolution=(0.01, 0.01, 0.02)),
        np.column_stack([np.full(40, 1.4), 0.3 - 0.01 * np.arange(40), np.zeros(40)]),
        np.linspace(0.0, 6.0, 40), 39,
    ), block=1)
    # cells on 8 poses, a line of 8 cells: cut into segments under a small
    # budget, clf's FFT lengths, and so its last bits, moved with WORKERS
    @example(scene=(
        SearchRegion(x=(0.0, 0.21875), y=(0.0, 0.0), z=(0.0, 0.0), resolution=(0.03125, 0.005, 0.005)),
        np.column_stack([0.03125 * np.arange(8), np.zeros(8), np.zeros(8)]),
        np.zeros(8), 0,
    ), block=19)
    def test_track_path_at_any_share_budget(self, scene, block):
        # BLOCK down to 1 makes a line longer than a share's budget, so the
        # pair methods' lines are split into segments of cells; clf, slf and
        # sarfid keep whole lines
        region, poses, phases, ref = scene
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        assert ev._track is not None
        dists = whole_matrix(region, poses)
        streams = [SampleStream(poses, row, CARRIER) for row in np.atleast_2d(phases)]
        streams.append(SampleStream(poses, (3.0 * streams[0].phases) % (2.0 * math.pi), CARRIER))
        for spec in track_specs(ref):

            def plain(phases, dists, wavelength, spec=spec):
                return spec(phases, dists, wavelength)

            scores = []
            for workers in (1, 2, 3):
                with mock.patch.multiple(solver_mod, BLOCK=block, WORKERS=workers):
                    blocks = ev.raw_scores(phases, plain, lam)
                    scores.append(ev.raw_scores(phases, spec, lam))
                    assert_track_matches(scores[-1], blocks, spec, dists, len(poses))
                    stacked = ev.holograms(streams, spec)
                    for k, stream in enumerate(streams):
                        alone = ev.hologram(stream, spec)
                        assert alone.scores.tobytes() == stacked[k].scores.tobytes(), (spec, workers, k)
            # nor on the worker count
            assert all(np.array_equal(scores[0], other) for other in scores[1:]), spec

    @settings(max_examples=100, deadline=None)
    @given(scene=grouped_track_scenes())
    # cross-track offsets -2..2 and 0..3 cells from the track's own coordinates
    @example(scene=(
        SearchRegion(x=(-0.04, 0.04), y=(-0.1, 0.1), z=(0.0, 0.06), resolution=0.02),
        linear_track(x=0.0, z=0.0, y_start=-0.2, y_stop=0.2, spacing=0.02).as_array(),
        np.tile(np.linspace(0.0, 6.0, 21), (2, 1)), 3, solver_mod.BLOCK,
    ))
    def test_lines_at_one_radius_are_scored_once(self, scene):
        # Lines a track cannot tell apart share one group's scores: within
        # 1e-12 of the block path, bitwise equal to each other, and still
        # independent of the worker count and the pass
        region, poses, phases, ref, block = scene
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        track = ev._track
        assert track is not None
        cross = line_cross(ev)
        tol = solver_mod.TRACK_ULPS * np.finfo(float).eps * cross.max()
        groups = groups_of(track)
        assert np.array_equal(np.sort(track.members), np.arange(len(cross)))
        for lines, value in zip(groups, track.cross):
            assert cross[lines].min() == value and cross[lines].max() - value <= tol
        assert [g[0] for g in groups] == sorted(g[0] for g in groups)  # groups in C order
        dists = whole_matrix(region, poses)
        ny = region.shape[track.axis]
        for spec in track_specs(ref):
            scores = []
            for workers in (1, 2, 3):
                with mock.patch.multiple(solver_mod, BLOCK=block, WORKERS=workers):
                    scores.append(ev.raw_scores(phases, spec, lam))
            got = scores[0]
            assert all(np.array_equal(got, other) for other in scores[1:]), spec
            assert_track_matches(got, spec(phases, dists, lam), spec, dists, len(poses))
            by_line = np.moveaxis(got.reshape(-1, *region.shape), 1 + track.axis, -1)
            by_line = by_line.reshape(-1, len(cross), ny)
            for lines in groups:
                assert (by_line[:, lines] == by_line[:, lines[:1]]).all(), spec
            for k, row in enumerate(phases if phases.ndim == 2 else []):
                assert np.array_equal(ev.raw_scores(row, spec, lam), got[k]), (spec, k)

    def test_volume_lines_collapse_to_distinct_radii(self):
        # perfbench's volume: 71 x 71 lines along y, 3660 radii around the
        # track; exact equality finds 4466, since equal radii round apart
        poses = linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.01).as_array()
        volume = SearchRegion(x=(0.0, 0.7), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.01)
        ev = GridEvaluator(volume, poses)
        cross = line_cross(ev)
        assert len(cross) == 5041 and len(ev._track.cross) == 3660
        assert len(np.unique(cross)) == 4466
        tol = solver_mod.TRACK_ULPS * np.finfo(float).eps * cross.max()
        assert max(np.ptp(cross[lines]) for lines in groups_of(ev._track)) <= tol
        # symmetric about the track: 10,011 lines, the same 3660 radii
        both = SearchRegion(x=(0.0, 0.7), y=(-0.5, 0.5), z=(-0.7, 0.7), resolution=0.01)
        ev = GridEvaluator(both, poses)
        assert len(line_cross(ev)) == 10_011 and len(ev._track.cross) == 3660

    def test_radius_groups_span_at_most_the_tolerance(self):
        tol = solver_mod.TRACK_ULPS * np.finfo(float).eps  # of the largest value, 1.0
        # two values 2x the tolerance apart stay two groups
        values, members, starts = solver_mod._radius_groups(np.array([1.0 - 2 * tol, 1.0]))
        assert list(values) == [1.0 - 2 * tol, 1.0] and list(starts) == [0, 1, 2]
        # a chain of values 0.6 tolerances apart is split greedily from its smallest
        chain = 0.5 + 0.6 * tol * np.arange(5)
        values, members, starts = solver_mod._radius_groups(np.append(chain[::-1], 1.0))
        groups = [members[lo:hi] for lo, hi in zip(starts[:-1], starts[1:])]
        cross = np.append(chain[::-1], 1.0)
        assert [sorted(cross[g]) for g in groups] == [[chain[4]], [chain[2], chain[3]],
                                                      [chain[0], chain[1]], [1.0]]
        assert all(np.ptp(cross[g]) <= tol for g in groups)
        assert list(values) == [chain[4], chain[2], chain[0], 1.0]  # each group's smallest
        # values all apart: one line per group, in C order
        values, members, starts = solver_mod._radius_groups(np.array([3.0, 1.0, 2.0]))
        assert list(values) == [3.0, 1.0, 2.0] and list(members) == [0, 1, 2] and list(starts) == [0, 1, 2, 3]

    @pytest.mark.parametrize("spec", [CLF, MethodSpec("wslf"), MethodSpec("tagoram")], ids=str)
    def test_mirror_cells_tie_and_the_lower_flat_index_wins(self, spec):
        truth = Position3D(0.0, 0.12, 0.4)
        samples = noise_free_samples(truth, y_half=0.5)
        full = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(-0.6, 0.6), resolution=0.01)
        holo = evaluate_hologram(samples, full, spec)
        assert np.array_equal(holo.scores, holo.scores[:, :, ::-1])  # z and -z, bit for bit
        est = argmax_estimate(holo)
        flat = int(np.argmax(holo.scores))
        _, iy, iz = np.unravel_index(flat, full.shape)
        assert est.position.z == pytest.approx(-0.4, abs=0.011) and est.peak_ratio == 1.0
        twin = int(np.ravel_multi_index((0, iy, full.shape[2] - 1 - iz), full.shape))
        assert find_peak_regions(holo)[:2] == [(flat, 1.0), (twin, 1.0)]

    @pytest.mark.parametrize("poses, region", [
        (UNEVEN_TRACK, RACK_PLANE),
        (REFINE_TRACK + np.arange(41)[:, None] * [1e-3, 0.0, 0.0], RACK_PLANE),
        (REFINE_TRACK, SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.1), resolution=0.025)),
        (REFINE_TRACK, SearchRegion(x=(0.0, 0.1), y=(0.05, 0.05), z=(0.0, 0.1), resolution=0.02)),
        (REFINE_TRACK[:2], RACK_PLANE),
    ], ids=["uneven", "tilted", "non-integer-ratio", "one-cell-lines", "two-poses"])
    def test_off_track_geometry_keeps_block_path(self, poses, region):
        lam = CARRIER.wavelength
        ev = GridEvaluator(region, poses)
        assert ev._track is None
        phases = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (2, len(poses)))
        dists = whole_matrix(region, poses)
        for spec in track_specs(1):
            assert np.array_equal(ev.raw_scores(phases, spec, lam), spec(phases, dists, lam)), spec

    def test_plain_callable_keeps_block_path(self):
        ev = GridEvaluator(RACK_PLANE, RACK_TRACK)
        assert ev._track is not None
        phases = np.random.default_rng(6).uniform(0.0, 2.0 * math.pi, (2, len(RACK_TRACK)))
        lam = CARRIER.wavelength
        for spec in track_specs(0):
            def plain(phases, dists, wavelength, spec=spec):
                return spec(phases, dists, wavelength)

            want = spec(phases, whole_matrix(RACK_PLANE, RACK_TRACK), lam)
            assert np.array_equal(ev.raw_scores(phases, plain, lam), want), spec

    def test_stream_scores_do_not_depend_on_the_pass(self):
        # a stream's row, alone and inside stacks of 2 and 10, bit for bit
        ev = GridEvaluator(RACK_PLANE, RACK_TRACK)
        assert ev._track is not None
        phases = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, (10, len(RACK_TRACK)))
        lam = CARRIER.wavelength
        for spec in track_specs(20):
            alone = ev.raw_scores(phases[1], spec, lam)
            for size in (2, 10):
                assert np.array_equal(ev.raw_scores(phases[:size], spec, lam)[1], alone), (spec, size)
            last = ev.raw_scores(phases, spec, lam)[9]
            assert np.array_equal(ev.raw_scores(phases[9:], spec, lam)[0], last), spec

    def test_track_scoring_takes_few_page_faults(self):
        # Scratch is allocated once per share and call, in one buffer, and
        # written in place, so repeated scoring reuses pages.  On the stock
        # plane the block path took 2,000-3,300 minor faults per one-stream
        # wslf hologram and 555-17,550 per 8-stream wclf pass (2-core VM,
        # also under taskset -c 0); the track path takes 0-2, and 137-159
        # per 8-stream misaligned nlf pass over the five after the warm-up:
        # the first of them takes about 790 while malloc moves the buffer
        # from fresh mappings onto its heap, the others 0-1.  Scratch and
        # pairs in two buffers, whose sum passes glibc's trim threshold,
        # would take fresh pages on every call: 430-700 per 8-stream pass
        # in a fresh process.  Bound: 256.
        resource = pytest.importorskip("resource")
        region = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.01)
        poses = linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.01).as_array()
        ev = GridEvaluator(region, poses)
        assert ev._track is not None
        rng = np.random.default_rng(9)
        streams = [SampleStream(poses, rng.uniform(0.0, 2.0 * math.pi, 101), CARRIER) for _ in range(8)]

        def faults(score, reps):
            score()  # warm-up
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(reps):
                score()
            return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / reps

        misaligned = MethodSpec("nlf", DifferentialScheme.misaligned())
        pairs = faults(lambda: ev.holograms(streams, misaligned), 5)  # first: no pages reused yet
        one = faults(lambda: ev.hologram(streams[0], MethodSpec("wslf")), 10)
        eight = faults(lambda: ev.holograms(streams, MethodSpec("wclf")), 5)
        assert one <= 256 and eight <= 256 and pairs <= 256, (one, eight, pairs)

    def test_pair_methods_do_not_import_scipy_fft(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from phaseloc import CarrierConfig, DifferentialScheme, GridEvaluator, MethodSpec, "
            "SampleStream, SearchRegion, linear_track\n"
            "poses = linear_track(x=1.4, z=0.0, y_start=-0.1, y_stop=0.1, spacing=0.004).poses\n"
            "region = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.1), resolution=0.02)\n"
            "ev = GridEvaluator(region, poses)\n"
            "stream = SampleStream(poses, np.linspace(0.0, 6.0, 51), CarrierConfig(866.9e6))\n"
            "for name in ('nlf', 'wclf', 'wslf', 'tagoram'):\n"
            "    ev.hologram(stream, MethodSpec(name))\n"
            "for name in ('clf', 'slf'):\n"
            "    ev.hologram(stream, MethodSpec(name, DifferentialScheme.misaligned()))\n"
            "assert ev._track is not None\n"
            "print('scipy.fft' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("spec", track_specs(5), ids=str)
    def test_track_path_stays_in_block_budget(self, spec):
        # 61 x 27 x 61 cells: 3721 lines of 27 cells under 101 poses, each
        # convolved at 128 entries; unchunked, the lines' kernel spectra
        # alone would take 7.3 MiB
        region = SearchRegion(x=(0.0, 0.6), y=(-0.13, 0.13), z=(0.0, 0.6), resolution=0.01)
        poses = linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.01).as_array()
        ev = GridEvaluator(region, poses)
        assert ev._track is not None
        phases = np.random.default_rng(8).uniform(0.0, 2.0 * math.pi, (2, 101))
        tracemalloc.start()
        try:
            ev.raw_scores(phases, spec, CARRIER.wavelength)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the stated budget, 4 MiB of chunk arrays, plus the (2, M) raw scores
        assert peak < 4 * 2**20 + 2 * 8 * region.cell_count, peak

    @pytest.mark.parametrize("spec, match", [
        (MethodSpec("clf", DifferentialScheme.reference(51)), "reference index 51 out of range"),
        (MethodSpec("slf", DifferentialScheme.reference(-1)), "reference index -1 out of range"),
    ])
    def test_bad_reference_index_rejected_as_on_block_path(self, spec, match):
        ev = GridEvaluator(RACK_PLANE, RACK_TRACK)
        assert ev._track is not None
        with pytest.raises(ValueError, match=match):
            ev.raw_scores(np.zeros(len(RACK_TRACK)), spec, CARRIER.wavelength)


@st.composite
def best_cell_scenes(draw):
    """A track of N in 11-60 poses along x, y or z, ascending or
    descending, at cross-track coordinates often 0 or nudged off 0 by up
    to 1e-13 m; a region of 6-20 cells along it (stepping q pose steps or
    1/q of one) and, on each other axis, 1 cell or 2-3 cells on each side
    symmetric about the track (mirror cells tie bit for bit, or nearly, so
    the lowest flat index must win); S in 1-4 streams, each of a tag on a
    grid cell or off one, noise-free or with noise and phase jumps, or of
    uniform phases; a reference index; and the route: the track, or the
    full route by misaligned, a pose nudged off the track, a plain
    callable or a constant-score callable."""
    axis, n, q = draw(st.integers(0, 2)), draw(st.integers(11, 60)), draw(st.integers(1, 3))
    step = draw(st.floats(0.005, 0.03))
    along = q * step if draw(st.booleans()) else step / q
    at = [draw(st.sampled_from([0.0, 1e-15, 1e-14, 1e-13, -0.3, 1.4])) for _ in range(3)]
    poses = np.array([at] * n, dtype=float)
    poses[:, axis] = draw(st.floats(-0.5, 0.5)) + step * np.arange(n)
    if draw(st.booleans()):
        poses = poses[::-1].copy()
    bounds, res = [], []
    for ax in range(3):
        if ax == axis:
            lo, count, r = poses[:, ax].min() + draw(st.floats(-0.1, 0.1)), draw(st.integers(6, 20)), along
            bounds.append((lo, lo + (count - 1) * r))
        else:
            r, k = draw(st.floats(0.01, 0.2)), draw(st.integers(0, 3))
            centre = round(at[ax], 12) + draw(st.sampled_from([0.0, 0.0, 0.5, 1.0])) * r
            bounds.append((centre - k * r, centre + k * r))
        res.append(r)
    region = SearchRegion(*bounds, resolution=tuple(res))
    cells = region.candidates()
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["cell", "off-cell", "noisy", "uniform"]))
        if kind == "uniform":
            phases = np.array(draw(st.lists(PHASES, min_size=n, max_size=n)))
        else:
            tag = cells[draw(st.integers(0, len(cells) - 1))]
            if kind != "cell":
                tag = tag + np.array(draw(st.lists(st.floats(-0.01, 0.01), min_size=3, max_size=3)))
            dist = np.sqrt(squared_norm_rows(poses - tag))
            phases = 4.0 * math.pi * dist / CARRIER.wavelength + draw(PHASES)
            if kind == "noisy":
                rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
                phases += rng.normal(0.0, draw(st.floats(0.01, 0.5)), n)
                phases[rng.uniform(size=n) < 0.1] += math.pi  # jumps
            phases = np.mod(phases, 2.0 * math.pi)
            phases[phases >= 2.0 * math.pi] = 0.0
        streams.append(SampleStream(poses, phases, CARRIER))
    route = draw(st.sampled_from(["track"] * 4 + ["misaligned", "off-track", "callable", "constant"]))
    return region, poses, streams, draw(st.integers(0, n - 1)), route


def best_cell_specs(ref, route):
    """The seven methods, the five likelihoods under reference:ref (or
    misaligned), tagoram also at a tiny sigma and at a wide one (0.6, which
    its old truncated bound could not take); plain callables for the
    callable routes."""
    scheme = DifferentialScheme.misaligned() if route == "misaligned" else DifferentialScheme.reference(ref)
    specs = [MethodSpec(name, scheme) for name in ("nlf", "clf", "slf", "wclf", "wslf")]
    specs += [MethodSpec("sarfid")]
    specs += [MethodSpec("tagoram", tagoram_sigma=sigma) for sigma in (DEFAULT_TAGORAM_SIGMA, 1e-3, 0.6)]
    if route == "constant":
        return [lambda phases, dists, wavelength: np.zeros(phases.shape[:-1] + dists.shape[:1])]
    if route == "callable":
        return [lambda phases, dists, wavelength, spec=spec: spec(phases, dists, wavelength)
                for spec in specs]
    return specs


# the stock plane's 71 lines of 101 cells under 101 poses, as mc-plane's scene
STOCK_TRACK = linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.01).as_array()
STOCK_PLANE = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.7), resolution=0.01)


MC_PLANE_TAGS = (TagTruth("T01", Position3D(0.0, 0.12, 0.24)), TagTruth("T02", Position3D(0.0, -0.1, 0.4)))
# six tags over the stock plane: T03 shares T01's column along the track, T05 T04's line
SIX_TAGS = MC_PLANE_TAGS + tuple(
    TagTruth(f"T0{k}", Position3D(0.0, y, z))
    for k, (y, z) in enumerate([(0.12, 0.55), (-0.35, 0.1), (0.3, 0.1), (0.0, 0.65)], start=3)
)


def float64_majorant_sums(phases, sigma):
    """Each stock-plane cell's sum of tagoram's majorant exp(-(Im u/(sigma*
    sqrt(2)))^2) for stacked phases, as best_cells' cheap pass took it in
    float64 (its gain capped at 1e150, its exponent at -700), from the
    cells' own distances rather than the track's sequences."""
    dists = np.linalg.norm(STOCK_PLANE.candidates()[:, None] - STOCK_TRACK, axis=-1)
    steering = np.exp(-4j * math.pi / CARRIER.wavelength * dists)
    pairs = steering[:, 1:] * np.conjugate(steering[:, :1])  # reference:0
    gain = min(1.0 / (sigma * math.sqrt(2.0)), 1e150) ** 2
    return np.stack([
        np.exp(np.maximum(-gain * np.square((pairs * np.exp(1j * (row[1:] - row[0]))).imag), -700.0)).sum(axis=-1)
        for row in phases
    ])


def survivors(bounds, full, floor, scored=None):
    """Per stream, the cells best_cells scores in full after its first step:
    those whose bound reaches the best full score known by then, the
    best-bounded cell's or the one the cheap pass scored (scored, per
    stream), less the tie margin."""
    known = full[np.arange(len(full)), bounds.argmax(axis=1)]
    if scored is not None:
        known = np.maximum(known, scored)
    return np.count_nonzero(bounds >= (known - solver_mod._tie(known, floor))[:, None], axis=1)


def stock_streams(seed, trials=4, tags=MC_PLANE_TAGS):
    """The (trial, tag) streams of mc-plane's scene: its noise, jumps and
    two tags, or the given tags."""
    scene = Scenario(
        tags=tags,
        trajectory=linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.01),
        carrier=CARRIER,
        noise=NoiseModel(sigma_slope=0.006, sigma_intercept=0.0084),
        jump_probability=0.05,
    )
    return [stream for t in range(trials)
            for stream in synthesize(replace(scene, rng_seed=seed + t)).values()]


class TestBestCells:
    @settings(max_examples=120, deadline=None)
    @given(scene=best_cell_scenes())
    # noise-free tags on a region symmetric about a track nudged 1e-13 m off
    # it: mirror cells fall into two groups, and each stream's raw maximum
    # ties a lower-index twin once normalized (near-tie fallback)
    @example(scene=(
        SearchRegion(x=(0.0, 0.0), y=(-0.2, 0.2), z=(-0.3, 0.3), resolution=0.01),
        linear_track(x=1.4, z=1e-13, y_start=-0.3, y_stop=0.3, spacing=0.01).as_array(),
        [noise_free_samples(Position3D(0.0, 0.05, z), spacing=0.01) for z in (0.1, 0.2, 0.25)],
        13, "track",
    ))
    def test_best_cells_are_the_holograms_argmax(self, scene):
        region, poses, streams, ref, route = scene
        if route == "off-track":
            poses = poses.copy()
            poses[len(poses) // 2, (int(np.flatnonzero(np.ptp(poses, axis=0))[0]) + 1) % 3] += 1e-3
            streams = [SampleStream(poses, s.phases, s.carrier) for s in streams]
        else:
            streams = [SampleStream(poses, s.phases, s.carrier) for s in streams]
        ev = GridEvaluator(region, poses)
        if route == "off-track":
            assert ev._track is None
        for method in best_cell_specs(ref, route):
            want = [int(np.argmax(h.scores)) for h in ev.holograms(streams, method)]
            with mock.patch.object(GridEvaluator, "_track_scores", autospec=True,
                                   side_effect=GridEvaluator._track_scores) as passes:
                assert ev.best_cells(streams, method) == want, method
            if getattr(method, "name", "") == "tagoram" and ev._track is not None:
                # at every sigma the bound: the majorant's pass inside the pre-bound's windows
                assert any(call.kwargs.get("majorant") for call in passes.call_args_list), method
            # one stream is a pass of one
            assert ev.best_cells(streams[-1:], method) == want[-1:], method

    @pytest.mark.parametrize("seed", [200, 400, 600])
    def test_bounds_leave_few_cells_on_the_stock_plane(self, seed):
        # the cheap pass (a full clf or slf pass, or tagoram's majorant pass,
        # also at sigma 0.6) leaves few cells to score in full, and no stream
        # needs its hologram: mc-plane's two tags, and six tags, two pairs of
        # them sharing a column or a line
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        real = GridEvaluator._track_scores

        def spy(self, spec, phases, out, wavelength, majorant=False, also=(), windows=None, cells=None):
            assert spec != bounded or cells is not None or majorant, "a full pass"
            if cells is not None:
                cells_seen.append(len(cells[0]))
            return real(self, spec, phases, out, wavelength, majorant=majorant, also=also,
                        windows=windows, cells=cells)

        ref = DifferentialScheme.reference(seed % 101)
        bounded_specs = [MethodSpec(name, ref) for name in ("nlf", "wclf", "wslf")]
        bounded_specs += [MethodSpec("tagoram"), MethodSpec("tagoram", tagoram_sigma=0.6)]
        for streams in (stock_streams(seed), stock_streams(seed, 2, SIX_TAGS)):
            for bounded in bounded_specs:
                want = [int(np.argmax(h.scores)) for h in ev.holograms(streams, bounded)]
                cells_seen = []
                with mock.patch.object(GridEvaluator, "_track_scores", spy):
                    assert ev.best_cells(streams, bounded) == want, bounded
                assert sum(cells_seen) <= 0.1 * len(streams) * STOCK_PLANE.cell_count, (bounded, cells_seen)

    @pytest.mark.parametrize("seed", [200, 400, 600])
    def test_sandwich_bounds_hold_every_full_score(self, seed):
        # every cell's full nlf, wclf and wslf raw score is at most its
        # bound, the scaled clf or slf score + the plan's width, also for
        # streams whose reference read jumped by pi
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        phases = np.stack([s.phases for s in stock_streams(seed)])
        for ref in (0, 37, 99):
            jumped = phases[:3].copy()
            jumped[:, ref] = np.mod(jumped[:, ref] + math.pi, 2.0 * math.pi)
            stacked = np.vstack([phases, jumped])
            for name in ("nlf", "wclf", "wslf"):
                spec = MethodSpec(name, DifferentialScheme.reference(ref))
                plan = ev._bound_plan(spec, CARRIER.wavelength)
                cheap = np.empty((len(stacked), STOCK_PLANE.cell_count))
                plan.cheap(stacked, cheap)
                full = ev.raw_scores(stacked, spec, CARRIER.wavelength)
                assert (full <= cheap + plan.width).all(), (name, ref)
                assert 0.0 < plan.width < 1e-6, (name, plan.width)
                assert (full >= plan.floor).all(), (name, ref)

    @pytest.mark.parametrize("seed", [200, 400, 600])
    def test_tagoram_bounds_hold_every_full_score(self, seed):
        # every cell's full raw score is at most its majorant sum plus the
        # plan's width, at sigmas from 1e-6 to 0.6, also for streams whose
        # reference read jumped by pi; from 1e-3 up, the float32 pass leaves
        # no stream more cells to score in full than the float64 sums did
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        phases = np.stack([s.phases for s in stock_streams(seed)])
        jumped = phases[:3].copy()
        jumped[:, 0] = np.mod(jumped[:, 0] + math.pi, 2.0 * math.pi)
        stacked = np.vstack([phases, jumped])
        p, eps, eps32 = len(STOCK_TRACK) - 1, np.finfo(float).eps, np.finfo(np.float32).eps
        float64_width = 2 * (18 * solver_mod.TERM_ULPS * p + 2 * p * p) * eps  # its _bound_slack
        for sigma in (DEFAULT_TAGORAM_SIGMA, 1e-3, 0.3, 0.6, 1e-6):
            spec = MethodSpec("tagoram", tagoram_sigma=sigma)
            plan = ev._bound_plan(spec, CARRIER.wavelength)
            cheap = np.empty((len(stacked), STOCK_PLANE.cell_count))
            scored = plan.cheap(stacked, cheap)
            full = ev.raw_scores(stacked, spec, CARRIER.wavelength)
            assert (full <= cheap + plan.width).all(), sigma
            # twice float32 exp's rounding per pair, and float64 roundings far below 1e-9
            assert 0.0 < plan.width < 2 * solver_mod.TERM_ULPS * eps32 * p + 1e-9, (sigma, plan.width)
            assert (full >= plan.floor).all(), sigma
            if sigma >= 1e-3:
                left = survivors(cheap + plan.width, full, plan.floor, scored[2])
                before = survivors(float64_majorant_sums(stacked, sigma) + float64_width, full, -p - float64_width)
                assert (left <= before).all(), (sigma, left, before)

    def test_tiny_sigma_gives_the_holograms_argmax(self):
        # at sigma 1e-300, 2*sigma^2 underflows: the majorant's capped gain
        # keeps every value finite, so the pass raises no warning (pytest
        # makes warnings errors), and every stream falls back to its hologram
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        streams, spec = stock_streams(200, 2), MethodSpec("tagoram", tagoram_sigma=1e-300)
        want = [int(np.argmax(h.scores)) for h in ev.holograms(streams, spec)]
        with mock.patch.object(GridEvaluator, "_track_scores", autospec=True,
                               side_effect=GridEvaluator._track_scores) as passes:
            assert ev.best_cells(streams, spec) == want
        calls = [(call.args[1].name, sorted(call.kwargs)) for call in passes.call_args_list]
        # the bound (the pre-bound's clf and slf passes, its best cells in full,
        # the majorant in its windows), the first step, then the holograms
        assert calls == [("clf", ["also"]), ("slf", ["also"]), ("tagoram", ["cells"]),
                         ("tagoram", ["majorant", "windows"]), ("tagoram", ["cells"]), ("tagoram", [])], calls

    def test_one_sided_width_is_all_the_route_relies_on(self):
        # a cell's bound may lie anywhere at or above its full score: here
        # each stream's best cell's bound equals its full score and every
        # other cell's is its full score + the width, a power of two below
        # the smallest gap to a stream's second-best cell (the best cell is
        # the best-bounded one) or above the largest (it is not)
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        streams, spec = stock_streams(200), MethodSpec("tagoram")
        full = ev.raw_scores(np.stack([s.phases for s in streams]), spec, CARRIER.wavelength)
        rows, best = np.arange(len(full)), full.argmax(axis=1)
        others = full.copy()
        others[rows, best] = -np.inf
        gaps = full[rows, best] - others.max(axis=1)
        real = GridEvaluator._bound_plan
        want = [int(np.argmax(h.scores)) for h in ev.holograms(streams, spec)]
        for width in (2.0 ** math.floor(math.log2(gaps.min())), 2.0 ** math.ceil(math.log2(gaps.max()))):
            at_best = full[rows, best] - width
            # the best scores are positive, so with a power of two the sum is exact
            assert np.array_equal(at_best + width, full[rows, best])

            def at_the_edges(self, method, wavelength):
                def cheap(phases, out):
                    out[:] = full
                    out[rows, best] = at_best

                return solver_mod._BoundPlan(cheap, width, real(self, method, wavelength).floor)

            with mock.patch.object(GridEvaluator, "_bound_plan", at_the_edges), \
                    mock.patch.object(GridEvaluator, "raw_scores", side_effect=AssertionError("fell back")):
                assert ev.best_cells(streams, spec) == want, width

    @settings(max_examples=60, deadline=None)
    @given(scene=st.one_of(track_scenes(), grouped_track_scenes().map(lambda scene: scene[:4]),
                           st.integers(0, 1000)), data=st.data())
    def test_scored_cells_are_the_full_pass_scores(self, scene, data):
        # any (stream, cell) pairs score as their raw_scores entries bit for
        # bit: on the stock plane (a seed), grids whose radius groups hold
        # several lines, ascending and descending tracks, a > 1 and b > 1;
        # one pair (scored twice) or many, in one row chunk or several
        if isinstance(scene, int):
            region, poses = STOCK_PLANE, STOCK_TRACK
            phases, ref = np.stack([s.phases for s in stock_streams(scene, 1)]), 37
        else:
            region, poses, phases, ref = scene
        ev = GridEvaluator(region, poses)
        assert ev._track is not None
        stacked = np.atleast_2d(phases)
        pairs = data.draw(st.sets(st.tuples(st.integers(0, len(stacked) - 1),
                                            st.integers(0, region.cell_count - 1)), min_size=1, max_size=12))
        at, cells = (np.array(side) for side in zip(*sorted(pairs)))
        specs = [MethodSpec(name, DifferentialScheme.reference(r)) for name in ("nlf", "wclf", "wslf")
                 for r in sorted({0, ref})]
        for spec in specs + [MethodSpec("tagoram")]:
            want = ev.raw_scores(stacked, spec, CARRIER.wavelength)[at, cells]
            for block in (solver_mod.BLOCK, 64):
                out = np.full(len(at), np.nan)
                with mock.patch.object(solver_mod, "BLOCK", block):
                    ev._track_scores(spec, stacked, out, CARRIER.wavelength, cells=(at, cells))
                assert np.array_equal(out, want), (spec, block)

    @pytest.mark.parametrize("sigma", [1e-6, 1e-3, DEFAULT_TAGORAM_SIGMA, 0.6, 8.0])
    def test_tagoram_alone_gives_the_holograms_argmax(self, sigma):
        # tagoram on a fresh evaluator pays its own clf and slf passes for its
        # pre-bound, at sigmas on both sides of _FEJER_SIGMA, also for streams
        # whose reference read jumped by pi
        streams = stock_streams(400)
        for s in streams[:3]:
            phases = s.phases.copy()
            phases[0] = np.mod(phases[0] + math.pi, 2.0 * math.pi)
            streams.append(SampleStream(s.poses, np.where(phases < 2.0 * math.pi, phases, 0.0), s.carrier))
        spec = MethodSpec("tagoram", tagoram_sigma=sigma)
        want = [int(np.argmax(h.scores)) for h in GridEvaluator(STOCK_PLANE, STOCK_TRACK).holograms(streams, spec)]
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        assert ev.best_cells(streams, spec) == want
        assert sorted(ev._stored) == ["clf", "sarfid", "slf"]

    def test_kept_scores_follow_the_stack(self):
        # one evaluator scores stacks A, B, A, then A's phases at another
        # wavelength, then A, with the methods interleaved and clf under
        # two references: every result, and every score kept, equals a
        # fresh evaluator's
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        a, b = stock_streams(200, 2), stock_streams(400, 2)
        far = [SampleStream(s.poses, s.phases, CarrierConfig(915e6)) for s in a]
        mid = DifferentialScheme.reference(37)
        specs = [MethodSpec("nlf"), MethodSpec("sarfid"), MethodSpec("slf"), MethodSpec("clf", mid),
                 MethodSpec("wslf"), MethodSpec("clf"), MethodSpec("wclf", mid), MethodSpec("sarfid")]
        for k, streams in enumerate((a, b, a, far, a)):
            phases, wavelength = np.stack([s.phases for s in streams]), streams[0].carrier.wavelength
            for spec in specs[k:] + specs[:k]:
                fresh = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
                assert ev.best_cells(streams, spec) == fresh.best_cells(streams, spec), (k, spec)
                for name, (scheme, kept) in ev._stored.items():
                    want = fresh.raw_scores(phases, MethodSpec(name, scheme), wavelength)
                    assert np.array_equal(kept, want), (k, spec, name)
            assert len(ev._stored) <= 3

    @pytest.mark.parametrize("route", ["misaligned", "off-track", "callable"])
    def test_other_routes_keep_no_scores(self, route):
        # misaligned, off-track poses and plain callables score their
        # holograms, and neither read nor keep shared FFT passes
        poses = STOCK_TRACK
        if route == "off-track":
            poses = STOCK_TRACK.copy()
            poses[50, 0] += 1e-3
        streams = [SampleStream(poses, s.phases, s.carrier) for s in stock_streams(200, 2)]
        ev = GridEvaluator(STOCK_PLANE, poses)
        specs = best_cell_specs(37, "track")
        if route == "misaligned":  # the likelihoods; sarfid and tagoram take only reference:0
            specs = best_cell_specs(37, route)[:5]
        elif route == "callable":
            specs = best_cell_specs(37, route)[:6]
        with mock.patch.object(GridEvaluator, "_shared_scores", side_effect=AssertionError("shared pass")):
            for spec in specs:
                want = [int(np.argmax(h.scores)) for h in ev.holograms(streams, spec)]
                assert ev.best_cells(streams, spec) == want, spec
        assert ev._stack_key is None and ev._stored == {}

    def test_failing_method_fails_as_the_full_pass(self):
        ev = GridEvaluator(STOCK_PLANE, STOCK_TRACK)
        streams = stock_streams(1, 1)
        for name in ("nlf", "wclf", "clf"):
            spec = MethodSpec(name, DifferentialScheme.reference(101))
            with pytest.raises(ValueError, match="reference index 101 out of range for 101 samples"):
                ev.best_cells(streams, spec)
        with pytest.raises(ValueError, match="no streams"):
            ev.best_cells([], MethodSpec("nlf"))


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_method_spec_is_its_own_scorer(name):
    poses = noise_free_samples().poses
    cells = SearchRegion(x=(0.0, 0.0), y=(-0.1, 0.1), z=(0.0, 0.2), resolution=0.02).candidates()
    dists = np.linalg.norm(cells[:, None, :] - poses[None, :, :], axis=2)
    phases = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, len(poses))
    lam = CARRIER.wavelength
    spec = resolve_method(name)
    direct = objective_batch(phases, dists, spec, lam)
    assert np.array_equal(spec(phases, dists, lam), direct)
