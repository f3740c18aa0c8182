"""Differential construction, kernel terms, weights and objectives.

A raw-loop oracle is the reference for objective_batch; single-pair
checks score two reads whose difference is the pair under test.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from phaseloc import (
    BRANCH_NEAREST,
    BRANCH_NEGATIVE,
    BRANCH_NONNEGATIVE,
    METHOD_NAMES,
    CarrierConfig,
    DifferentialScheme,
    MethodSpec,
    Position3D,
    SampleStream,
    SamplingConditionError,
    delta_phi_d_mod,
    delta_phi_d_unwrap,
    objective_batch,
    predict_phase,
    wrap_2pi,
)
from phaseloc.io_eval import LogFormatError, ingest_log
from phaseloc.likelihood import pair_indices, pair_values

TWO_PI = 2.0 * math.pi
CARRIER = CarrierConfig(866.9e6)
LAM = CARRIER.wavelength


def make_samples(phases, poses=None, carrier=CARRIER):
    if poses is None:
        poses = [Position3D(1.4, 0.05 * i, 0.0) for i in range(len(phases))]
    return SampleStream(np.array([p.as_array() for p in poses]), np.array(phases), carrier)


def synth_phases(poses, tag, phi0=0.0, carrier=CARRIER):
    return [predict_phase(p, tag, carrier, phi0) for p in poses]


def dists_to(poses, candidates):
    """(M, N) candidate-to-pose distances, one row per candidate."""
    return np.array([
        [math.dist((p.x, p.y, p.z), (c.x, c.y, c.z)) for p in poses] for c in candidates
    ])


def score(stream, candidate, spec, nlf_branch=BRANCH_NEAREST):
    """objective_batch for one candidate, from a sample stream."""
    dists = dists_to([s.antenna_pose for s in stream], [candidate])
    wavelength = stream.carrier.wavelength
    return float(objective_batch(stream.phases, dists, spec, wavelength, nlf_branch)[0])


class TestBuildDifferentials:
    def test_misaligned_indices(self):
        a, b = pair_indices(DifferentialScheme.misaligned(), 3)
        assert list(zip(a, b)) == [(1, 0), (2, 1)]

    def test_reference_indices(self):
        a, b = pair_indices(DifferentialScheme.reference(0), 3)
        assert list(zip(a, b)) == [(1, 0), (2, 0)]

    def test_reference_middle(self):
        a, b = pair_indices(DifferentialScheme.reference(2), 4)
        assert list(zip(a, b)) == [(0, 2), (1, 2), (3, 2)]

    @pytest.mark.parametrize("shape", [(41,), (3, 41), (2, 5, 41)], ids=["one", "stacked", "blocks"])
    @pytest.mark.parametrize(
        "scheme",
        [DifferentialScheme.reference(0), DifferentialScheme.reference(17),
         DifferentialScheme.reference(40), DifferentialScheme.misaligned()],
        ids=["first", "middle", "last", "misaligned"],
    )
    def test_pair_values_match_index_arrays(self, scheme, shape):
        # the slices form pair_indices' pairs: reference 0 and N-1 leave
        # one slice empty, and leading axes (streams, cells) ride along
        rng = np.random.default_rng(11)
        a, b = pair_indices(scheme, shape[-1])
        phases = rng.uniform(0.0, TWO_PI, shape)
        assert np.array_equal(pair_values(scheme, phases), phases[..., a] - phases[..., b])
        # pair phasors, bit for bit in each scheme's operand order
        steering = np.exp(-1j * rng.uniform(0.0, 60.0, shape))
        if scheme.kind == "misaligned":
            want = np.conjugate(steering[..., b]) * steering[..., a]
        else:
            want = steering[..., a] * np.conjugate(steering[..., b])
        assert np.array_equal(pair_values(scheme, steering), want)
        # nlf's folded kd differences: wrap_2pi's to within an ulp of 4*pi, across the 0/2*pi seam
        kd = rng.uniform(0.0, 60.0, shape)
        folded = pair_values(scheme, kd, fold=True)
        gap = np.abs(folded - wrap_2pi(kd[..., a] - kd[..., b]))
        assert np.all(np.minimum(gap, TWO_PI - gap) <= np.spacing(4.0 * math.pi))
        assert np.all((folded >= 0.0) & (folded < TWO_PI))

    @pytest.mark.parametrize("scheme", [DifferentialScheme.reference(3), DifferentialScheme.misaligned()])
    def test_pair_values_read_windows_into_out(self, scheme):
        # a track's cells read overlapping windows of one sequence
        seq = np.exp(1j * np.random.default_rng(5).uniform(0.0, TWO_PI, (2, 30)))
        window = sliding_window_view(seq, 8, axis=-1)[:, ::2]
        out = np.empty(window.shape[:-1] + (7,), dtype=complex)
        assert pair_values(scheme, window, out=out) is out
        assert np.array_equal(out, pair_values(scheme, np.ascontiguousarray(window)))

    @pytest.mark.parametrize("a, b", [(1, 1), (2, 1), (1, 3)])
    def test_misaligned_line_pairs_are_the_cells_pairs(self, a, b):
        # under misaligned a pair depends on its sequence entry alone: a line's
        # pairs, formed once from each entry's stride-b two reads and read
        # through each cell's window, equal the pairs of the cell's own window
        # bit for bit, as phasors and as folded kd differences
        misaligned, n, cells = DifferentialScheme.misaligned(), 9, 6
        rng = np.random.default_rng(a + 10 * b)
        used = a * (cells - 1) + b * (n - 1) + 1
        for seq, fold in ((np.exp(-1j * rng.uniform(0.0, 60.0, (3, used))), False),
                          (rng.uniform(0.0, 60.0, (3, used)), True)):
            per_cell = pair_values(misaligned, sliding_window_view(seq, b * (n - 1) + 1, axis=-1)[:, ::a, ::b],
                                   fold=fold)
            line = pair_values(misaligned, sliding_window_view(seq, b + 1, axis=-1)[..., ::b], fold=fold)[..., 0]
            windows = sliding_window_view(line, b * (n - 2) + 1, axis=-1)[:, ::a, ::b]
            assert windows.shape == per_cell.shape
            assert windows.tobytes() == per_cell.tobytes()

    @pytest.mark.parametrize(
        "scheme, n, message",
        [
            (DifferentialScheme.misaligned(), 1, "need at least 2 samples, got 1"),
            (DifferentialScheme.reference(0), 1, "need at least 2 samples, got 1"),
            (DifferentialScheme.reference(4), 4, "reference index 4 out of range for 4 samples"),
            (DifferentialScheme.reference(-1), 4, "reference index -1 out of range for 4 samples"),
        ],
    )
    def test_pair_values_reject_as_pair_indices(self, scheme, n, message):
        for form in (lambda: pair_indices(scheme, n), lambda: pair_values(scheme, np.zeros(n))):
            with pytest.raises(ValueError, match=re.escape(message)):
                form()

    def test_equidistant_candidate_gives_zero_ddist(self):
        poses = [Position3D(1.4, -0.1, 0.0), Position3D(1.4, 0.1, 0.0)]
        samples = make_samples([0.5, 1.5], poses)
        # candidate on the perpendicular bisector plane of the two poses:
        # no geometric difference, so clf is the cosine of the measured one
        spec = MethodSpec("clf", DifferentialScheme.misaligned())
        assert score(samples, Position3D(0, 0, 0.3), spec) == pytest.approx(math.cos(1.0), abs=1e-13)

    def test_raw_difference_not_rewrapped(self):
        # zero geometric difference: the nonnegative-branch nlf term is the
        # raw -1.8*pi difference squared, not its re-wrapped 0.2*pi
        poses = [Position3D(1.4, -0.1, 0.0), Position3D(1.4, 0.1, 0.0)]
        samples = make_samples([1.9 * math.pi, 0.1 * math.pi], poses)
        spec = MethodSpec("nlf", DifferentialScheme.misaligned())
        out = score(samples, Position3D(0, 0, 0), spec, BRANCH_NONNEGATIVE)
        assert out == pytest.approx(-((1.8 * math.pi) ** 2), rel=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            score(make_samples([0.1]), Position3D(0, 0, 0), MethodSpec("clf", DifferentialScheme.misaligned()))

    def test_reference_out_of_range(self):
        with pytest.raises(ValueError):
            score(make_samples([0.1, 0.2]), Position3D(0, 0, 0), MethodSpec("clf", DifferentialScheme.reference(5)))

    def test_mixed_carrier_rejected(self, tmp_path):
        # a stream holds one carrier; a tag whose log changes it is rejected
        log = tmp_path / "log.csv"
        log.write_text(
            "tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit\n"
            "T,1.4,0.0,0.0,866.9e6,0.1,radians\n"
            "T,1.4,0.3,0.0,915e6,0.3,radians\n"
        )
        with pytest.raises(LogFormatError, match="line 3: tag T"):
            ingest_log(log)


class TestDeltaPhiDUnwrap:
    def test_zero_ddist(self):
        assert delta_phi_d_unwrap(0.0, 1.0, LAM) == 0.0

    def test_first_branch(self):
        out = delta_phi_d_unwrap(LAM / 8, 1.0, LAM)
        assert math.isclose(out, math.pi / 2, rel_tol=1e-12)

    def test_negative_ddist_positive_dphi(self):
        out = delta_phi_d_unwrap(-LAM / 8, 1.0, LAM)
        assert math.isclose(out, 3 * math.pi / 2, rel_tol=1e-12)

    def test_positive_ddist_negative_dphi(self):
        out = delta_phi_d_unwrap(LAM / 8, -1.0, LAM)
        assert math.isclose(out, math.pi / 2 - TWO_PI, rel_tol=1e-12)

    def test_sampling_condition_violation(self):
        with pytest.raises(SamplingConditionError):
            delta_phi_d_unwrap(LAM / 2, 1.0, LAM)
        with pytest.raises(SamplingConditionError):
            delta_phi_d_unwrap(-0.6 * LAM, 1.0, LAM)


class TestDeltaPhiDMod:
    def test_zero(self):
        assert delta_phi_d_mod(0.0, LAM, BRANCH_NONNEGATIVE) == 0.0

    def test_half_wavelength_round_trip(self):
        assert delta_phi_d_mod(LAM / 2, LAM, BRANCH_NONNEGATIVE) == pytest.approx(0.0, abs=1e-12)

    def test_negative_branch(self):
        out = delta_phi_d_mod(-LAM / 8, LAM, BRANCH_NEGATIVE)
        assert math.isclose(out, -math.pi / 2, rel_tol=1e-12)

    def test_nearest_picks_closer_branch(self):
        # fold is 3*pi/2; candidates are 3*pi/2 and -pi/2
        near_hi = delta_phi_d_mod(-LAM / 8, LAM, BRANCH_NEAREST, dphi_measured=1.6 * math.pi)
        near_lo = delta_phi_d_mod(-LAM / 8, LAM, BRANCH_NEAREST, dphi_measured=-0.4 * math.pi)
        assert math.isclose(near_hi, 3 * math.pi / 2, rel_tol=1e-12)
        assert math.isclose(near_lo, -math.pi / 2, rel_tol=1e-12)

    def test_nearest_requires_measurement(self):
        with pytest.raises(ValueError):
            delta_phi_d_mod(0.01, LAM, BRANCH_NEAREST)

    def test_unknown_branch(self):
        with pytest.raises(ValueError):
            delta_phi_d_mod(0.01, LAM, "prophet")

    def test_agrees_with_unwrap_under_sampling_condition(self):
        # Smaller version of the acceptance sweep.
        rng = np.random.default_rng(31)
        for _ in range(2000):
            ddist = rng.uniform(-0.499, 0.499) * LAM
            dphi = rng.uniform(-TWO_PI, TWO_PI)
            if ddist == 0.0 or dphi == 0.0:
                continue
            expected = delta_phi_d_unwrap(ddist, dphi, LAM)
            branch = BRANCH_NONNEGATIVE if expected >= 0 else BRANCH_NEGATIVE
            assert math.isclose(
                delta_phi_d_mod(ddist, LAM, branch), expected, abs_tol=1e-12
            )


class TestTerms:
    @staticmethod
    def term(name, dphi, ddist, nlf_branch=BRANCH_NEAREST):
        """Score of the single pair (read 1 - read 0) with measured
        difference dphi and distance difference ddist."""
        phases = np.array([0.0, dphi])
        dists = np.array([[0.0, ddist]])
        return float(objective_batch(phases, dists, MethodSpec(name), LAM, nlf_branch)[0])

    def weight(self, name, dphi, ddist):
        """Weight of the wclf/wslf term: weighted over unweighted score."""
        return self.term(name, dphi, ddist) / self.term(name[1:], dphi, ddist)

    def test_nlf_perfect_match(self):
        # geometric fold is exactly pi/2
        assert self.term("nlf", math.pi / 2, LAM / 8, BRANCH_NONNEGATIVE) == pytest.approx(0.0, abs=1e-24)

    def test_nlf_pi_residual(self):
        out = self.term("nlf", 3 * math.pi / 2, LAM / 8, BRANCH_NONNEGATIVE)
        assert out == pytest.approx(-math.pi**2, rel=1e-12)

    def test_nlf_jump_example(self):
        # Measured difference drops from 0.35*pi to -1.57*pi while the
        # geometry still folds to 0.35*pi: the term craters by (1.92*pi)^2.
        ddist = 0.35 * LAM / 4.0
        before = self.term("nlf", 0.35 * math.pi, ddist, BRANCH_NONNEGATIVE)
        after = self.term("nlf", -1.57 * math.pi, ddist, BRANCH_NONNEGATIVE)
        assert before == pytest.approx(0.0, abs=1e-24)
        assert after == pytest.approx(-((1.92 * math.pi) ** 2), rel=1e-12)

    def test_clf_examples(self):
        assert self.term("clf", math.pi / 2, LAM / 8) == pytest.approx(1.0)
        assert self.term("clf", math.pi, LAM / 8) == pytest.approx(0.0, abs=1e-12)
        base = self.term("clf", 0.7, 0.01)
        assert self.term("clf", 0.7 + TWO_PI, 0.01) == pytest.approx(base, abs=1e-12)
        assert self.term("clf", 0.7 - TWO_PI, 0.01) == pytest.approx(base, abs=1e-12)

    def test_slf_examples(self):
        assert self.term("slf", math.pi / 2, LAM / 8) == pytest.approx(0.0, abs=1e-24)
        assert self.term("slf", math.pi, LAM / 8) == pytest.approx(-1.0)
        # pi-periodicity: residual pi scores like residual 0
        assert self.term("slf", 3 * math.pi / 2, LAM / 8) == pytest.approx(0.0, abs=1e-24)

    def test_weight_examples(self):
        assert self.weight("wclf", math.pi / 2, LAM / 8) == pytest.approx(1.0)
        # residual pi/2: the clf weight |cos r| is 0, so the weighted term vanishes
        assert self.term("wclf", math.pi, LAM / 8) == pytest.approx(0.0, abs=1e-12)
        w = self.weight("wslf", math.pi, LAM / 8)
        assert w == pytest.approx(0.36787944117144233, rel=1e-12)  # exp(-1)

    def test_weight_bounds_and_maximum(self):
        rng = np.random.default_rng(37)
        for _ in range(500):
            dphi, ddist = rng.uniform(-TWO_PI, TWO_PI), rng.uniform(-0.4, 0.4) * LAM
            for name in ("wclf", "wslf"):
                if abs(self.term(name[1:], dphi, ddist)) > 1e-9:
                    assert 0.0 <= self.weight(name, dphi, ddist) <= 1.0 + 1e-15
        # weight is exactly 1 iff the residual is a multiple of pi
        for k in range(-2, 3):
            assert self.weight("wclf", k * math.pi, 0.0) == pytest.approx(1.0)
            # the slf term is 0 or a few 1e-32 here; a weight of 1 leaves it unchanged
            assert self.term("wslf", k * math.pi, 0.0) == self.term("slf", k * math.pi, 0.0)

    def test_weight_rejects_nlf(self):
        with pytest.raises(ValueError, match="wnlf"):
            MethodSpec("wnlf")

    def test_weighted_nlf_spec_rejected(self):
        with pytest.raises(ValueError):
            MethodSpec("wnlf", DifferentialScheme.misaligned())

    def test_second_order_taylor_agreement(self):
        # The remainder bound holds in real arithmetic; 1e-15 covers the
        # float round-off of the cancelling 2*cos(r) - 2 evaluation, which
        # exceeds the bound's own slack (r^6/360) for small residuals.
        rng = np.random.default_rng(41)
        for r in rng.uniform(-0.1, 0.1, 5000):
            clf = math.cos(r)
            assert abs((2 * clf - 2) + r * r) <= r**4 / 12 + 1e-15


def all_specs():
    return [
        MethodSpec(name, scheme)
        for scheme in (DifferentialScheme.misaligned(), DifferentialScheme.reference(0))
        for name in ("nlf", "clf", "slf", "wclf", "wslf")
    ]


class TestObjective:
    def test_truth_is_maximal_noise_free(self):
        poses = [Position3D(1.4, -0.2 + 0.05 * i, 0.0) for i in range(9)]
        truth = Position3D(0.0, 0.07, 0.22)
        phases = np.array(synth_phases(poses, truth, phi0=1.9))
        candidates = [truth] + [
            Position3D(0.0, 0.07 + dy, 0.22 + dz)
            for dy in (-0.15, 0.1) for dz in (-0.12, 0.08)
        ]
        dists = dists_to(poses, candidates)
        for spec in all_specs():
            assert int(np.argmax(objective_batch(phases, dists, spec, LAM))) == 0, spec
        # zero-residual objective values at the truth
        n_pairs = len(poses) - 1
        at_truth = dists[:1]
        assert objective_batch(phases, at_truth, MethodSpec("nlf"), LAM)[0] == pytest.approx(0.0, abs=1e-18)
        assert objective_batch(phases, at_truth, MethodSpec("slf"), LAM)[0] == pytest.approx(0.0, abs=1e-18)
        assert objective_batch(phases, at_truth, MethodSpec("clf"), LAM)[0] == pytest.approx(n_pairs, rel=1e-12)

    def test_clf_invariant_to_global_2pi_shift(self):
        poses = [Position3D(1.4, 0.1 * i, 0.0) for i in range(6)]
        truth = Position3D(0.0, 0.2, 0.3)
        phases = np.array(synth_phases(poses, truth, phi0=0.4))
        dists = dists_to(poses, [Position3D(0.0, 0.18, 0.25)])
        spec = MethodSpec("clf")
        base = objective_batch(phases, dists, spec, LAM)[0]
        # shifting every measured phase by 2*pi leaves every difference alone
        shifted = objective_batch(phases + TWO_PI, dists, spec, LAM)[0]
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_matches_independent_direct_summation_oracle(self):
        # Brute-force oracle built from scratch: raw loops, no library calls.
        rng = np.random.default_rng(43)
        poses = [Position3D(1.4, float(y), 0.05) for y in rng.uniform(-0.4, 0.4, 5)]
        phases = rng.uniform(0.0, TWO_PI, 5)
        candidates = [Position3D(0.0, float(y), float(z)) for y, z in rng.uniform(-0.3, 0.5, (3, 2))]

        def oracle(candidate, name, scheme_kind, ref):
            d = [math.sqrt((p.x - candidate.x) ** 2 + (p.y - candidate.y) ** 2
                           + (p.z - candidate.z) ** 2) for p in poses]
            if scheme_kind == "misaligned":
                pairs = [(n, n - 1) for n in range(1, 5)]
            else:
                pairs = [(n, ref) for n in range(5) if n != ref]
            total = 0.0
            for a, b in pairs:
                dphi = phases[a] - phases[b]
                geom = 4.0 * math.pi * (d[a] - d[b]) / LAM
                if name == "nlf":
                    folded = geom % TWO_PI
                    lo, hi = folded - TWO_PI, folded
                    dpd = hi if abs(dphi - hi) <= abs(dphi - lo) else lo
                    term = -((dphi - dpd) ** 2)
                    wgt = 1.0
                elif name in ("clf", "wclf"):
                    term = math.cos(dphi - geom)
                    wgt = abs(math.cos(dphi - geom)) if name == "wclf" else 1.0
                else:
                    term = -math.sin(dphi - geom) ** 2
                    wgt = math.exp(-math.sin(dphi - geom) ** 2) if name == "wslf" else 1.0
                total += wgt * term
            return total

        dists = dists_to(poses, candidates)
        for spec in all_specs():
            got = objective_batch(phases, dists, spec, LAM)
            ref = spec.scheme.reference_index
            for m, cand in enumerate(candidates):
                want = oracle(cand, spec.name, spec.scheme.kind, ref)
                assert got[m] == pytest.approx(want, rel=1e-12, abs=1e-12), spec

    def test_batch_matches_scalar(self):
        # scoring many candidates at once equals scoring each on its own
        rng = np.random.default_rng(47)
        poses = [Position3D(1.4, float(y), 0.0) for y in np.linspace(-0.3, 0.3, 8)]
        phases = rng.uniform(0.0, TWO_PI, 8)
        cands = [Position3D(0.0, float(y), float(z)) for y, z in rng.uniform(-0.4, 0.6, (20, 2))]
        dists = dists_to(poses, cands)
        for spec in all_specs():
            batch = objective_batch(phases, dists, spec, LAM)
            single = np.array([objective_batch(phases, row, spec, LAM)[0] for row in dists])
            np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-12)


@st.composite
def phase_scenes(draw):
    """Phases, (M, N) candidate distances and a common offset c."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(1, 5))
    coords = st.floats(-2.0, 2.0)
    poses = draw(arrays(float, (n, 3), elements=coords))
    cands = draw(arrays(float, (m, 3), elements=coords))
    phases = draw(arrays(float, n, elements=st.floats(0.0, TWO_PI, exclude_max=True)))
    shift = draw(st.floats(0.0, TWO_PI, exclude_max=True))
    dists = np.sqrt(((cands[:, None, :] - poses[None, :, :]) ** 2).sum(axis=2))
    return phases, dists, shift


@settings(max_examples=200, deadline=None)
@given(scene=phase_scenes())
def test_phi0_shift_invariance_all_methods(scene):
    phases, dists, c = scene
    for name in METHOD_NAMES:
        spec = MethodSpec(name)
        base = spec(phases, dists, LAM)
        # nlf folds only the geometry, so it is invariant to an unwrapped shift
        shifted = phases + c if name == "nlf" else wrap_2pi(phases + c)
        got = spec(shifted, dists, LAM)
        assert np.all(np.abs(got - base) <= 1e-9 * np.maximum(1.0, np.abs(base))), name
