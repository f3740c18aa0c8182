"""Acceptance suite: exact property checks plus directional Monte-Carlo
reproductions of the comparative claims, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from phaseloc import (
    BRANCH_NEGATIVE,
    BRANCH_NONNEGATIVE,
    METHOD_NAMES,
    CarrierConfig,
    DifferentialScheme,
    GridEvaluator,
    InterferenceSchedule,
    MethodSpec,
    NoiseModel,
    Position3D,
    Scenario,
    SearchRegion,
    TagTruth,
    Trajectory,
    argmax_estimate,
    delta_phi_d_mod,
    delta_phi_d_unwrap,
    evaluate_hologram,
    find_peak_regions,
    linear_track,
    objective_batch,
    predict_phase,
    synthesize,
    wrap_pm_pi,
)
from phaseloc.io_eval import run_bench, write_bench_report
from phaseloc.io_eval.cli import cli

TWO_PI = 2.0 * math.pi
CARRIER = CarrierConfig(866.9e6)
LAM = CARRIER.wavelength
REF = DifferentialScheme.reference(0)

ALL_METHODS = {name: MethodSpec(name, REF) for name in METHOD_NAMES}


def report(num, label, ok, detail=""):
    print(f"[acceptance {num}] {label}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({label}) failed {detail}"


def test_criterion_1_exact_recovery_suite():
    # 14 tags in two rows, 100 poses, ~1e4 cells at 1 cm, sigma=0, no
    # jumps, random phi0 per tag; every method must land within sqrt(2) cm.
    rng = np.random.default_rng(2024)
    tags = tuple(
        TagTruth(f"T{r}{i}", Position3D(0.0, round(-0.6 + 0.2 * i, 10), z), phi0=float(rng.uniform(0, TWO_PI)))
        for r, z in (("A", 0.25), ("B", 0.55))
        for i in range(7)
    )
    assert len(tags) == 14
    scenario = Scenario(
        tags=tags,
        trajectory=linear_track(x=1.4, z=0.0, y_start=-0.495, y_stop=0.495, spacing=0.01),
        carrier=CARRIER,
        noise=NoiseModel(constant_sigma=0.0),
        rng_seed=1,
    )
    assert len(scenario.trajectory.poses) == 100
    region = SearchRegion(x=(0.0, 0.0), y=(-0.7, 0.7), z=(0.0, 0.7), resolution=0.01)
    assert region.cell_count == 10011

    t0 = time.perf_counter()
    streams = synthesize(scenario)
    evaluator = GridEvaluator(region, scenario.trajectory.as_array())
    worst = 0.0
    for name, spec in ALL_METHODS.items():
        for tag in tags:
            holo = evaluator.hologram(streams[tag.tag_id], spec)
            est = argmax_estimate(holo, truth=tag.position, tag_id=tag.tag_id)
            worst = max(worst, est.err_combined_yz)
            assert est.err_combined_yz <= math.sqrt(2) * 0.01 + 1e-12, (name, tag.tag_id)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "exact recovery, 7 methods x 14 tags",
        worst <= math.sqrt(2) * 0.01 + 1e-12 and elapsed < 10.0,
        f"(worst {worst * 100:.3f} cm, {elapsed:.1f}s)",
    )


def test_criterion_2_jump_robustness():
    rng = np.random.default_rng(777)
    periodic = [
        MethodSpec(name, s)
        for name in ("clf", "slf", "wclf", "wslf")
        for s in (REF, DifferentialScheme.misaligned())
    ]
    poses = np.column_stack([
        np.full(12, 1.4), np.linspace(-0.3, 0.3, 12), np.zeros(12)
    ])
    ok = True
    for _ in range(30):
        phases = rng.uniform(0.0, TWO_PI, 12)
        cand = Position3D(0.0, float(rng.uniform(-0.3, 0.3)), float(rng.uniform(0.0, 0.6)))
        delta = poses - cand.as_array()
        dists = np.sqrt(delta[:, 0] ** 2 + delta[:, 1] ** 2 + delta[:, 2] ** 2)[None, :]
        for spec in periodic:
            base = objective_batch(phases, dists, spec, LAM)[0]
            for idx in (0, 5, 11):
                for sign in (+1.0, -1.0):
                    shifted = phases.copy()
                    shifted[idx] += sign * TWO_PI
                    out = objective_batch(shifted, dists, spec, LAM)[0]
                    ok &= abs(out - base) <= 1e-12 * max(1.0, abs(base))

    # Constructed boundary-jump case: reference read 1.6*pi, second read
    # 1.95*pi, geometry folding to 0.35*pi.  The jump to 0.03*pi drags the
    # measured difference from 0.35*pi to -1.57*pi and the prophet-branch
    # naive objective drops by (1.92*pi)^2.
    nlf = MethodSpec("nlf", REF)
    dd = 0.35 * LAM / 4.0
    d0 = 1.4
    poses_fig = np.array([[d0, 0.0, 0.0], [d0 + dd, 0.0, 0.0]])
    cand = np.array([[0.0, 0.0, 0.0]])
    dists_fig = np.sqrt(((poses_fig[None, :, :] - cand[:, None, :]) ** 2).sum(-1))
    before = objective_batch(
        np.array([1.6 * math.pi, 1.95 * math.pi]), dists_fig, nlf, LAM, BRANCH_NONNEGATIVE
    )[0]
    after = objective_batch(
        np.array([1.6 * math.pi, 0.03 * math.pi]), dists_fig, nlf, LAM, BRANCH_NONNEGATIVE
    )[0]
    drop = before - after
    want = (0.35 * math.pi - (0.03 * math.pi - 1.6 * math.pi)) ** 2  # (1.92*pi)^2
    nlf_ok = before == pytest.approx(0.0, abs=1e-9) and drop == pytest.approx(want, rel=1e-9)
    report(
        2,
        "2*pi perturbation invariance + naive-kernel jump offset",
        ok and nlf_ok,
        f"(NLF drop {drop:.3f} vs {want:.3f})",
    )


def test_criterion_3_taylor_agreement():
    # Remainder bound of the cosine reconstruction against the squared
    # residual; 1e-15 covers float round-off of the cancelling evaluation,
    # which exceeds the bound's own r^6/360 slack for small residuals.
    rng = np.random.default_rng(3)
    r = rng.uniform(-0.1, 0.1, 100_000)
    lhs = np.abs((2.0 * np.cos(r) - 2.0) + r * r)
    ok = bool(np.all(lhs <= r**4 / 12.0 + 1e-15))
    report(3, "second-order Taylor remainder bound (1e5 residuals)", ok)


def test_criterion_4_unwrap_mod_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    count = 0
    while count < 10_000:
        ddist = float(rng.uniform(-0.4999, 0.4999)) * LAM
        dphi = float(rng.uniform(-TWO_PI, TWO_PI))
        if ddist == 0.0 or dphi == 0.0:
            continue
        count += 1
        expected = delta_phi_d_unwrap(ddist, dphi, LAM)
        branch = BRANCH_NONNEGATIVE if expected >= 0.0 else BRANCH_NEGATIVE
        got = delta_phi_d_mod(ddist, LAM, branch)
        worst = max(worst, abs(got - expected))
    report(4, "sign-pattern unwrap vs modulo fold (1e4 pairs)", worst <= 1e-12, f"(worst {worst:.2e})")


def _mc_scenario(**overrides):
    defaults = dict(
        tags=(TagTruth("T1", Position3D(0.0, 0.12, 0.24), phi0=2.0),),
        trajectory=linear_track(x=1.4, z=0.0, y_start=-0.3, y_stop=0.3, spacing=0.02),
        carrier=CARRIER,
        noise=NoiseModel(),
        jump_probability=0.05,
        rng_seed=777,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


MC_REGION = SearchRegion(x=(0.0, 0.0), y=(-0.3, 0.3), z=(0.0, 1.0), resolution=0.01)


def test_criterion_5_reference_beats_misaligned():
    scenario = _mc_scenario()
    mis = DifferentialScheme.misaligned()
    methods = [
        ("clf-mis", MethodSpec("clf", mis)),
        ("clf-ref", MethodSpec("clf", REF)),
        ("slf-mis", MethodSpec("slf", mis)),
        ("slf-ref", MethodSpec("slf", REF)),
    ]
    rep = run_bench(scenario, MC_REGION, methods, trials=120, base_seed=777)
    means = rep.method_means()
    detail = []
    ok = True
    for variant in ("clf", "slf"):
        worse = rep.trial_errors(f"{variant}-mis")
        better = rep.trial_errors(f"{variant}-ref")
        p = float(stats.ttest_rel(worse, better, alternative="greater").pvalue)
        ok &= means[f"{variant}-ref"] < means[f"{variant}-mis"] and p < 0.01
        detail.append(
            f"{variant}: ref {means[f'{variant}-ref']*100:.2f} cm < mis "
            f"{means[f'{variant}-mis']*100:.2f} cm, p={p:.1e}"
        )
    report(5, "reference beats misaligned subtraction (120 trials)", ok, f"({'; '.join(detail)})")


def test_criterion_6_weighted_ordering_under_contamination(tmp_path):
    scenario = _mc_scenario(
        interference=InterferenceSchedule(bias_rad=0.5, period=10, offset=5)
    )
    methods = [(name, ALL_METHODS[name]) for name in ("clf", "slf", "wclf", "wslf", "sarfid", "tagoram")]
    rep = run_bench(scenario, MC_REGION, methods, trials=100, base_seed=777)
    write_bench_report(rep, tmp_path / "bench")  # full artifact with all method means
    means = rep.method_means()
    ok = means["wslf"] <= means["wclf"] and means["wslf"] < means["slf"]
    detail = " ".join(f"{k}={v*100:.2f}cm" for k, v in means.items())
    report(6, "weighted ordering under contamination (100 trials)", ok, f"({detail})")


def test_criterion_7_sigma_model_validation():
    # 1e5 reads all at exactly 1.5 m: poses on a circle around the tag.
    d = 1.5
    n = 100_000
    angles = np.linspace(0.0, TWO_PI, n, endpoint=False)
    poses = tuple(Position3D(d * math.cos(a), d * math.sin(a), 0.0) for a in angles)
    phi0 = 0.7
    scenario = Scenario(
        tags=(TagTruth("T1", Position3D(0.0, 0.0, 0.0), phi0=phi0),),
        trajectory=Trajectory(poses=[(p.x, p.y, p.z) for p in poses]),
        carrier=CARRIER,
        noise=NoiseModel(),
        rng_seed=7,
    )
    samples = synthesize(scenario)["T1"]
    predicted = predict_phase(poses[0], scenario.tags[0].position, CARRIER, phi0)
    residuals = wrap_pm_pi(np.array([s.phase_wrapped for s in samples]) - predicted)
    got = float(np.std(residuals, ddof=1))
    want = 0.006 * d + 0.0084
    ok = abs(got - want) <= 0.02 * want
    assert scenario.noise.sigma(d) == pytest.approx(want, rel=1e-9)
    report(7, "sigma(d) model STD within 2% (1e5 draws)", ok, f"({got:.6f} vs {want:.6f})")


def test_criterion_8_symmetric_ambiguity():
    truth = Position3D(0.0, 0.12, 0.4)
    scenario = Scenario(
        tags=(TagTruth("T1", truth, phi0=1.0),),
        trajectory=linear_track(x=1.4, z=0.0, y_start=-0.5, y_stop=0.5, spacing=0.02),
        carrier=CARRIER,
        noise=NoiseModel(constant_sigma=0.0),
        rng_seed=3,
    )
    samples = synthesize(scenario)["T1"]
    spec = MethodSpec("clf", REF)

    full = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(-0.6, 0.6), resolution=0.01)
    peaks_full = find_peak_regions(evaluate_hologram(samples, full, spec))
    zs = sorted(full.position_at(flat).z for flat, _ in peaks_full)

    half = SearchRegion(x=(0.0, 0.0), y=(-0.5, 0.5), z=(0.0, 0.6), resolution=0.01)
    peaks_half = find_peak_regions(evaluate_hologram(samples, half, spec))

    ok = (
        len(peaks_full) == 2
        and abs(zs[0] + 0.4) < 0.011
        and abs(zs[1] - 0.4) < 0.011
        and len(peaks_half) == 1
        and abs(half.position_at(peaks_half[0][0]).z - 0.4) < 0.011
    )
    report(8, "mirror peak on full plane, removed by half-space", ok,
           f"(full {len(peaks_full)} peaks at z={zs}, half {len(peaks_half)})")


def test_criterion_9_bench_determinism(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "seed = 7\n"
        "carrier.frequency_hz = 866.9e6\n"
        "trajectory.x = 1.4\n"
        "trajectory.z = 0.0\n"
        "trajectory.y_start = -0.3\n"
        "trajectory.y_stop = 0.3\n"
        "trajectory.spacing = 0.02\n"
        "jump.probability = 0.05\n"
        "region.x = 0.0\n"
        "region.y_min = -0.3\n"
        "region.y_max = 0.3\n"
        "region.z_min = 0.0\n"
        "region.z_max = 0.6\n"
        "region.resolution = 0.02\n"
        "tag.1.id = T01\n"
        "tag.1.x = 0.0\n"
        "tag.1.y = 0.12\n"
        "tag.1.z = 0.24\n"
        "tag.1.phi0 = random\n"
    )
    args = lambda out: [
        "bench", "--config", str(cfg), "--method", "wclf,wslf,sarfid,tagoram",
        "--trials", "5", "--seed", "42", "--out", str(out),
    ]
    assert cli(args(tmp_path / "run1")) == 0
    assert cli(args(tmp_path / "run2")) == 0
    ok = all(
        (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
        for name in ("report.txt", "report.csv", "errors.csv")
    )
    report(9, "byte-identical bench reports across invocations", ok)
