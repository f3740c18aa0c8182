"""The three benchmark workloads, driven through phaseloc's public API and CLI.

Every workload is a closed loop with one caller.  Inputs derive from the
workload seed, and op ``i`` gets its own derived seed, so no two ops
score the same phase stream.  ``op`` is the timed part; ``prepare`` (input
generation) and ``check`` (output verification) run outside the timing.
``setup`` builds the scene and grid; the worker adds one warm-up op.

Why these three:

* ``mc-plane`` is ``run_bench`` + ``write_bench_report`` on the stock
  2-tag rack-plane scene with all seven methods: kernel scoring is ~95% of
  it, so a kernel gain shows here and a geometry or ingest gain does not.
* ``rack-log`` is ``phaseloc locate`` then ``phaseloc hologram`` on a
  40-tag, 10,040-read log through ``cli``: log ingest, per-tag geometry
  rebuilds and hologram export carry most of its time.
* ``volume-chunked`` scores a 3-D volume just above the 50 M-entry
  distance-cache limit, so ``GridEvaluator`` takes its chunked path, then
  runs argmax, peak finding and refinement: the only workload where memory,
  chunking and refinement matter.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np

from phaseloc import (
    GridEvaluator,
    Position3D,
    argmax_estimate,
    evaluate_hologram,
    find_peak_regions,
    refine_local,
    synthesize,
)
from phaseloc.io_eval import (
    export_hologram,
    export_phase_log,
    ingest_log,
    load_scenario,
    read_hologram,
    resolve_method,
    run_bench,
    write_bench_report,
)
from phaseloc.io_eval.bench import BenchReport, TrialRecord, trial_seed
from phaseloc.io_eval.cli import cli

from reference import FORMULA_ARRAYS, METHODS, argmax_agrees, reference_scores, terms_per_cell

_SCENE_HEAD = """\
seed = {seed}
carrier.frequency_hz = 866.9e6
trajectory.x = 1.4
trajectory.z = 0.0
trajectory.y_start = -0.5
trajectory.y_stop = 0.5
trajectory.spacing = {spacing}
noise.sigma_slope = 0.006
noise.sigma_intercept = 0.0084
jump.probability = 0.05
"""

_PLANE_REGION = """\
region.x = 0.0
region.y_min = -0.5
region.y_max = 0.5
region.z_min = 0.0
region.z_max = 0.7
region.resolution = {resolution}
"""

_VOLUME_REGION = """\
region.x_min = 0.0
region.x_max = 0.7
region.y_min = -0.5
region.y_max = 0.5
region.z_min = 0.0
region.z_max = 0.7
region.resolution = 0.01
"""

_STOCK_TAGS = ((0.12, 0.24), (-0.1, 0.4))


def _tag_block(positions) -> str:
    lines = []
    for k, (y, z) in enumerate(positions, start=1):
        lines += [
            f"tag.{k}.id = T{k:02d}",
            f"tag.{k}.x = 0.0",
            f"tag.{k}.y = {y!r}",
            f"tag.{k}.z = {z!r}",
            f"tag.{k}.phi0 = random",
        ]
    return "\n".join(lines) + "\n"


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i`` (0 is the warm-up op) for workload seed ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(i)]).generate_state(1)[0])


def _phases(samples) -> np.ndarray:
    return np.array([s.phase_wrapped for s in samples])


def _poses(samples) -> np.ndarray:
    return np.array([[s.antenna_pose.x, s.antenna_pose.y, s.antenna_pose.z] for s in samples])


def _cell_index(cells: np.ndarray, position) -> int | None:
    hits = np.flatnonzero((cells == (position.x, position.y, position.z)).all(axis=1))
    return int(hits[0]) if hits.size else None


def _reference_problem(method, samples, cells, chosen) -> str | None:
    """None when ``chosen`` is the reference argmax (or ties it), else a message."""
    if chosen is None:
        return f"{method}: estimate is not a grid cell"
    scores = reference_scores(
        method, _phases(samples), _poses(samples), cells, samples[0].carrier.wavelength
    )
    if argmax_agrees(scores, chosen):
        return None
    return f"{method}: estimate cell {chosen} != reference argmax {int(np.argmax(scores))}"


def _noop_scorer(phases, dists, wavelength):
    return np.zeros(dists.shape[0])


class Workload:
    """One workload: scene set-up, per-op inputs, the timed op and its checks."""

    name = ""
    method = "wslf"  # method of the op where the workload uses one method
    probe_reps = 3  # repeats of the cheap probes in a traced run
    kernel_reps = 3  # repeats of the geometry and kernel probes
    cli_reps = 3  # repeats of the CLI and hologram-export probes in a traced run
    report_in_op = False  # whether the op itself writes a bench report

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.config_path = workdir / "scene.cfg"

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        self.config_path.write_text(self.config_text(), encoding="utf-8")
        with self.tracer.span("config.load"):
            self.scenario, self.region = load_scenario(self.config_path)
        self.cells = self.region.candidates()

    def streams(self, i: int) -> dict:
        with self.tracer.span("synthesis") as c:
            streams = synthesize(replace(self.scenario, rng_seed=op_seed(self.seed, i)))
            c["reads"] = sum(len(s) for s in streams.values())
        return streams

    # --- per-op protocol -------------------------------------------------
    localizations_per_op = 1

    def prepare(self, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, i: int, inp, out) -> list[str]:
        return []

    def final_check(self, i: int, inp, out) -> list[str]:
        """Once per run, outside the timed loop, on op ``i``."""
        return []

    def cleanup(self, inp) -> None:
        pass

    # --- traced layer probes ---------------------------------------------
    def probe_streams(self) -> dict:
        return self.streams(10_000)

    def probes(self) -> None:
        """Time each layer on this workload's scene, one public call per span."""
        tr = self.tracer
        tr.op = "probe"
        for _ in range(self.probe_reps):
            self.streams(10_000)
        streams = self.probe_streams()
        samples = next(iter(streams.values()))
        poses = self.scenario.trajectory.as_array()
        m, n = self.cells.shape[0], poses.shape[0]
        holos = {}
        for _ in range(self.kernel_reps):
            evaluator = GridEvaluator(self.region, poses)
            with tr.span("solver.geometry", entries=m * n):
                evaluator.hologram(samples, _noop_scorer)
            for name in METHODS:
                spec = resolve_method(name)
                pairs = m * terms_per_cell(name, n)
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
                with tr.span(f"kernel.{name}", pairs=pairs,
                             bytes_computed=8 * pairs * FORMULA_ARRAYS[name]) as c:
                    holos[name] = evaluator.hologram(samples, spec)
                c["peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                tracemalloc.stop()
            del evaluator
        holo = holos[self.method]
        probe_dir = self.workdir / "probe"
        probe_dir.mkdir(exist_ok=True)
        log_path = probe_dir / "log.csv"
        for _ in range(self.probe_reps):
            with tr.span("solver.argmax"):
                argmax_estimate(holo)
            with tr.span("solver.peaks"):
                find_peak_regions(holo)
            with tr.span("solver.refine"):
                refine_local(holo, samples)
            with tr.span("logs.export"):
                export_phase_log(streams, log_path)
            with tr.span("logs.ingest", reads=sum(len(s) for s in streams.values())):
                ingest_log(log_path)
        for _ in range(self.cli_reps):
            with tr.span("holograms.export", rows=m):
                export_hologram(holo, probe_dir / "holo.csv")
            self._cli_probe(log_path)
        if not self.report_in_op:
            self._report_probe(probe_dir)
        shutil.rmtree(probe_dir)

    def _report_probe(self, out_dir: Path) -> None:
        """Report writing for one trial of every method on every tag of the scene."""
        records = tuple(
            TrialRecord(trial=0, method=name, tag_id=tag.tag_id, est=tag.position,
                        err_x=0.0, err_y=0.0, err_z=0.0, err_combined=0.0)
            for name in METHODS for tag in self.scenario.tags
        )
        report = BenchReport(methods=METHODS, tag_ids=tuple(t.tag_id for t in self.scenario.tags),
                             trials=1, base_seed=self.seed, records=records, runtime_s=0.0)
        for _ in range(self.probe_reps):
            with self.tracer.span("bench.report"):
                report.stats()
                write_bench_report(report, out_dir)

    def _cli_probe(self, log_path: Path) -> None:
        """`phaseloc locate` through ``cli``, then the same public calls made directly."""
        tr = self.tracer
        with contextlib.redirect_stdout(io.StringIO()):
            with tr.span("cli.locate"):
                rc = cli(["locate", "--input", str(log_path), "--method", self.method,
                          "--config", str(self.config_path)])
        if rc != 0:
            raise RuntimeError(f"cli locate exited with {rc}")
        spec = resolve_method(self.method)
        with tr.span("replay.locate"):
            with tr.span("config.load"):
                scenario, region = load_scenario(self.config_path)
            truth = {t.tag_id: t.position for t in scenario.tags}
            with tr.span("logs.ingest"):
                streams = ingest_log(log_path)
            for tag_id, samples in streams.items():
                with tr.span("solver.evaluate_hologram"):
                    holo = evaluate_hologram(samples, region, spec)
                with tr.span("solver.argmax"):
                    argmax_estimate(holo, truth=truth.get(tag_id), tag_id=tag_id)


class McPlane(Workload):
    """Monte-Carlo comparison of all seven methods on the stock rack plane."""

    name = "mc-plane"
    trials = 4
    report_in_op = True

    def config_text(self) -> str:
        return (_SCENE_HEAD.format(seed=self.seed, spacing=0.01)
                + _PLANE_REGION.format(resolution=0.01) + _tag_block(_STOCK_TAGS))

    def setup(self) -> None:
        super().setup()
        self.methods = [(name, resolve_method(name)) for name in METHODS]
        self.localizations_per_op = self.trials * len(METHODS) * len(self.scenario.tags)
        self.first_report: dict | None = None

    def prepare(self, i: int):
        return op_seed(self.seed, i), self.workdir / f"op{i}"

    def op(self, inp):
        base_seed, out_dir = inp
        with self.tracer.span("bench.run"):
            report = run_bench(self.scenario, self.region, self.methods,
                               trials=self.trials, base_seed=base_seed)
        with self.tracer.span("bench.report"):
            report.stats()
            paths = write_bench_report(report, out_dir)
        return report, paths

    def check(self, i: int, inp, out) -> list[str]:
        base_seed, out_dir = inp
        report, paths = out
        problems = []
        if len(report.records) != self.localizations_per_op:
            problems.append(f"{len(report.records)} records, expected {self.localizations_per_op}")
        # One method per op against the reference, in turn, keeps checking cheap.
        method = METHODS[i % len(METHODS)]
        streams = synthesize(replace(self.scenario, rng_seed=trial_seed(base_seed, 0)))
        for rec in report.records:
            if rec.trial == 0 and rec.method == method:
                chosen = _cell_index(self.cells, rec.est)
                problem = _reference_problem(rec.method, streams[rec.tag_id], self.cells, chosen)
                if problem:
                    problems.append(f"trial 0, {rec.tag_id}, {problem}")
        if self.first_report is None:
            self.first_report = {k: p.read_bytes() for k, p in paths.items()}
            self.first_seed = base_seed
        return problems

    def final_check(self, i: int, inp, out) -> list[str]:
        """Re-run the first op's seed; its report files must be byte-identical."""
        report = run_bench(self.scenario, self.region, self.methods,
                           trials=self.trials, base_seed=self.first_seed)
        paths = write_bench_report(report, self.workdir / "repeat")
        differ = [k for k, p in paths.items() if p.read_bytes() != self.first_report[k]]
        return [f"repeated seed gave different {', '.join(differ)}"] if differ else []

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp[1], ignore_errors=True)


class RackLog(Workload):
    """`phaseloc locate` + `phaseloc hologram` on a 40-tag phase log."""

    name = "rack-log"
    localizations_per_op = 40

    def config_text(self) -> str:
        tags = [(-0.35 + 0.1 * (k % 8), 0.1 + 0.1 * (k // 8)) for k in range(40)]
        tags = [(round(y, 6), round(z, 6)) for y, z in tags]
        return (_SCENE_HEAD.format(seed=self.seed, spacing=0.004)
                + _PLANE_REGION.format(resolution=0.02) + _tag_block(tags))

    def prepare(self, i: int):
        streams = self.streams(i)
        op_dir = self.workdir / f"op{i}"
        op_dir.mkdir()
        log_path = op_dir / "log.csv"
        with self.tracer.span("logs.export"):
            export_phase_log(streams, log_path)
        return streams, log_path, op_dir / "holo.csv"

    def op(self, inp):
        _, log_path, holo_path = inp
        common = ["--input", str(log_path), "--method", self.method,
                  "--config", str(self.config_path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            with self.tracer.span("cli.locate"):
                rc_locate = cli(["locate", *common])
            located = out.getvalue()
            with self.tracer.span("cli.hologram"):
                rc_holo = cli(["hologram", *common, "--out", str(holo_path)])
        return rc_locate, rc_holo, located

    def check(self, i: int, inp, out) -> list[str]:
        streams, _, holo_path = inp
        rc_locate, rc_holo, located = out
        if rc_locate or rc_holo:
            return [f"exit codes locate={rc_locate} hologram={rc_holo}"]
        rows = [line.split(",") for line in located.strip().splitlines()[1:]]
        estimates = {row[0]: Position3D(*(float(v) for v in row[1:4])) for row in rows}
        if len(rows) != len(streams) or set(estimates) != set(streams):
            return [f"locate printed {len(rows)} rows for {len(streams)} tags"]
        problems = []
        for tag_id, est in estimates.items():
            holo = read_hologram(holo_path.with_name(f"holo.{tag_id}.csv"))
            peak = holo.region.position_at(int(np.argmax(holo.scores)))
            if peak != est:
                problems.append(f"{tag_id}: exported hologram peaks at {peak}, locate said {est}")
        tag_id = rows[i % len(rows)][0]
        problem = _reference_problem(self.method, streams[tag_id], self.cells,
                                     _cell_index(self.cells, estimates[tag_id]))
        if problem:
            problems.append(f"{tag_id}: {problem}")
        return problems

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp[1].parent, ignore_errors=True)


class VolumeChunked(Workload):
    """Hologram, argmax, peak regions and refinement over a 3-D volume."""

    name = "volume-chunked"
    kernel_reps = 1
    cli_reps = 1

    def config_text(self) -> str:
        return (_SCENE_HEAD.format(seed=self.seed, spacing=0.01)
                + _VOLUME_REGION + _tag_block(_STOCK_TAGS))

    def setup(self) -> None:
        super().setup()
        self.evaluator = GridEvaluator(self.region, self.scenario.trajectory.as_array())
        self.spec = resolve_method(self.method)
        self.truth = {t.tag_id: t.position for t in self.scenario.tags}

    def probe_streams(self) -> dict:
        tag_id, samples = next(iter(self.streams(10_000).items()))
        return {tag_id: samples}

    def prepare(self, i: int):
        streams = self.streams(i)
        tag_id = sorted(streams)[i % len(streams)]
        return tag_id, streams[tag_id]

    def op(self, inp):
        tag_id, samples = inp
        tr = self.tracer
        with tr.span("solver.hologram"):
            holo = self.evaluator.hologram(samples, self.spec)
        with tr.span("solver.argmax"):
            est = argmax_estimate(holo, truth=self.truth[tag_id], tag_id=tag_id)
        with tr.span("solver.peaks"):
            peaks = find_peak_regions(holo)
        with tr.span("solver.refine"):
            refined = refine_local(holo, samples)
        return holo, est, peaks, refined

    def check(self, i: int, inp, out) -> list[str]:
        holo, est, peaks, refined = out
        problems = []
        if not peaks or peaks[0][1] != 1.0:
            problems.append(f"no peak region at score 1: {peaks[:2]}")
        res = self.region.resolution
        off = np.abs(np.subtract(
            (refined.position.x, refined.position.y, refined.position.z),
            (est.position.x, est.position.y, est.position.z)))
        if np.any(off > 1.5 * np.asarray(res) + 1e-12):
            problems.append(f"refined {refined.position} left the peak neighbourhood of {est.position}")
        return problems

    def final_check(self, i: int, inp, out) -> list[str]:
        """The reference scorer over all 509,141 cells, once per run."""
        _, samples = inp
        holo = out[0]
        problem = _reference_problem(self.method, samples, self.cells, int(np.argmax(holo.scores)))
        return [problem] if problem else []


WORKLOADS = {w.name: w for w in (McPlane, RackLog, VolumeChunked)}
