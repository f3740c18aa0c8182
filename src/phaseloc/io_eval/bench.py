"""Monte-Carlo benchmark harness.

Each trial re-seeds the scenario from (base_seed, trial), synthesizes
fresh phase streams, and locates every tag with every requested method on
the identical data, so method comparisons are paired.  Trials are
synthesized a few at a time, and each method scores their (trial, tag)
streams together in GridEvaluator.holograms passes.  Reports are
reproducible byte-for-byte from the same inputs: wall-clock runtime is
kept on the in-memory report (and stdout) but never written into the
report files.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from ..likelihood import DifferentialScheme, MethodSpec
from ..phase_model import Position3D
from ..solver import GridEvaluator, SearchRegion, truth_errors
from ..synthesis import Scenario, synthesize


def parse_scheme(text: str) -> DifferentialScheme:
    """Parse "misaligned", "reference" or "reference:<index>"."""
    if text == "misaligned":
        return DifferentialScheme.misaligned()
    if text == "reference":
        return DifferentialScheme.reference(0)
    if text.startswith("reference:"):
        try:
            index = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad reference index in scheme {text!r}") from exc
        if index < 0:
            raise ValueError(f"reference index must be >= 0 in scheme {text!r}")
        return DifferentialScheme.reference(index)
    raise ValueError(f"unknown scheme {text!r} (expected misaligned or reference[:index])")


# A CLI method name with its --scheme and --tagoram-sigma values is a spec.
resolve_method = MethodSpec


def trial_seed(base_seed: int, trial: int) -> int:
    """Derived per-trial scenario seed; stable across runs and platforms."""
    return int(np.random.SeedSequence([int(base_seed), int(trial)]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TrialRecord:
    """One (trial, method, tag) localization outcome."""

    trial: int
    method: str
    tag_id: str
    est: Position3D
    err_x: float
    err_y: float
    err_z: float
    err_combined: float


@dataclass(frozen=True)
class MethodTagStats:
    mean: float
    median: float
    max: float
    mean_x: float
    mean_y: float
    mean_z: float


@dataclass(frozen=True)
class BenchReport:
    """Per-trial records plus the derived error statistics."""

    methods: tuple[str, ...]
    tag_ids: tuple[str, ...]
    trials: int
    base_seed: int
    records: tuple[TrialRecord, ...]
    runtime_s: float

    def _group(self, key) -> dict:
        """Records by ``key(record)``, in one pass and in record order."""
        groups: dict = {}
        for r in self.records:
            groups.setdefault(key(r), []).append(r)
        return groups

    def stats(self) -> dict[tuple[str, str], MethodTagStats]:
        """Statistics per (method, tag), computed once per report; each call
        returns a fresh dict, so a caller's changes do not reach the next."""
        return dict(self._stats)

    @cached_property
    def _stats(self) -> dict[tuple[str, str], MethodTagStats]:
        groups = self._group(lambda r: (r.method, r.tag_id))
        out: dict[tuple[str, str], MethodTagStats] = {}
        for method in self.methods:
            for tag in self.tag_ids:
                errs = groups.get((method, tag), [])
                combined = [r.err_combined for r in errs]
                out[(method, tag)] = MethodTagStats(
                    mean=float(np.mean(combined)),
                    median=float(np.median(combined)),
                    max=float(np.max(combined)),
                    mean_x=float(np.mean([r.err_x for r in errs])),
                    mean_y=float(np.mean([r.err_y for r in errs])),
                    mean_z=float(np.mean([r.err_z for r in errs])),
                )
        return out

    def method_means(self) -> dict[str, float]:
        """Mean combined error per method over all tags and trials."""
        groups = self._group(lambda r: r.method)
        return {
            method: float(np.mean([r.err_combined for r in groups.get(method, [])]))
            for method in self.methods
        }

    def trial_errors(self, method: str, tag_id: str | None = None) -> np.ndarray:
        """Per-trial combined errors, averaged over tags unless one is named."""
        groups = self._group(lambda r: (r.method, r.trial, None if tag_id is None else r.tag_id))
        return np.array([
            float(np.mean([r.err_combined for r in groups.get((method, t, tag_id), [])]))
            for t in range(self.trials)
        ])

    def to_text(self) -> str:
        lines = [
            "phaseloc benchmark report",
            f"trials = {self.trials}",
            f"base_seed = {self.base_seed}",
            f"methods = {','.join(self.methods)}",
            f"tags = {','.join(self.tag_ids)}",
            "",
            "per-method mean combined Y/Z error (m):",
        ]
        means = self.method_means()
        for method in self.methods:
            lines.append(f"  {method:<8s} {means[method]!r}")
        lines.append("")
        lines.append("per-method per-tag statistics (m):")
        lines.append("  method   tag        mean        median      max         mean_x      mean_y      mean_z")
        stats = self.stats()
        for method in self.methods:
            for tag in self.tag_ids:
                s = stats[(method, tag)]
                lines.append(
                    f"  {method:<8s} {tag:<10s} "
                    f"{s.mean:<11.6f} {s.median:<11.6f} {s.max:<11.6f} "
                    f"{s.mean_x:<11.6f} {s.mean_y:<11.6f} {s.mean_z:<11.6f}"
                )
        return "\n".join(lines) + "\n"


def run_bench(
    scenario: Scenario,
    region: SearchRegion,
    methods: list[tuple[str, MethodSpec]],
    trials: int,
    base_seed: int | None = None,
) -> BenchReport:
    """Run the Monte-Carlo comparison.

    methods is a list of (name, spec) pairs; every method sees the same
    synthesized data within a trial.  base_seed defaults to the
    scenario's seed.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not methods:
        raise ValueError("no methods to benchmark")
    base_seed = scenario.rng_seed if base_seed is None else int(base_seed)

    t0 = time.perf_counter()
    evaluator = GridEvaluator(region, scenario.trajectory.poses)
    truth = {tag.tag_id: tag.position for tag in scenario.tags}
    # Every (trial, tag) stream shares the trajectory and the carrier, so a
    # method scores them in passes of up to streams_per_pass streams.  Trials
    # are synthesized a pass's worth at a time, so memory does not grow with
    # the number of trials.
    per_pass = evaluator.streams_per_pass
    chunk = max(1, per_pass // max(1, len(truth)))
    records: list[TrialRecord] = []
    for first in range(0, trials, chunk):
        chunk_trials = range(first, min(first + chunk, trials))
        jobs = [
            (t, tag_id, samples)
            for t in chunk_trials
            for tag_id, samples in synthesize(
                replace(scenario, rng_seed=trial_seed(base_seed, t))
            ).items()
        ]
        found = _locate_jobs(evaluator, methods, jobs, truth, per_pass)
        records.extend(
            found[t, k, tag_id]
            for t in chunk_trials
            for k in range(len(methods))
            for tag_id in truth
        )
    return BenchReport(
        methods=tuple(name for name, _ in methods),
        tag_ids=tuple(truth),
        trials=trials,
        base_seed=base_seed,
        records=tuple(records),
        runtime_s=time.perf_counter() - t0,
    )


def _locate_jobs(evaluator, methods, jobs, truth, per_pass) -> dict[tuple, TrialRecord]:
    """Records keyed by (trial, method index, tag) for (trial, tag,
    stream) jobs, each method scoring up to per_pass streams at a time.
    A record holds only the argmax cell, so GridEvaluator.best_cells
    finds it without the holograms where bounds allow.  Every method
    scores one batch before the next batch starts, so the methods that
    read one FFT pass of a batch (clf, slf, sarfid and the nlf, wclf and
    wslf bounds) find it still kept by the evaluator."""
    records = {}
    region = evaluator.region
    for lo in range(0, len(jobs), per_pass):
        batch = jobs[lo:lo + per_pass]
        for k, (method_name, spec) in enumerate(methods):
            try:
                cells = evaluator.best_cells([samples for _, _, samples in batch], spec)
            except Exception as exc:
                raise RuntimeError(f"method {method_name}: {exc}") from exc
            for (t, tag_id, _), cell in zip(batch, cells):
                est = region.position_at(cell)
                records[t, k, tag_id] = TrialRecord(
                    t, method_name, tag_id, est, *truth_errors(est, truth[tag_id])
                )
    return records


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_bench_report(report: BenchReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.txt, report.csv and errors.csv into out_dir.

    All three files are byte-deterministic for fixed inputs and seed;
    errors.csv holds the raw per-trial records the statistics derive
    from, at full float precision.  The two .csv files follow CSV
    quoting, so a tag id holding a comma or a quote stays one field.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "text": out_dir / "report.txt",
        "summary": out_dir / "report.csv",
        "errors": out_dir / "errors.csv",
    }

    paths["text"].write_text(report.to_text(), encoding="utf-8")

    stats = report.stats()
    _write_csv(paths["summary"], [
        "method,tag_id,trials,mean,median,max,mean_x,mean_y,mean_z".split(","),
        *([method, tag, report.trials, *map(repr, astuple(stats[(method, tag)]))]
          for method in report.methods for tag in report.tag_ids),
    ])
    _write_csv(paths["errors"], [
        "trial,method,tag_id,est_x,est_y,est_z,err_x,err_y,err_z,err_combined".split(","),
        *([r.trial, r.method, r.tag_id,
           *map(repr, (r.est.x, r.est.y, r.est.z, r.err_x, r.err_y, r.err_z, r.err_combined))]
          for r in report.records),
    ])
    return paths
