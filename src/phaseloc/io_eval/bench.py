"""Monte-Carlo benchmark harness.

Each trial re-seeds the scenario from (base_seed, trial), synthesizes
fresh phase streams, and locates every tag with every requested method on
the identical data, so method comparisons are paired.  Reports are
reproducible byte-for-byte from the same inputs: wall-clock runtime is
kept on the in-memory report (and stdout) but never written into the
report files.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..likelihood import DifferentialScheme, MethodSpec
from ..phase_model import Position3D
from ..solver import GridEvaluator, SearchRegion, argmax_estimate
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

    def stats(self) -> dict[tuple[str, str], MethodTagStats]:
        out: dict[tuple[str, str], MethodTagStats] = {}
        for method in self.methods:
            for tag in self.tag_ids:
                errs = [r for r in self.records if r.method == method and r.tag_id == tag]
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
        return {
            method: float(
                np.mean([r.err_combined for r in self.records if r.method == method])
            )
            for method in self.methods
        }

    def trial_errors(self, method: str, tag_id: str | None = None) -> np.ndarray:
        """Per-trial combined errors, averaged over tags unless one is named."""
        out = []
        for t in range(self.trials):
            errs = [
                r.err_combined
                for r in self.records
                if r.trial == t and r.method == method and (tag_id is None or r.tag_id == tag_id)
            ]
            out.append(float(np.mean(errs)))
        return np.array(out)

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
    evaluator = GridEvaluator(region, scenario.trajectory.as_array())
    truth = {tag.tag_id: tag.position for tag in scenario.tags}
    records: list[TrialRecord] = []
    for t in range(trials):
        trial_scenario = replace(scenario, rng_seed=trial_seed(base_seed, t))
        streams = synthesize(trial_scenario)
        for method_name, spec in methods:
            for tag_id, samples in streams.items():
                try:
                    holo = evaluator.hologram(samples, spec)
                    est = argmax_estimate(holo, truth=truth[tag_id], tag_id=tag_id)
                except Exception as exc:
                    raise RuntimeError(
                        f"trial {t}, method {method_name}, tag {tag_id}: {exc}"
                    ) from exc
                records.append(
                    TrialRecord(
                        trial=t,
                        method=method_name,
                        tag_id=tag_id,
                        est=est.position,
                        err_x=est.err_x,
                        err_y=est.err_y,
                        err_z=est.err_z,
                        err_combined=est.err_combined_yz,
                    )
                )
    return BenchReport(
        methods=tuple(name for name, _ in methods),
        tag_ids=tuple(truth),
        trials=trials,
        base_seed=base_seed,
        records=tuple(records),
        runtime_s=time.perf_counter() - t0,
    )


def write_bench_report(report: BenchReport, out_dir: str | Path) -> dict[str, Path]:
    """Write report.txt, report.csv and errors.csv into out_dir.

    All three files are byte-deterministic for fixed inputs and seed;
    errors.csv holds the raw per-trial records the statistics derive
    from, at full float precision.
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
    rows = ["method,tag_id,trials,mean,median,max,mean_x,mean_y,mean_z"]
    for method in report.methods:
        for tag in report.tag_ids:
            s = stats[(method, tag)]
            rows.append(
                f"{method},{tag},{report.trials},{s.mean!r},{s.median!r},{s.max!r},"
                f"{s.mean_x!r},{s.mean_y!r},{s.mean_z!r}"
            )
    paths["summary"].write_text("\n".join(rows) + "\n", encoding="utf-8")

    rows = ["trial,method,tag_id,est_x,est_y,est_z,err_x,err_y,err_z,err_combined"]
    for r in report.records:
        rows.append(
            f"{r.trial},{r.method},{r.tag_id},{r.est.x!r},{r.est.y!r},{r.est.z!r},"
            f"{r.err_x!r},{r.err_y!r},{r.err_z!r},{r.err_combined!r}"
        )
    paths["errors"].write_text("\n".join(rows) + "\n", encoding="utf-8")
    return paths
