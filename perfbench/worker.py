"""One benchmark process: set up a workload, warm up, then time its ops.

Started by ``run.py``, never by hand.  ``run.py`` starts several in turn,
each with its share of the timed seconds, so set-up is measured several
times and the timed ops are spread over the whole run.  The result goes
to ``--result`` as JSON; stdout is not used.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The package under test is the checkout's own source tree, never an installed copy.
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import phaseloc  # noqa: E402

if Path(phaseloc.__file__).resolve().parent != SRC / "phaseloc":
    sys.exit(f"phaseloc imported from {phaseloc.__file__}, not from {SRC}")

from envinfo import environment  # noqa: E402
from reference import METHODS  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_MAX_ERRORS_KEPT = 5


def _run_op(wl, i, errors):
    """Prepare, time and check op ``i``; returns (seconds, failed, inp, out)."""
    wl.tracer.op = f"op{i}"
    inp = wl.prepare(i)
    t0 = time.perf_counter()
    try:
        out = wl.op(inp)
    except Exception:  # noqa: BLE001 - a raising op is counted as failed, not fatal
        elapsed = time.perf_counter() - t0
        errors.append(f"op {i}: {traceback.format_exc(limit=3)}")
        wl.cleanup(inp)
        return elapsed, True, inp, None
    elapsed = time.perf_counter() - t0
    try:
        problems = wl.check(i, inp, out)
    except Exception:  # noqa: BLE001 - output the check cannot even read is wrong output
        problems = [traceback.format_exc(limit=3)]
    errors.extend(f"op {i}: {p}" for p in problems)
    wl.cleanup(inp)
    return elapsed, bool(problems), inp, out


def layer_metrics(tr: Tracer, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer values from the spans of a traced run (warm-up spans excluded)."""
    spans = [s for s in tr.spans if s.op != "warmup"]

    def med(name):
        vals = [s.duration for s in spans if s.name == name]
        return statistics.median(vals) if vals else None

    def count(name, key):
        vals = [s.counts[key] for s in spans if s.name == name and key in s.counts]
        return vals[0] if vals else None

    def rate(name, key):
        vals = [s.counts[key] / s.duration for s in spans if s.name == name and key in s.counts]
        return statistics.median(vals) if vals else None

    m = {
        "config.load_s": (med("config.load"), "s"),
        "synthesis.s": (med("synthesis"), "s"),
        "synthesis.reads_per_s": (rate("synthesis", "reads"), "1/s"),
        "solver.geometry_s": (med("solver.geometry"), "s"),
        "solver.geometry_entries": (count("solver.geometry", "entries"), "count"),
    }
    for name in METHODS:
        key = f"kernel.{name}"
        m[f"{key}_s"] = (med(key), "s")
        m[f"{key}.pairs"] = (count(key, "pairs"), "count")
        m[f"{key}.bytes_computed"] = (count(key, "bytes_computed"), "B")
        m[f"{key}.peak_mib"] = (statistics.median(
            s.counts["peak_mib"] for s in spans if s.name == key), "MiB")
    probe_cli = [s for s in tr.named("cli.locate") if s.op == "probe"]
    cli_self = [c.duration - r.duration for c, r in zip(probe_cli, tr.named("replay.locate"))]
    m.update({
        "solver.argmax_s": (med("solver.argmax"), "s"),
        "solver.peaks_s": (med("solver.peaks"), "s"),
        "solver.refine_s": (med("solver.refine"), "s"),
        "logs.ingest_s": (med("logs.ingest"), "s"),
        "logs.reads_per_s": (rate("logs.ingest", "reads"), "1/s"),
        "logs.export_s": (med("logs.export"), "s"),
        "holograms.export_s": (med("holograms.export"), "s"),
        "holograms.rows_per_s": (rate("holograms.export", "rows"), "1/s"),
        "bench.report_s": (med("bench.report"), "s"),
        "cli.self_s": (statistics.median(cli_self), "s"),
        "trace.overhead_frac": (
            1.0 - statistics.median(untraced) / statistics.median(traced), "frac"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items() if v is not None}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed op total to reach")
    parser.add_argument("--first-op", type=int, default=1, help="index of the first timed op")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--final-check", action="store_true", help="run the once-per-run check")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    tracer = Tracer(enabled=bool(args.trace))
    wl = WORKLOADS[args.workload](args.seed, workdir, tracer)
    tracer.op = "setup"
    wl.setup()
    tracer.op = "warmup"
    inp = wl.prepare(0)
    wl.op(inp)
    wl.cleanup(inp)
    ready = time.monotonic()

    # Closed loop: ops run back to back until their timed total reaches --seconds.
    # A traced run alternates untraced and traced ops to measure the tracing cost.
    times = {False: [], True: []}
    errors: list[str] = []
    failed = 0
    i = args.first_op
    while sum(times[False]) + sum(times[True]) < args.seconds or not times[False] or (
            args.trace and not times[True]):
        tracer.enabled = bool(args.trace) and i % 2 == 0
        elapsed, bad, inp, out = _run_op(wl, i, errors)
        times[tracer.enabled].append(elapsed)
        failed += bad
        last = (i, inp, out, bad)
        i += 1
    tracer.enabled = bool(args.trace)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    i, inp, out, bad = last
    if args.final_check and out is not None:
        problems = wl.final_check(i, inp, out)
        errors.extend(f"op {i} (final check): {p}" for p in problems)
        failed += bool(problems) and not bad

    result = {
        "ready_monotonic": ready,
        "next_op": last[0] + 1,
        "attempted": len(times[False]) + len(times[True]),
        "failed": failed,
        "errors": errors[:_MAX_ERRORS_KEPT],
        "localizations_per_op": wl.localizations_per_op,
        "op_s": times[False],
        "traced_op_s": times[True],
        "peak_rss_mib": peak_rss_mib,
        "environment": environment(),
    }
    if args.trace:
        wl.probes()
        result["per_layer"] = layer_metrics(tracer, times[False], times[True])
        tracer.dump(workdir / "spans.jsonl")
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
