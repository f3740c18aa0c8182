"""phaseloc benchmark: one workload per call, in fresh processes.

    python3 perfbench/run.py --workload mc-plane --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
``PROCESSES`` worker processes run one after another.  Each sets up (imports,
scene, grid, one warm-up op) and then times ops until the run's timed
total reaches its share of ``--seconds``; the op indices, and so the op
inputs, continue from one process to the next.  ``setup_s`` is the median
set-up time of the processes.  Spreading the timed ops over the whole run
averages out more of the machine's own speed drift than one block would.
With ``--trace 1`` one traced process reports the per-layer metrics
instead.  Every metric is printed as ``name value unit``; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with op-time quartiles and the machine
description, is written to ``perfbench/out/`` (spans of traced runs too).

Run from the root of a source checkout: the package is imported from its
``src/`` directory, and the benchmark exits 2 if that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mc-plane", "rack-log", "volume-chunked")
PROCESSES = 3
DEADLINE_S = 170.0  # the whole call, set-up processes included


def _worker(args, workdir: Path, deadline: float, seconds: float, first_op: int,
            final_check: bool) -> dict:
    """Run one worker process to completion; returns its result and set-up time."""
    result = workdir.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--first-op", str(first_op),
           "--trace", str(args.trace), "--workdir", str(workdir), "--result", str(result)]
    if final_check:
        cmd.append("--final-check")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, cwd=ROOT,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: worker did not finish within the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        sys.exit(f"{args.workload}: worker exited with {proc.returncode}")
    out = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    out["setup_s"] = out["ready_monotonic"] - spawned
    return out


def _quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"n": len(values), "min": values[0], "q1": q1, "median": med, "q3": q3,
            "max": values[-1]}


def main() -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "phaseloc" / "__init__.py").is_file():
        print(f"no phaseloc source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    deadline = start + DEADLINE_S
    n = 1 if args.trace else PROCESSES
    runs, measured, next_op = [], 0.0, 1
    try:
        for k in range(n):
            share = args.seconds * (k + 1) / n - measured
            res = _worker(args, workdir, deadline, share, next_op, final_check=k == n - 1)
            runs.append(res)
            measured += sum(res["op_s"]) + sum(res["traced_op_s"])
            next_op = res["next_op"]
        if args.trace:
            shutil.move(str(workdir / "spans.jsonl"), OUT / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    op_s = _quartiles([t for r in runs for t in r["op_s"]])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    setups = [r["setup_s"] for r in runs]
    if args.trace:
        metrics = runs[0]["per_layer"]
    else:
        metrics = {
            "localizations_per_s": {"value": runs[0]["localizations_per_op"] / op_s["median"],
                                    "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": max(r["peak_rss_mib"] for r in runs), "unit": "MiB"},
            "success_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    errors = [e for r in runs for e in r["errors"]]
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "attempted": attempted, "failed": failed, "errors": errors,
        "localizations_per_op": runs[0]["localizations_per_op"], "op_s": op_s,
        "ops_per_process": [len(r["op_s"]) + len(r["traced_op_s"]) for r in runs],
        "setup_s": setups, "peak_rss_mib": [r["peak_rss_mib"] for r in runs],
        "environment": runs[-1]["environment"], "metrics": metrics,
        "wall_s": time.monotonic() - start,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"op_s n={op_s['n']} q1={op_s['q1']!r} median={op_s['median']!r} q3={op_s['q3']!r}")
    print("environment " + json.dumps(summary["environment"], sort_keys=True))
    for err in errors:
        print(f"error {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
