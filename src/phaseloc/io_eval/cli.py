"""Command-line interface.

Subcommands: simulate (scenario -> phase log), locate (phase log ->
printed estimates), hologram (phase log -> grid export files), bench
(scenario -> Monte-Carlo report files).

Exit codes: 0 success, also when the reader of stdout closes it early
(locate then stops silently; the other commands drop their messages and
still write their files), 1 usage error (bad flags or flag values),
2 data error (unreadable or malformed config or log values, a tag that
cannot be scored, or a missing output directory), 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from ..likelihood import DEFAULT_TAGORAM_SIGMA, METHOD_NAMES, DifferentialScheme
from ..solver import GridEvaluator, SearchRegion, argmax_estimate
from ..synthesis import synthesize
from .bench import parse_scheme, resolve_method, run_bench, write_bench_report
from .config import ConfigError, build_region, load_scenario
from .holograms import _hologram_writer
from .logs import LogFormatError, export_phase_log, ingest_log


class UsageError(ValueError):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for data errors
        raise UsageError(f"{message}\n{self.format_usage()}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


def _build_region(args, config_region) -> SearchRegion:
    """--region/--resolution over the config's region; flag errors exit 1."""
    if args.region is None:
        if config_region is None:
            raise UsageError("no search region: pass --region or a config with region keys")
        if args.resolution is None:
            return config_region
        bounds = dict(zip("xyz", config_region.bounds))
    else:
        bounds = {}
        for part in args.region.split(","):
            name, sep, value = (t.strip() for t in part.partition("="))
            if not sep:
                raise UsageError(
                    f"bad region component {part!r} (expected axis=value or axis=min:max)"
                )
            if name not in ("x", "y", "z") or name in bounds:
                raise UsageError(f"unknown or repeated region axis {name!r}")
            lo, colon, hi = value.partition(":")
            try:
                bounds[name] = (float(lo), float(hi if colon else lo))
            except ValueError:
                raise UsageError(f"bad region bounds {value!r}") from None
    try:
        return build_region(bounds, 0.01 if args.resolution is None else args.resolution)
    except ValueError as exc:
        raise UsageError(f"bad region: {exc}") from exc


def _resolve_method_args(args):
    """(name, spec) per listed method.  --scheme applies to the five
    likelihoods; beside one of them sarfid and tagoram stay at reference:0,
    and without one the scheme goes to every method, which rejects any
    other scheme, so the flag is never silently ignored."""
    names = args.method.split(",")
    if args.tagoram_sigma is not None and "tagoram" not in names:
        raise UsageError("--tagoram-sigma needs the tagoram method")
    sigma = DEFAULT_TAGORAM_SIGMA if args.tagoram_sigma is None else args.tagoram_sigma
    fixed = ("sarfid", "tagoram") if set(names) - {"sarfid", "tagoram"} else ()
    try:
        scheme = parse_scheme(args.scheme)
        return [(name, resolve_method(name, DifferentialScheme.reference(0) if name in fixed else scheme, sigma))
                for name in names]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _drop_stdout() -> None:
    """Point stdout at os.devnull once its reader has closed it, so that
    later writes and the interpreter's flush at exit neither fail nor
    print an "Exception ignored" message."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _say(text: str, end: str = "\n") -> None:
    """print for commands whose product is their files: a closed stdout
    drops the message, not the command."""
    try:
        print(text, end=end)
    except BrokenPipeError:
        _drop_stdout()


def _cmd_simulate(args) -> int:
    scenario, _ = load_scenario(args.config, seed_override=args.seed)
    streams = synthesize(scenario)
    export_phase_log(streams, args.out, unit=args.phase_unit or "radians")
    total = sum(len(v) for v in streams.values())
    _say(f"wrote {total} samples for {len(streams)} tags to {args.out}")
    return 0


def _tag_holograms(args):
    """locate's and hologram's shared front half: truth by tag id, the
    search region, the tag ids and a lazy (tag_id, hologram) iterator in
    log order.

    Consecutive tags whose poses and wavelength match share one
    GridEvaluator.holograms pass of up to streams_per_pass tags, which
    gives each tag its one-stream hologram bit for bit; only one pass's
    holograms are alive at a time.  A pass that cannot be scored is a
    data error named after its first tag: what makes scoring fail (the
    poses, their count under the scheme, the wavelength) is shared by
    every tag in the pass.  A log without reads is a data error naming
    the file."""
    truth, config_region = {}, None
    if args.config:
        scenario, config_region = load_scenario(args.config)
        truth = {t.tag_id: t.position for t in scenario.tags}
    region = _build_region(args, config_region)
    methods = _resolve_method_args(args)
    if len(methods) != 1:
        raise UsageError(f"{args.command} takes exactly one method")
    _, spec = methods[0]
    streams = ingest_log(
        args.input, sign_flip=args.sign_flip, unit=args.phase_unit, auto_wrap=args.auto_wrap
    )
    if not streams:
        raise LogFormatError(f"{args.input}: the log holds no reads")

    def holograms():
        tags, evaluator, k = list(streams.items()), None, 0
        while k < len(tags):
            batch = tags[k : k + 1]
            first = batch[0][1]
            try:
                if evaluator is None or not np.array_equal(evaluator.poses, first.poses):
                    evaluator = GridEvaluator(region, first.poses)
                for tag_id, stream in tags[k + 1 : k + evaluator.streams_per_pass]:
                    if stream.carrier.wavelength != first.carrier.wavelength:
                        break
                    if not np.array_equal(stream.poses, first.poses):
                        break
                    batch.append((tag_id, stream))
                holos = evaluator.holograms([stream for _, stream in batch], spec)
            except ValueError as exc:
                raise LogFormatError(f"tag {batch[0][0]}: {exc}") from exc
            k += len(batch)
            yield from zip([tag_id for tag_id, _ in batch], holos)

    return truth, region, list(streams), holograms()


def _cmd_locate(args) -> int:
    truth, _, _, holograms = _tag_holograms(args)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    try:
        writer.writerow("tag_id,est_x,est_y,est_z,err_y,err_z,err_combined,peak_ratio".split(","))
        for tag_id, holo in holograms:
            est = argmax_estimate(holo, truth=truth.get(tag_id), tag_id=tag_id)
            p = est.position
            values = (p.x, p.y, p.z, est.err_y, est.err_z, est.err_combined_yz, est.peak_ratio)
            writer.writerow([tag_id, *("" if v is None else repr(v) for v in values)])
    except BrokenPipeError:  # stdout's reader left, and the rows are the product: stop
        _drop_stdout()
    return 0


def _hologram_paths(out: Path, tag_ids: list[str]) -> dict[str, Path]:
    """``out`` for a single tag, else ``out.stem.TAG.suffix`` per tag; a
    tag id that cannot be part of a file name is a data error."""
    if len(tag_ids) == 1:
        return {tag_ids[0]: out}
    paths = {}
    for tag_id in tag_ids:
        try:
            if "\0" in tag_id:
                raise ValueError("embedded null character")
            paths[tag_id] = out.with_name(f"{out.stem}.{tag_id}{out.suffix}")
        except ValueError as exc:
            raise LogFormatError(f"tag {tag_id}: unusable in a file name: {exc}") from exc
    return paths


def _cmd_hologram(args) -> int:
    _, region, tag_ids, holograms = _tag_holograms(args)
    out = Path(args.out)
    paths = _hologram_paths(out, tag_ids)
    if not out.parent.is_dir():  # before any tag is scored
        raise FileNotFoundError(f"output directory {out.parent} does not exist")
    export = _hologram_writer(region)
    for tag_id, holo in holograms:
        export(holo, paths[tag_id])
        _say(f"wrote hologram for {tag_id} to {paths[tag_id]}")
    return 0


def _cmd_bench(args) -> int:
    scenario, config_region = load_scenario(args.config, seed_override=args.seed)
    region = _build_region(args, config_region)
    methods = _resolve_method_args(args)
    index = max(spec.scheme.reference_index for _, spec in methods)
    poses = len(scenario.trajectory.poses)
    if index >= poses:
        raise UsageError(f"--scheme reference:{index} is out of range for {poses} poses")
    report = run_bench(scenario, region, methods, trials=args.trials, base_seed=args.seed)
    paths = write_bench_report(report, args.out)
    _say(report.to_text(), end="")
    _say(f"runtime: {report.runtime_s:.2f}s")
    _say(f"wrote {paths['text']}, {paths['summary']}, {paths['errors']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phaseloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize a phase log from a scenario config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--phase-unit", choices=("radians", "ticks"), default=None)
    p.set_defaults(func=_cmd_simulate)

    def add_locate_flags(p, with_out):
        p.add_argument("--input", required=True, help="phase log file")
        p.add_argument("--method", required=True, help="|".join(METHOD_NAMES))
        p.add_argument("--scheme", default="reference:0")
        p.add_argument("--config", default=None, help="scenario config for region and ground truth")
        p.add_argument("--region", default=None, help='e.g. "x=0,y=-0.5:0.5,z=0:0.7"')
        p.add_argument("--resolution", type=float, default=None)
        p.add_argument("--sign-flip", action="store_true")
        p.add_argument("--phase-unit", choices=("radians", "ticks"), default=None)
        p.add_argument("--auto-wrap", action="store_true")
        p.add_argument("--tagoram-sigma", type=float, default=None)
        if with_out:
            p.add_argument("--out", required=True)

    p = sub.add_parser("locate", help="estimate tag positions from a phase log")
    add_locate_flags(p, with_out=False)
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("hologram", help="export likelihood holograms from a phase log")
    add_locate_flags(p, with_out=True)
    p.set_defaults(func=_cmd_hologram)

    p = sub.add_parser("bench", help="Monte-Carlo method comparison on a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, help="comma-separated method list")
    p.add_argument("--scheme", default="reference:0")
    p.add_argument("--trials", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=None)
    p.add_argument("--region", default=None, help='e.g. "x=0,y=-0.5:0.5,z=0:0.7"')
    p.add_argument("--resolution", type=float, default=None)
    p.add_argument("--out", required=True, help="output directory for report files")
    p.add_argument("--tagoram-sigma", type=float, default=None)
    p.set_defaults(func=_cmd_bench)
    return parser


def cli(argv=None) -> int:
    """Run the CLI; returns the process exit code instead of exiting."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (ConfigError, LogFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort invariant guard
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    code = cli()
    try:
        sys.stdout.flush()
    except BrokenPipeError:  # rows still buffered when stdout's reader left
        _drop_stdout()
    sys.exit(code)


if __name__ == "__main__":
    main()
