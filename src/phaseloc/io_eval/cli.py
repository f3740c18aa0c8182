"""Command-line interface.

Subcommands: simulate (scenario -> phase log), locate (phase log ->
printed estimates), hologram (phase log -> grid export files), bench
(scenario -> Monte-Carlo report files).

Exit codes: 0 success, 1 usage error (bad flags or flag values), 2 data
error (unreadable or malformed config or log values, or a tag that
cannot be scored), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..likelihood import DEFAULT_TAGORAM_SIGMA, METHOD_NAMES
from ..solver import SearchRegion, argmax_estimate, evaluate_hologram
from ..synthesis import synthesize
from .bench import parse_scheme, resolve_method, run_bench, write_bench_report
from .config import ConfigError, build_region, load_scenario
from .holograms import export_hologram
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
    names = args.method.split(",")
    if args.tagoram_sigma is not None and "tagoram" not in names:
        raise UsageError("--tagoram-sigma needs the tagoram method")
    sigma = DEFAULT_TAGORAM_SIGMA if args.tagoram_sigma is None else args.tagoram_sigma
    try:
        scheme = parse_scheme(args.scheme)
        return [(name, resolve_method(name, scheme, sigma)) for name in names]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    scenario, _ = load_scenario(args.config, seed_override=args.seed)
    streams = synthesize(scenario)
    export_phase_log(streams, args.out, unit=args.phase_unit or "radians")
    total = sum(len(v) for v in streams.values())
    print(f"wrote {total} samples for {len(streams)} tags to {args.out}")
    return 0


def _tag_holograms(args):
    """locate's and hologram's shared front half: truth by tag id, the tag
    ids and a lazy (tag_id, hologram) iterator, so only one hologram is
    alive at a time.  A tag that cannot be scored is a data error."""
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

    def holograms():
        for tag_id, samples in streams.items():
            try:
                yield tag_id, evaluate_hologram(samples, region, spec)
            except ValueError as exc:
                raise LogFormatError(f"tag {tag_id}: {exc}") from exc

    return truth, list(streams), holograms()


def _cmd_locate(args) -> int:
    truth, _, holograms = _tag_holograms(args)
    print("tag_id,est_x,est_y,est_z,err_y,err_z,err_combined,peak_ratio")
    for tag_id, holo in holograms:
        est = argmax_estimate(holo, truth=truth.get(tag_id), tag_id=tag_id)
        err = (
            f"{est.err_y!r},{est.err_z!r},{est.err_combined_yz!r}"
            if est.err_combined_yz is not None
            else ",,"
        )
        print(
            f"{tag_id},{est.position.x!r},{est.position.y!r},{est.position.z!r},"
            f"{err},{est.peak_ratio!r}"
        )
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
    _, tag_ids, holograms = _tag_holograms(args)
    paths = _hologram_paths(Path(args.out), tag_ids)
    for tag_id, holo in holograms:
        export_hologram(holo, paths[tag_id])
        print(f"wrote hologram for {tag_id} to {paths[tag_id]}")
    return 0


def _cmd_bench(args) -> int:
    scenario, config_region = load_scenario(args.config, seed_override=args.seed)
    region = _build_region(args, config_region)
    methods = _resolve_method_args(args)
    report = run_bench(scenario, region, methods, trials=args.trials, base_seed=args.seed)
    paths = write_bench_report(report, args.out)
    print(report.to_text(), end="")
    print(f"runtime: {report.runtime_s:.2f}s")
    print(f"wrote {paths['text']}, {paths['summary']}, {paths['errors']}")
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
    sys.exit(cli())


if __name__ == "__main__":
    main()
