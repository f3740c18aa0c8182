"""CLI, configuration, phase-log and hologram I/O, and the Monte-Carlo
benchmark harness."""

from .bench import BenchReport, resolve_method, parse_scheme, run_bench, write_bench_report
from .config import ConfigError, load_scenario
from .holograms import export_hologram, read_hologram
from .logs import LogFormatError, export_phase_log, ingest_log

__all__ = [
    "BenchReport",
    "ConfigError",
    "LogFormatError",
    "export_hologram",
    "export_phase_log",
    "ingest_log",
    "load_scenario",
    "parse_scheme",
    "read_hologram",
    "resolve_method",
    "run_bench",
    "write_bench_report",
]
