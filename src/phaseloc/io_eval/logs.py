"""Phase-log files: delimited text with one read per row.

Schema (UTF-8, comma-separated, header required)::

    tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit

phase_unit is ``radians`` or ``ticks`` (one tick = 2*pi/4096, the usual
reader quantization); extra columns such as a trailing ``timestamp`` are
accepted and ignored.  Floats are written with repr so a synthesize ->
export -> ingest round trip reproduces phases and poses bit-for-bit.
Rows are parsed into per-tag columns and each tag becomes one
SampleStream at end of file; any bad value, or a tag whose freq_hz
changes, raises LogFormatError naming its line.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from ..phase_model import TWO_PI, CarrierConfig, SampleStream, wrap_2pi

LOG_FIELDS = ("tag_id", "ant_x", "ant_y", "ant_z", "freq_hz", "phase", "phase_unit")
TICKS_PER_TURN = 4096
TICK_RADIANS = TWO_PI / TICKS_PER_TURN
_UNITS = ("radians", "ticks")


class LogFormatError(ValueError):
    """Malformed or unusable phase-log content; the message names the line
    (or, for a tag that cannot be scored, the tag)."""


def export_phase_log(
    streams: dict[str, SampleStream], path: str | Path, unit: str = "radians"
) -> None:
    """Write per-tag sample streams as one log file, tag by tag in dict
    order.  With unit="ticks" phases are quantized to 2*pi/4096.  A tag id
    holding a comma or a quote is quoted, as ingest_log's csv reader
    expects.  An id that would not read back unchanged raises ValueError
    before the file is opened: surrounding whitespace (ingest strips ids),
    a carriage return (written unquoted) or a NUL (which the csv reader of
    Python 3.10 rejects)."""
    if unit not in _UNITS:
        raise ValueError(f"unknown phase unit {unit!r}")
    bad = [t for t in streams if t != t.strip() or "\r" in t or "\0" in t]
    if bad:
        raise ValueError(f"tag ids would not read back from a phase log: {bad!r}")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_FIELDS)
        for tag_id, stream in streams.items():
            freq = repr(stream.carrier.frequency)
            if unit == "ticks":
                ticks = np.round(stream.phases / TICK_RADIANS).astype(int) % TICKS_PER_TURN
                phases = map(str, ticks.tolist())
            else:
                phases = map(repr, stream.phases.tolist())
            for (x, y, z), phase in zip(stream.poses.tolist(), phases):
                writer.writerow([tag_id, repr(x), repr(y), repr(z), freq, phase, unit])


def _parse_float(value: str, column: str, lineno: int) -> float:
    try:
        out = float(value)
    except ValueError as exc:
        raise LogFormatError(f"line {lineno}: {column} is not a number: {value!r}") from exc
    if not math.isfinite(out):
        raise LogFormatError(f"line {lineno}: {column} must be finite, got {value!r}")
    return out


def ingest_log(
    path: str | Path,
    sign_flip: bool = False,
    unit: str | None = None,
    auto_wrap: bool = False,
) -> dict[str, SampleStream]:
    """Load a phase log into one SampleStream per tag, reads in file order.

    unit overrides the phase_unit column (and is required when the file
    has none).  Unit conversion happens first; a converted phase outside
    [0, 2*pi) is rejected with its line number unless auto_wrap folds it.
    sign_flip then maps phase -> wrap(-phase) for readers reporting the
    conjugate convention.  A tag's reads must share one freq_hz.  Rows are
    checked in file order, so the first bad row is the one reported.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise LogFormatError("empty file: missing header") from None
        header = [h.strip() for h in header]
        has_unit_column = "phase_unit" in header
        required = [f for f in LOG_FIELDS if f != "phase_unit" or has_unit_column]
        missing = [f for f in required if f not in header]
        if missing:
            raise LogFormatError(f"header is missing columns: {', '.join(missing)}")
        if not has_unit_column and unit is None:
            raise LogFormatError("no phase_unit column; pass an explicit unit")
        col = {name: header.index(name) for name in header}

        # tag id -> its carrier and its (x, y, z, phase) rows
        reads: dict[str, tuple[CarrierConfig, list]] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(header):
                raise LogFormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            row_unit = unit or row[col["phase_unit"]].strip()
            if row_unit not in _UNITS:
                raise LogFormatError(f"line {lineno}: unknown phase unit {row_unit!r}")
            tag_id = row[col["tag_id"]].strip()
            x, y, z, freq_hz, phase = (
                _parse_float(row[col[name]], name, lineno)
                for name in ("ant_x", "ant_y", "ant_z", "freq_hz", "phase")
            )
            if row_unit == "ticks":
                phase *= TICK_RADIANS
            if not (0.0 <= phase < TWO_PI):
                if not auto_wrap:
                    raise LogFormatError(
                        f"line {lineno}: phase {phase!r} outside [0, 2*pi); "
                        "pass auto_wrap to fold it"
                    )
                phase = wrap_2pi(phase)
            if sign_flip:
                phase = wrap_2pi(-phase)
            if tag_id not in reads:
                try:
                    reads[tag_id] = (CarrierConfig(freq_hz), [])
                except ValueError as exc:
                    raise LogFormatError(f"line {lineno}: {exc}") from exc
            carrier, rows = reads[tag_id]
            if freq_hz != carrier.frequency:
                raise LogFormatError(
                    f"line {lineno}: tag {tag_id} changes freq_hz from "
                    f"{carrier.frequency!r} to {freq_hz!r}; a tag's reads share one carrier"
                )
            rows.append((x, y, z, phase))
    out = {}
    for tag_id, (carrier, rows) in reads.items():
        columns = np.array(rows)
        out[tag_id] = SampleStream(columns[:, :3], columns[:, 3], carrier)
    return out
