"""Phase-log files: delimited text with one read per row.

Schema (UTF-8, comma-separated, header required)::

    tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit

phase_unit is ``radians`` or ``ticks`` (one tick = 2*pi/4096, the usual
reader quantization); extra columns such as a trailing ``timestamp`` are
accepted and ignored.  Floats are written with repr so a synthesize ->
export -> ingest round trip reproduces phases and poses bit-for-bit.  The
schema carries no per-read sigma, so ingested samples have no sigma_hint.
Each row becomes a PhaseSample directly; any bad value raises
LogFormatError naming its line.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from ..phase_model import TWO_PI, CarrierConfig, PhaseSample, Position3D, wrap_2pi

LOG_FIELDS = ("tag_id", "ant_x", "ant_y", "ant_z", "freq_hz", "phase", "phase_unit")
TICKS_PER_TURN = 4096
TICK_RADIANS = TWO_PI / TICKS_PER_TURN
_UNITS = ("radians", "ticks")


class LogFormatError(ValueError):
    """Malformed or unusable phase-log content; the message names the line
    (or, for a tag that cannot be scored, the tag)."""


def export_phase_log(
    samples_by_tag: dict[str, list[PhaseSample]],
    path: str | Path,
    unit: str = "radians",
) -> None:
    """Write per-tag sample streams as one log file, tag by tag in dict
    order.  With unit="ticks" phases are quantized to 2*pi/4096.  A tag id
    holding a comma or a quote is quoted, as ingest_log's csv reader
    expects."""
    if unit not in _UNITS:
        raise ValueError(f"unknown phase unit {unit!r}")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LOG_FIELDS)
        for tag_id, samples in samples_by_tag.items():
            for s in samples:
                if unit == "ticks":
                    phase = str(int(round(s.phase_wrapped / TICK_RADIANS)) % TICKS_PER_TURN)
                else:
                    phase = repr(s.phase_wrapped)
                pose = s.antenna_pose
                writer.writerow(
                    [tag_id, repr(pose.x), repr(pose.y), repr(pose.z),
                     repr(s.carrier.frequency), phase, unit]
                )


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
) -> dict[str, list[PhaseSample]]:
    """Load a phase log into per-tag PhaseSample lists, in file order.

    unit overrides the phase_unit column (and is required when the file
    has none).  Unit conversion happens first; a converted phase outside
    [0, 2*pi) is rejected with its line number unless auto_wrap folds it.
    sign_flip then maps phase -> wrap(-phase) for readers reporting the
    conjugate convention.  Rows are checked in file order, so the first
    bad row is the one reported.
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

        out: dict[str, list[PhaseSample]] = {}
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
            samples = out.setdefault(tag_id, [])
            try:
                samples.append(
                    PhaseSample(
                        antenna_pose=Position3D(x, y, z),
                        carrier=CarrierConfig(frequency=freq_hz),
                        phase_wrapped=phase,
                        sample_index=len(samples),
                        tag_id=tag_id,
                    )
                )
            except ValueError as exc:
                raise LogFormatError(f"line {lineno}: {exc}") from exc
    return out
