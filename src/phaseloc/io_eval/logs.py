"""Phase-log files: delimited text with one read per row.

Schema (UTF-8, comma-separated, header required)::

    tag_id,ant_x,ant_y,ant_z,freq_hz,phase,phase_unit

phase_unit is ``radians`` or ``ticks`` (one tick = 2*pi/4096, the usual
reader quantization); extra columns such as a trailing ``timestamp`` are
accepted and ignored.  Floats are written with repr so a synthesize ->
export -> ingest round trip reproduces phases and poses bit-for-bit.
Each tag becomes one SampleStream, reads in file order; any bad value,
or a tag whose freq_hz changes, raises LogFormatError naming the
physical line its row starts on, and bytes that are not UTF-8 raise one
naming the file.

Two readers give one result.  ingest_log reads the file once and parses
the header with csv.  A body with no ``"``, no NUL and no line longer
than ``csv.field_size_limit()`` is parsed in one ``np.loadtxt`` call into
columns, and each row check runs as one mask over them.  Everything else
goes to the row loop, ``_ingest_rows``, which parses row by row with csv
and ``float()``: any other body, a body numpy's reader refuses (a missing
or extra field, a whitespace-only line, a number only ``float()`` reads
such as ``1_0``, a lone ``\r`` line end), and a body in which a mask flags
a row.  So the row loop decides every error and every log the column
reader does not take, and the column reader returns the row loop's
streams bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from ..phase_model import TWO_PI, CarrierConfig, SampleStream, wrap_2pi

LOG_FIELDS = ("tag_id", "ant_x", "ant_y", "ant_z", "freq_hz", "phase", "phase_unit")
TICKS_PER_TURN = 4096
TICK_RADIANS = TWO_PI / TICKS_PER_TURN
_UNITS = ("radians", "ticks")
_NUMBERS = ("ant_x", "ant_y", "ant_z", "freq_hz", "phase")


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


def _records(reader, path):
    """(line, row) per csv record, line being the physical line the record
    starts on; a csv.Error becomes a LogFormatError naming that line, and
    bytes that are not UTF-8 one naming the file (the file is decoded in
    blocks, so the line being read may come before theirs)."""
    line = 1
    try:
        for row in reader:
            yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # a NUL on Python 3.10, a field over the size limit
        raise LogFormatError(f"line {line}: {exc}") from exc
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise LogFormatError(f"{path}: not valid UTF-8: {exc.reason} {bad!r}") from exc


def _header(records, unit: str | None) -> tuple[list[str], dict[str, int]]:
    """The header's stripped names and each name's first column."""
    _, header = next(records, (None, None))
    if header is None:
        raise LogFormatError("empty file: missing header")
    header = [h.strip() for h in header]
    has_unit_column = "phase_unit" in header
    required = [f for f in LOG_FIELDS if f != "phase_unit" or has_unit_column]
    missing = [f for f in required if f not in header]
    if missing:
        raise LogFormatError(f"header is missing columns: {', '.join(missing)}")
    if not has_unit_column and not unit:  # the rows read "" as "use the column" too
        raise LogFormatError("no phase_unit column; pass an explicit unit")
    return header, {name: header.index(name) for name in header}


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

    The log is read by columns when it can be (see the module docstring);
    every other log, and every error, is the row loop's.  An unknown unit
    raises ValueError before the log is read.
    """
    if unit and unit not in _UNITS:  # "" reads the phase_unit column, as None does
        raise ValueError(f"unknown phase unit {unit!r}")
    streams = _read_columns(path, sign_flip, unit, auto_wrap)
    return _ingest_rows(path, sign_flip, unit, auto_wrap) if streams is None else streams


def _read_columns(path, sign_flip, unit, auto_wrap) -> dict[str, SampleStream] | None:
    """ingest_log by np.loadtxt and masks: its streams, or None for a log
    the row loop must read."""
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            header, col = _header(_records(csv.reader(fh), path), unit)
            body = fh.read()
    except UnicodeDecodeError:  # in the body: the row loop reports it, or a row before it
        return None
    # a line's bytes (plus its newline) bound its characters, so its fields' lengths
    raw = np.frombuffer(body.encode(), np.uint8)
    longest = np.diff(np.flatnonzero(raw == ord("\n")), prepend=-1, append=raw.size).max()
    if '"' in body or "\0" in body or not body.strip() or longest > csv.field_size_limit():
        return None
    numeric = [col[name] for name in _NUMBERS]
    dtype = [(f"f{i}", float if i in numeric else object) for i in range(len(header))]
    try:  # one text buffer, not a list of line strings, which would stay in the heap
        table = np.loadtxt(
            io.StringIO(body), dtype=dtype, delimiter=",", comments=None, quotechar=None, ndmin=1
        )
    except ValueError:  # a missing or extra field, a spelling only float() reads, a lone \r
        return None
    return _columns(table, col, sign_flip, unit, auto_wrap)


def _columns(table, col, sign_flip, unit, auto_wrap) -> dict[str, SampleStream] | None:
    """The row loop's checks and conversions as masks over loadtxt's
    columns: its streams, or None where some row would fail a check."""
    x, y, z, freq, phase = (table[f"f{col[name]}"] for name in _NUMBERS)
    if not all(np.isfinite(v).all() for v in (x, y, z, freq, phase)):
        return None
    if unit:  # ingest_log has checked it
        ticks = unit == "ticks"
    else:
        names = table[f"f{col['phase_unit']}"]
        ticks = np.zeros(len(table), bool)
        for spelling in set(names):
            if spelling.strip() not in _UNITS:
                return None
            if spelling.strip() == "ticks":
                ticks |= names == spelling
    phase = np.where(ticks, phase * TICK_RADIANS, phase)
    inside = (0.0 <= phase) & (phase < TWO_PI)
    if not inside.all():
        if not auto_wrap:
            return None
        phase = np.where(inside, phase, wrap_2pi(phase))
    if sign_flip:
        phase = wrap_2pi(-phase)
    # tags in order of first appearance, each tag's rows in file order
    ids = table[f"f{col['tag_id']}"].tolist()
    tags: dict[str, int] = {}
    code = {raw: tags.setdefault(raw.strip(), len(tags)) for raw in dict.fromkeys(ids)}
    codes = np.fromiter(map(code.__getitem__, ids), dtype=np.intp, count=len(ids))
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes)
    starts = np.cumsum(counts) - counts
    carriers = freq[order[starts]]  # each tag's first freq_hz
    if not ((carriers > 0.0).all() and (freq == carriers[codes]).all()):
        return None
    poses = np.column_stack((x, y, z))
    return {
        tag_id: SampleStream(poses[rows], phase[rows], CarrierConfig(float(carrier)))
        for tag_id, rows, carrier in zip(tags, np.split(order, starts[1:]), carriers)
    }


def _ingest_rows(
    path: str | Path, sign_flip: bool, unit: str | None, auto_wrap: bool
) -> dict[str, SampleStream]:
    """ingest_log row by row with csv and float(): the reference the column
    reader matches, and the one reader that names a bad row."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        records = _records(csv.reader(fh), path)
        header, col = _header(records, unit)

        # tag id -> its carrier and its (x, y, z, phase) rows
        reads: dict[str, tuple[CarrierConfig, list]] = {}
        for lineno, row in records:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < len(header):
                raise LogFormatError(f"line {lineno}: expected {len(header)} fields, got {len(row)}")
            row_unit = unit or row[col["phase_unit"]].strip()
            if row_unit not in _UNITS:
                raise LogFormatError(f"line {lineno}: unknown phase unit {row_unit!r}")
            tag_id = row[col["tag_id"]].strip()
            x, y, z, freq_hz, phase = (
                _parse_float(row[col[name]], name, lineno) for name in _NUMBERS
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
