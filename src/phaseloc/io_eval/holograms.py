"""Hologram export: plotter-ready delimited text, exactly re-parseable.

Layout: ``#`` header lines carrying the region bounds, per-axis
resolution and cell counts plus the raw score range, then a column-name
row and one data row per cell in C (x-outer) order.  Coordinate columns
appear only for axes with more than one cell, so a plane search exports
(axis1, axis2, score) rows.  Floats use repr, making export -> read a
bit-exact round trip.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..solver import Hologram, SearchRegion

_AXES = ("x", "y", "z")


def export_hologram(holo: Hologram, path: str | Path) -> None:
    _hologram_writer(holo.region)(holo, path)


def _hologram_writer(region: SearchRegion):
    """export_hologram for holograms over ``region``, with the region's
    header lines and every row's coordinate fields formatted once, so
    that writing many holograms of one region formats only their scores."""
    head = ["# phaseloc hologram"]
    for axis, name in enumerate(_AXES):
        lo, hi = map(float, region.bounds[axis])
        head.append(
            f"# {name}_min={lo!r} {name}_max={hi!r} "
            f"{name}_res={region.resolution[axis]!r} {name}_cells={region.shape[axis]}"
        )
    active = [axis for axis in range(3) if region.shape[axis] > 1]
    names = ",".join([_AXES[a] for a in active] + ["score"])

    # Python floats from tolist() repr as float(numpy scalar) would, without
    # a numpy scalar per field
    cells = region.candidates()
    prefixes = [""] * region.cell_count
    for a in active:
        prefixes = [f"{prefix}{value!r}," for prefix, value in zip(prefixes, cells[:, a].tolist())]

    def write(holo: Hologram, path: str | Path) -> None:
        raw = f"# raw_min={float(holo.raw_min)!r} raw_max={float(holo.raw_max)!r}"
        rows = map(str.__add__, prefixes, map(repr, holo.scores.ravel().tolist()))
        Path(path).write_text("\n".join([*head, raw, names, *rows]) + "\n", encoding="utf-8")

    return write


def _parse_header_pairs(lines: list[str]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for line in lines:
        for token in line.lstrip("#").split():
            if "=" in token:
                key, value = token.split("=", 1)
                pairs[key] = value
    return pairs


def read_hologram(path: str | Path) -> Hologram:
    """Rebuild a Hologram from an exported file (method is not carried)."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    header_lines = [ln for ln in text if ln.startswith("#")]
    body = [ln for ln in text if ln and not ln.startswith("#")]
    if not header_lines or not body:
        raise ValueError(f"{path}: not a hologram export")
    meta = _parse_header_pairs(header_lines)

    try:
        bounds = {
            name: (float(meta[f"{name}_min"]), float(meta[f"{name}_max"]))
            for name in _AXES
        }
        resolution = tuple(float(meta[f"{name}_res"]) for name in _AXES)
        cells = tuple(int(meta[f"{name}_cells"]) for name in _AXES)
        raw_min = float(meta["raw_min"])
        raw_max = float(meta["raw_max"])
    except KeyError as exc:
        raise ValueError(f"{path}: header is missing {exc}") from exc

    region = SearchRegion(
        x=bounds["x"], y=bounds["y"], z=bounds["z"], resolution=resolution
    )
    if region.shape != cells:
        raise ValueError(
            f"{path}: rebuilt grid shape {region.shape} != header cells {cells}"
        )

    data_rows = body[1:]  # body[0] is the column-name row
    if len(data_rows) != region.cell_count:
        raise ValueError(
            f"{path}: {len(data_rows)} data rows for {region.cell_count} cells"
        )
    scores = np.array([float(row.rsplit(",", 1)[-1]) for row in data_rows])
    return Hologram(
        region=region,
        scores=scores.reshape(region.shape),
        raw_min=raw_min,
        raw_max=raw_max,
    )
