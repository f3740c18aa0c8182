"""Grid-search hologram evaluation and position estimates.

Any likelihood or baseline method is evaluated over every cell center of
a search region (the hologram), scores are min-max normalized to [0, 1],
and the estimate is the argmax cell.  A linear trajectory cannot tell a
candidate from its mirror image across the track axis, so full symmetric
regions show a mirror peak; the supported mitigation is restricting the
region to the half-space the rack occupies.

Every entry point takes one tag's reads as a SampleStream and scores its
phase column against the candidate-to-pose distances of its pose column.
Cells are scored independently in one vectorized pass (chunked to bound
memory) with per-cell sums taken in fixed sample order, so results do not
depend on evaluation order and are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .phase_model import Position3D, SampleStream, squared_norm_rows

DEFAULT_CELL_CAP = 10_000_000
_DIST_CACHE_LIMIT = 50_000_000  # max cached (cells x poses) distance entries

_AXES = ("x", "y", "z")


def _axis_count(lo: float, hi: float, res: float) -> int:
    if lo == hi:
        return 1
    # Saturating at the cap keeps an overflowing span/res (e.g. a denormal
    # resolution) a finite count that the cap check then rejects.
    return int(math.floor(min((hi - lo) / res, DEFAULT_CELL_CAP) + 1e-9)) + 1


@dataclass(frozen=True)
class SearchRegion:
    """Axis-aligned candidate grid.

    Each axis is a (min, max) pair; min == max pins the axis to a single
    plane (the usual rack-plane search fixes x).  Cell centers start at
    min and step by the per-axis resolution; max is included when the
    span divides evenly.
    """

    x: tuple[float, float]
    y: tuple[float, float]
    z: tuple[float, float]
    resolution: float | tuple[float, float, float] = 0.01

    def __post_init__(self) -> None:
        res = self.resolution
        if np.ndim(res) == 0:
            res = (float(res), float(res), float(res))
        else:
            res = tuple(float(r) for r in res)
            if len(res) != 3:
                raise ValueError("resolution must be a scalar or a 3-tuple")
        object.__setattr__(self, "resolution", res)
        for name, (lo, hi), r in zip(_AXES, (self.x, self.y, self.z), res):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} bounds must be finite")
            if lo > hi:
                raise ValueError(f"degenerate region: {name} min {lo!r} > max {hi!r}")
            if not r > 0:
                raise ValueError(f"{name} resolution must be positive, got {r!r}")
        if self.cell_count > DEFAULT_CELL_CAP:
            raise ValueError(f"region holds more than the cap of {DEFAULT_CELL_CAP} cells")

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return (self.x, self.y, self.z)

    def axis_cells(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        if lo == hi:
            return np.array([lo], dtype=float)
        return lo + self.resolution[axis] * np.arange(self.shape[axis])

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(_axis_count(lo, hi, r) for (lo, hi), r in zip(self.bounds, self.resolution))

    @property
    def cell_count(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def candidates(self) -> np.ndarray:
        """All cell centers as an (M, 3) array in C (row-major) order."""
        gx, gy, gz = np.meshgrid(
            self.axis_cells(0), self.axis_cells(1), self.axis_cells(2), indexing="ij"
        )
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def position_at(self, flat_index: int) -> Position3D:
        ix, iy, iz = np.unravel_index(flat_index, self.shape)
        return Position3D(
            float(self.axis_cells(0)[ix]),
            float(self.axis_cells(1)[iy]),
            float(self.axis_cells(2)[iz]),
        )


@dataclass(frozen=True)
class Hologram:
    """Normalized grid of likelihood scores over a search region.

    scores has the region's (nx, ny, nz) shape with min 0 and max exactly
    1 (all ones when the raw scores were constant); the raw extremes are
    kept so nothing is lost to normalization.
    """

    region: SearchRegion
    scores: np.ndarray
    raw_min: float
    raw_max: float
    method: object | None = None

    def __post_init__(self) -> None:
        if self.scores.shape != self.region.shape:
            raise ValueError(
                f"scores shape {self.scores.shape} != region shape {self.region.shape}"
            )
        self.scores.setflags(write=False)


@dataclass(frozen=True)
class TagEstimate:
    """Argmax position plus diagnostics; error fields are filled only when
    ground truth was supplied."""

    tag_id: str
    position: Position3D
    method: object | None = None
    peak_ratio: float = math.inf
    err_x: float | None = None
    err_y: float | None = None
    err_z: float | None = None
    err_combined_yz: float | None = None


@dataclass(frozen=True)
class RefineResult:
    """Outcome of local refinement; refined is False when the coarse
    hologram had no unique peak and the coarse center was returned."""

    position: Position3D
    refined: bool


class GridEvaluator:
    """Reusable scorer for one (region, trajectory) pair.

    Candidate-to-pose distances depend only on the grid and the poses, so
    holograms for many tags, methods, or Monte-Carlo trials over the same
    geometry share one distance matrix.  Large grids are scored in
    candidate chunks to bound memory.

    A method is any callable taking (phases, dists, wavelength) and
    returning one score per row of dists; MethodSpec objects are such
    callables.
    """

    def __init__(self, region: SearchRegion, poses_xyz: np.ndarray):
        self.region = region
        self.poses = np.asarray(poses_xyz, dtype=float)
        if self.poses.ndim != 2 or self.poses.shape[1] != 3:
            raise ValueError("poses must be an (N, 3) array")
        self.candidates = region.candidates()
        self._dists: np.ndarray | None = None
        n_entries = self.candidates.shape[0] * self.poses.shape[0]
        self._chunk = max(1, _DIST_CACHE_LIMIT // max(1, self.poses.shape[0]))
        self._cacheable = n_entries <= _DIST_CACHE_LIMIT

    def _distance_block(self, lo: int, hi: int) -> np.ndarray:
        delta = self.candidates[lo:hi, None, :] - self.poses[None, :, :]
        return np.sqrt(squared_norm_rows(delta))

    def raw_scores(self, phases: np.ndarray, method, wavelength: float) -> np.ndarray:
        m = self.candidates.shape[0]
        if self._cacheable:
            if self._dists is None:
                self._dists = self._distance_block(0, m)
            return np.asarray(method(phases, self._dists, wavelength), dtype=float)
        out = np.empty(m)
        for lo in range(0, m, self._chunk):
            hi = min(lo + self._chunk, m)
            out[lo:hi] = method(phases, self._distance_block(lo, hi), wavelength)
        return out

    def hologram(self, stream: SampleStream, method) -> Hologram:
        if len(stream) < 2:
            raise ValueError(f"need at least 2 samples, got {len(stream)}")
        if not np.array_equal(stream.poses, self.poses):
            raise ValueError("sample poses differ from the evaluator's trajectory")
        raw = self.raw_scores(stream.phases, method, stream.carrier.wavelength)
        rmin, rmax = float(raw.min()), float(raw.max())
        norm = (raw - rmin) / (rmax - rmin) if rmax > rmin else np.ones_like(raw)
        return Hologram(
            region=self.region,
            scores=norm.reshape(self.region.shape),
            raw_min=rmin,
            raw_max=rmax,
            method=method,
        )


def evaluate_hologram(stream: SampleStream, region: SearchRegion, method) -> Hologram:
    """Score every cell center of ``region`` with ``method``.

    method is any callable taking (phases, dists, wavelength) and
    returning per-candidate scores; MethodSpec objects are such
    callables.  For repeated evaluations over one
    geometry build a GridEvaluator instead.
    """
    return GridEvaluator(region, stream.poses).hologram(stream, method)


def _neighborhood_mask(shape: tuple[int, ...], peak: tuple[int, ...]) -> np.ndarray:
    """Boolean mask of the peak cell and its immediate neighbors."""
    mask = np.zeros(shape, dtype=bool)
    slices = tuple(
        slice(max(0, p - 1), min(n, p + 2)) for p, n in zip(peak, shape)
    )
    mask[slices] = True
    return mask


def argmax_estimate(
    holo: Hologram,
    truth: Position3D | None = None,
    tag_id: str = "",
) -> TagEstimate:
    """Estimate = center of the maximal cell; ties break to the lowest
    linear (C-order) cell index.

    peak_ratio compares the peak against the strongest score outside the
    peak's immediate neighborhood: 1 means an equally strong secondary
    peak somewhere else (or a mirror ambiguity), inf means there is no
    cell beyond the neighborhood.
    """
    flat = int(np.argmax(holo.scores))
    peak_idx = np.unravel_index(flat, holo.scores.shape)
    position = holo.region.position_at(flat)

    outside = ~_neighborhood_mask(holo.scores.shape, peak_idx)
    if outside.any():
        second = float(holo.scores[outside].max())
        ratio = math.inf if second <= 0.0 else float(holo.scores[peak_idx]) / second
    else:
        ratio = math.inf

    err_x = err_y = err_z = err_c = None
    if truth is not None:
        err_x = abs(position.x - truth.x)
        err_y = abs(position.y - truth.y)
        err_z = abs(position.z - truth.z)
        err_c = math.hypot(err_y, err_z)
    return TagEstimate(
        tag_id=tag_id,
        position=position,
        method=holo.method,
        peak_ratio=ratio,
        err_x=err_x,
        err_y=err_y,
        err_z=err_z,
        err_combined_yz=err_c,
    )


def find_peak_regions(holo: Hologram, threshold: float = 0.999) -> list[tuple[int, float]]:
    """Connected components of cells scoring >= threshold.

    Returns one (flat index of the component's best cell, best score) per
    component, strongest first.  A mirror ambiguity shows up as a second
    component at score ~1.  Rack-plane holograms are flat along Z, with
    ridge saddles near 0.99, so the default threshold is deliberately
    tight; loosen it only for sharply peaked methods.
    """
    above = holo.scores >= threshold
    labels, n_components = ndimage.label(above, structure=np.ones((3, 3, 3), dtype=int))
    peaks = []
    for lab in range(1, n_components + 1):
        flat_members = np.flatnonzero(labels.ravel() == lab)
        best = flat_members[np.argmax(holo.scores.ravel()[flat_members])]
        peaks.append((int(best), float(holo.scores.ravel()[best])))
    peaks.sort(key=lambda p: (-p[1], p[0]))
    return peaks


def refine_local(holo: Hologram, stream: SampleStream, method=None) -> RefineResult:
    """One level of local refinement around the coarse peak.

    Re-scores a 3x3-cell neighborhood of the peak at a tenth of the
    coarse resolution and returns the fine argmax, which by construction
    stays inside the coarse cell's neighborhood.  When the coarse peak is
    not unique (e.g. a flat hologram) the coarse center comes back
    flagged unrefined.
    """
    method = holo.method if method is None else method
    if method is None:
        raise ValueError("hologram carries no method; pass one explicitly")
    flat = int(np.argmax(holo.scores))
    coarse = holo.region.position_at(flat)
    if int((holo.scores >= 1.0 - 1e-12).sum()) != 1:
        return RefineResult(position=coarse, refined=False)

    center = (coarse.x, coarse.y, coarse.z)
    res = holo.region.resolution
    half = [0.0 if n == 1 else 1.5 * r for r, n in zip(res, holo.region.shape)]
    fine = SearchRegion(
        *((c - h, c + h) for c, h in zip(center, half)),
        resolution=tuple(r / 10.0 for r in res),
    )
    fine_holo = evaluate_hologram(stream, fine, method)
    return RefineResult(position=fine.position_at(int(np.argmax(fine_holo.scores))), refined=True)
