"""Grid-search hologram evaluation and position estimates.

Any likelihood or baseline method is evaluated over every cell center of
a search region (the hologram), scores are min-max normalized to [0, 1],
and the estimate is the argmax cell.  A linear trajectory cannot tell a
candidate from its mirror image across the track axis, so full symmetric
regions show a mirror peak; the supported mitigation is restricting the
region to the half-space the rack occupies.

Every entry point takes one tag's reads as a SampleStream and scores its
phase column against the candidate-to-pose distances of its pose column;
GridEvaluator.holograms scores several streams over one trajectory in
one pass, sharing each distance block; a stream's scores there do not
depend on which or how many streams share the pass.  Cells are scored
independently, in fixed-size blocks of cells that bound memory, with
per-cell sums taken in a fixed order, so results do not depend on the
block size and are reproducible bit-for-bit.  The blocks are dealt
round-robin to WORKERS shares, one per CPU this process may run on: the
calling thread scores the first, a shared thread pool the rest (numpy
releases the GIL), and each block is 1/WORKERS of the single-worker
size, so all workers together keep to one 4 MiB block budget.  With one
CPU no thread is started; scores are the same bit for bit at any
worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .phase_model import Position3D, SampleStream, pose_array

DEFAULT_CELL_CAP = 10_000_000
BLOCK = 65_536  # cell-pose entries scored at a time: 512 KiB of float64 distances
PASS_CELLS = 32  # fewest cells per block in a pass of streams_per_pass streams
PASS_SCORES = 1 << 20  # most raw scores a pass of streams_per_pass streams holds: 8 MiB
PEAK_THRESHOLD = 0.999  # find_peak_regions' cut; rack-plane ridge saddles sit near 0.99

_AXES = ("x", "y", "z")

try:
    WORKERS = len(os.sched_getaffinity(0))  # CPUs this process may run on
except AttributeError:  # no affinity call on this platform
    WORKERS = os.cpu_count() or 1


def _new_pool() -> None:
    # a forked child inherits the pool but not its threads, so work queued
    # there would never run: the child gets a pool of its own
    global _pool
    _pool = ThreadPoolExecutor(max(1, WORKERS - 1), thread_name_prefix="phaseloc-score")


_new_pool()  # its threads start on the first submit, never with one CPU
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _score_shares(score, blocks: list) -> None:
    """Run score(blocks[k::shares]) for each of up to WORKERS shares:
    share 0 on the calling thread, the rest on the pool.  Waits for every
    share, then re-raises the first error in share order."""
    shares = min(WORKERS, len(blocks))
    if shares < 2:
        score(blocks)
        return
    futures = [_pool.submit(score, blocks[k::shares]) for k in range(1, shares)]
    try:
        score(blocks[::shares])
    finally:
        wait(futures)
    for future in futures:
        future.result()


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

    A cell's squared distance to a pose is a sum of three per-axis terms,
    so the evaluator keeps one (cells on the axis x N) table per axis.
    raw_scores sums them in x, y, z order like squared_norm_rows and
    scores the cells in C-order blocks of BLOCK // WORKERS // (S*N) cells
    for S stacked streams but never fewer than two cells (numpy sums a
    lone row pairwise, a taller block's rows term by term; a lone last
    cell joins the previous block).  The blocks are dealt round-robin to
    WORKERS shares scored at once, the first on the calling thread.
    Memory budget beyond the tables and the (S, M) outputs, for all
    workers together: 8 float64 arrays of max(BLOCK, 2*WORKERS*S*N)
    entries, 4 MiB while WORKERS*S*N <= 32,768.

    Stacked streams share each block's distances, so the more streams a
    pass holds the less the geometry costs per stream; MethodSpec also
    builds the steering phasors once per block for all of them and feeds
    each method's per-pair term from them, where one stream's term is fed
    by its residuals (see likelihood).  But
    each pass holds its (S, M) raw scores and S holograms, and nlf scores
    stacked streams one by one, which gets slow once a block holds only
    a few cells.  streams_per_pass balances these: on the stock
    7171-cell plane with 101 poses (2-core VM) the seven methods took
    204-237 ms per stream alone, 92 ms per stream 8 at a time (81 cells
    per block), 70-72 ms 20 at a time (32 cells, a PASS_CELLS pass) and
    70-75 ms 40 at a time (16 cells), while nlf alone rose from 7 ms to
    10 and 12-13 ms.

    A method is any callable taking (phases, dists, wavelength) and
    returning one score per row of dists; MethodSpec objects are such
    callables.  hologram passes one stream's (N,) phases; holograms
    passes S >= 1 streams' stacked (S, N) phases, which the method must
    score as (S, rows).
    """

    def __init__(self, region: SearchRegion, poses_xyz: np.ndarray):
        self.region = region
        self.poses = pose_array(poses_xyz, 2)  # copied if writable: the tables must not go stale
        self._sq = [(region.axis_cells(a)[:, None] - self.poses[None, :, a]) ** 2 for a in range(3)]

    @property
    def streams_per_pass(self) -> int:
        """The most streams one holograms pass should stack: blocks of at
        least PASS_CELLS cells (per worker), at most PASS_SCORES raw scores."""
        n, m = self.poses.shape[0], self.region.cell_count
        return max(1, min(BLOCK // WORKERS // (PASS_CELLS * n), PASS_SCORES // m))

    def raw_scores(self, phases: np.ndarray, method, wavelength: float) -> np.ndarray:
        """Raw scores of every cell: (M,) for (N,) phases, (S, M) for
        S streams' stacked (S, N) phases."""
        phases = np.asarray(phases, dtype=float)
        m = self.region.cell_count
        rows = max(2, BLOCK // WORKERS // max(1, phases.size))
        edges = [*range(0, m, rows), m]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]  # a lone last cell joins the previous block
        sq_x, sq_y, sq_z = self._sq
        out = np.empty(phases.shape[:-1] + (m,))

        def score(blocks):
            for lo, hi in blocks:
                ix, iy, iz = np.unravel_index(np.arange(lo, hi), self.region.shape)
                dists = np.sqrt(sq_x[ix] + sq_y[iy] + sq_z[iz])
                out[..., lo:hi] = method(phases, dists, wavelength)

        _score_shares(score, list(zip(edges[:-1], edges[1:])))
        return out

    def hologram(self, stream: SampleStream, method) -> Hologram:
        """One stream's hologram, scored from its (N,) phases."""
        self._check(stream)
        raw = self.raw_scores(stream.phases, method, stream.carrier.wavelength)
        return self._normalized(raw, method)

    def holograms(self, streams: list[SampleStream], method) -> list[Hologram]:
        """One hologram per stream, scored from the streams' stacked
        (S, N) phases in one pass over the grid, for any S >= 1, so a
        stream's hologram does not depend on which or how many streams
        share the pass.  The streams must share the evaluator's
        trajectory and one wavelength; streams_per_pass is the pass size
        to use for many streams.
        """
        if not streams:
            raise ValueError("no streams to score")
        for stream in streams:
            self._check(stream)
        wavelength = streams[0].carrier.wavelength
        if any(s.carrier.wavelength != wavelength for s in streams):
            raise ValueError("streams differ in wavelength")
        raw = self.raw_scores(np.stack([s.phases for s in streams]), method, wavelength)
        return [self._normalized(row, method) for row in raw]

    def _check(self, stream: SampleStream) -> None:
        if not np.array_equal(stream.poses, self.poses):
            raise ValueError("sample poses differ from the evaluator's trajectory")

    def _normalized(self, raw: np.ndarray, method) -> Hologram:
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
    """Score every cell center of ``region`` with ``method`` (see
    GridEvaluator); for repeated evaluations over one geometry build a
    GridEvaluator instead."""
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
        peak_ratio=ratio,
        err_x=err_x,
        err_y=err_y,
        err_z=err_z,
        err_combined_yz=err_c,
    )


def find_peak_regions(holo: Hologram) -> list[tuple[int, float]]:
    """Connected components of cells scoring >= PEAK_THRESHOLD.

    Returns one (flat index of the component's best cell, best score) per
    component, strongest first; ties go to the lowest flat index, both
    within a component and between components.  A mirror ambiguity shows
    up as a second component at score ~1.  Rack-plane holograms are flat
    along Z, with ridge saddles near 0.99, so the threshold is
    deliberately tight.
    """
    scores = holo.scores.ravel()
    labels, _ = ndimage.label(holo.scores >= PEAK_THRESHOLD, structure=np.ones((3, 3, 3), dtype=int))
    cells = np.flatnonzero(labels)
    labs = labels.ravel()[cells]
    # one sort ranks each component's cells best first; its first cell wins
    order = np.lexsort((cells, -scores[cells], labs))
    best = cells[order][np.diff(labs[order], prepend=0) != 0]
    best = best[np.lexsort((best, -scores[best]))]
    return [(int(c), float(scores[c])) for c in best]


def refine_local(holo: Hologram, stream: SampleStream) -> RefineResult:
    """One level of local refinement around the coarse peak, re-scored
    with the hologram's own method.

    Re-scores a 3x3-cell neighborhood of the peak at a tenth of the
    coarse resolution and returns the fine argmax, which by construction
    stays inside the coarse cell's neighborhood.  When the coarse peak is
    not unique (e.g. a flat hologram) the coarse center comes back
    flagged unrefined.
    """
    if holo.method is None:
        raise ValueError("hologram carries no method to refine with")
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
    fine_holo = evaluate_hologram(stream, fine, holo.method)
    return RefineResult(position=fine.position_at(int(np.argmax(fine_holo.scores))), refined=True)
