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
calling thread scores the first, threads started for that pass alone the
rest (numpy releases the GIL), and each block is 1/WORKERS of the
single-worker size, so all workers together keep to one 4 MiB block
budget.  No scoring thread outlives its pass, and with one CPU none is
started; scores are the same bit for bit at any worker count.

On a straight, evenly stepped track whose cell step along the track is a
whole multiple of the pose step or a whole fraction of it, all cells of
a line along the track read one shared steering sequence, and
GridEvaluator scores every MethodSpec from it instead (the track path),
in chunks under the same budget, dealt to the same shares.  Each chunk
builds its lines' sequences once, and only the reduction differs: under
reference:r clf and slf, and sarfid, are linear in the steering phasors
(likelihood.LinearForm), so each convolves a line with every stream's
inputs by FFT; the other methods, and every method under misaligned, form
each cell's pairs from its sliding window of the line by
likelihood.pair_values, the rule the cell blocks use.  No cell and pose
pays a sqrt, cos or sin.
A read depends on a cell only through its distances to the poses, so
lines at one distance from the track axis score alike under every
method: each such distance is scored once and its sums written to all
its lines, so mirror cells tie bit for bit.  Track-path scores match the
block path's to about 1e-12 of the score scale, not bit for bit; a
stream's scores still do not depend on the pass or the worker count.
Other geometries and callables that are not a MethodSpec take the block
path.

Where only the argmax is wanted (run_bench), GridEvaluator.best_cells
finds it without scoring every cell on every pair: under reference:r on
a track, a cheap pass bounds each cell's full score from above, and only
the cells whose bound can still reach the best full score are scored in
full, bit for bit as in the full pass.  wclf and wslf weight each clf or
slf pair term by a weight in [0, 1], and nlf's -r^2 lies below 2*cos r -
2, so a scaled clf or slf FFT pass bounds nlf, wclf and wslf (the
sandwich); tagoram's term erfc(|r|/(sigma*sqrt(2))) * cos r lies below
exp(-sin^2 r/(2*sigma^2)) at every sigma, so the sum of that Gaussian
majorant bounds tagoram.  That pass only prunes, so it runs in single
precision, with |sin r| shrunk by a bound on the rounding and the
float32 exp's error in the width; the cells it leaves are scored in
float64.  The FFT methods, whose passes are already cheap, and every
other case score the holograms.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .likelihood import (
    MethodSpec,
    _pair_sums,
    _steering,
    linear_form,
    measured_sides,
    pair_values,
)
from .phase_model import Position3D, SampleStream, pose_array

DEFAULT_CELL_CAP = 10_000_000
BLOCK = 65_536  # cell-pose entries scored at a time: 512 KiB of float64 distances
PASS_CELLS = 32  # fewest cells per block in a pass of streams_per_pass streams
PASS_SCORES = 1 << 20  # most raw scores a pass of streams_per_pass streams holds: 8 MiB
PEAK_THRESHOLD = 0.999  # find_peak_regions' cut; rack-plane ridge saddles sit near 0.99
TRACK_ULPS = 8  # most a track's poses and cells may stray from even steps, in ulps
BOUND_GAP = 5  # best_cells' boxes join cells fewer than 5 apart along the track
TERM_ULPS = 32  # most a computed phasor strays from its exact value, in eps
# least pair term of the methods best_cells bounds
_TERM_MIN = {"nlf": -4.0 * math.pi**2, "wclf": -1.0, "wslf": -1.0 / math.e, "tagoram": -1.0}
# per pair, term <= scale * (the cheap method's term) + offset, for any residual r:
# -r^2 <= 2*cos r - 2; |cos r|*cos r <= (1 + cos r)/2; -sin^2 r*exp(-sin^2 r) <= -sin^2 r/e
_SANDWICH = {"nlf": ("clf", 2.0, -2.0), "wclf": ("clf", 0.5, 0.5), "wslf": ("slf", 1.0 / math.e, 0.0)}
_EPS = float(np.finfo(float).eps)
_EPS32 = float(np.finfo(np.float32).eps)

_AXES = ("x", "y", "z")

try:
    WORKERS = len(os.sched_getaffinity(0))  # CPUs this process may run on
except AttributeError:  # no affinity call on this platform
    WORKERS = os.cpu_count() or 1


def _score_shares(score, blocks: list) -> None:
    """Run score(blocks[k::shares]) for each of up to WORKERS shares:
    share 0 on the calling thread, the rest on threads started for this
    call alone.  Waits for every share, then re-raises the first error in
    share order."""
    shares = min(WORKERS, len(blocks))
    if shares < 2:
        score(blocks)
        return
    with ThreadPoolExecutor(shares - 1, thread_name_prefix="phaseloc-score") as pool:
        futures = [pool.submit(score, blocks[k::shares]) for k in range(1, shares)]
        score(blocks[::shares])
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
    span divides evenly, and no centre lies beyond it: where min + k*res
    rounds above max (0.7000000000000001 for [0, 0.7] at 0.01), the last
    centre is max.
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
            if not (r > 0 and math.isfinite(r)):
                raise ValueError(f"{name} resolution must be finite and positive, got {r!r}")
        if self.cell_count > DEFAULT_CELL_CAP:
            raise ValueError(f"region holds more than the cap of {DEFAULT_CELL_CAP} cells")

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return (self.x, self.y, self.z)

    def axis_cells(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        if lo == hi:
            return np.array([lo], dtype=float)
        return np.minimum(lo + self.resolution[axis] * np.arange(self.shape[axis]), hi)

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
class _Track:
    """Poses evenly stepped along one axis, in a grid whose cell step on
    that axis is a multiple of the pose step or a fraction 1/b of it.

    With sequence step delta, the along-track offsets of a line's cells to
    the poses are one sequence: cell j, counted from the line's far end,
    sits (a*j + b*n)*delta from pose n beyond the offset of that end to
    pose 0, so every line reads one steering sequence at entry a*j + b*n.
    The far end is the last cell, or the first when the poses descend.

    A cell's distances depend on its line only through the line's squared
    cross-track distance, so lines at one distance (to TRACK_ULPS ulps of
    the largest) form a group whose sums are scored once.
    """

    axis: int
    a: int
    b: int
    flip: bool
    sq_offsets: np.ndarray  # entry a*j + b*n: squared along-track offset of cell j to pose n
    cross: np.ndarray  # squared cross-track distance each group is scored at, its smallest
    members: np.ndarray  # C-order line indices, group by group; groups in C order of their first
    starts: np.ndarray  # group g's lines are members[starts[g]:starts[g + 1]]


def _bound_slack(name: str, p: int, span: int = 0, kd_max: float = 0.0) -> float:
    """What best_cells adds to method name's cheap bound over p pairs
    (n = p + 1 reads) for rounding: the sum of the terms below, doubled,
    which covers the bound's own scaling, addition and comparison.  The
    sandwich holds for exact values: the angle r of each pair, from the
    computed distance phases kd (the sequence entries both passes read)
    and the read phases.  eps is 2^-52, so an operation errs by at most
    eps/2 of its result, and TERM_ULPS*eps bounds numpy's cos, sin and exp
    (and a squaring) on a phasor.

    full: the full pass's term and summation rounding.  A pair phasor
    A_n*conj(A_r)*exp(j*dphi) lies within 4*TERM_ULPS*eps of exp(j*r) (three
    phasors, two products, dphi's subtraction), and wclf's and wslf's
    terms move by at most twice that, plus their own rounding; nlf's term
    is its computed residual's square, within eps*4*pi^2 < TERM_ULPS*eps.
    So each term lies within 8*TERM_ULPS*eps of the exact term, and any
    order of summing p terms of magnitude at most t = -t_min errs by at
    most (p - 1)*eps/2 times their magnitudes' sum: eps*t*p^2 covers it.

    cheap: for tagoram, the majorant's.  The full pass reads the
    computed float64 pair phasor u = rho*exp(j*theta), rho within d =
    4*TERM_ULPS*eps of 1 (above).  With s = sigma*sqrt(2) and y =
    (theta/s)^2, its exact full term erfc(|theta|/s)*rho*cos theta is <= 0
    where cos theta <= 0 and at most rho*exp(-y) <= exp(-y) + d elsewhere,
    and the exact majorant of that u, exp(-(rho*sin theta/s)^2), falls
    short of exp(-y) by at most exp(-y)*(rho^2 - 1)*y <= (2*d + d^2)/e <=
    d: 2*d per pair.  The full term's rounding (arctan2, the division,
    erfc, whose absolute error is about eps, and the product) lies within
    the 8*TERM_ULPS*eps above.  The majorant pass runs in float32 from u
    rounded to complex64, and shrinks |Im u| by a bound on that rounding,
    so that its computed exponent is at least the float64 u's exact one
    (likelihood._pair_sums derives it); what is left is float32 exp's
    rounding, TERM_ULPS*eps32 (eps32 = 2^-23) of a value at most 1, per
    pair.  The terms are summed in float64, within eps*t*p^2.  On the stock
    plane (P = 100) tagoram's width is 7.6e-4, nearly all of it float32
    exp's.  For the others, the
    sandwich's scale times the error of the clf or slf pass, which sums
    y = sum_n exp(j*phi_n)*K_n (K = A, or A^2 for slf) by convolving each
    line's sequence with a stream's inputs, and finishes with
    conj(exp(j*phi_r)*K_r)*y:
    * phasors: each input and each sequence entry within TERM_ULPS*eps of
      its exact value, so y within 2*TERM_ULPS*eps*N, and the finish's
      product of |y| <= N by two more such phasors within (2*TERM_ULPS +
      4)*eps*N: 5*TERM_ULPS*eps*N covers both;
    * fft: ifft(fft(x)*fft(h)) of a circular length L <= 2*span
      (scipy.fft.next_fast_len(span) < 2*span, span being the line's
      sequence length) for a line x of at most L entries and a stream's
      inputs h of N, all of modulus 1.  Higham (Accuracy and Stability of
      Numerical Algorithms, 2nd ed., section 24.1, Theorem 24.2) bounds a
      computed radix-2 FFT by kappa*||X||_2, kappa = log2(L)*eta/(1 -
      log2(L)*eta), eta = mu + gamma_4*(sqrt(2) + mu) <= 4*eps to first
      order with twiddle errors mu <= eps; kappa = 8*eps*log2(L) here,
      twice that, for pocketfft's mixed radices.  With ||X||_2 <= L,
      ||X||_inf <= L, ||H||_2 <= sqrt(L*N), ||H||_inf <= N, ||X*H||_2 =
      sqrt(L)*||y||_2 <= L*N and a complex product within sqrt(2)*gamma_2
      <= 2*eps <= kappa, every sum errs by at most kappa*(3*sqrt(L)*N +
      L*sqrt(N)) to first order.

    gap, nlf only: nlf folds each geometric difference, fl(kd_n - kd_r)
    folded by fmod into [0, 2*pi), and its residual dphi - fold (or that
    + 2*pi) differs from r + 2*pi*k by at most eps*(kd_max + 10*pi): the
    two subtractions of at most kd_max and 2*pi (eps*kd_max/2 + eps*pi),
    the fold's addition and TWO_PI's distance from 2*pi times at most
    kd_max/(2*pi) + 2 folds (2*pi*eps + eps*(kd_max/2 + 2*pi)), and the
    residual's and the branch's additions of at most 4*pi (4*pi*eps) and
    TWO_PI's error once more (pi*eps).  2*cos moves by at most twice
    that, so 2*p*eps*(kd_max + 10*pi) in all.  On the stock plane (P =
    100) the sum is below 1e-9 for nlf, wclf and wslf."""
    eps, n, t = _EPS, p + 1, -_TERM_MIN[name]
    summed = eps * t * p * p
    full = 8 * TERM_ULPS * eps * p + summed
    cheap = (TERM_ULPS * _EPS32 + 8 * TERM_ULPS * eps) * p + summed  # tagoram's majorant
    if name in _SANDWICH:
        phasors = 5 * TERM_ULPS * eps * n
        fft = 8 * eps * math.log2(2 * span) * (3 * math.sqrt(2 * span) * n + 2 * span * math.sqrt(n))
        cheap = _SANDWICH[name][1] * (phasors + fft)
    gap = 2 * p * eps * (kd_max + 10 * math.pi) if name == "nlf" else 0.0
    return 2.0 * (full + cheap + gap)


@dataclass(frozen=True)
class _BoundPlan:
    """How best_cells bounds a method's full raw scores: cheap(phases, out)
    writes every cell's cheap score for (S, N) phases into (S, M) out, and
    a cell's full score is at most its cheap score + width.  floor is at
    most any cell's full score."""

    cheap: object
    width: float
    floor: float


def _tie(top: float, floor: float) -> float:
    """best_cells' tie margin for a best full score top over cells whose
    scores are at least floor: more than a normalized hologram can merge
    into its maximum, ulp(top - raw_min) <= eps*(top - floor), and more
    than the rounding of top - margin, eps*|top|."""
    return 4.0 * _EPS * (top - floor + abs(top))


def _survivor_boxes(group: np.ndarray, column: np.ndarray, ny: int) -> list:
    """_track_scores boxes holding the given (group, column) cells: one per
    run of columns less than BOUND_GAP apart, over the groups it meets, at
    least two columns wide."""
    cols = np.unique(column)
    cuts = np.flatnonzero(np.diff(cols) >= BOUND_GAP) + 1
    boxes = []
    for run in np.split(cols, cuts):
        c0, c1 = int(run[0]), int(run[-1]) + 1
        if c1 - c0 < 2:
            c0, c1 = (c0, c0 + 2) if c0 + 2 <= ny else (c1 - 2, c1)
        inside = (column >= run[0]) & (column <= run[-1])
        boxes.append((int(group[inside].min()), int(group[inside].max()) + 1, c0, c1))
    return boxes


def _radius_groups(cross: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, members, starts) of _Track for lines at squared cross-track
    distances cross: sorted, a group takes the values within TRACK_ULPS
    ulps of max(cross) of its smallest, which it is scored at.  Where every
    value is apart, each line is a group of its own, in C order."""
    order = np.argsort(cross, kind="stable")
    v = cross[order]
    tol = TRACK_ULPS * np.finfo(float).eps * v[-1]
    head = np.diff(v, prepend=-np.inf) > tol  # a gap wider than tol starts a group
    lo = np.flatnonzero(head)
    hi = np.append(lo[1:], len(v))
    wide = v[hi - 1] - v[lo] > tol
    for first, end in zip(lo[wide], hi[wide]):
        for i in range(first + 1, end):  # a chain of close values wider than tol: split greedily
            if v[i] - v[first] > tol:
                head[i], first = True, i
    heads = np.flatnonzero(head)
    rank = np.argsort(np.minimum.reduceat(order, heads))  # groups in C order of their first line
    label = np.empty(len(v), dtype=np.intp)
    label[order] = np.argsort(rank)[np.cumsum(head) - 1]
    members = np.argsort(label, kind="stable")
    starts = np.searchsorted(label[members], np.arange(len(heads) + 1))
    return v[heads][rank], members, starts


def _find_track(region: SearchRegion, poses: np.ndarray, sq: list) -> _Track | None:
    """The _Track of the evaluator's poses and region, or None.

    The two cross-track coordinates must be equal for every pose; the
    along-track ones of poses and cells may stray from even steps by
    TRACK_ULPS ulps of the largest of them, which keeps the track path
    within 1e-12 of the score scale; and a line's sequence must be at most
    half its cell-pose block, since one-cell lines and two-pose tracks
    score slower by convolution.
    """
    moving = [ax for ax in range(3) if np.any(poses[:, ax] != poses[0, ax])]
    if len(moving) != 1:
        return None
    (axis,) = moving
    p, cells = poses[:, axis], region.axis_cells(axis)
    flip = bool(p[-1] < p[0])
    if flip:
        p, cells = -p, -cells[::-1]
    n, ny = len(p), len(cells)
    s = (float(p[-1]) - float(p[0])) / (n - 1)  # Python floats overflow without a warning
    r = region.resolution[axis]
    if not (s > 0 and r <= s * ny * n and s <= r * ny * n):  # bounds a and b below
        return None
    a, b = (round(r / s), 1) if r >= s else (1, round(s / r))
    if 2 * (a * (ny - 1) + b * (n - 1) + 1) > ny * n:
        return None
    # the longer line sets the step, so the shorter strays by less than an ulp
    longer = a * (ny - 1) > b * (n - 1)
    step = (float(cells[-1]) - float(cells[0])) / (a * (ny - 1)) if longer else s / b
    stray = np.abs(p - (p[0] + b * step * np.arange(n))).max() + np.abs(
        cells - (cells[0] + a * step * np.arange(ny))
    ).max()
    scale = max(np.abs(p).max(), np.abs(cells).max())
    if not stray <= TRACK_ULPS * np.finfo(float).eps * scale:
        return None
    offsets = (cells[0] - p[0]) + step * np.arange(a * (ny - 1), -b * (n - 1) - 1, -1)
    u, v = (ax for ax in range(3) if ax != axis)
    cross = sq[u][:, 0, None] + sq[v][None, :, 0]
    return _Track(axis, a, b, flip, np.square(offsets), *_radius_groups(cross.ravel()))


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
    for S stacked streams but never fewer than two cells (numpy multiplies
    a one-element complex array in place without fused multiply-adds, so
    a one-cell, one-pair block would round unlike a taller one; a lone
    last cell joins the previous block).  The blocks are dealt round-robin
    to WORKERS shares scored at once, the first on the calling thread.
    Memory budget beyond the tables and the (S, M) outputs, for all
    workers together: 8 float64 arrays of max(BLOCK, 2*WORKERS*S*N)
    entries, 4 MiB while WORKERS*S*N <= 32,768.

    Stacked streams share each block's distances, and MethodSpec builds
    the pair geometry (pair phasors, or nlf's folded differences, by
    likelihood.pair_values) once per block for all of them, so the more
    streams a pass holds the less the geometry costs per stream.  But each
    pass holds its (S, M) raw scores and S holograms, and the more streams
    a block stacks the fewer cells it holds, until numpy's per-call
    overhead outweighs the work; streams_per_pass balances these on the
    blocks.  On the track path a chunk's scratch does not grow with the
    streams, but each stream keeps its (S, M) raw scores and, per chunk,
    its N phases, N-1 differences and FFT spectra longer than N; so there
    a pass holds at most PASS_SCORES raw scores and at most PASS_SCORES
    stacked phases.  run_bench and the CLI's locate and hologram stack
    their streams in passes of up to streams_per_pass.

    The track path: when the poses step evenly along one axis (the other
    two coordinates equal for every pose) and the grid's step on that
    axis is a whole multiple or a whole fraction of the pose step (see
    _find_track), every MethodSpec under any scheme skips the blocks.
    Lines of cells along the track at one squared cross-track distance (to
    TRACK_ULPS ulps of the largest) form a group, scored at its smallest:
    the volume's 5,041 lines are 3,660 groups, and the 10,011 lines of a
    region symmetric about the track the same 3,660.  Per chunk, each
    group gets one sequence: its distances, then its steering phasors
    (nlf: 4*pi*d/lambda).  A cell's N entries are a zero-copy sliding
    window of it, and the group's sums are written to each of its lines.
    Where every distance is apart (the stock and rack-log planes), each
    line is a group of its own, in C order, and the chunks are those of
    line-by-line scoring.  The reduction differs by method:

    * sarfid, and clf and slf under reference:r, square the sequence in
      place when their power is 2, read K_r as the window's anchor entry,
      and convolve each line by FFT with each stream's upsampled inputs,
      one stream at a time.
    * nlf, wclf, wslf and tagoram, and every method under misaligned: the
      chunk's pair phasors are formed once for all streams from the
      windows by likelihood.pair_values, as a block's are from its
      steering phasors (nlf: the folded differences of its window's
      4*pi*d/lambda), then likelihood._pair_sums gives each stream's sums,
      so one stream's scores equal its scores in any pass bit for bit.

    A share allocates its sequence arrays, and the pair methods' scratch
    and pairs in one buffer, once per raw_scores call and writes into
    them.  A chunk stays within 6 of the share's 8 arrays of BLOCK //
    WORKERS float64 entries; the other 2 leave room for the buffers numpy
    allocates for each operation on a window or a broadcast operand (up to
    3 x 8192 entries).  Under every scheme it takes per sequence entry its
    distance and steering phasor (at most 3 entries), and either per cell
    and pair u and the terms (3; 5 with several streams, which also share
    the pair phasors), or per line of FFT length L its spectrum and a
    stream's product (4*L) and per cell the finish's temporaries (3);
    where groups hold several lines, per cell the copy of the sums that
    the write spreads over a group's lines (the most lines of a group).
    tagoram's majorant pass keeps its steering phasors, pairs, u and terms
    in single precision, so there a sequence entry takes 2 entries and a
    cell's pair 1.5 (2.5 with several streams): a chunk holds twice the
    cells.
    A box's groups are cut into the fewest chunks of whole groups that fit
    it, of near-equal size (71 groups in two chunks are 36 and 35, not 70
    and 1), so a grid within one share's budget is scored on the calling
    thread alone, as are boxes whose chunks fit it together.  A pair
    method whose line exceeds the budget takes segments of at least two
    cells; a linear method takes a whole line regardless, so its FFT
    length (scipy.fft.next_fast_len) depends on shapes only, and its
    scores' last bits not on the budget or WORKERS.
    On the stock plane an 8-stream pass took 26-40 ms for nlf, wclf and
    wslf, 74-93 ms for tagoram (its majorant pass 18-25 ms) and 3-5 ms
    for clf, slf and sarfid; a
    one-stream wslf hologram of the 509,141-cell volume took 244-337 ms
    with each radius scored once, against 262-357 ms line by line (2-core
    VM).  Under misaligned, which no stock scene runs, a 6-stream pass
    took 15-23 ms for nlf, 12-18 ms for clf, 14-21 ms for slf, 15-23 ms
    for wclf and 19-29 ms for wslf (2-core VM, medians of 7 in fresh
    processes, four alternating rounds).

    best_cells gives each stream's hologram argmax from bounds for nlf,
    wclf, wslf and tagoram under reference:r on a track (see its
    docstring): nlf, wclf and wslf from a clf or slf FFT pass their
    weights sandwich, tagoram from a pass of its Gaussian majorant, which
    forms u as the full pass does, but in complex64, and takes per pair
    an absolute value, a subtraction, a clip, a square, a product and an
    exp in float32.

    A method is any callable taking (phases, dists, wavelength) and
    returning one score per row of dists; MethodSpec objects are such
    callables.  hologram passes one stream's (N,) phases; holograms
    passes S >= 1 streams' stacked (S, N) phases, which the method must
    score as (S, rows).  The poses must hold at least two distinct
    positions: at one, every cell's pair phasors are 1 up to rounding and
    its argmax would be noise, so the evaluator raises ValueError.
    """

    def __init__(self, region: SearchRegion, poses_xyz: np.ndarray):
        self.region = region
        self.poses = pose_array(poses_xyz, 2)  # copied if writable: the tables must not go stale
        if not (self.poses != self.poses[0]).any():
            # every cell's pair phasors are then 1 up to rounding, so the argmax would be noise
            raise ValueError("poses hold fewer than two distinct positions")
        self._sq = [(region.axis_cells(a)[:, None] - self.poses[None, :, a]) ** 2 for a in range(3)]

    @cached_property
    def _track(self) -> _Track | None:
        """The track path's geometry, found when a MethodSpec is first
        scored, so evaluators that only plain callables use never pay."""
        return _find_track(self.region, self.poses, self._sq)

    @property
    def streams_per_pass(self) -> int:
        """The most streams one holograms pass of a MethodSpec should stack:
        at most PASS_SCORES raw scores, and on a track at most PASS_SCORES
        stacked phases, off one blocks of at least PASS_CELLS cells (per
        worker).  A track chunk's scratch does not grow with the streams,
        only what is kept per stream does."""
        n, m = self.poses.shape[0], self.region.cell_count
        if self._track is not None:
            return max(1, PASS_SCORES // max(m, n))
        return max(1, min(BLOCK // WORKERS // (PASS_CELLS * n), PASS_SCORES // m))

    def raw_scores(self, phases: np.ndarray, method, wavelength: float) -> np.ndarray:
        """Raw scores of every cell: (M,) for (N,) phases, (S, M) for
        S streams' stacked (S, N) phases."""
        phases = np.asarray(phases, dtype=float)
        m = self.region.cell_count
        out = np.empty(phases.shape[:-1] + (m,))
        if isinstance(method, MethodSpec) and phases.shape[-1] == len(self.poses):
            if self._track is not None:
                self._track_scores(method, phases, out.reshape(-1, m), wavelength)
                return out
        rows = max(2, BLOCK // WORKERS // max(1, phases.size))
        edges = [*range(0, m, rows), m]
        if len(edges) > 2 and edges[-1] - edges[-2] == 1:
            del edges[-2]  # a lone last cell joins the previous block
        sq_x, sq_y, sq_z = self._sq

        def score(blocks):
            for lo, hi in blocks:
                ix, iy, iz = np.unravel_index(np.arange(lo, hi), self.region.shape)
                dists = np.sqrt(sq_x[ix] + sq_y[iy] + sq_z[iz])
                out[..., lo:hi] = method(phases, dists, wavelength)

        _score_shares(score, list(zip(edges[:-1], edges[1:])))
        return out

    def _track_scores(
        self,
        spec: MethodSpec,
        phases: np.ndarray,
        out: np.ndarray,
        wavelength: float,
        boxes: list | None = None,
        majorant: bool = False,
    ) -> None:
        """Write spec's (S, M) scores into out from one sequence per line of
        cells, in chunks dealt to the shares: methods with a LinearForm
        convolve each line with every stream's inputs, the others form each
        cell's pairs from its sliding window of the line and sum their terms.

        boxes, (group lo, group hi, c0, c1) each, limits the cells scored
        to those groups' cells c0..c1 along the track (counted from the
        line's far end; c1 - c0 >= 2), cut into chunks within the budget;
        no other cell of out is written.  The default is the whole grid.
        With majorant, tagoram writes the sums of its majorant
        (likelihood._pair_sums) instead of its scores, from the chunk's
        steering sequence, pairs and each stream's exp(j*dphi) in complex64
        (the distances and kd stay float64), with twice the cells per
        chunk."""
        track, n = self._track, len(self.poses)
        phases = np.atleast_2d(phases)
        form = linear_form(spec, phases)
        nlf = spec.name == "nlf"
        a, b, p = track.a, track.b, n - 1
        shape = self.region.shape
        ny, nv = shape[track.axis], shape[max(ax for ax in range(3) if ax != track.axis)]
        groups = len(track.cross)
        # the majorant's phasors, u and terms are single precision: entries of that
        # size below, `wide` of them to a float64 (distances, sums)
        real, wide = (np.float32, 2) if majorant else (np.float64, 1)
        # per cell, the write's copy of a chunk's sums to each line, where groups hold several
        copy = wide * int(np.diff(track.starts).max()) if len(track.members) > groups else 0
        width = 1 if nlf else 2  # entries per pair or sequence value
        # entries a chunk takes, within 6 of a share's 8 arrays (see
        # GridEvaluator); nlf's pairs take residuals and lo instead of u
        per_entry = wide + (not nlf) * width
        fixed = (b * (n - 1) + 1 - a) * per_entry
        cap = 6 * (BLOCK // WORKERS) * wide
        if form is None:
            sides = measured_sides(spec, phases)
            if majorant:  # tagoram's exp(j*dphi), rounded to the pairs' complex64
                sides = sides.astype(np.complex64)
            per_pair = width + 1 + width * (len(sides) > 1)
            per_cell = p * per_pair + a * per_entry + copy
        else:  # imported here: ~30 ms and 1 MiB that the other methods never need
            from scipy.fft import fft, ifft, next_fast_len

            taps = form.inputs.shape[-1]
            length = a * (ny - 1) + b * (n - 1) + 1  # entries a whole line convolves
            size = next_fast_len(length)  # no wrap-around reaches the sums
            upsampled = np.zeros((len(form.inputs), b * (taps - 1) + 1), dtype=complex)
            upsampled[:, ::b] = form.inputs[:, ::-1]  # so cell j's sum sits at b*(taps-1) + a*j
            spectra = [fft(row, size) for row in upsampled]  # one FFT per stream, as alone
            at_cells = slice(b * (taps - 1), length, a)
            # whole lines even beyond the budget, so FFT lengths depend on shapes only
            rows = max(1, cap // (ny * (a * per_entry + 3 + copy) + fixed + 4 * size))
        chunks = []
        for lo, hi, c0, c1 in [(0, groups, 0, ny)] if boxes is None else boxes:
            if form is None:
                rows = cap // ((c1 - c0) * per_cell + fixed)
            if rows >= 1:  # whole groups in even chunks; a grid within one share's budget takes one
                parts = np.array_split(np.arange(lo, hi), -(-(hi - lo) // rows))  # sizes differ by <= 1
                chunks += [(int(g[0]), int(g[-1]) + 1, c0, c1) for g in parts]
            else:  # segments of one line; a lone last cell joins the previous one
                cells = max(2, (cap - fixed) // per_cell)
                edges = [*range(c0, c1, cells), c1]
                if edges[-1] - edges[-2] == 1:
                    del edges[-2]
                segments = list(zip(edges[:-1], edges[1:]))
                chunks += [(g, g + 1, s0, s1) for g in range(lo, hi) for s0, s1 in segments]
        most = max((hi - lo) * (c1 - c0) for lo, hi, c0, c1 in chunks) * p  # pair entries
        span = a * (max(c1 - c0 for _, _, c0, c1 in chunks) - 1) + b * (n - 1) + 1  # per line
        grid = np.moveaxis(out.reshape(-1, *shape), 1 + track.axis, -1)

        def score(chunks):
            rows = max(hi - lo for lo, hi, _, _ in chunks)
            dists = np.empty((rows, span))  # and nlf's phases 4*pi*d/lambda
            seq = dists if nlf else np.empty((rows, span), dtype=np.result_type(real, np.complex64))
            if form is None:
                # several streams' pairs follow the scratch, in one buffer, so that
                # malloc keeps its pages for the next call; one stream's pairs are
                # the start of its scratch, turned into u in place
                several = len(sides) > 1
                scratch = np.empty((width + 1 + width * several) * most, dtype=real)
                geometry = scratch[several * (width + 1) * most :][: width * most].view(seq.dtype)
            windows = {}  # per cell count: entry (line, j, k) is pose k's of cell j

            def pair_sums(window):
                pairs = geometry[: window[..., 0].size * p].reshape(window.shape[:2] + (p,))
                pair_values(spec.scheme, window, out=pairs, fold=nlf)
                for side in sides:
                    yield _pair_sums(spec, pairs, side, scratch, majorant=majorant)

            def convolved(window, line):
                if form.power == 2:
                    np.square(line, out=line)
                at_anchor = None if form.anchor is None else window[..., form.anchor]
                spectrum = fft(line, size, axis=-1)
                conv = np.empty_like(spectrum)  # every stream's product, inverted in place
                for s, stream in enumerate(spectra):
                    conv = ifft(np.multiply(spectrum, stream, out=conv), axis=-1, overwrite_x=True)
                    yield form.finish(conv[:, at_cells], at_anchor, s)

            for lo, hi, c0, c1 in chunks:
                h, count = hi - lo, c1 - c0
                used = a * (count - 1) + b * (n - 1) + 1  # sequence entries the cells read
                line = seq[:h, :used]
                if count not in windows:
                    windows[count] = sliding_window_view(seq[:, :used], b * p + 1, axis=-1)[:, ::a, ::b]
                d = dists[:h, :used]
                np.add(track.cross[lo:hi, None], track.sq_offsets[a * c0 : a * c0 + used], out=d)
                np.sqrt(d, out=d)
                if nlf:
                    d *= 4.0 * math.pi / wavelength
                else:
                    _steering(d, wavelength, out=line)
                window = windows[count][:h]
                lines = track.members[track.starts[lo] : track.starts[hi]]
                iu, iv = np.divmod(lines, nv)
                # each group's sums go to every line of the group
                sizes = np.diff(track.starts[lo : hi + 1])
                at = slice(None) if len(lines) == h else np.repeat(np.arange(h), sizes)
                cols = slice(c0, c1) if track.flip else slice(ny - c1, ny - c0)
                results = pair_sums(window) if form is None else convolved(window, line)
                for s, sums in enumerate(results):
                    grid[s, iu, iv, cols] = (sums if track.flip else sums[:, ::-1])[at]

        if form is None and sum((hi - lo) * ((c1 - c0) * per_cell + fixed)
                                for lo, hi, c0, c1 in chunks) <= cap:
            score(chunks)  # boxes within one share's budget: the calling thread alone, as one chunk
        else:
            _score_shares(score, chunks)

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
        phases, wavelength = self._stacked(streams)
        raw = self.raw_scores(phases, method, wavelength)
        return [self._normalized(row, method) for row in raw]

    def best_cells(self, streams: list[SampleStream], method) -> list[int]:
        """The flat index argmax_estimate picks on each stream's hologram,
        int(np.argmax(h.scores)) for h in holograms(streams, method), from
        bounds where that is exact and cheaper, else from the holograms.

        Under reference:r on a track, nlf, wclf, wslf and tagoram have a
        bound plan (_bound_plan): a cheap pass over every cell of every
        stream, and how far above its cheap score a cell's full score can
        lie.  Each stream's best-bounded cell is scored in full, which is a
        lower bound on its best full score; then every cell whose bound
        still reaches that less the tie margin is scored in full, and no
        other cell can win.  Each step scores boxes around every stream's
        cells (_survivor_boxes), each box for the streams with a cell in it;
        streams whose cells lie together share a pass.  Full scores are
        those of the full pass's chunks cut smaller, so bit for bit as
        there, and the lowest flat index reaching the best of them, raw_max,
        is the argmax of the raw scores.

        The hologram normalizes by raw_max - raw_min, and rounding can
        merge a score just below raw_max into 1.0, where the lower index
        wins.  raw_min >= the plan's floor, so what can merge lies within
        the tie margin (_tie) of raw_max, and every cell whose score does
        has been scored in full: a stream where a lower-index cell does
        falls back to its hologram, as does one whose bounds leave more
        than a quarter of the grid after the first step.  The fallback
        streams share one pass.  Beside the tables it holds two (S, M)
        arrays: the bounds, and the full scores, -inf where not scored.

        Every other case scores the holograms: clf, slf and sarfid, whose
        FFT passes cost about 4.5 ms on the stock plane; misaligned, where
        the sandwich holds but prunes little; off-track poses and plain
        callables.
        """
        phases, wavelength = self._stacked(streams)
        plan = self._bound_plan(method, wavelength)
        if plan is None:
            return [self._best_cell(row) for row in self.raw_scores(phases, method, wavelength)]
        m, rows = self.region.cell_count, np.arange(len(phases))
        bounds = np.empty((len(phases), m))
        plan.cheap(phases, bounds)
        bounds += plan.width
        group, column = self._cell_slots
        ny = self.region.shape[self._track.axis]
        raw = np.full_like(bounds, -np.inf)  # full scores where scored

        def score(cells):  # the (S, M) cells marked, by the streams with a cell in each box
            marked, passes = cells.any(axis=0), {}
            for box in _survivor_boxes(group[marked], column[marked], ny) if marked.any() else []:
                lo, hi, c0, c1 = box
                inside = (group >= lo) & (group < hi) & (column >= c0) & (column < c1)
                passes.setdefault(tuple(np.flatnonzero(cells[:, inside].any(axis=1))), []).append(box)
            for at, boxes in passes.items():
                out = raw[list(at)]
                self._track_scores(method, phases[list(at)], out, wavelength, boxes=boxes)
                raw[list(at)] = out

        first = np.zeros(bounds.shape, dtype=bool)
        first[rows, np.argmax(bounds, axis=1)] = True
        score(first)
        known = raw.max(axis=1)  # at most each stream's best full score
        left = (bounds >= (known - _tie(known, plan.floor))[:, None]) & (raw == -np.inf)
        few = np.count_nonzero(left, axis=1) <= m // 4
        score(left & few[:, None])
        top = raw.max(axis=1)
        best = np.argmax(raw >= (top - _tie(top, plan.floor))[:, None], axis=1)
        # where a lower-index cell nearly ties top, or too many cells were left: the holograms
        unsettled = np.flatnonzero(~few | (raw[rows, best] != top))
        best = best.tolist()
        if len(unsettled):  # one pass of their holograms' scores
            full = self.raw_scores(phases[unsettled], method, wavelength)
            for row, scores in zip(unsettled, full):
                best[row] = self._best_cell(scores)
        return best

    def _bound_plan(self, method, wavelength: float) -> _BoundPlan | None:
        """best_cells' _BoundPlan for method, or None where it scores the
        holograms.  Every pair term is at least t_min (_TERM_MIN), so every
        full score at least P*t_min, less the rounding.

        nlf, wclf and wslf: in the paper, wclf and wslf are clf and slf with
        each pair term weighted by |cos r| or exp(-sin^2 r), both in [0, 1],
        and nlf's -r^2 lies below 2*cos r - 2 on every branch of r; so each
        pair term is at most an affine function of the clf or slf term of
        the same pair (_SANDWICH), and the full score at most scale*(the
        clf or slf score) + offset*P.  The cheap pass is that method's
        ordinary full pass, one FFT pass, scaled; the width is
        _bound_slack's rounding slack.

        tagoram: the sums of its majorant exp(-(Im u/(sigma*sqrt(2)))^2)
        (likelihood._pair_sums), through the full pass's chunk loop, in
        float32 from u rounded to complex64 with |Im u| shrunk by a bound on
        that rounding, at every sigma; the width is the slack, nearly all
        of it float32 exp's rounding."""
        if not (
            isinstance(method, MethodSpec)
            and method.name in _TERM_MIN
            and method.scheme.kind == "reference"
            and self._track is not None
        ):
            return None
        track, p = self._track, len(self.poses) - 1
        if method.name == "tagoram":
            width = _bound_slack("tagoram", p)

            def cheap(phases, out):
                self._track_scores(method, phases, out, wavelength, majorant=True)

        else:
            name, scale, offset = _SANDWICH[method.name]
            lower = MethodSpec(name, method.scheme)
            span = track.a * (self.region.shape[track.axis] - 1) + track.b * p + 1
            kd_max = 4.0 * math.pi / wavelength * math.sqrt(track.cross.max() + track.sq_offsets.max())
            width = _bound_slack(method.name, p, span, kd_max)

            def cheap(phases, out):
                self._track_scores(lower, phases, out, wavelength)
                out *= scale
                out += offset * p

        return _BoundPlan(cheap, width, p * _TERM_MIN[method.name] - width)

    @cached_property
    def _cell_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell's track group and its index along the track counted
        from the line's far end, as _track_scores' boxes count cells."""
        track, shape = self._track, self.region.shape
        at = np.unravel_index(np.arange(self.region.cell_count), shape)
        u, v = (ax for ax in range(3) if ax != track.axis)
        of_line = np.empty(len(track.members), dtype=np.intp)
        of_line[track.members] = np.repeat(np.arange(len(track.cross)), np.diff(track.starts))
        j = at[track.axis]
        return of_line[at[u] * shape[v] + at[v]], j if track.flip else shape[track.axis] - 1 - j

    def _best_cell(self, raw: np.ndarray) -> int:
        return int(np.argmax(self._normalized(raw, None).scores))

    def _stacked(self, streams: list[SampleStream]) -> tuple[np.ndarray, float]:
        """The streams' stacked (S, N) phases and their one wavelength."""
        if not streams:
            raise ValueError("no streams to score")
        for stream in streams:
            self._check(stream)
        wavelength = streams[0].carrier.wavelength
        if any(s.carrier.wavelength != wavelength for s in streams):
            raise ValueError("streams differ in wavelength")
        return np.stack([s.phases for s in streams]), wavelength

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


def _max_outside_neighborhood(scores: np.ndarray, peak: tuple[int, ...]) -> float:
    """Largest score outside the peak's 3x3x3 box, -inf when no cell lies
    outside: the max over the slabs before and after the box on each axis,
    within the box on the axes before it, which together hold exactly the
    cells outside it."""
    box = tuple(slice(max(0, p - 1), p + 2) for p in peak)
    slabs = [scores[(*box[:ax], outer)] for ax, side in enumerate(box)
             for outer in (slice(0, side.start), slice(side.stop, None))]
    return float(np.max([np.max(slab, initial=-np.inf) for slab in slabs]))


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

    second = _max_outside_neighborhood(holo.scores, peak_idx)
    ratio = math.inf if second <= 0.0 else float(holo.scores[peak_idx]) / second

    errors = (None,) * 4 if truth is None else truth_errors(position, truth)
    return TagEstimate(tag_id, position, ratio, *errors)


def truth_errors(position: Position3D, truth: Position3D) -> tuple[float, float, float, float]:
    """An estimate's (err_x, err_y, err_z, err_combined_yz) against ground
    truth: absolute per-axis errors and the Y/Z distance."""
    err_y, err_z = abs(position.y - truth.y), abs(position.z - truth.z)
    return abs(position.x - truth.x), err_y, err_z, math.hypot(err_y, err_z)


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
    above = holo.scores >= PEAK_THRESHOLD
    cells = np.flatnonzero(above)
    if not cells.size:
        return []
    from scipy import ndimage  # imported here: ~50 ms that scoring alone never needs

    # only the bounding box of the cells above the cut is labelled: it holds every component
    at = np.unravel_index(cells, above.shape)
    box = tuple(slice(i.min(), i.max() + 1) for i in at)
    labels, _ = ndimage.label(above[box], structure=np.ones((3, 3, 3), dtype=int))
    labs = labels[tuple(i - side.start for i, side in zip(at, box))]
    # one sort ranks each component's cells best first; its first cell wins
    order = np.lexsort((cells, -scores[cells], labs))
    best = cells[order][np.diff(labs[order], prepend=0) != 0]
    best = best[np.lexsort((best, -scores[best]))]
    return [(int(c), float(scores[c])) for c in best]


def refine_local(holo: Hologram, stream: SampleStream) -> RefineResult:
    """One level of local refinement around the coarse peak, re-scored
    with the hologram's own method.

    Re-scores the 3x3-cell neighborhood of the peak, clipped to the
    hologram's region, at a tenth of the coarse resolution and returns the
    fine argmax, which by construction stays inside both the coarse cell's
    neighborhood and the region: a peak on a region bound is refined on
    the region's side only, so a mirror twin beyond the bound (which ties
    it exactly when the bound is the track's plane) cannot win.  When the
    coarse peak is not unique (e.g. a flat hologram) the coarse center
    comes back flagged unrefined.
    """
    if holo.method is None:
        raise ValueError("hologram carries no method to refine with")
    flat = int(np.argmax(holo.scores))
    coarse = holo.region.position_at(flat)
    if int((holo.scores >= 1.0 - 1e-12).sum()) != 1:
        return RefineResult(position=coarse, refined=False)

    center = (coarse.x, coarse.y, coarse.z)
    res, bounds = holo.region.resolution, holo.region.bounds
    half = [0.0 if n == 1 else 1.5 * r for r, n in zip(res, holo.region.shape)]
    fine = SearchRegion(  # clipped to the region's bounds
        *((max(c - h, lo), min(c + h, hi)) for c, h, (lo, hi) in zip(center, half, bounds)),
        resolution=tuple(r / 10.0 for r in res),
    )
    fine_holo = evaluate_hologram(stream, fine, holo.method)
    return RefineResult(position=fine.position_at(int(np.argmax(fine_holo.scores))), refined=True)
