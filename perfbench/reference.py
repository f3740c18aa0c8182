"""Plain-numpy reference scorer for the seven phaseloc methods.

Written from the per-pair formulas in the package README, without calling
the package's kernels, so the benchmark can check the estimates it times.
Every differential method uses the default scheme ``reference:0``: pair k
compares read k+1 with read 0.  The residual of a pair is

    r = (phi_a - phi_0) - 4*pi*(d_a - d_0)/lambda

and the methods score a candidate cell by summing, over the pairs:

    nlf      -(dphi_m - dphi_d)^2, dphi_d the geometric difference folded
             into [0, 2*pi) or [-2*pi, 0), whichever is nearer dphi_m
    clf      cos r
    slf      -sin(r)^2
    wclf     |cos r| * cos r
    wslf     exp(-sin(r)^2) * (-sin(r)^2)
    tagoram  erfc(|w| / (sigma*sqrt 2)) * cos w, w = r wrapped to (-pi, pi]

while sarfid is the coherent-sum magnitude |sum_n e^{j(phi_n - 4*pi*d_n/lambda)}| / N.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

METHODS = ("nlf", "clf", "slf", "wclf", "wslf", "sarfid", "tagoram")

# Number of (cells x terms) float64 arrays each formula above materializes;
# kernel.<method>.bytes_computed is 8 bytes times this times cells x terms.
FORMULA_ARRAYS = {
    "nlf": 5,  # geometric difference, fold, residual, other-branch residual, square
    "clf": 3,  # geometric difference, residual, cosine
    "slf": 4,  # geometric difference, residual, sine, square
    "wclf": 5,  # clf arrays plus weight and product
    "wslf": 6,  # slf arrays plus weight and product
    "sarfid": 3,  # phase, cosine, sine
    "tagoram": 6,  # geometric difference, residual, wrap, weight, cosine, product
}

# Tagoram's sigma: the sigma(d) noise model at the stock 1.4 m standoff.
TAGORAM_SIGMA = 0.006 * 1.4 + 0.0084

_CHUNK_CELLS = 20_000  # bounds the reference's own working set to ~20 MB per array


def terms_per_cell(method: str, n_reads: int) -> int:
    """Terms summed per cell: N-1 pairs for the differential methods, N reads for sarfid."""
    return n_reads if method == "sarfid" else n_reads - 1


def _score_block(method: str, phases: np.ndarray, dists: np.ndarray, wavelength: float) -> np.ndarray:
    k = 4.0 * math.pi / wavelength
    if method == "sarfid":
        arg = phases[None, :] - k * dists
        return np.hypot(np.cos(arg).sum(axis=1), np.sin(arg).sum(axis=1)) / phases.shape[0]
    dphi_m = phases[1:] - phases[0]
    dphi_geo = k * (dists[:, 1:] - dists[:, :1])
    if method == "nlf":
        fold = np.mod(dphi_geo, 2.0 * math.pi)
        res_hi = dphi_m[None, :] - fold
        res_lo = res_hi + 2.0 * math.pi
        res = np.where(np.abs(res_hi) <= np.abs(res_lo), res_hi, res_lo)
        return -(res * res).sum(axis=1)
    r = dphi_m[None, :] - dphi_geo
    if method == "clf":
        return np.cos(r).sum(axis=1)
    if method == "wclf":
        c = np.cos(r)
        return (np.abs(c) * c).sum(axis=1)
    if method == "slf":
        return (-np.sin(r) ** 2).sum(axis=1)
    if method == "wslf":
        s2 = np.sin(r) ** 2
        return (np.exp(-s2) * -s2).sum(axis=1)
    if method == "tagoram":
        w = np.angle(np.exp(1j * r))
        return (erfc(np.abs(w) / (TAGORAM_SIGMA * math.sqrt(2.0))) * np.cos(w)).sum(axis=1)
    raise ValueError(f"unknown method {method!r}")


def reference_scores(
    method: str,
    phases: np.ndarray,
    poses: np.ndarray,
    cells: np.ndarray,
    wavelength: float,
) -> np.ndarray:
    """Raw score of every cell (rows of ``cells``) for one phase stream."""
    phases = np.asarray(phases, dtype=float)
    out = np.empty(cells.shape[0])
    for lo in range(0, cells.shape[0], _CHUNK_CELLS):
        block = cells[lo:lo + _CHUNK_CELLS]
        dists = np.sqrt(((block[:, None, :] - poses[None, :, :]) ** 2).sum(axis=2))
        out[lo:lo + _CHUNK_CELLS] = _score_block(method, phases, dists, wavelength)
    return out


def argmax_agrees(scores: np.ndarray, chosen: int, rel_tol: float = 1e-12) -> bool:
    """True when cell ``chosen`` is the reference argmax or ties it within rel_tol."""
    best = int(np.argmax(scores))
    if chosen == best:
        return True
    top = float(scores[best])
    return float(scores[chosen]) >= top - rel_tol * max(abs(top), 1.0)
