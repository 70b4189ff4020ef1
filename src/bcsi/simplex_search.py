"""Lattice enumeration and local search on probability simplices.

Shared between the classifier (grid + descent over input distributions) and
the optimizer (grid + refinement over auxiliary joints): both sweep a
lattice and then polish its best points with the one budgeted pairwise
golden-section refiner, refine_on_simplex.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 20
MAX_SWEEPS = 8
CHUNK = 64  # candidates scored per batched call


def lattice_count(parts: int, resolution: int) -> int:
    """Number of compositions of `resolution` into `parts` nonnegative parts."""
    return math.comb(resolution + parts - 1, parts - 1)


def lattice_points(parts: int, resolution: int) -> np.ndarray:
    """All pmfs on `parts` cells with masses k/resolution, (N, parts), in
    lexicographic order of the mass vectors."""
    count = lattice_count(parts, resolution)
    bars = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations(range(resolution + parts - 1), parts - 1)), dtype=np.int64,
        count=count * (parts - 1))
    return _from_bars(bars.reshape(count, parts - 1), resolution)


def sample_lattice(rng: np.random.Generator, parts: int, resolution: int,
                   count: int) -> np.ndarray:
    """Uniform seeded sample of lattice pmfs (count, parts) (stars-and-bars
    positions)."""
    bars = np.empty((count, parts - 1), dtype=np.int64)
    for k in range(count):
        bars[k] = np.sort(rng.choice(resolution + parts - 1, size=parts - 1, replace=False))
    return _from_bars(bars, resolution)


def lattice_or_sample(parts: int, resolution: int, cap: int, sample: int, seed) -> np.ndarray:
    """Every lattice pmf when there are at most `cap` of them, else `sample`
    of them drawn by sample_lattice from the stream default_rng(seed)."""
    if lattice_count(parts, resolution) <= cap:
        return lattice_points(parts, resolution)
    return sample_lattice(np.random.default_rng(seed), parts, resolution, sample)


def _from_bars(bars: np.ndarray, resolution: int) -> np.ndarray:
    """Pmfs (N, parts) from sorted stars-and-bars positions (N, parts - 1)."""
    slots = resolution + bars.shape[1]
    return (np.diff(bars, axis=1, prepend=-1, append=slots) - 1) / resolution


def in_chunks(score: Callable[[np.ndarray], np.ndarray], points: np.ndarray) -> np.ndarray:
    """score over the rows of points, CHUNK rows per call."""
    return np.concatenate([score(points[s:s + CHUNK]) for s in range(0, len(points), CHUNK)])


def golden_max_1d(f: Callable[[np.ndarray], np.ndarray], lo, hi,
                  iters: int = GOLDEN_ITERS) -> tuple:
    """Golden-section maximization of f on [lo, hi], elementwise over arrays
    of intervals: f maps an array of abscissae to the values, one per
    interval."""
    a, b = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    x = (a + b) / 2.0
    return x, f(x)


def refine_on_simplex(objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      starts: np.ndarray, budget: int) -> tuple:
    """Coordinate-pair local ascent from each row of starts (k, n), within an
    evaluation budget per start: golden-section on mass transfers between
    every pair of cells (the shifted point clipped at zero and renormalized),
    at most MAX_SWEEPS sweeps, stopping early after a sweep without
    improvement. Each line search costs GOLDEN_ITERS + 1 evaluations of the
    budget. objective(points, which) values each row of points on its own;
    which[r] is the start that row belongs to.

    The starts advance together: each keeps its own cursor over (sweep,
    pair), and every round runs one line search for every live start, so
    each start ends where refining it alone would. Returns (points, values).
    Deterministic given (starts, budget).
    """
    x = np.array(starts, dtype=np.float64)
    k, n = x.shape
    best = objective(x, np.arange(k))
    pairs = list(itertools.combinations(range(n), 2))
    remaining = [budget] * k
    sweep, pos, improved = [0] * k, [0] * k, np.zeros(k, dtype=bool)
    live = range(k)
    while True:
        rows, pair = [], []
        for r in live:
            while True:
                if pos[r] == len(pairs):  # end of a sweep
                    if not improved[r] or sweep[r] + 1 == MAX_SWEEPS:
                        break
                    sweep[r], pos[r], improved[r] = sweep[r] + 1, 0, False
                    continue
                if remaining[r] <= 0:
                    break
                i, j = pairs[pos[r]]
                pos[r] += 1
                if x[r, i] - (-x[r, j]) >= 1e-12:  # the span of t in [-x_j, x_i]
                    remaining[r] -= GOLDEN_ITERS + 1
                    rows.append(r)
                    pair.append((i, j))
                    break
        if not rows:
            return x, best
        live = rows
        rows = np.asarray(rows)
        i, j = np.asarray(pair).T
        at = np.arange(len(rows))

        def shifted(t):
            y = x[rows]
            y[at, i] -= t
            y[at, j] += t
            np.clip(y, 0.0, None, out=y)
            return objective(y / y.sum(axis=1)[:, None], rows)

        t, val = golden_max_1d(shifted, -x[rows, j], x[rows, i])
        up = val > best[rows] + 1e-12
        r = rows[up]
        if len(r):
            x[r, i[up]] -= t[up]
            x[r, j[up]] += t[up]
            y = np.clip(x[r], 0.0, None)
            x[r] = y / y.sum(axis=1)[:, None]
            best[r] = objective(x[r], r)
            improved[r] = True
