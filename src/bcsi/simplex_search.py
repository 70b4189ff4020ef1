"""Lattice enumeration and local search on probability simplices.

Shared between the classifier (grid + descent over input distributions) and
the optimizer (grid + refinement over auxiliary joints): both sweep a
lattice and then polish its best points with the one budgeted pairwise
refiner, refine_on_simplex, whose line searches score a grid of transfers
per call and shrink it in stages. A lattice too large to enumerate is
sampled: each point is the sorted Generator.choice of its stars-and-bars
positions, and a whole sample is drawn in one block of the stream by
replaying choice, with the same points and the same final stream state as
one call per point.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

GRID_POINTS = 16  # transfers scored per line-search stage, both ends included
GRID_STAGES = 5  # stages per line search: a final bracket of span * (2/15)**5
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
    """Uniform seeded sample of lattice pmfs (count, parts): row k holds the
    stars-and-bars positions np.sort(rng.choice(slots, parts - 1,
    replace=False)) of the k-th of count choice calls in a row, drawn in one
    block by _replay_choice where it applies and one call at a time
    otherwise. Either way rng ends in the same state."""
    slots = resolution + parts - 1
    bars = _replay_choice(rng, slots, parts - 1, count)
    if bars is None:
        bars = np.empty((count, parts - 1), dtype=np.int64)
        for k in range(count):
            bars[k] = np.sort(rng.choice(slots, size=parts - 1, replace=False))
    return _from_bars(bars, resolution)


_LOW = np.uint64(0xFFFFFFFF)


def _replay_choice(rng: np.random.Generator, slots: int, size: int, count: int):
    """count calls np.sort(rng.choice(slots, size, replace=False)) replayed
    from one random_raw block, (count, size), or None with rng untouched
    where the replay does not apply.

    For a PCG64 stream, choice without replacement is Floyd's algorithm:
    for j = slots - size .. slots - 1 it draws t uniform on [0, j] and
    keeps t, or j if t is already kept; then it shuffles the kept values,
    which the sort undoes but whose size - 1 draws (bounds size - 1 .. 1)
    still use the stream. Each bounded draw is Lemire's: one 32-bit
    half-word w (the low half of a raw output first, the high half held for
    the next draw) gives (w * (j + 1)) >> 32, and draws again when the low
    32 bits of the product are below 2**32 mod (j + 1). Every call thus
    uses 2 * size - 1 half-words unless a draw rejects; a rejection, which
    is detected exactly, falls back to the loop, and so do numpy's other
    paths: the tail shuffle (slots > 10000 and size > slots // 50), bounds
    of 2**32 and above, and draws on [0, 0], which use no half-word."""
    bg = rng.bit_generator
    per = 2 * size - 1
    if (type(bg) is not np.random.PCG64 or size < 1 or count < 1 or slots - size < 1
            or slots >= 2 ** 32 or (slots > 10000 and size > slots // 50)):
        return None
    state = bg.state
    held = state["has_uint32"]
    need = count * per - held  # half-words past the held one
    raw = bg.random_raw((need + 1) // 2)
    words = np.stack([raw & _LOW, raw >> np.uint64(32)], axis=1).reshape(-1)
    if held:
        words = np.concatenate([np.array([state["uinteger"]], dtype=np.uint64), words])
    bound = np.concatenate([np.arange(slots - size, slots),
                            np.arange(size - 1, 0, -1)]).astype(np.uint64) + np.uint64(1)
    product = words[:count * per].reshape(count, per) * bound
    if ((product & _LOW) < np.uint64(2 ** 32) % bound).any():
        bg.state = state
        return None
    # leave the stream as the loop would: the last raw output's high half
    # held if it is unused, and stored either way
    after = bg.state
    after["has_uint32"] = need % 2
    if len(raw):
        after["uinteger"] = int(raw[-1] >> np.uint64(32))
    bg.state = after
    draws = (product[:, :size] >> np.uint64(32)).astype(np.int64)
    kept = np.empty((count, size), dtype=np.int64)
    for s in range(size):
        t = draws[:, s]
        kept[:, s] = np.where((kept[:, :s] == t[:, None]).any(axis=1), slots - size + s, t)
    return np.sort(kept, axis=1)


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


def grid_max_1d(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
                hi: np.ndarray) -> tuple:
    """Staged grid maximization of f on [lo, hi], elementwise over arrays of
    intervals: f maps abscissae (m, GRID_POINTS) to their values. Each of
    GRID_STAGES stages scores GRID_POINTS evenly spaced points of every
    bracket, both ends included, in one call of f; the best point so far
    moves only to a strictly better one (so the first maximum wins ties),
    and the bracket shrinks to it plus and minus one step, within [lo, hi].
    Returns the best points scored and their values."""
    a, b = lo, hi
    w = np.arange(GRID_POINTS) / (GRID_POINTS - 1)
    at = np.arange(len(lo))
    x, best = lo, np.full(len(lo), -np.inf)
    for _ in range(GRID_STAGES):
        t = a[:, None] * (1.0 - w) + b[:, None] * w  # exact ends: a and b
        vals = f(t)
        top = np.argmax(vals, axis=1)
        up = vals[at, top] > best
        x, best = np.where(up, t[at, top], x), np.where(up, vals[at, top], best)
        step = (b - a) / (GRID_POINTS - 1)
        a, b = np.maximum(x - step, lo), np.minimum(x + step, hi)
    return x, best


def refine_on_simplex(objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      starts: np.ndarray, budget: int) -> tuple:
    """Coordinate-pair local ascent from each row of starts (k, n), within a
    budget of line searches per start: a staged grid search (grid_max_1d) on
    mass transfers t in [-x_j, x_i] between every pair of cells (the shifted
    point clipped at zero and renormalized), at most MAX_SWEEPS sweeps,
    stopping early after a sweep without improvement. objective(points,
    which) values each row of points on its own; which[r] is the start that
    row belongs to.

    The starts advance together: each keeps its own cursor over (sweep,
    pair), and every round runs one line search for every live start, which
    is GRID_STAGES objective calls, so each start ends where refining it
    alone would. An accepted point is the grid point already scored, so its
    value is the grid value. Returns (points, values). Deterministic given
    (starts, budget).
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
                    remaining[r] -= 1
                    rows.append(r)
                    pair.append((i, j))
                    break
        if not rows:
            return x, best
        live = rows
        rows = np.asarray(rows)
        i, j = np.asarray(pair).T
        which = np.repeat(rows, GRID_POINTS)
        at = np.arange(len(which))
        cell_i, cell_j = np.repeat(i, GRID_POINTS), np.repeat(j, GRID_POINTS)

        def shifted(t):
            y = x[which]
            y[at, cell_i] -= t.ravel()
            y[at, cell_j] += t.ravel()
            np.clip(y, 0.0, None, out=y)
            return objective(y / y.sum(axis=1)[:, None], which).reshape(t.shape)

        t, val = grid_max_1d(shifted, -x[rows, j], x[rows, i])
        up = val > best[rows] + 1e-12
        r = rows[up]
        if len(r):
            x[r, i[up]] -= t[up]
            x[r, j[up]] += t[up]
            y = np.clip(x[r], 0.0, None)
            x[r] = y / y.sum(axis=1)[:, None]
            best[r] = val[up]
            improved[r] = True
