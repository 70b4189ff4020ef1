"""Lattice enumeration and local search on probability simplices.

Shared between the classifier (grid + descent over input distributions) and
the optimizer (grid + refinement over auxiliary joints): both sweep a
lattice and then polish its best points with the one budgeted pairwise
golden-section refiner, refine_on_simplex.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ITERS = 20
MAX_SWEEPS = 8


def lattice_count(parts: int, resolution: int) -> int:
    """Number of compositions of `resolution` into `parts` nonnegative parts."""
    return math.comb(resolution + parts - 1, parts - 1)


def lattice_points(parts: int, resolution: int) -> Iterator[np.ndarray]:
    """All pmfs on `parts` cells with masses k/resolution, in a fixed order."""

    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    for combo in rec([], resolution, parts):
        yield np.asarray(combo, dtype=np.float64) / resolution


def sample_lattice(rng: np.random.Generator, parts: int, resolution: int,
                   count: int) -> list:
    """Uniform seeded sample of lattice pmfs (stars-and-bars positions)."""
    out = []
    slots = resolution + parts - 1
    for _ in range(count):
        bars = np.sort(rng.choice(slots, size=parts - 1, replace=False))
        prev = -1
        masses = []
        for b in bars:
            masses.append(b - prev - 1)
            prev = b
        masses.append(slots - 1 - prev)
        out.append(np.asarray(masses, dtype=np.float64) / resolution)
    return out


def golden_max_1d(f: Callable[[float], float], lo: float, hi: float,
                  iters: int = GOLDEN_ITERS) -> tuple:
    """Golden-section maximization of f on [lo, hi]."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def refine_on_simplex(objective: Callable[[np.ndarray], float], start: np.ndarray,
                      budget: int) -> tuple:
    """Coordinate-pair local ascent within an evaluation budget: golden-section
    on mass transfers between every pair of cells (the shifted point clipped
    at zero and renormalized), at most MAX_SWEEPS sweeps, stopping early after
    a sweep without improvement. Each line search costs GOLDEN_ITERS + 1
    evaluations of the budget.

    Returns (point, value). Deterministic given (start, budget).
    """
    x = np.array(start, dtype=np.float64)
    best = objective(x)
    n = len(x)
    remaining = budget
    for _ in range(MAX_SWEEPS):
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                if remaining <= 0:
                    return x, best
                lo, hi = -x[j], x[i]
                if hi - lo < 1e-12:
                    continue

                def shifted(t, i=i, j=j):
                    y = x.copy()
                    y[i] -= t
                    y[j] += t
                    np.clip(y, 0.0, None, out=y)
                    s = y.sum()
                    if s <= 0:
                        return -math.inf
                    return objective(y / s)

                remaining -= GOLDEN_ITERS + 1
                t, val = golden_max_1d(shifted, lo, hi)
                if val > best + 1e-12:
                    x[i] -= t
                    x[j] += t
                    np.clip(x, 0.0, None, out=x)
                    x /= x.sum()
                    best = objective(x)
                    improved = True
        if not improved:
            break
    return x, best
