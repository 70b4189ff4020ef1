"""Independent brute-force oracles used to freeze expected values.

Everything here is plain Python loops over indices, deliberately avoiding
the library's vectorized paths.
"""

import itertools
import math

import numpy as np


def brute_marginal(mass, shape, keep):
    """Marginal over the kept axes (sorted), as a nested dict index -> mass."""
    keep = sorted(keep)
    out = {}
    for idx in itertools.product(*(range(s) for s in shape)):
        key = tuple(idx[i] for i in keep)
        out[key] = out.get(key, 0.0) + float(mass[idx])
    return out


def brute_entropy_of(table):
    total = 0.0
    for v in table.values():
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def brute_group_entropy(mass, shape, axes):
    return brute_entropy_of(brute_marginal(mass, shape, axes))


def brute_mi(mass, shape, group_a, group_b):
    ha = brute_group_entropy(mass, shape, group_a)
    hb = brute_group_entropy(mass, shape, group_b)
    hab = brute_group_entropy(mass, shape, sorted(set(group_a) | set(group_b)))
    return ha + hb - hab


def brute_cmi(mass, shape, group_a, group_b, group_c):
    """I(A;B|C) = H(A,C) + H(B,C) - H(C) - H(A,B,C), all by loops."""
    a = set(group_a)
    b = set(group_b)
    c = set(group_c)
    hac = brute_group_entropy(mass, shape, sorted(a | c))
    hbc = brute_group_entropy(mass, shape, sorted(b | c))
    hc = brute_group_entropy(mass, shape, sorted(c)) if c else 0.0
    habc = brute_group_entropy(mass, shape, sorted(a | b | c))
    return hac + hbc - hc - habc


def binary_entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def lift_exists_interval(rows, var_idx, point):
    """For a system of rows (coeffs list, rhs) over variables where point
    fixes all but var_idx: is there a real value for the free variable
    satisfying every row? Exact one-variable interval reasoning."""
    lo, hi = -math.inf, math.inf
    for coeffs, rhs in rows:
        c = coeffs[var_idx]
        rest = sum(coeffs[k] * point[k] for k in range(len(point)) if k != var_idx)
        if c > 0:
            hi = min(hi, (rhs - rest) / c)
        elif c < 0:
            lo = max(lo, (rhs - rest) / c)
        else:
            if rest > rhs + 1e-9:
                return False
    return lo <= hi + 1e-9


def brute_conditionally_typical(known_seq, new_seq, table, eps):
    """One candidate, one cell at a time: the count of each (known, new)
    cell must lie within eps * target + 1e-9 of target = count(known) *
    table[known, new], and cells with table entry 0 must stay empty."""
    kc, nc = table.shape
    counts = np.zeros((kc, nc), dtype=np.int64)
    np.add.at(counts, (np.asarray(known_seq), np.asarray(new_seq)), 1)
    for a in range(kc):
        known = int(counts[a].sum())
        for b in range(nc):
            c = int(counts[a, b])
            if table[a, b] <= 0.0 and c > 0:
                return False
            target = known * table[a, b]
            if abs(c - target) > eps * target + 1e-9:
                return False
    return True


def plain_fme(rows, var_indices):
    """Project out the variables at var_indices, in order, by pairing every
    row positive on the variable with every row negative on it: no
    canonical form, no merging, no pruning. Rows are (coeffs list, rhs)
    with exact rational coefficients; an eliminated column stays as 0."""
    for j in var_indices:
        out = [(coeffs, rhs) for coeffs, rhs in rows if coeffs[j] == 0]
        for cp, bp in rows:
            if cp[j] <= 0:
                continue
            for cq, bq in rows:
                if cq[j] >= 0:
                    continue
                alpha, beta = -cq[j], cp[j]
                coeffs = [alpha * a + beta * b for a, b in zip(cp, cq)]
                out.append((coeffs, float(alpha) * bp + float(beta) * bq))
        rows = out
    return rows


def plain_lattice_points(parts, resolution):
    """Every composition of `resolution` into `parts` nonnegative parts, by
    recursion, first part slowest, as pmfs."""
    def rec(prefix, remaining, slots):
        if slots == 1:
            yield prefix + [remaining]
            return
        for k in range(remaining + 1):
            yield from rec(prefix + [k], remaining - k, slots - 1)

    return [np.asarray(c, dtype=np.float64) / resolution for c in rec([], resolution, parts)]


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def plain_golden(f, lo, hi, iters=20):
    """Scalar golden-section maximization of f on [lo, hi]."""
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


def plain_refine(objective, start, budget, sweeps=8, iters=20):
    """One start at a time: pairwise golden-section ascent on mass transfers
    (clipped at zero, renormalized), each line search charged iters + 1
    evaluations, stopping after a sweep without improvement."""
    x = np.array(start, dtype=np.float64)
    best = objective(x)
    n = len(x)
    remaining = budget
    for _ in range(sweeps):
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

                remaining -= iters + 1
                t, val = plain_golden(shifted, lo, hi, iters)
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


def pareto_gamma_pick(aux, x_size, rows_and_key, value):
    """The t1 map choice by full enumeration: every map over all cells in
    lexicographic order, the entries not dominated componentwise in their
    key (sorted by decreasing key sum, the first of equal keys kept), then
    the first front entry of maximal value. Returns (value, gamma), gamma
    None when every value is -inf."""
    entries = []
    for flat in itertools.product(range(x_size), repeat=aux.size):
        gamma = np.asarray(flat, dtype=np.int64).reshape(aux.shape)
        rhs, key = rows_and_key(aux, gamma)
        entries.append((tuple(float(k) for k in key), (rhs, gamma)))
    front = []
    for key, payload in sorted(entries, key=lambda e: -sum(e[0])):
        if not any(all(f[i] >= key[i] for i in range(4)) for f, _ in front):
            front.append((key, payload))
    best_val, best_gamma = -math.inf, None
    for _, (rhs, gamma) in front:
        val = value(rhs)
        if val > best_val:
            best_val, best_gamma = val, gamma
    return best_val, best_gamma
