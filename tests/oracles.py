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
