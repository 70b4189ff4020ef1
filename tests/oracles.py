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


def plain_feasible(sys):
    """Feasibility by one LP, whatever the rows' signs prove."""
    from bcsi.polytope import maximize

    return maximize(sys, {})[0] == "optimal"


def plain_remove_redundant(sys):
    """Redundancy removal with one LP per row and no LP-free proof: a row
    goes when its left side cannot exceed rhs + 1e-7 over the rows still
    kept, tried in order."""
    from bcsi.polytope import (MEMBER_TOL, REDUNDANCY_TOL, LinearSystem, _dedup,
                               _empty_system, maximize)

    rows = []
    for r in sys.inequalities:
        r = r.canonical()
        if r.is_vacuous():
            if r.rhs < -MEMBER_TOL:
                return _empty_system(sys.variables)
            continue
        rows.append(r)
    rows = _dedup(rows)
    if not plain_feasible(LinearSystem(sys.variables, rows)):
        return _empty_system(sys.variables)
    kept = list(rows)
    i = 0
    while i < len(kept):
        candidate = kept[i]
        rest = kept[:i] + kept[i + 1:]
        status, value, _ = maximize(LinearSystem(sys.variables, rest),
                                    {v: float(c) for v, c in candidate.coeffs.items()})
        if status == "optimal" and value <= candidate.rhs + REDUNDANCY_TOL:
            kept.pop(i)
        else:
            i += 1
    return LinearSystem(sys.variables, kept)


def plain_rows_hold(a, b):
    """Every row of region b holds over region a, by one LP per row."""
    from bcsi.polytope import REDUNDANCY_TOL, maximize

    for ineq in b.system.inequalities:
        if ineq.is_vacuous():
            continue
        status, value, _ = maximize(a.system,
                                    {v: float(c) for v, c in ineq.coeffs.items()})
        if status != "optimal" or value > ineq.rhs + REDUNDANCY_TOL:
            return False
    return True


def plain_region_subset(a, b):
    if not plain_feasible(a.system):
        return True
    return plain_feasible(b.system) and plain_rows_hold(a, b)


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


def plain_staged_grid(f, lo, hi, points=16, stages=5):
    """Scalar staged grid maximization of f on [lo, hi], one point per call:
    each stage tries `points` evenly spaced points of the bracket (both ends
    included), moves the best point so far only to a strictly better one and
    narrows the bracket to it plus and minus one step, clipped to [lo, hi]."""
    a, b = lo, hi
    best_t, best_v = lo, -math.inf
    for _ in range(stages):
        for k in range(points):
            w = k / (points - 1)
            t = a * (1.0 - w) + b * w
            v = f(t)
            if v > best_v:
                best_t, best_v = t, v
        step = (b - a) / (points - 1)
        a, b = max(best_t - step, lo), min(best_t + step, hi)
    return best_t, best_v


def plain_refine(objective, start, budget, sweeps=8):
    """One start at a time: pairwise staged-grid ascent on mass transfers
    (clipped at zero, renormalized), each line search charged one unit of
    the budget, stopping after a sweep without improvement. An accepted
    point is valued afresh."""
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

                remaining -= 1
                t, val = plain_staged_grid(shifted, lo, hi)
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


def plain_greedy_gamma(aux, x_size, value):
    """The t1 greedy map search as a scalar loop, one map per value call:
    from the all-zero map, up to three passes over the support cells, each
    symbol tried in turn and kept only on a strict improvement. value(aux,
    gamma) is the support value of one map. Returns (value, gamma), gamma
    None when the value is -inf."""
    support = np.flatnonzero(aux.reshape(-1) > 0.0)
    gamma = np.zeros(aux.shape, dtype=np.int64)
    flat = gamma.reshape(-1)
    best = value(aux, gamma)
    for _ in range(3):
        changed = False
        for cell, x in itertools.product(support, range(x_size)):
            old = flat[cell]
            if x == old:
                continue
            flat[cell] = x
            val = value(aux, gamma)
            if val > best:
                best, changed = val, True
            else:
                flat[cell] = old
        if not changed:
            break
    return (float(best), gamma) if best > -math.inf else (-math.inf, None)


def plain_sample_categorical(rng, cdf_rows, rows):
    """Inverse-cdf draw, one uniform per entry of rows, counted column by
    column against the cdf row each entry selects."""
    r = rng.random(rows.shape)
    idx = np.zeros(r.shape, dtype=np.int64)
    for k in range(cdf_rows.shape[1] - 1):
        idx += cdf_rows[rows, k] < r
    return idx


def plain_generate(cfg, tables, rng):
    """One trial's codebooks as int64 arrays, drawn book by book: cloud
    words from p(u0), satellite words from p(u_k | u0); a trivial satellite
    alphabet draws nothing."""
    from bcsi.simulator import Codebooks

    sz = cfg.sizes()
    n = cfg.n
    base = (sz["m1"], sz["m4"], sz["m5"], sz["m21"], sz["m31"])
    _, a1, a2 = tables.sizes
    cb0 = plain_sample_categorical(rng, np.cumsum(tables.p_u0)[None, :],
                                   np.zeros(base + (n,), dtype=np.int64))
    if a1 == 1:
        cb1 = np.zeros(base + (sz["m22"], sz["l1"], n), dtype=np.int64)
    else:
        cb0_b1 = np.broadcast_to(cb0[..., None, None, :], base + (sz["m22"], sz["l1"], n))
        cb1 = plain_sample_categorical(rng, np.cumsum(tables.t_u1, axis=1), cb0_b1)
    if a2 == 1:
        cb2 = np.zeros(base + (sz["m32"], sz["l2"], n), dtype=np.int64)
    else:
        cb0_b2 = np.broadcast_to(cb0[..., None, None, :], base + (sz["m32"], sz["l2"], n))
        cb2 = plain_sample_categorical(rng, np.cumsum(tables.t_u2, axis=1), cb0_b2)
    return Codebooks(cb0, cb1, cb2)


def plain_classify(result, msg):
    """Error event of one wrong decision, one trial at a time."""
    truth = tuple(getattr(msg, k) for k in result.messages)
    others = result.passing.copy()
    others[truth] = False
    if np.delete(others, truth[0], axis=0).any():
        return "wrong_cloud"
    if others[truth[:3]].any():
        return "wrong_satellite"
    if others.any():
        return "other"
    return "none_typical"


def plain_estimate_error(ch, cfg, trials, progress=None):
    """The simulator one trial at a time: each trial draws its books, all
    seven messages and its channel uniforms from the generator (seed, 0,
    trial) and runs single encode and decode calls on int64 books."""
    from bcsi import simulator
    from bcsi.simulator import Msg, SimReport

    tables = simulator._Tables(cfg.scheme, ch)
    sz = cfg.sizes()
    fixed_books = None
    if not cfg.fresh_codebooks:
        fixed_books = plain_generate(cfg, tables, np.random.default_rng((cfg.seed, 1)))
    fallbacks = 0
    errors = {1: 0, 2: 0}
    any_errors = 0
    buckets = {rx: {"none_typical": 0, "wrong_satellite": 0, "wrong_cloud": 0, "other": 0}
               for rx in (1, 2)}
    for trial in range(trials):
        rng = np.random.default_rng((cfg.seed, 0, trial))
        books = fixed_books if fixed_books is not None else plain_generate(cfg, tables, rng)
        msg = Msg(*(int(rng.integers(sz[k])) for k in
                    ("m1", "m4", "m5", "m21", "m31", "m22", "m32")))
        x, _, fb = simulator.encode(books, msg, cfg, tables)
        fallbacks += int(fb)
        flat = plain_sample_categorical(rng, tables.channel_cdf, x)
        results = {1: simulator.decode_rx1(books, flat // ch.y2.size, msg.m5, cfg, tables),
                   2: simulator.decode_rx2(books, flat % ch.y2.size, msg.m4, cfg, tables)}
        failed = False
        for rx, res in results.items():
            if any(v != getattr(msg, k) for k, v in res.messages.items()):
                errors[rx] += 1
                buckets[rx][plain_classify(res, msg)] += 1
                failed = True
        any_errors += int(failed)
        if progress is not None and (trial + 1) % 100 == 0:
            progress(trial + 1, any_errors)
    pe = any_errors / trials
    half = simulator._wilson_half_width(pe, trials)
    r = cfg.rates
    nominal = {k: getattr(r, k) for k in simulator.RATE_NAMES}
    return SimReport(
        trials=trials,
        encoder_fallbacks=fallbacks,
        rx1_errors=errors[1],
        rx2_errors=errors[2],
        rx1_events=buckets[1],
        rx2_events=buckets[2],
        pe_estimate=pe,
        pe_half_width_95=half,
        sizes=sz,
        nominal_rates=nominal,
        realized_rates=cfg.realized_rates(),
        config={"n": cfg.n, "eps_prime": cfg.eps_prime, "eps1": cfg.eps1,
                "eps2": cfg.eps2, "seed": cfg.seed,
                "fresh_codebooks": cfg.fresh_codebooks},
    )
