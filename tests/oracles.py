"""Independent brute-force oracles used to freeze expected values.

Everything here is plain Python loops over indices, deliberately avoiding
the library's vectorized paths.
"""

import itertools
import math
from fractions import Fraction

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


def fraction_canonical(row):
    """LinearInequality.canonical by Fraction arithmetic alone: scale by the
    positive rational making the coefficients a primitive integer vector."""
    from fractions import Fraction
    from math import gcd

    from bcsi.polytope import LinearInequality

    if not row.coeffs:
        return LinearInequality({}, row.rhs)
    denom_lcm = 1
    for c in row.coeffs.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    g = 0
    for c in row.coeffs.values():
        g = gcd(g, abs(int(c * denom_lcm)))
    scale = Fraction(denom_lcm, g)
    return LinearInequality({v: c * scale for v, c in row.coeffs.items()},
                            row.rhs * float(scale))


def fraction_fme(sys, variables):
    """fme_eliminate(sys, *variables) on dicts of Fractions, one pair at a
    time: the same rows, rhs bits, order and pruning, with no integer
    arrays. The source sets of the rows start afresh in each call."""
    from fractions import Fraction

    from bcsi.errors import GuardError, InputError
    from bcsi.polytope import FME_ROW_CAP, LinearInequality, LinearSystem, _minimal

    if not variables or len(set(variables)) < len(variables):
        raise InputError(f"need distinct variables to eliminate, got {list(variables)}")
    for var in variables:
        if var not in sys.variables:
            raise InputError(f"variable {var!r} not declared")
    names = tuple(sys.variables)
    rows = [(row, (1 << i,)) for i, row in enumerate(sys.inequalities)]
    for step, var in enumerate(variables, 1):
        zero, pos, neg = [], [], []
        for row, src in rows:
            c = row.coeffs.get(var, Fraction(0))
            (pos if c > 0 else neg if c < 0 else zero).append((row, src))
        projected = len(zero) + len(pos) * len(neg)
        if projected > FME_ROW_CAP:
            raise GuardError(f"eliminating {var!r} would create {projected} inequalities")
        out = list(zero)
        for p, p_src in pos:
            for q, q_src in neg:
                alpha, beta = -q.coeffs[var], p.coeffs[var]
                coeffs = {}
                for v, c in p.coeffs.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) + alpha * c
                for v, c in q.coeffs.items():
                    coeffs[v] = coeffs.get(v, Fraction(0)) + beta * c
                coeffs.pop(var, None)
                rhs = float(alpha) * p.rhs + float(beta) * q.rhs
                out.append((LinearInequality(coeffs, rhs),
                            tuple(a | b for a in p_src for b in q_src)))
        merged = {}
        for row, src in out:
            row = fraction_canonical(row)
            k = (row.key(), row.rhs)
            first, pooled = merged.get(k, (row, ()))
            merged[k] = (first, pooled + src)
        rows = []
        for row, src in merged.values():
            src = _minimal(s for s in src if s.bit_count() <= step + 1)
            if src:
                rows.append((row, src))
        names = tuple(v for v in names if v != var)
    return LinearSystem(names, [row for row, _ in rows])


def row_value(row, point):
    """Left side of a LinearInequality at a {variable: value} point."""
    return float(sum(float(c) * point[v] for v, c in row.coeffs.items()))


def contains(region, point):
    """Closure membership of a five-entry rate point: every entry and every
    row's slack at least -1e-9."""
    from bcsi.polytope import MEMBER_TOL, RATE_VARS

    values = {v: float(x) for v, x in zip(RATE_VARS, point)}
    return min(values.values()) >= -MEMBER_TOL and all(
        row_value(r, values) <= r.rhs + MEMBER_TOL for r in region.system.inequalities)


def fix_variables(sys, assignment):
    """sys with the assigned variables' values folded into each rhs."""
    from bcsi.polytope import LinearInequality, LinearSystem

    rows = [LinearInequality({v: c for v, c in r.coeffs.items() if v not in assignment},
                             r.rhs - sum(float(c) * assignment[v]
                                         for v, c in r.coeffs.items() if v in assignment))
            for r in sys.inequalities]
    return LinearSystem(tuple(v for v in sys.variables if v not in assignment), rows)


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
    """Scalar staged grid maximization of f on [lo, hi]: each stage scores
    `points` evenly spaced points of the bracket (both ends included) in
    one call of f, which maps a list of abscissae to their values, moves
    the best point so far only to a strictly better one, taking the points
    in order, and narrows the bracket to it plus and minus one step, clipped
    to [lo, hi]."""
    a, b = lo, hi
    best_t, best_v = lo, -math.inf
    for _ in range(stages):
        ts = [a * (1.0 - k / (points - 1)) + b * (k / (points - 1)) for k in range(points)]
        for t, v in zip(ts, f(ts)):
            if v > best_v:
                best_t, best_v = t, v
        step = (b - a) / (points - 1)
        a, b = max(best_t - step, lo), min(best_t + step, hi)
    return best_t, best_v


def plain_refine(objective, start, budget, sweeps=8):
    """One start at a time: pairwise staged-grid ascent on mass transfers
    (clipped at zero, renormalized), each line search charged one unit of
    the budget, stopping after a sweep without improvement. objective maps
    points (m, n) to their m values; a grid stage is one call, and an
    accepted point is valued afresh."""
    x = np.array(start, dtype=np.float64)
    best = objective(x[None])[0]
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

                def shifted(ts, i=i, j=j):
                    y = np.tile(x, (len(ts), 1))
                    y[:, i] -= ts
                    y[:, j] += ts
                    np.clip(y, 0.0, None, out=y)
                    s = y.sum(axis=1)
                    vals = objective(y / np.where(s > 0, s, 1.0)[:, None])
                    return np.where(s > 0, vals, -math.inf)

                remaining -= 1
                t, val = plain_staged_grid(shifted, lo, hi)
                if val > best + 1e-12:
                    x[i] -= t
                    x[j] += t
                    np.clip(x, 0.0, None, out=x)
                    x /= x.sum()
                    best = objective(x[None])[0]
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


def plain_width(cdf_rows):
    """Random bits per symbol of a draw from the cdf rows: the smallest b
    in (0, 1, 2, 4, 8, 16, 32) with every entry but the last of each row a
    multiple of 2**-b, checked in exact fractions, else 53."""
    entries = [Fraction(float(c)) for row in cdf_rows for c in row[:-1]]
    for b in (0, 1, 2, 4, 8, 16, 32):
        if all((c * 2 ** b).denominator == 1 for c in entries):
            return b
    return 53


def plain_sample_categorical(rng, cdf_rows, rows):
    """One symbol per entry of rows (in C order), each from the cdf row it
    selects, at the width b of plain_width. At b = 53 each symbol counts the
    cdf entries below one rng.random() double. At 1 <= b <= 32 the symbols
    take ceil(N * b / 64) raw outputs and symbol i is field i, (r >> b * j)
    & (2**b - 1) with r output i // (64 / b) and j = i % (64 / b), counted
    against c * 2**b for each cdf entry c at or below it. At b = 0 nothing
    is drawn and the field is 0."""
    rows = np.asarray(rows)
    b = plain_width(cdf_rows)
    idx = np.zeros(rows.shape, dtype=np.int64)
    if b == 53:
        r = rng.random(rows.shape)
        for k in range(cdf_rows.shape[1] - 1):
            idx += cdf_rows[rows, k] < r
        return idx
    scaled = [[int(Fraction(float(c)) * 2 ** b) for c in row[:-1]] for row in cdf_rows]
    per = 64 // b if b else 0
    raw = [int(w) for w in rng.bit_generator.random_raw(-(-rows.size * b // 64))] if b else []
    for i, pos in enumerate(np.ndindex(rows.shape)):
        v = (raw[i // per] >> (b * (i % per))) & ((1 << b) - 1) if b else 0
        idx[pos] = sum(t <= v for t in scaled[rows[pos]])
    return idx


def plain_conditional_cdf(joint, known_cells):
    """Row-wise cdf of p(new | known) from a (known, new) joint, zero rows
    where the known cell has no mass."""
    m = np.asarray(joint).reshape(known_cells, -1)
    totals = m.sum(axis=1, keepdims=True)
    cond = np.zeros_like(m)
    for row in range(known_cells):
        if totals[row, 0] > 0.0:
            cond[row] = m[row] / totals[row]
    return np.cumsum(cond, axis=1)


def plain_generate(cfg, rng):
    """One trial's codebooks as int64 arrays, drawn book by book, each from
    a fresh raw output: cloud words from p(u0), satellite words from
    p(u_k | u0); a trivial satellite alphabet draws nothing."""
    from bcsi.simulator import Codebooks

    aux = cfg.scheme.aux_joint.mass
    a0, a1, a2 = aux.shape
    sz = cfg.sizes()
    n = cfg.n
    base = (sz["m1"], sz["m4"], sz["m5"], sz["m21"], sz["m31"])
    cb0 = plain_sample_categorical(rng, np.cumsum(aux.sum(axis=(1, 2)))[None, :],
                                   np.zeros(base + (n,), dtype=np.int64))
    books = [cb0]
    for a, own, joint in ((a1, ("m22", "l1"), aux.sum(axis=2)),
                          (a2, ("m32", "l2"), aux.sum(axis=1))):
        shape = base + (sz[own[0]], sz[own[1]], n)
        if a == 1:
            books.append(np.zeros(shape, dtype=np.int64))
        else:
            rows = np.broadcast_to(cb0[..., None, None, :], shape)
            books.append(plain_sample_categorical(rng, plain_conditional_cdf(joint, a0), rows))
    return Codebooks(*books)


def plain_classify(messages, passing, msg):
    """Error event of one wrong decision (the decoded messages and the
    passing array of one trial)."""
    truth = tuple(getattr(msg, k) for k in messages)
    others = passing.copy()
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
    seven messages and its channel symbols from the generator (seed, 0,
    trial), at the widths of plain_width, and runs encode and decode calls
    on a batch of that one trial, on int64 books."""
    from bcsi import simulator
    from bcsi.simulator import Msg, SimReport

    tables = simulator.CoderTables(cfg.scheme, ch)
    channel_cdf = np.cumsum(ch.kernel.reshape(ch.x.size, -1), axis=1)
    sz = cfg.sizes()
    fixed_books = None
    if not cfg.fresh_codebooks:
        fixed_books = plain_generate(cfg, np.random.default_rng((cfg.seed, 1)))
    fallbacks = 0
    errors = {1: 0, 2: 0}
    any_errors = 0
    buckets = {rx: {"none_typical": 0, "wrong_satellite": 0, "wrong_cloud": 0, "other": 0}
               for rx in (1, 2)}
    for trial in range(trials):
        rng = np.random.default_rng((cfg.seed, 0, trial))
        books = fixed_books if fixed_books is not None else plain_generate(cfg, rng)
        fields = [int(rng.integers(sz[k])) for k in
                  ("m1", "m4", "m5", "m21", "m31", "m22", "m32")]
        msg, batch = Msg(*fields), Msg(*(np.array([v]) for v in fields))
        x, _, fb = simulator.encode(books, batch, cfg, tables)
        fallbacks += int(fb[0])
        flat = plain_sample_categorical(rng, channel_cdf, x[0])[None]
        results = {1: simulator.decode_rx1(books, flat // ch.y2.size, batch.m5, cfg, tables),
                   2: simulator.decode_rx2(books, flat % ch.y2.size, batch.m4, cfg, tables)}
        failed = False
        for rx, res in results.items():
            decided = {k: int(v[0]) for k, v in res.messages.items()}
            if any(v != getattr(msg, k) for k, v in decided.items()):
                errors[rx] += 1
                buckets[rx][plain_classify(decided, res.passing[0], msg)] += 1
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
        config={"n": cfg.n, "eps_prime": cfg.eps / 2, "eps1": cfg.eps,
                "eps2": cfg.eps, "seed": cfg.seed,
                "fresh_codebooks": cfg.fresh_codebooks},
    )


def hand_written_bin_rate_lp(consts, r1, r2, r3, r4, r5):
    """(A_ub, b_ub) of the bin-rate planner's LP over (rp1, rp2, t), each
    coding condition written out by hand with the private rates split
    evenly: covering rp1 + rp2 >= a, then per receiver its satellite
    packing and its joint packing row."""
    r21, r22 = r2 * 0.5, r2 * (1.0 - 0.5)
    r31, r32 = r3 * 0.5, r3 * (1.0 - 0.5)
    a_ub = np.array([
        [-1.0, -1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0],
    ])
    b_ub = np.array([
        -consts.i_u1_u2_given_u0,
        consts.i_u1_y1_given_u0 - r22,
        consts.i_u0u1_y1 - (r1 + r21 + r31 + r4 + r22),
        consts.i_u2_y2_given_u0 - r32,
        consts.i_u0u2_y2 - (r1 + r21 + r31 + r5 + r32),
    ])
    return a_ub, b_ub


def closed_form_bin_rate_slack(consts, r1, r2, r3, r4, r5):
    """The planner's max slack t without an LP: with d_k the least room of
    receiver k's two packing rows, some rp1 in [0, d1 - t] and rp2 in
    [0, d2 - t] cover rp1 + rp2 >= a + t exactly when t <= d1, t <= d2 and
    t <= (d1 + d2 - a) / 3."""
    r21 = r22 = r2 / 2
    r31 = r32 = r3 / 2
    d1 = min(consts.i_u1_y1_given_u0 - r22, consts.i_u0u1_y1 - (r1 + r21 + r31 + r4 + r22))
    d2 = min(consts.i_u2_y2_given_u0 - r32, consts.i_u0u2_y2 - (r1 + r21 + r31 + r5 + r32))
    return min(d1, d2, (d1 + d2 - consts.i_u1_u2_given_u0) / 3)


def plain_dual_vertices(lhs, weights):
    """The support oracle's dual vertex candidates, one solve per set of m
    planes (y_i = 0 per row, (lhs^T y)_k = w_k per rate), in the order of
    itertools.combinations, singular sets skipped and infeasible vertices
    (an entry below -1e-9) dropped, the rest clipped at 0. weights are
    taken as already scaled."""
    m, n = lhs.shape
    planes = [(np.eye(m)[i], 0.0) for i in range(m)]
    planes += [(lhs[:, k].astype(np.float64), float(weights[k])) for k in range(n)]
    vertices = []
    for combo in itertools.combinations(range(len(planes)), m):
        a = np.stack([planes[i][0] for i in combo])
        c = np.array([planes[i][1] for i in combo])
        try:
            y = np.linalg.solve(a, c)
        except np.linalg.LinAlgError:
            continue
        if (y < -1e-9).any():
            continue
        vertices.append(np.clip(y, 0.0, None))
    return np.stack(vertices)


def plain_choice_loop(rng, slots, size, count):
    """count calls np.sort(rng.choice(slots, size, replace=False)) in a row,
    (count, size)."""
    bars = np.empty((count, size), dtype=np.int64)
    for k in range(count):
        bars[k] = np.sort(rng.choice(slots, size=size, replace=False))
    return bars


def plain_enumerated_map(aux, x_size, score_maps):
    """The t1 map of one joint by enumeration on its support: every map on
    the support cells (0 elsewhere) in lexicographic order, scored in one
    score_maps(aux, maps) call (rows of right-hand sides, value, key sum),
    and the first map of maximal value, then largest key sum, found by a
    scalar scan. Returns (value, gamma, rhs)."""
    support = np.flatnonzero(aux.reshape(-1) > 0.0)
    maps = []
    for digits in itertools.product(range(x_size), repeat=len(support)):
        gamma = np.zeros(aux.size, dtype=np.int64)
        gamma[support] = digits
        maps.append(gamma.reshape(aux.shape))
    scored = score_maps(aux, np.array(maps))
    best = 0
    for i, row in enumerate(scored):
        if (row[-2], row[-1]) > (scored[best, -2], scored[best, -1]):
            best = i
    return float(scored[best, -2]), maps[best], scored[best, :-2]
