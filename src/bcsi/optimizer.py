"""Search over auxiliary distributions to approximate the union regions.

The reported unions are inner approximations: a multistart search over a
coarse simplex lattice followed by golden-section refinement on pairwise
mass transfers. To make "more resolution never hurts" hold exactly, the
sweep is cumulative: a search at resolution r walks the lattices of every
level 2..r, with oversized levels subsampled through a per-level seeded
stream, so the candidate set at r is a superset of the one at r-1 for the
same seed. Refinement starts (each level's best point plus the seeded
restart points) each get their own budget and advance together through one
batched refiner, ending where refining each alone would, which keeps them
nested across resolutions too.

Candidates are scored in batched calls of at most CHUNK rows. Ties between
candidates resolve to the earliest point in sweep order, which is a fixed
lexicographic enumeration.

The support value max w . R over one candidate's region is evaluated by a
parametric dual oracle: with the inequality left-hand sides and the weights
fixed, the dual feasible complex is enumerated once and each candidate costs
a matrix-vector product instead of an LP solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classifier import is_deterministic
from .errors import InputError
from .polytope import RATE_VARS, RateRegion
from .probability import Alphabet, AuxScheme, Channel, JointPmf
from .rate_regions import (_LHS3, _LHS5, _t1_rows, _t2_rows, _t3_rows, deterministic_region,
                           marton_region, more_capable_region, specialize_scheme)
from .simplex_search import (CHUNK, in_chunks, lattice_count, lattice_points, refine_on_simplex,
                             sample_lattice)

THEOREMS = ("t1", "t2", "t3")
PER_LEVEL_CAP = 1200
GAMMA_EXHAUSTIVE_CELLS = 12   # exhaustive gamma search below this, and |X| <= 4
GAMMA_EXHAUSTIVE_XMAX = 4
BOX_HI = 64.0

@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the union search. aux_sizes caps (|U0|, |U1|, |U2|) for the
    general bound; the first entry is the |U| cap for the t2/t3 formulas.
    max_iters is the per-start refinement evaluation budget."""

    aux_sizes: tuple | None = None
    grid_resolution: int = 5
    restarts: int = 2
    seed: int = 0
    max_iters: int = 2500

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise InputError("grid_resolution must be at least 2")
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")
        if self.aux_sizes is not None:
            sizes = tuple(int(s) for s in self.aux_sizes)
            if len(sizes) != 3 or any(s < 1 for s in sizes):
                raise InputError("aux_sizes must be three positive integers")
            object.__setattr__(self, "aux_sizes", sizes)


@dataclass
class SearchResult:
    theorem: str
    value: float
    weights: tuple
    scheme: AuxScheme
    p_ux: JointPmf | None  # the searched p(u, x) for t2/t3


def default_aux_sizes(theorem: str, x_size: int) -> tuple:
    if theorem == "t1":
        return (x_size + 1, x_size, x_size)
    return (x_size + 1, 1, 1)


class _SupportOracle:
    """Parametric solver for value(b) = max w . R s.t. lhs R <= b,
    0 <= R <= BOX_HI, as a function of the right-hand side b.

    By LP duality, value(b) = min_{y >= 0} [b . y + BOX_HI * sum_k
    max(0, w_k - (lhs^T y)_k)], a convex piecewise-linear function whose
    minimum sits on a vertex of the fixed complex cut out by {y_i = 0} and
    {(lhs^T y)_k = w_k}. Those vertices are enumerated once; evaluating any b
    is then a matrix-vector product. Negative b entries mean the region is
    empty (coefficients and rates are nonnegative).
    """

    def __init__(self, lhs: np.ndarray, weights: np.ndarray):
        m, n = lhs.shape
        planes = []  # rows (a, c) of a . y = c
        for i in range(m):
            e = np.zeros(m)
            e[i] = 1.0
            planes.append((e, 0.0))
        for k in range(n):
            planes.append((lhs[:, k].astype(np.float64), float(weights[k])))
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
        ys = np.unique(np.round(np.stack(vertices), 12), axis=0)
        self.ys = ys
        # constant part of the dual objective at each vertex
        slack = weights[None, :] - ys @ lhs
        self.consts = BOX_HI * np.clip(slack, 0.0, None).sum(axis=1)

    def value(self, rhs: np.ndarray) -> np.ndarray:
        """value(b) for right-hand sides (..., m), -inf where any is negative."""
        vals = (np.einsum("vm,...m->...v", self.ys, rhs) + self.consts).min(axis=-1)
        return np.where(rhs.min(axis=-1) < 0.0, -math.inf, vals)


class _Evaluator:
    """Objective plumbing for one (channel, theorem, weights) search."""

    def __init__(self, ch: Channel, theorem: str, weights):
        if theorem not in THEOREMS:
            raise InputError(f"theorem must be one of {THEOREMS}")
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (5,):
            raise InputError("weights must have five entries")
        if (w < 0).any():
            raise InputError("weights must be nonnegative")
        if not w.any():
            raise InputError("weights must not all be zero")
        if theorem == "t2" and not is_deterministic(ch).holds:
            raise InputError("t2 applies to deterministic channels only")
        self.ch = ch
        self.theorem = theorem
        self.weights = w
        self.k1 = ch.y1_given_x()
        self.k2 = ch.y2_given_x()
        self.x_size = ch.x.size
        self.lhs = _LHS3 if theorem == "t3" else _LHS5
        self.oracle = _SupportOracle(self.lhs, w)

    def rows(self, tables: np.ndarray, gammas: np.ndarray | None = None) -> np.ndarray:
        """Right-hand sides (..., m) of candidate tables (..., *shape): joints
        p(u0, u1, u2) with their maps gamma for t1, p(u, x) for t2/t3."""
        if self.theorem == "t1":
            return _t1_rows(tables, gammas, self.k1, self.k2)[0]
        return (_t2_rows if self.theorem == "t2" else _t3_rows)(tables, self.k1, self.k2)

    def value(self, tables: np.ndarray, gammas: np.ndarray | None = None) -> np.ndarray:
        return self.oracle.value(self.rows(tables, gammas))

    def value_t1(self, aux: np.ndarray) -> tuple:
        """Best value over the maps gamma of one joint aux, and that map (None
        when every map gives an empty region). A zero-mass cell adds an exact
        0 to every joint, so only the map on the support matters (0 off it)."""
        support = np.flatnonzero(aux.reshape(-1) > 0.0)
        if aux.size <= GAMMA_EXHAUSTIVE_CELLS and self.x_size <= GAMMA_EXHAUSTIVE_XMAX:
            digits = self.x_size ** np.arange(len(support) - 1, -1, -1)

            def maps(codes):  # lexicographic order over the support cells
                gamma = np.zeros((len(codes), aux.size), dtype=np.int64)
                gamma[:, support] = codes[:, None] // digits % self.x_size
                return gamma.reshape((-1,) + aux.shape)

            def score(codes):
                rhs, key = _t1_rows(aux, maps(codes), self.k1, self.k2)
                key_sum = key[..., 0] + key[..., 1] + key[..., 2] + key[..., 3]
                return np.stack([self.oracle.value(rhs), key_sum], axis=-1)

            scored = in_chunks(score, np.arange(self.x_size ** len(support)))
            # of the maps of maximal value the one with the largest key sum,
            # the earliest on ties: the first Pareto-optimal map of that value
            top = np.flatnonzero(scored[:, 0] == scored[:, 0].max())
            pick = top[np.argmax(scored[top, 1])]
            best, gamma = scored[pick, 0], maps(pick[None])[0]
        else:  # greedy per-cell improvement from the all-zero map
            gamma = np.zeros(aux.shape, dtype=np.int64)
            flat = gamma.reshape(-1)
            best = self.value(aux, gamma)
            for _ in range(3):
                changed = False
                for cell, x in itertools.product(support, range(self.x_size)):
                    old = flat[cell]
                    if x == old:
                        continue
                    flat[cell] = x
                    val = self.value(aux, gamma)
                    if val > best:
                        best, changed = val, True
                    else:
                        flat[cell] = old
                if not changed:
                    break
        return (float(best), gamma) if best > -math.inf else (-math.inf, None)

    def sweep(self, points: np.ndarray, shape: tuple) -> tuple:
        """Values (N,) of candidate rows (N, cells) and their maps gamma
        (None for t2/t3 and for empty t1 candidates)."""
        if self.theorem == "t1":
            picks = [self.value_t1(p.reshape(shape)) for p in points]
            return np.array([v for v, _ in picks]), [g for _, g in picks]
        return in_chunks(lambda c: self.value(c.reshape((-1,) + shape)), points), \
            [None] * len(points)


def _candidate_levels(cells: int, cfg: SearchConfig):
    """Cumulative lattice sweep, one (N, cells) array per level, nested
    across resolutions for a fixed seed."""
    for level in range(2, cfg.grid_resolution + 1):
        if lattice_count(cells, level) <= PER_LEVEL_CAP:
            yield lattice_points(cells, level)
        else:
            rng = np.random.default_rng((cfg.seed, 11, level))
            yield sample_lattice(rng, cells, level, PER_LEVEL_CAP)


def region_for(ch: Channel, theorem: str, scheme: AuxScheme | None = None,
               p_ux: JointPmf | None = None) -> RateRegion:
    """Region of one candidate under the requested formula."""
    if theorem == "t1":
        if scheme is None:
            raise InputError("t1 region needs an auxiliary scheme")
        return marton_region(scheme, ch)
    if p_ux is None:
        raise InputError(f"{theorem} region needs a p(u, x) joint")
    if theorem == "t2":
        return deterministic_region(p_ux, ch)
    if theorem == "t3":
        return more_capable_region(p_ux, ch)
    raise InputError(f"unknown theorem {theorem!r}")


def evaluate_weighted_rate(ch: Channel, theorem: str, weights,
                           scheme: AuxScheme | None = None,
                           p_ux: JointPmf | None = None) -> float:
    """Support value max w . R of one candidate's region; the optimizer's
    objective, exposed so reported optima can be re-checked from scratch."""
    ev = _Evaluator(ch, theorem, weights)
    if theorem == "t1":
        if scheme is None:
            raise InputError("t1 evaluation needs an auxiliary scheme")
        return float(ev.value(np.asarray(scheme.aux_joint.mass, dtype=np.float64),
                              np.asarray(scheme.gamma)))
    if p_ux is None:
        raise InputError(f"{theorem} evaluation needs a p(u, x) joint")
    return float(ev.value(p_ux.as_float()))


def maximize_weighted_rate(ch: Channel, weights, theorem: str,
                           cfg: SearchConfig | None = None) -> SearchResult:
    """Best weighted rate over the searched union, with the argmax scheme.

    Deterministic given cfg.seed. The value is exactly what
    evaluate_weighted_rate returns for the reported candidate.
    """
    cfg = cfg or SearchConfig()
    ev = _Evaluator(ch, theorem, weights)
    sizes = cfg.aux_sizes or default_aux_sizes(theorem, ch.x.size)
    shape = tuple(sizes) if theorem == "t1" else (sizes[0], ch.x.size)
    cells = math.prod(shape)

    best = (-math.inf, None, None)  # value, flat point, gamma
    starts = []  # refinement starts: each level's top point, then seeded restarts
    for points in _candidate_levels(cells, cfg):
        vals, gammas = ev.sweep(points, shape)
        top = int(np.argmax(vals))
        starts.append((points[top], gammas[top]))
        if vals[top] > best[0]:
            best = (vals[top], points[top], gammas[top])
    for i in range(cfg.restarts):
        flat = np.random.default_rng((cfg.seed, 22, i)).dirichlet(np.ones(cells))
        vals, gammas = ev.sweep(flat[None], shape)
        if vals[0] > best[0]:
            best = (vals[0], flat, gammas[0])
        starts.append((flat, gammas[0]))

    if theorem == "t1":
        # a start whose every map gives an empty region stays at -inf
        starts = [(flat, gamma) for flat, gamma in starts if gamma is not None]
    fixed = np.array([gamma for _, gamma in starts]) if theorem == "t1" else None

    def objective(points, which):
        return ev.value(points.reshape((-1,) + shape), None if fixed is None else fixed[which])

    if starts:
        refined, vals = refine_on_simplex(objective, np.array([f for f, _ in starts]),
                                          cfg.max_iters)
        for flat, val, (_, gamma) in zip(refined, vals, starts):
            if theorem == "t1":
                # gamma may improve at the refined joint
                val2, gamma2 = ev.value_t1(flat.reshape(shape))
                if val2 > val:
                    val, gamma = val2, gamma2
            if val > best[0]:
                best = (val, flat, gamma)

    best_val, best_flat, best_gamma = best
    if best_flat is None:
        raise InputError("search produced no candidates")
    scheme, p_ux = _materialize(theorem, best_flat, best_gamma, ch, sizes)
    return SearchResult(theorem, float(best_val), tuple(float(w) for w in ev.weights),
                        scheme, p_ux)


# ---- 2-D slices ------------------------------------------------------------

def _polygon_best(rows_a: np.ndarray, rows_b: np.ndarray, dirs: np.ndarray) -> tuple:
    """Best vertex per direction of each polygon {z : rows_a z <= b}, b a row
    of rows_b (C, M) (box included by caller): values (C, D), -inf for an
    empty polygon, and the first vertex reaching each (C, D, 2)."""
    i, j = np.triu_indices(len(rows_a), 1)
    det = rows_a[i, 0] * rows_a[j, 1] - rows_a[i, 1] * rows_a[j, 0]
    keep = np.abs(det) >= 1e-12
    i, j, det = i[keep], j[keep], det[keep]
    b_i, b_j = rows_b[:, i], rows_b[:, j]
    verts = np.stack([(b_i * rows_a[j, 1] - b_j * rows_a[i, 1]) / det,
                      (rows_a[i, 0] * b_j - rows_a[j, 0] * b_i) / det], axis=-1)
    x, y = verts[..., :1], verts[..., 1:]  # elementwise, so no row depends on C
    feas = (x * rows_a[:, 0] + y * rows_a[:, 1] <= rows_b[:, None, :] + 1e-9).all(axis=-1)
    values = np.where(feas[..., None], x * dirs[:, 0] + y * dirs[:, 1], -math.inf)  # (C, P, D)
    arg = values.argmax(axis=1)
    return (np.take_along_axis(values, arg[:, None, :], axis=1)[:, 0],
            np.take_along_axis(verts, arg[..., None], axis=1))


def union_slice_2d(ch: Channel, free, fixed: dict, theorem: str,
                   cfg: SearchConfig | None = None, directions: int = 33):
    """Supported boundary points of the union region in one coordinate plane.

    free names the two swept rates; fixed pins the other three. For each
    sweep angle the best candidate point over the searched schemes is
    reported. Points are an inner approximation by construction.
    Returns (points, schemes): dicts sorted by angle, plus the auxiliary
    schemes they reference by scheme_id.
    """
    cfg = cfg or SearchConfig()
    free = tuple(free)
    if len(free) != 2 or any(v not in RATE_VARS for v in free) or free[0] == free[1]:
        raise InputError("free must be two distinct rate names")
    expected_fixed = [v for v in RATE_VARS if v not in free]
    if sorted(fixed) != sorted(expected_fixed):
        raise InputError(f"fixed must pin exactly {expected_fixed}")
    if any(val < 0 for val in fixed.values()):
        raise InputError("fixed rates must be nonnegative")
    if directions < 1:
        raise InputError("directions must be at least 1")
    ev = _Evaluator(ch, theorem, [1.0] * 5)
    sizes = cfg.aux_sizes or default_aux_sizes(theorem, ch.x.size)
    ia = RATE_VARS.index(free[0])
    ib = RATE_VARS.index(free[1])
    fixed_vec = np.zeros(5)
    for name, val in fixed.items():
        fixed_vec[RATE_VARS.index(name)] = float(val)

    angles = np.linspace(0.0, 90.0, directions)
    dirs = np.stack([np.cos(np.radians(angles)), np.sin(np.radians(angles))], axis=1)
    best_val = np.full(directions, -np.inf)
    best_pt = np.zeros((directions, 2))
    best_id = np.full(directions, -1, dtype=np.int64)
    schemes = {}  # candidate index -> payload, for candidates that led a direction

    shape = tuple(sizes) if theorem == "t1" else (sizes[0], ch.x.size)
    rows_a = np.vstack([ev.lhs[:, [ia, ib]],
                        [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])
    box_b = np.array([0.0, 0.0, BOX_HI, BOX_HI])
    offset = ev.lhs @ fixed_vec
    seen = 0
    for points in _candidate_levels(math.prod(shape), cfg):
        for start in range(0, len(points), CHUNK):
            chunk = points[start:start + CHUNK]
            tables = chunk.reshape((-1,) + shape)
            t1 = theorem == "t1"
            gammas = [ev.value_t1(t)[1] for t in tables] if t1 else [None] * len(chunk)
            empty = np.array([t1 and g is None for g in gammas])
            rhs = ev.rows(tables, np.array([np.zeros(shape, dtype=np.int64) if g is None else g
                                            for g in gammas]) if t1 else None)
            rows_b = np.concatenate([rhs - offset, np.broadcast_to(box_b, (len(chunk), 4))],
                                    axis=1)
            vmax, verts = _polygon_best(rows_a, rows_b, dirs)
            vmax[empty] = -math.inf
            # per direction the first candidate of the maximal value wins
            win = vmax.argmax(axis=0)
            better = vmax[win, np.arange(directions)] > best_val
            for k in np.flatnonzero(better):
                c = int(win[k])
                best_val[k] = vmax[c, k]
                best_pt[k] = verts[c, k]
                best_id[k] = seen + c
                schemes[seen + c] = (theorem, chunk[c].copy(), gammas[c])
            seen += len(chunk)

    out = []
    for k in range(directions):
        if best_id[k] < 0:
            continue
        out.append({
            "angle_deg": float(angles[k]),
            free[0]: float(best_pt[k, 0]),
            free[1]: float(best_pt[k, 1]),
            "scheme_id": int(best_id[k]),
        })
    used = sorted({p["scheme_id"] for p in out})
    remap = {old: new for new, old in enumerate(used)}
    for p in out:
        p["scheme_id"] = remap[p["scheme_id"]]
    kept = [schemes[i] for i in used]
    return out, [_materialize(*payload, ch, sizes)[0] for payload in kept]


def _materialize(theorem: str, flat, gamma, ch: Channel, sizes) -> tuple:
    """(scheme, p_ux) of one searched candidate; p_ux is None for t1."""
    if theorem == "t1":
        aux = JointPmf(tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(sizes)),
                       np.asarray(flat, dtype=np.float64).reshape(sizes))
        return AuxScheme(aux, gamma), None
    p_ux = JointPmf((Alphabet.indexed("U", sizes[0]), Alphabet.indexed("X", ch.x.size)),
                    np.asarray(flat, dtype=np.float64).reshape(sizes[0], ch.x.size))
    kind = "deterministic" if theorem == "t2" else "more_capable"
    return specialize_scheme(kind, p_ux, ch), p_ux
