"""Search over auxiliary distributions to approximate the union regions.

The reported unions are inner approximations: a multistart search over a
coarse simplex lattice followed by refinement on pairwise mass transfers,
each line search a staged grid scored in batched calls. To make "more
resolution never hurts" hold exactly, the sweep is cumulative: a search at
resolution r walks the lattices of every level 2..r, with oversized levels
subsampled through a per-level seeded stream, so the candidate set at r is
a superset of the one at r-1 for the same seed. Refinement starts (each
level's best point plus the seeded restart points) each get their own
budget and advance together through one batched refiner, ending where
refining each alone would, which keeps them nested across resolutions too.

Candidates are scored in batched calls of at most CHUNK rows. Ties between
candidates resolve to the earliest point in sweep order, which is a fixed
lexicographic enumeration. A t1 candidate is a joint p(u0, u1, u2) scored
under its best map x = gamma(u0, u1, u2), enumerated on the joint's support
up to GAMMA_CELL_CAP maps x joint cells, found by greedy passes above; the
enumerated joints of one scoring call share calls of MAP_ROWS (joint, map)
pairs. An oversized lattice level is sampled by seeded Generator.choice
calls, replayed from one block of the stream (simplex_search).

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
from .polytope import BOX_HI, RATE_VARS, RateRegion
from .probability import Alphabet, AuxScheme, Channel, JointPmf
from .rate_regions import (_LHS3, _LHS5, _t1_rows, _t2_rows, _t3_rows, deterministic_region,
                           marton_region, more_capable_region, specialize_scheme)
from .simplex_search import CHUNK, in_chunks, lattice_or_sample, refine_on_simplex

THEOREMS = ("t1", "t2", "t3")
PER_LEVEL_CAP = 1200
REFINE_BUDGET = 120  # refinement line searches per start
GAMMA_CELL_CAP = 2 ** 16  # t1 maps x joint cells scored exhaustively; greedy above
WEIGHT_CAP = 1e300  # keeps every support value finite
MAP_ROWS = 4096  # t1 (joint, map) pairs scored per call on the enumerated path

@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the union search. aux_sizes caps (|U0|, |U1|, |U2|) for the
    general bound; the first entry is the |U| cap for the t2/t3 formulas."""

    aux_sizes: tuple | None = None
    grid_resolution: int = 5
    restarts: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.grid_resolution < 2:
            raise InputError("grid_resolution must be at least 2")
        if self.restarts < 1:
            raise InputError("restarts must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
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
        # The vertices and values are linear in the weights, so they are
        # built for the weights scaled by 2**shift to a largest entry in
        # [1, 2), where the rounding below merges duplicates at any scale,
        # and values are scaled back exactly
        self.shift = 1 - math.frexp(float(weights.max()))[1]
        weights = np.ldexp(weights, self.shift)
        # the planes a . y = c: y_i = 0 for each row, (lhs^T y)_k = w_k for
        # each rate; every m of them that meet in one point give a vertex
        # candidate, kept when it is dual feasible
        plane_a = np.vstack([np.eye(m), lhs.T.astype(np.float64)])
        plane_c = np.concatenate([np.zeros(m), weights])
        combos = np.array(list(itertools.combinations(range(m + n), m)))
        a, c = plane_a[combos], plane_c[combos]
        meet = np.linalg.det(a) != 0.0
        ys = np.linalg.solve(a[meet], c[meet][..., None])[..., 0]
        ys = np.clip(ys[~(ys < -1e-9).any(axis=1)], 0.0, None)
        # duplicates merge on their values rounded to 12 decimals (from 2^52
        # on a float is an integer already, and rounding it could overflow);
        # each group keeps its first vertex, unrounded
        whole = np.abs(ys) >= 2.0 ** 52
        keys = np.where(whole, ys, np.round(np.where(whole, 0.0, ys), 12))
        self.ys = ys[np.unique(keys, axis=0, return_index=True)[1]]
        # constant part of the dual objective at each vertex
        slack = weights[None, :] - self.ys @ lhs
        self.consts = BOX_HI * np.clip(slack, 0.0, None).sum(axis=1)

    def value(self, rhs: np.ndarray) -> np.ndarray:
        """value(b) for right-hand sides (..., m), -inf where any is negative."""
        vals = (np.einsum("vm,...m->...v", self.ys, rhs) + self.consts).min(axis=-1)
        return np.where(rhs.min(axis=-1) < 0.0, -math.inf, np.ldexp(vals, -self.shift))


class _Evaluator:
    """Objective plumbing for one (channel, theorem, weights) search over
    candidate tables of one shape: joints p(u0, u1, u2) of aux_sizes for t1,
    p(u, x) with |U| = aux_sizes[0] for t2/t3."""

    def __init__(self, ch: Channel, theorem: str, weights, aux_sizes=None):
        if theorem not in THEOREMS:
            raise InputError(f"theorem must be one of {THEOREMS}")
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (5,):
            raise InputError("weights must have five entries")
        if (w < 0).any():
            raise InputError("weights must be nonnegative")
        if not w.any():
            raise InputError("weights must not all be zero")
        if w.max() > WEIGHT_CAP:
            raise InputError(f"weights above {WEIGHT_CAP:g} are too large")
        if theorem == "t2" and not is_deterministic(ch).holds:
            raise InputError("t2 applies to deterministic channels only")
        self.ch = ch
        self.theorem = theorem
        self.weights = w
        self.k1 = ch.y1_given_x()
        self.k2 = ch.y2_given_x()
        self.x_size = ch.x.size
        self.sizes = tuple(aux_sizes or default_aux_sizes(theorem, ch.x.size))
        self.shape = self.sizes if theorem == "t1" else (self.sizes[0], ch.x.size)
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

    def _score_maps(self, aux: np.ndarray, maps: np.ndarray) -> np.ndarray:
        """Joints aux (*shape or (M, *shape)) under maps (M, *shape): rows
        (M, 7) of the right-hand sides, the value and the key sum."""
        rhs, key = _t1_rows(aux, maps, self.k1, self.k2)
        key_sum = key[..., 0] + key[..., 1] + key[..., 2] + key[..., 3]
        return np.concatenate([rhs, self.oracle.value(rhs)[:, None], key_sum[:, None]], axis=1)

    def _enumerated(self, joints: np.ndarray) -> tuple:
        """(values (J,), maps (J, *shape), right-hand sides (J, m)) of joints
        (J, *shape), each under the best of every map on its support: of the
        maps of maximal value the one of largest key sum, the earliest on
        ties, i.e. the first Pareto-optimal map of that value.

        The (joint, map) pairs, joints in order and each joint's maps in
        lexicographic order over its support cells, are scored MAP_ROWS per
        call; each batch's best pair per joint competes with that joint's
        bests from other batches under the same rule (_first_best)."""
        flat = joints.reshape(len(joints), -1)
        cells = flat.shape[1]
        on = flat > 0.0
        size = on.sum(axis=1)
        offsets = np.concatenate([[0], np.cumsum(self.x_size ** size)])
        rank = np.arange(cells)
        inside = rank < size[:, None]
        # support cells in order, padded with a spare column cut off below
        cell = np.where(inside, np.argsort(~on, axis=1, kind="stable"), cells)
        digit = np.where(inside, self.x_size ** np.maximum(size[:, None] - 1 - rank, 0), 1)
        best = []
        for lo in range(0, offsets[-1], MAP_ROWS):
            pair = np.arange(lo, min(lo + MAP_ROWS, offsets[-1]))
            joint = np.searchsorted(offsets, pair, side="right") - 1
            code = pair - offsets[joint]
            gamma = np.zeros((len(pair), cells + 1), dtype=np.int64)
            gamma[np.arange(len(pair))[:, None], cell[joint]] = (
                code[:, None] // digit[joint] % self.x_size)
            gamma = gamma[:, :cells].reshape((-1,) + joints.shape[1:])
            scored = self._score_maps(joints[joint], gamma)
            pick = _first_best(scored[:, -2], scored[:, -1], joint)
            best.append((joint[pick], scored[pick], gamma[pick]))
        joint, scored, gamma = (np.concatenate(part) for part in zip(*best))
        pick = _first_best(scored[:, -2], scored[:, -1], joint)
        return scored[pick, -2], gamma[pick], scored[pick, :-2]

    def _greedy_map(self, aux: np.ndarray) -> tuple:
        """(value, map, right-hand sides) of a greedy map gamma of one joint
        aux, for joints with too many maps to score them all (_enumerable).

        A zero-mass cell adds an exact 0 to every joint, so only the map on
        the support matters (0 off it). Up to three greedy passes from the
        all-zero map score every symbol of one support cell per call; the
        current symbol keeps ties, otherwise the first maximum wins."""
        support = np.flatnonzero(aux.reshape(-1) > 0.0)
        gamma = np.zeros(aux.size, dtype=np.int64)
        for _ in range(3):
            changed = False
            for cell in support:
                trial = np.repeat(gamma[None], self.x_size, axis=0)
                trial[:, cell] = np.arange(self.x_size)
                scored = self._score_maps(aux, trial.reshape((-1,) + aux.shape))
                x = int(np.argmax(scored[:, -2]))
                if scored[x, -2] > scored[gamma[cell], -2]:
                    gamma[cell], changed = x, True
                row = scored[gamma[cell]]
            if not changed:
                break
        return float(row[-2]), gamma.reshape(aux.shape), row[:-2]

    def _enumerable(self, joints: np.ndarray) -> np.ndarray:
        """Whether each joint (J, *shape) has at most GAMMA_CELL_CAP maps on
        its support times cells."""
        cells = math.prod(joints.shape[1:])
        support = (joints.reshape(len(joints), -1) > 0.0).sum(axis=1)
        return np.array([self.x_size ** int(n) * cells <= GAMMA_CELL_CAP for n in support],
                        dtype=bool)

    def score(self, points: np.ndarray) -> tuple:
        """Values (N,), maps (N, *shape) and right-hand sides (N, m) of
        candidate rows (N, cells): for t1 each joint under its best map,
        every joint on the enumerated path in one _enumerated call; for
        t2/t3 in batched calls of CHUNK rows, with maps all None."""
        tables = points.reshape((-1,) + self.shape)
        if self.theorem == "t1":
            vals = np.empty(len(tables))
            maps = np.empty(tables.shape, dtype=np.int64)
            rhs = np.empty((len(tables), len(self.lhs)))
            every = self._enumerable(tables)
            if every.any():
                vals[every], maps[every], rhs[every] = self._enumerated(tables[every])
            for i in np.flatnonzero(~every):
                vals[i], maps[i], rhs[i] = self._greedy_map(tables[i])
            return vals, maps, rhs
        rhs = in_chunks(self.rows, tables)
        return in_chunks(self.oracle.value, rhs), np.full(len(tables), None), rhs

    def materialize(self, flat, gamma) -> tuple:
        """(scheme, p_ux) of one searched candidate; p_ux is None for t1."""
        mass = np.asarray(flat, dtype=np.float64).reshape(self.shape)
        if self.theorem == "t1":
            aux = JointPmf(tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(self.sizes)),
                           mass)
            return AuxScheme(aux, gamma), None
        p_ux = JointPmf((Alphabet.indexed("U", self.shape[0]), Alphabet.indexed("X", self.x_size)),
                        mass)
        kind = "deterministic" if self.theorem == "t2" else "more_capable"
        return specialize_scheme(kind, p_ux, self.ch), p_ux


def _first_best(vals: np.ndarray, key_sums: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Per run of equal entries of group (sorted), the index of its first row
    of maximal value and, among those, of largest key sum."""
    starts = np.flatnonzero(np.diff(group, prepend=group[0] - 1))
    run = np.cumsum(np.diff(group, prepend=group[0]) != 0)
    top = vals == np.maximum.reduceat(vals, starts)[run]
    keys = np.where(top, key_sums, -math.inf)
    first = np.where(top & (keys == np.maximum.reduceat(keys, starts)[run]),
                     np.arange(len(vals)), len(vals))
    return np.minimum.reduceat(first, starts)


def _candidate_levels(cells: int, cfg: SearchConfig):
    """Cumulative lattice sweep, one (N, cells) array per level, nested
    across resolutions for a fixed seed."""
    for level in range(2, cfg.grid_resolution + 1):
        yield lattice_or_sample(cells, level, PER_LEVEL_CAP, PER_LEVEL_CAP, (cfg.seed, 11, level))


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
        return float(ev.value(scheme.aux_joint.mass, scheme.gamma))
    if p_ux is None:
        raise InputError(f"{theorem} evaluation needs a p(u, x) joint")
    return float(ev.value(p_ux.mass))


def maximize_weighted_rate(ch: Channel, weights, theorem: str,
                           cfg: SearchConfig | None = None) -> SearchResult:
    """Best weighted rate over the searched union, with the argmax scheme.

    Deterministic given cfg.seed. The value is exactly what
    evaluate_weighted_rate returns for the reported candidate.
    """
    cfg = cfg or SearchConfig()
    ev = _Evaluator(ch, theorem, weights, cfg.aux_sizes)
    cells = math.prod(ev.shape)

    starts = []  # (value, flat point, map): each level's top point, then seeded restarts
    for points in _candidate_levels(cells, cfg):
        vals, maps, _ = ev.score(points)
        top = int(np.argmax(vals))
        starts.append((vals[top], points[top], maps[top]))
    restarts = np.array([np.random.default_rng((cfg.seed, 22, i)).dirichlet(np.ones(cells))
                         for i in range(cfg.restarts)])
    vals, maps, _ = ev.score(restarts)
    starts += zip(vals, restarts, maps)

    # a t1 joint whose every map gives an empty region has no map to climb with
    live = [start for start in starts if theorem != "t1" or start[0] > -math.inf]
    if live:
        fixed = np.array([m for _, _, m in live])
        refined, vals = refine_on_simplex(
            lambda points, which: ev.value(points.reshape((-1,) + ev.shape), fixed[which]),
            np.array([flat for _, flat, _ in live]), REFINE_BUDGET)
        # a t1 map may improve at the refined joint; t2/t3 have no map
        rescored = ev.score(refined)[:2] if theorem == "t1" else (vals, fixed)
        for flat, val, m, val2, m2 in zip(refined, vals, fixed, *rescored):
            starts.append((val2, flat, m2) if val2 > val else (val, flat, m))

    best_val, best_flat, best_map = max(starts, key=lambda start: start[0])  # the first maximum
    if best_val == -math.inf:
        raise InputError("every searched candidate gives an empty region")
    scheme, p_ux = ev.materialize(best_flat, best_map)
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
    ev = _Evaluator(ch, theorem, [1.0] * 5, cfg.aux_sizes)
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

    rows_a = np.vstack([ev.lhs[:, [ia, ib]],
                        [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])
    box_b = np.array([0.0, 0.0, BOX_HI, BOX_HI])
    offset = ev.lhs @ fixed_vec
    seen = 0
    for points in _candidate_levels(math.prod(ev.shape), cfg):
        for start in range(0, len(points), CHUNK):
            chunk = points[start:start + CHUNK]
            vals, maps, rhs = ev.score(chunk)
            rows_b = np.concatenate([rhs - offset, np.broadcast_to(box_b, (len(chunk), 4))],
                                    axis=1)
            vmax, verts = _polygon_best(rows_a, rows_b, dirs)
            if theorem == "t1":  # a joint whose every map gives an empty region
                vmax[vals == -math.inf] = -math.inf
            # per direction the first candidate of the maximal value wins
            win = vmax.argmax(axis=0)
            better = vmax[win, np.arange(directions)] > best_val
            for k in np.flatnonzero(better):
                c = int(win[k])
                best_val[k] = vmax[c, k]
                best_pt[k] = verts[c, k]
                best_id[k] = seen + c
                schemes[seen + c] = (chunk[c].copy(), maps[c])
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
    return out, [ev.materialize(*schemes[i])[0] for i in used]

