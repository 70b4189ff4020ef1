"""Search over auxiliary distributions to approximate the union regions.

The reported unions are inner approximations: a multistart search over a
coarse simplex lattice followed by golden-section refinement on pairwise
mass transfers. To make "more resolution never hurts" hold exactly, the
sweep is cumulative: a search at resolution r walks the lattices of every
level 2..r, with oversized levels subsampled through a per-level seeded
stream, so the candidate set at r is a superset of the one at r-1 for the
same seed. Refinement starts (each level's best point plus the seeded
restart points) are refined independently with a per-start budget, which
keeps them nested across resolutions too.

Ties between candidates resolve to the earliest point in sweep order, which
is a fixed lexicographic enumeration.

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
from .simplex_search import lattice_count, lattice_points, refine_on_simplex, sample_lattice

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

    def value(self, rhs: np.ndarray) -> float:
        if rhs.min() < 0.0:
            return -math.inf
        return float((self.ys @ rhs + self.consts).min())


def _pareto_front(entries):
    """Keep (key4, payload) pairs not dominated componentwise."""
    front = []
    for key, payload in sorted(entries, key=lambda e: -sum(e[0])):
        dominated = False
        for fkey, _ in front:
            if all(fkey[i] >= key[i] for i in range(4)):
                dominated = True
                break
        if not dominated:
            front.append((key, payload))
    return front


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

    # ---- t1 -----------------------------------------------------------
    def _gamma_candidates(self, aux: np.ndarray):
        cells = aux.size
        shape = aux.shape
        if cells <= GAMMA_EXHAUSTIVE_CELLS and self.x_size <= GAMMA_EXHAUSTIVE_XMAX:
            entries = []
            for flat in itertools.product(range(self.x_size), repeat=cells):
                gamma = np.asarray(flat, dtype=np.int64).reshape(shape)
                rhs, key = _t1_rows(aux, gamma, self.k1, self.k2)
                entries.append((key, (rhs, gamma)))
            return [payload for _, payload in _pareto_front(entries)]
        # greedy per-cell improvement from the all-zero map
        gamma = np.zeros(shape, dtype=np.int64)
        rhs, _ = _t1_rows(aux, gamma, self.k1, self.k2)
        best = self.oracle.value(rhs)
        for _ in range(3):
            changed = False
            for cell in np.ndindex(*shape):
                for x in range(self.x_size):
                    if x == gamma[cell]:
                        continue
                    old = gamma[cell]
                    gamma[cell] = x
                    rhs_try, _ = _t1_rows(aux, gamma, self.k1, self.k2)
                    val = self.oracle.value(rhs_try)
                    if val > best:
                        best = val
                        changed = True
                    else:
                        gamma[cell] = old
            if not changed:
                break
        rhs, _ = _t1_rows(aux, gamma, self.k1, self.k2)
        return [(rhs, gamma)]

    def value_t1(self, aux: np.ndarray):
        best_val = -math.inf
        best_gamma = None
        for rhs, gamma in self._gamma_candidates(aux):
            val = self.oracle.value(rhs)
            if val > best_val:
                best_val = val
                best_gamma = gamma
        return best_val, best_gamma

    def value_t1_fixed_gamma(self, aux: np.ndarray, gamma: np.ndarray) -> float:
        rhs, _ = _t1_rows(aux, gamma, self.k1, self.k2)
        return self.oracle.value(rhs)

    # ---- t2 / t3 ------------------------------------------------------
    def value_ux(self, p_ux: np.ndarray) -> float:
        return self.oracle.value(self.rows_ux(p_ux)[1])

    def rows_ux(self, p_ux: np.ndarray):
        if self.theorem == "t2":
            return _LHS5, _t2_rows(p_ux, self.k1, self.k2)
        return _LHS3, _t3_rows(p_ux, self.k1, self.k2)


def _candidate_stream(cells: int, cfg: SearchConfig):
    """Cumulative lattice sweep: (level, flat pmf) pairs, nested across
    resolutions for a fixed seed."""
    for level in range(2, cfg.grid_resolution + 1):
        if lattice_count(cells, level) <= PER_LEVEL_CAP:
            for p in lattice_points(cells, level):
                yield level, p
        else:
            rng = np.random.default_rng((cfg.seed, 11, level))
            for p in sample_lattice(rng, cells, level, PER_LEVEL_CAP):
                yield level, p


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
        aux = np.asarray(scheme.aux_joint.mass, dtype=np.float64)
        return ev.value_t1_fixed_gamma(aux, np.asarray(scheme.gamma))
    if p_ux is None:
        raise InputError(f"{theorem} evaluation needs a p(u, x) joint")
    return ev.value_ux(p_ux.as_float())


def maximize_weighted_rate(ch: Channel, weights, theorem: str,
                           cfg: SearchConfig | None = None) -> SearchResult:
    """Best weighted rate over the searched union, with the argmax scheme.

    Deterministic given cfg.seed. The value is exactly what
    evaluate_weighted_rate returns for the reported candidate.
    """
    cfg = cfg or SearchConfig()
    ev = _Evaluator(ch, theorem, weights)
    sizes = cfg.aux_sizes or default_aux_sizes(theorem, ch.x.size)

    if theorem == "t1":
        cells = sizes[0] * sizes[1] * sizes[2]

        def value_of(flat):
            return ev.value_t1(flat.reshape(sizes))
    else:
        u_cap = sizes[0]
        cells = u_cap * ch.x.size

        def value_of(flat):
            return ev.value_ux(flat.reshape(u_cap, ch.x.size)), None

    best_val = -math.inf
    best_flat = None
    best_gamma = None
    level_best = {}
    for level, flat in _candidate_stream(cells, cfg):
        val, gamma = value_of(flat)
        if val > best_val:
            best_val, best_flat, best_gamma = val, flat, gamma
        prev = level_best.get(level)
        if prev is None or val > prev[0]:
            level_best[level] = (val, flat, gamma)

    # refinement starts: each level's top point, then seeded restarts
    starts = [(flat, gamma) for _, flat, gamma in
              (level_best[lv] for lv in sorted(level_best))]
    for i in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, 22, i))
        flat = rng.dirichlet(np.ones(cells))
        val, gamma = value_of(flat)
        if val > best_val:
            best_val, best_flat, best_gamma = val, flat, gamma
        starts.append((flat, gamma))

    for flat, gamma in starts:
        if theorem == "t1":
            gfix = gamma if gamma is not None else value_of(flat)[1]

            def objective(p, gfix=gfix):
                return ev.value_t1_fixed_gamma(p.reshape(sizes), gfix)
        else:
            def objective(p):
                return ev.value_ux(p.reshape(u_cap, ch.x.size))

        refined, val = refine_on_simplex(objective, flat, cfg.max_iters)
        if theorem == "t1":
            # gamma may improve at the refined joint
            val2, gamma2 = value_of(refined)
            if val2 > val:
                val, gamma = val2, gamma2
            else:
                gamma = gfix
        if val > best_val:
            best_val, best_flat, best_gamma = val, refined, gamma

    if best_flat is None:
        raise InputError("search produced no candidates")
    scheme, p_ux = _materialize(theorem, best_flat, best_gamma, ch, sizes)
    return SearchResult(theorem, best_val, tuple(float(w) for w in ev.weights),
                        scheme, p_ux)


# ---- 2-D slices ------------------------------------------------------------

def _polygon_vertices(rows_a: np.ndarray, rows_b: np.ndarray):
    """Vertices of {a1 x + a2 y <= b} rows (box included by caller)."""
    m = rows_a.shape[0]
    verts = []
    for i in range(m):
        for j in range(i + 1, m):
            det = rows_a[i, 0] * rows_a[j, 1] - rows_a[i, 1] * rows_a[j, 0]
            if abs(det) < 1e-12:
                continue
            x = (rows_b[i] * rows_a[j, 1] - rows_b[j] * rows_a[i, 1]) / det
            y = (rows_a[i, 0] * rows_b[j] - rows_a[j, 0] * rows_b[i]) / det
            verts.append((x, y))
    if not verts:
        return np.empty((0, 2))
    pts = np.asarray(verts)
    feas = (rows_a @ pts.T <= rows_b[:, None] + 1e-9).all(axis=0)
    return pts[feas]


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
    schemes = []

    if theorem == "t1":
        cells = sizes[0] * sizes[1] * sizes[2]
    else:
        cells = sizes[0] * ch.x.size

    for level, flat in _candidate_stream(cells, cfg):
        if theorem == "t1":
            aux = flat.reshape(sizes)
            _, gamma = ev.value_t1(aux)
            if gamma is None:
                continue
            lhs, rhs = _LHS5, _t1_rows(aux, gamma, ev.k1, ev.k2)[0]
            payload = ("t1", flat.copy(), gamma.copy())
        else:
            p_ux = flat.reshape(sizes[0], ch.x.size)
            lhs, rhs = ev.rows_ux(p_ux)
            payload = (theorem, flat.copy(), None)
        shifted = rhs - lhs @ fixed_vec
        rows_a = np.vstack([lhs[:, [ia, ib]],
                            [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]]])
        rows_b = np.concatenate([shifted, [0.0, 0.0, BOX_HI, BOX_HI]])
        verts = _polygon_vertices(rows_a, rows_b)
        if verts.shape[0] == 0:
            continue
        values = dirs @ verts.T  # (directions, n_verts)
        arg = values.argmax(axis=1)
        vmax = values[np.arange(directions), arg]
        better = vmax > best_val
        if better.any():
            schemes.append(payload)
            scheme_id = len(schemes) - 1
            best_val[better] = vmax[better]
            best_pt[better] = verts[arg[better]]
            best_id[better] = scheme_id

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
