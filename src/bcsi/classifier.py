"""Channel class tests gating which capacity formula applies.

Deterministic and degraded are decided exactly (point-mass scan and an LP
feasibility problem). More-capable and less-noisy are universally quantified
over distributions, so they get grid verdicts: "true" means no counterexample
was found at the recorded resolution, "false" comes with a re-checkable
witness distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InputError
from .polytope import linprog
from .probability import Channel
from .simplex_search import (GOLDEN_ITERS, lattice_count, lattice_points, refine_on_simplex,
                             sample_lattice)

POINT_MASS_TOL = 1e-9
DEGRADED_TOL = 1e-9
WITNESS_TOL = 1e-9
LATTICE_CAP = 250_000
_SAMPLE_SEED = 20240917  # fixed: grid verdicts must be reproducible


@dataclass
class ClassVerdict:
    property: str
    holds: bool
    witness: dict | None = None
    grid_resolution: int | None = None

    def to_jsonable(self) -> dict:
        return {
            "property": self.property,
            "holds": self.holds,
            "witness": self.witness,
            "grid_resolution": self.grid_resolution,
        }


def default_resolution(x_size: int) -> int:
    return 32 if x_size <= 3 else 16


def is_deterministic(ch: Channel) -> ClassVerdict:
    """Exact: every kernel row must be a point mass (within 1e-9)."""
    kernel = ch.kernel_float()
    phi1, phi2 = [], []
    for xi in range(ch.x.size):
        row = kernel[xi]
        flat_idx = int(row.argmax())
        if row.reshape(-1)[flat_idx] < 1.0 - POINT_MASS_TOL:
            return ClassVerdict("deterministic", False,
                                witness={"row": xi, "kernel_row": row.reshape(-1).tolist()})
        a, b = divmod(flat_idx, ch.y2.size)
        phi1.append(a)
        phi2.append(b)
    return ClassVerdict("deterministic", True, witness={"phi1": phi1, "phi2": phi2})


def is_degraded(ch: Channel) -> ClassVerdict:
    """Exact LP: does a stochastic W exist with p(y2|x) = sum_y1 p(y1|x) W(y2|y1)?

    Solves for the W minimizing the worst-case residual; degraded iff that
    minimum is <= 1e-9. The minimizing W doubles as the witness either way:
    when false, its residual lower-bounds every candidate kernel.
    """
    p1 = ch.y1_given_x()
    p2 = ch.y2_given_x()
    m1, m2 = ch.y1.size, ch.y2.size
    nw = m1 * m2
    # variables: W (row-major y1 x y2) then the residual bound t
    c = np.zeros(nw + 1)
    c[-1] = 1.0
    a_eq = np.zeros((m1, nw + 1))
    for i in range(m1):
        a_eq[i, i * m2:(i + 1) * m2] = 1.0
    b_eq = np.ones(m1)
    rows = []
    rhs = []
    for xi in range(ch.x.size):
        for y2i in range(m2):
            coeff = np.zeros(nw + 1)
            for y1i in range(m1):
                coeff[y1i * m2 + y2i] = p1[xi, y1i]
            coeff[-1] = -1.0
            rows.append(coeff.copy())
            rhs.append(p2[xi, y2i])
            coeff2 = -coeff
            coeff2[-1] = -1.0
            rows.append(coeff2)
            rhs.append(-p2[xi, y2i])
    res = linprog(c, A_ub=np.asarray(rows), b_ub=np.asarray(rhs),
                  A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * nw + [(0.0, None)], method="highs")
    if not res.success:
        raise GuardError(f"degradedness LP failed: {res.message}")
    t = float(res.x[-1])
    w = np.asarray(res.x[:nw]).reshape(m1, m2)
    if t <= DEGRADED_TOL:
        return ClassVerdict("degraded", True, witness={"kernel": w.tolist(), "residual": t})
    return ClassVerdict("degraded", False, witness={"kernel": w.tolist(), "residual": t})


def _sweep_budget(sweeps: int, cells: int) -> int:
    """Refinement budget worth `sweeps` full pair sweeps over `cells` cells."""
    return sweeps * math.comb(cells, 2) * (GOLDEN_ITERS + 1)


def _capability_gap(p_x: np.ndarray, ch: Channel) -> float:
    """I(X;Y1) - I(X;Y2) at the input distribution p_x."""
    joint_xx = np.diag(p_x)
    return _uy_mi(joint_xx, ch.y1_given_x()) - _uy_mi(joint_xx, ch.y2_given_x())


def is_more_capable_grid(ch: Channel, resolution: int | None = None) -> ClassVerdict:
    """Grid verdict on I(X;Y1) >= I(X;Y2) for all p(x): lattice sweep plus
    local descent from the five worst lattice points."""
    if resolution is None:
        resolution = default_resolution(ch.x.size)
    if resolution < 2:
        raise InputError("resolution must be at least 2")
    scored = []
    for p in lattice_points(ch.x.size, resolution):
        scored.append((_capability_gap(p, ch), p))
    scored.sort(key=lambda sv: sv[0])
    worst = scored[:5]
    best_gap, best_p = worst[0]
    for gap, p in worst:
        refined, val = refine_on_simplex(lambda q: -_capability_gap(q, ch), p,
                                         _sweep_budget(8, ch.x.size))
        if -val < best_gap:
            best_gap, best_p = -val, refined
    if best_gap < -WITNESS_TOL:
        return ClassVerdict("more_capable", False,
                            witness={"p_x": best_p.tolist(), "gap": best_gap},
                            grid_resolution=resolution)
    return ClassVerdict("more_capable", True, grid_resolution=resolution)


def _uy_mi(joint_ux: np.ndarray, p_y_x: np.ndarray) -> float:
    """I(U; Y) in bits for a joint p(u, x) and a marginal kernel p(y | x)."""
    joint_uy = joint_ux @ p_y_x
    p_u = joint_uy.sum(axis=1)
    p_y = joint_uy.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = p_u[:, None] * p_y[None, :]
        ratio = np.where(joint_uy > 0.0, joint_uy / np.where(denom > 0.0, denom, 1.0), 1.0)
        terms = np.where(joint_uy > 0.0, joint_uy * np.log2(ratio), 0.0)
    return float(terms.sum())


def is_less_noisy_grid(ch: Channel, u_size: int = 2,
                       resolution: int | None = None) -> ClassVerdict:
    """Grid verdict on I(U;Y1) >= I(U;Y2) over joints p(u, x) with |U| = u_size.

    The lattice lives on the |U|*|X|-cell simplex; when it is too large to
    enumerate it is subsampled with a fixed seed so the verdict stays
    reproducible.
    """
    if u_size < 2:
        raise InputError("u_size must be at least 2")
    if resolution is None:
        resolution = max(4, default_resolution(ch.x.size) // 2)
    if resolution < 2:
        raise InputError("resolution must be at least 2")
    cells = u_size * ch.x.size

    def gap_of(flat: np.ndarray) -> float:
        return _uy_mi(flat.reshape(u_size, ch.x.size), ch.y1_given_x()) - \
            _uy_mi(flat.reshape(u_size, ch.x.size), ch.y2_given_x())

    if lattice_count(cells, resolution) <= LATTICE_CAP:
        candidates = lattice_points(cells, resolution)
    else:
        rng = np.random.default_rng((_SAMPLE_SEED, u_size, resolution))
        candidates = sample_lattice(rng, cells, resolution, LATTICE_CAP // 10)
    scored = []
    for p in candidates:
        scored.append((gap_of(p), p))
    scored.sort(key=lambda sv: sv[0])
    best_gap, best_p = scored[0]
    for gap, p in scored[:5]:
        refined, val = refine_on_simplex(lambda q: -gap_of(q), p, _sweep_budget(6, cells))
        if -val < best_gap:
            best_gap, best_p = -val, refined
    if best_gap < -WITNESS_TOL:
        return ClassVerdict("less_noisy", False,
                            witness={"joint_ux": best_p.reshape(u_size, ch.x.size).tolist(),
                                     "gap": best_gap},
                            grid_resolution=resolution)
    return ClassVerdict("less_noisy", True, grid_resolution=resolution)


def classify_all(ch: Channel, resolution: int | None = None, u_size: int = 2) -> dict:
    """All four verdicts keyed by property name."""
    return {
        "deterministic": is_deterministic(ch),
        "degraded": is_degraded(ch),
        "more_capable": is_more_capable_grid(ch, resolution),
        "less_noisy": is_less_noisy_grid(ch, u_size, resolution),
    }
