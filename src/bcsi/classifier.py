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
from .info_measures import _entropy_rows
from .polytope import linprog
from .probability import Channel
from .simplex_search import in_chunks, lattice_or_sample, refine_on_simplex

POINT_MASS_TOL = 1e-9
DEGRADED_TOL = 1e-9
WITNESS_TOL = 1e-9
LATTICE_CAP = 250_000  # p(u, x) lattice points enumerated; a seeded tenth of that sampled above
MORE_CAPABLE_CAP = 2 ** 21  # p(x) lattice points enumerated: every default lattice up to |X| = 10
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
    a_eq[:, :nw] = np.kron(np.eye(m1), np.ones(m2))
    b_eq = np.ones(m1)
    # per (x, y2), the pair +-(sum_y1 p(y1|x) W(y2|y1) - p(y2|x)) <= t
    coeff = np.zeros((ch.x.size, m2, 2, nw + 1))
    coeff[:, :, 0, :nw] = np.einsum("xa,bc->xbac", p1, np.eye(m2)).reshape(-1, m2, nw)
    coeff[:, :, 1] = -coeff[:, :, 0]
    coeff[:, :, :, -1] = -1.0
    rhs = np.stack([p2, -p2], axis=-1)
    res = linprog(c, A_ub=coeff.reshape(-1, nw + 1), b_ub=rhs.reshape(-1),
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
    """Refinement budget, in line searches, worth `sweeps` full pair sweeps
    over `cells` cells."""
    return sweeps * math.comb(cells, 2)


def _gap(joint_ux: np.ndarray, ch: Channel) -> np.ndarray:
    """I(U;Y1) - I(U;Y2) at joints p(u, x) (..., |U|, |X|). Both receivers'
    p(u, y) come from one einsum over p(y1 | x) and p(y2 | x), stacked and
    zero-padded to a common |Y| (a zero cell adds nothing to an entropy).
    H(U) cancels, so the gap is [H(Y1) - H(U,Y1)] - [H(Y2) - H(U,Y2)]."""
    kernels = np.zeros((2, ch.x.size, max(ch.y1.size, ch.y2.size)))
    kernels[0, :, :ch.y1.size] = ch.y1_given_x()
    kernels[1, :, :ch.y2.size] = ch.y2_given_x()
    p_uy = np.einsum("...ux,kxy->...kuy", joint_ux, kernels)
    h = _entropy_rows(np.einsum("...kuy->...ky", p_uy), 1) - _entropy_rows(p_uy, 2)
    return h[..., 0] - h[..., 1]


def _capability_gap(p_x: np.ndarray, ch: Channel) -> np.ndarray:
    """I(X;Y1) - I(X;Y2) at input distributions p_x (..., |X|)."""
    return _gap(p_x[..., None] * np.eye(ch.x.size), ch)


def _worst_refined(gap, points: np.ndarray, budget: int) -> tuple:
    """Smallest gap over the lattice points (N, cells), scored in chunks:
    its five smallest points (stable order) refined together by descent.
    Returns (gap, point)."""
    gaps = in_chunks(gap, points)
    worst = np.argsort(gaps, kind="stable")[:5]
    best_gap, best_p = gaps[worst[0]], points[worst[0]]
    refined, vals = refine_on_simplex(lambda q, _: -gap(q), points[worst], budget)
    for p, val in zip(refined, vals):
        if -val < best_gap:
            best_gap, best_p = -val, p
    return float(best_gap), best_p


def is_more_capable_grid(ch: Channel, resolution: int | None = None) -> ClassVerdict:
    """Grid verdict on I(X;Y1) >= I(X;Y2) for all p(x): lattice sweep plus
    local descent from the five worst lattice points. A lattice of more than
    MORE_CAPABLE_CAP points is replaced by a fixed-seed sample of
    LATTICE_CAP // 10 of them."""
    if resolution is None:
        resolution = default_resolution(ch.x.size)
    if resolution < 2:
        raise InputError("resolution must be at least 2")
    candidates = lattice_or_sample(ch.x.size, resolution, MORE_CAPABLE_CAP, LATTICE_CAP // 10,
                                   (_SAMPLE_SEED, 1, resolution))
    best_gap, best_p = _worst_refined(lambda p: _capability_gap(p, ch), candidates,
                                      _sweep_budget(8, ch.x.size))
    if best_gap < -WITNESS_TOL:
        return ClassVerdict("more_capable", False,
                            witness={"p_x": best_p.tolist(), "gap": best_gap},
                            grid_resolution=resolution)
    return ClassVerdict("more_capable", True, grid_resolution=resolution)


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

    candidates = lattice_or_sample(cells, resolution, LATTICE_CAP, LATTICE_CAP // 10,
                                   (_SAMPLE_SEED, u_size, resolution))
    best_gap, best_p = _worst_refined(lambda p: _gap(p.reshape(-1, u_size, ch.x.size), ch),
                                      candidates, _sweep_budget(6, cells))
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
