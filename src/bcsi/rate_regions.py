"""Achievable-rate and capacity regions for the five-message setup.

Receiver 1 requests (M1, M2, M4) and already knows M5; receiver 2 requests
(M1, M3, M5) and knows M4. The general inner bound is parameterized by a
joint p(u0, u1, u2) and a map x = gamma(u0, u1, u2); its five inequalities
come from mutual covering plus packing at both receivers, and this module
also reproduces the pre-projection conditions in split-rate variables and
projects them back down, which must land on the same region.

For deterministic channels and more-capable channels the inner bound is
tight and the closed-form regions are built directly from p(u, x).

Each theorem system is written once: the left-hand sides _LHS5 / _LHS3 and
the float right-hand-side formulas _t1_rows / _t2_rows / _t3_rows, which
the region builders use and the optimizer evaluates in batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classifier import is_deterministic
from .errors import InputError
from .info_measures import _entropy_rows, conditional_mutual_information, mutual_information
# perfbench/layers.py traces rate_regions.entropy by this name
from .info_measures import entropy  # noqa: F401
from .polytope import (LinearInequality, LinearSystem, RateRegion, RATE_VARS,
                       fme_eliminate, remove_redundant)
from .probability import Alphabet, AuxScheme, Channel, JointPmf, induced_joint

SPLIT_VARS = ("R1", "R21", "R22", "R31", "R32", "R4", "R5", "Rp1", "Rp2")
ELIMINATION_ORDER = ("Rp1", "Rp2", "R21", "R22", "R31", "R32")


@dataclass(frozen=True)
class SplitRates:
    """Operating point in split-rate coordinates. R2 = r21 + r22 and
    R3 = r31 + r32 by construction; rp1/rp2 are the bin rates."""

    r1: float = 0.0
    r21: float = 0.0
    r22: float = 0.0
    r31: float = 0.0
    r32: float = 0.0
    r4: float = 0.0
    r5: float = 0.0
    rp1: float = 0.0
    rp2: float = 0.0

    def __post_init__(self):
        for name in ("r1", "r21", "r22", "r31", "r32", "r4", "r5", "rp1", "rp2"):
            if getattr(self, name) < 0:
                raise InputError(f"split rate {name} is negative")

    @property
    def r2(self) -> float:
        return self.r21 + self.r22

    @property
    def r3(self) -> float:
        return self.r31 + self.r32


@dataclass(frozen=True)
class MiConstants:
    """The five information quantities that bound the inner-bound region."""

    i_u0u1_y1: float
    i_u0u2_y2: float
    i_u1_y1_given_u0: float
    i_u2_y2_given_u0: float
    i_u1_u2_given_u0: float


def mi_constants(scheme: AuxScheme, ch: Channel) -> MiConstants:
    j = induced_joint(scheme, ch)
    return MiConstants(
        i_u0u1_y1=mutual_information(j, ("U0", "U1"), ("Y1",)),
        i_u0u2_y2=mutual_information(j, ("U0", "U2"), ("Y2",)),
        i_u1_y1_given_u0=conditional_mutual_information(j, ("U1",), ("Y1",), ("U0",)),
        i_u2_y2_given_u0=conditional_mutual_information(j, ("U2",), ("Y2",), ("U0",)),
        i_u1_u2_given_u0=conditional_mutual_information(j, ("U1",), ("U2",), ("U0",)),
    )


def _ineq(coeffs: dict, rhs: float) -> LinearInequality:
    return LinearInequality({v: Fraction(c) for v, c in coeffs.items()}, rhs)


# left-hand sides of the five-inequality regions (t1, t2) and of the
# three-inequality more-capable region (t3), rows over R1..R5
_LHS5 = np.array([
    [1.0, 1.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 1.0, 0.0],
    [1.0, 1.0, 1.0, 0.0, 1.0],
    [2.0, 1.0, 1.0, 1.0, 1.0],
])
_LHS3 = np.array([
    [1.0, 0.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 0.0, 1.0],
    [1.0, 1.0, 1.0, 1.0, 0.0],
])


def _system(lhs: np.ndarray, rhs: np.ndarray) -> LinearSystem:
    return LinearSystem(RATE_VARS, [_ineq(dict(zip(RATE_VARS, row)), b)
                                    for row, b in zip(lhs, rhs)])


def _marton_rhs(i_u0u1_y1, i_u0u2_y2, i_u1_y1_given_u0, i_u2_y2_given_u0,
                i_u1_u2_given_u0) -> np.ndarray:
    """Right-hand sides (..., 5) of the _LHS5 rows of the general inner bound."""
    return np.stack(np.broadcast_arrays(
        i_u0u1_y1, i_u0u2_y2, i_u0u1_y1 + i_u2_y2_given_u0 - i_u1_u2_given_u0,
        i_u0u2_y2 + i_u1_y1_given_u0 - i_u1_u2_given_u0,
        i_u0u1_y1 + i_u0u2_y2 - i_u1_u2_given_u0), axis=-1)


def marton_region(scheme: AuxScheme, ch: Channel) -> RateRegion:
    """The five-inequality inner bound for a fixed auxiliary scheme."""
    c = mi_constants(scheme, ch)
    rhs = _marton_rhs(c.i_u0u1_y1, c.i_u0u2_y2, c.i_u1_y1_given_u0,
                      c.i_u2_y2_given_u0, c.i_u1_u2_given_u0)
    return RateRegion(_system(_LHS5, rhs),
                      provenance={"kind": "t1", "aux_sizes": list(scheme.sizes)})


def receiver_joints(aux: np.ndarray, gamma: np.ndarray, k1: np.ndarray,
                    k2: np.ndarray) -> tuple:
    """Float joints p(u0, u1, y1) and p(u0, u2, y2) of schemes (aux, gamma), each
    (..., |U0|, |U1|, |U2|) with broadcast leading axes, over k1 = p(y1|x), k2 = p(y2|x)."""
    return (np.einsum("...abc,...abcy->...aby", aux, k1[gamma]),
            np.einsum("...abc,...abcy->...acy", aux, k2[gamma]))


def _t1_rows(aux: np.ndarray, gamma: np.ndarray, k1: np.ndarray, k2: np.ndarray):
    """Right-hand sides (..., 5) of the five-inequality bound for float (joint, gamma)
    pairs, and keys (..., 4) = (I(U0U1;Y1), I(U1;Y1|U0), I(U0U2;Y2), I(U2;Y2|U0)).
    Contractions are einsums, so each row is bitwise independent of its batch.
    As in mi_constants, an information term whose first or second group spans
    a single cell is exactly 0, decided by shape."""
    u0, u1, u2 = aux.shape[-3:]
    y1, y2 = k1.shape[-1], k2.shape[-1]
    p01y, p02y = receiver_joints(aux, gamma, k1, k2)
    zero = np.zeros(p01y.shape[:-3])
    h0 = _entropy_rows(aux.sum(axis=(-2, -1)), 1)
    h01 = _entropy_rows(aux.sum(axis=-1), 2)
    h02 = _entropy_rows(np.einsum("...abc->...ac", aux), 2)
    a_c = (zero if 1 in (u1, u2)
           else np.maximum(h01 + h02 - h0 - _entropy_rows(aux, 3), 0.0))
    h_01y = _entropy_rows(p01y, 3)
    big1 = (zero if 1 in (u0 * u1, y1) else
            np.maximum(h01 + _entropy_rows(np.einsum("...aby->...y", p01y), 1) - h_01y, 0.0))
    b1 = (zero if 1 in (u1, y1) else
          np.maximum(h01 + _entropy_rows(np.einsum("...aby->...ay", p01y), 2) - h0 - h_01y, 0.0))
    h_02y = _entropy_rows(p02y, 3)
    big2 = (zero if 1 in (u0 * u2, y2) else
            np.maximum(h02 + _entropy_rows(np.einsum("...acy->...y", p02y), 1) - h_02y, 0.0))
    b2 = (zero if 1 in (u2, y2) else
          np.maximum(h02 + _entropy_rows(np.einsum("...acy->...ay", p02y), 2) - h0 - h_02y, 0.0))
    return _marton_rhs(big1, big2, b1, b2, a_c), np.stack([big1, b1, big2, b2], axis=-1)


def _t2_rows(p_ux: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """Deterministic-channel formula right-hand sides (..., 5) (_LHS5) from
    p(u, x) tables (..., |U|, |X|)."""
    p_uy1 = np.einsum("...ux,xy->...uy", p_ux, k1)
    p_uy2 = np.einsum("...ux,xy->...uy", p_ux, k2)
    h_y1 = _entropy_rows(np.einsum("...uy->...y", p_uy1), 1)
    h_y2 = _entropy_rows(np.einsum("...uy->...y", p_uy2), 1)
    h_uy1 = _entropy_rows(p_uy1, 2)
    h_uy1y2 = _entropy_rows(np.einsum("...ux,xa,xb->...uab", p_ux, k1, k2), 3)
    h_y2_g = h_uy1y2 - h_uy1
    h_y1_g = h_uy1y2 - _entropy_rows(p_uy2, 2)
    i_uy1 = np.maximum(_entropy_rows(p_ux.sum(axis=-1), 1) + h_y1 - h_uy1, 0.0)
    return np.stack([h_y1, h_y2, h_y1 + h_y2_g, h_y2 + h_y1_g, i_uy1 + h_y2 + h_y1_g],
                    axis=-1)


def _t3_rows(p_ux: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """More-capable formula right-hand sides (..., 3) (_LHS3) from p(u, x)
    tables (..., |U|, |X|)."""
    p_uy2 = np.einsum("...ux,xy->...uy", p_ux, k2)
    p_x = np.einsum("...ux->...x", p_ux)
    p_xy1 = np.einsum("...x,xy->...xy", p_x, k1)
    h_u = _entropy_rows(p_ux.sum(axis=-1), 1)
    i_u_y2 = np.maximum(h_u + _entropy_rows(np.einsum("...uy->...y", p_uy2), 1)
                        - _entropy_rows(p_uy2, 2), 0.0)
    i_x_y1_u = np.maximum(_entropy_rows(p_ux, 2)
                          + _entropy_rows(np.einsum("...ux,xy->...uy", p_ux, k1), 2) - h_u
                          - _entropy_rows(np.einsum("...ux,xy->...uxy", p_ux, k1), 3), 0.0)
    i_x_y1 = np.maximum(_entropy_rows(p_x, 1) + _entropy_rows(np.einsum("...xy->...y", p_xy1), 1)
                        - _entropy_rows(p_xy1, 2), 0.0)
    return np.stack([i_u_y2, i_u_y2 + i_x_y1_u, i_x_y1], axis=-1)


def raw_coding_system(consts: MiConstants) -> LinearSystem:
    """Pre-projection achievability conditions over the split-rate variables.

    One covering condition (encoded in <= form by negation), two per-receiver
    packing pairs, and nonnegativity for all nine variables. The first five
    rows are the coding conditions the simulator's bin-rate planner meets.
    """
    rows = [
        _ineq({"Rp1": -1, "Rp2": -1}, -consts.i_u1_u2_given_u0),
        _ineq({"R22": 1, "Rp1": 1}, consts.i_u1_y1_given_u0),
        _ineq({"R1": 1, "R21": 1, "R31": 1, "R4": 1, "R22": 1, "Rp1": 1},
              consts.i_u0u1_y1),
        _ineq({"R32": 1, "Rp2": 1}, consts.i_u2_y2_given_u0),
        _ineq({"R1": 1, "R21": 1, "R31": 1, "R5": 1, "R32": 1, "Rp2": 1},
              consts.i_u0u2_y2),
    ]
    for v in SPLIT_VARS:
        rows.append(_ineq({v: -1}, 0.0))
    return LinearSystem(SPLIT_VARS, rows)


def project_raw_system(sys: LinearSystem) -> RateRegion:
    """Substitute R2 = R21 + R22 and R3 = R31 + R32 (as opposing inequality
    pairs), eliminate the six auxiliary rate variables, and redundancy-clean
    the projection over the rate box."""
    variables = tuple(sys.variables) + ("R2", "R3")
    rows = list(sys.inequalities)
    rows.append(_ineq({"R21": 1, "R22": 1, "R2": -1}, 0.0))
    rows.append(_ineq({"R2": 1, "R21": -1, "R22": -1}, 0.0))
    rows.append(_ineq({"R31": 1, "R32": 1, "R3": -1}, 0.0))
    rows.append(_ineq({"R3": 1, "R31": -1, "R32": -1}, 0.0))
    work = fme_eliminate(LinearSystem(variables, rows), *ELIMINATION_ORDER)
    reduced = remove_redundant(LinearSystem(RATE_VARS, work.inequalities))
    return RateRegion(reduced, provenance={"kind": "t1-projection"})


def _ux_float(p_ux: JointPmf, ch: Channel) -> np.ndarray:
    """p(u, x) as a float table, checked against the channel input."""
    if len(p_ux.axes) != 2:
        raise InputError("expected a two-axis joint p(u, x)")
    if p_ux.axes[1].size != ch.x.size:
        raise InputError("p(u, x) input alphabet does not match the channel")
    return p_ux.mass


def deterministic_region(p_ux: JointPmf, ch: Channel) -> RateRegion:
    """Capacity region formula for channels whose outputs are functions of
    the input, evaluated at one p(u, x)."""
    verdict = is_deterministic(ch)
    if not verdict.holds:
        raise InputError("channel is not deterministic")
    rows = _t2_rows(_ux_float(p_ux, ch), ch.y1_given_x(), ch.y2_given_x())
    return RateRegion(_system(_LHS5, rows), provenance={"kind": "t2"})


def more_capable_region(p_ux: JointPmf, ch: Channel) -> RateRegion:
    """Three-inequality region that is capacity for more-capable channels;
    an inner bound regardless of class."""
    rows = _t3_rows(_ux_float(p_ux, ch), ch.y1_given_x(), ch.y2_given_x())
    return RateRegion(_system(_LHS3, rows), provenance={"kind": "t3"})


def specialize_scheme(kind: str, base, ch: Channel) -> AuxScheme:
    """Build the auxiliary scheme matching a known specialization.

    kinds: complementary (U0 carries X, base = p(x)); degraded_rx1 /
    more_capable (U0, U1) = (U, X); degraded_rx2 with the receiver roles
    swapped; deterministic (U0, U1, U2) = (U, Y1, Y2) with gamma any input
    consistent with the output pair.
    """
    if kind == "complementary":
        px = base
        u0 = Alphabet("U0", px.alphabet.symbols)
        axes = (u0, Alphabet.indexed("U1", 1), Alphabet.indexed("U2", 1))
        mass = px.mass.reshape(px.alphabet.size, 1, 1)
        gamma = np.arange(px.alphabet.size, dtype=np.int64).reshape(-1, 1, 1)
        return AuxScheme(JointPmf(axes, mass), gamma)

    if kind in ("degraded_rx1", "more_capable", "degraded_rx2"):
        p_ux = base
        u_size, x_size = p_ux.axes[0].size, p_ux.axes[1].size
        # the satellite that carries X: U1 (receiver 1 stronger) or U2
        sizes = (u_size, 1, x_size) if kind == "degraded_rx2" else (u_size, x_size, 1)
        axes = tuple(Alphabet.indexed(n, k) for n, k in zip(("U0", "U1", "U2"), sizes))
        gamma = np.tile(np.arange(x_size, dtype=np.int64).reshape(1, *sizes[1:]), (u_size, 1, 1))
        return AuxScheme(JointPmf(axes, p_ux.mass.reshape(sizes)), gamma)

    if kind == "deterministic":
        p_ux = base
        verdict = is_deterministic(ch)
        if not verdict.holds:
            raise InputError("deterministic specialization needs a deterministic channel")
        phi1 = np.asarray(verdict.witness["phi1"])
        phi2 = np.asarray(verdict.witness["phi2"])
        u_size = p_ux.axes[0].size
        m1, m2 = ch.y1.size, ch.y2.size
        # gamma on a realized output pair: lowest-index consistent input
        pairs, lowest = np.unique(phi1 * m2 + phi2, return_index=True)
        gamma = np.zeros(m1 * m2, dtype=np.int64)
        gamma[pairs] = lowest
        gamma = np.tile(gamma.reshape(1, m1, m2), (u_size, 1, 1))
        # masses summed over the inputs of each output pair, in input order
        mass = np.zeros((u_size, m1, m2))
        np.add.at(mass, (np.arange(u_size)[:, None], phi1, phi2), p_ux.mass)
        axes = (Alphabet.indexed("U0", u_size), Alphabet.indexed("U1", m1),
                Alphabet.indexed("U2", m2))
        return AuxScheme(JointPmf(axes, mass), gamma)

    raise InputError(f"unknown specialization kind {kind!r}")
