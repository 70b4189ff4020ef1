"""Entropy and mutual information functionals on finite joints, in bits.

Base-2 logarithms throughout. Tiny negative values from float cancellation
(above -1e-9) clamp to zero; anything below that raises ConsistencyError
because it indicates a bug, not rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, InputError
from .probability import JointPmf, Pmf

CLAMP_TOL = 1e-9


def _entropy_of_mass(mass: np.ndarray) -> float:
    m = np.asarray(mass, dtype=np.float64).reshape(-1)
    pos = m[m > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def _clamp(value: float, what: str) -> float:
    if value < -CLAMP_TOL:
        raise ConsistencyError(f"{what} = {value} is below -{CLAMP_TOL}")
    return 0.0 if value < 0.0 else value


def entropy(p) -> float:
    """H(p) in bits, with 0 log 0 = 0. Accepts Pmf or JointPmf."""
    if isinstance(p, (Pmf, JointPmf)):
        return _entropy_of_mass(p.as_float())
    return _entropy_of_mass(np.asarray(p, dtype=np.float64))


def _group_entropy(j: JointPmf, axes) -> float:
    return _entropy_of_mass(j.marginal(axes).as_float())


def mutual_information(j: JointPmf, group_a, group_b) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B), clamped at zero."""
    a = j.resolve_axes(group_a)
    b = j.resolve_axes(group_b)
    if not a or not b:
        raise InputError("mutual information groups must be nonempty")
    if set(a) & set(b):
        raise InputError("mutual information groups overlap")
    value = _group_entropy(j, a) + _group_entropy(j, b) - _group_entropy(j, a + b)
    return _clamp(value, "mutual information")


def conditional_mutual_information(j: JointPmf, group_a, group_b, group_c) -> float:
    """I(A; B | C) as the p(c)-weighted average of the per-slice mutual
    informations. Reduces to I(A; B) when C is empty or degenerate."""
    a = j.resolve_axes(group_a)
    b = j.resolve_axes(group_b)
    c = j.resolve_axes(group_c)
    groups = [set(a), set(b), set(c)]
    for i in range(3):
        for k in range(i + 1, 3):
            if groups[i] & groups[k]:
                raise InputError("conditional mutual information groups overlap")
    if not a or not b:
        return 0.0
    if not c:
        return mutual_information(j, a, b)

    sub = j.marginal(tuple(a) + tuple(b) + tuple(c))
    mass = sub.as_float()
    # positions of the groups inside the marginal (which is sorted by axis)
    order = sorted(set(a) | set(b) | set(c))
    local = {orig: pos for pos, orig in enumerate(order)}
    la = [local[i] for i in a]
    lb = [local[i] for i in b]
    lc = [local[i] for i in c]

    c_sizes = [mass.shape[i] for i in lc]
    total = 0.0
    for combo in np.ndindex(*c_sizes):
        index = [slice(None)] * mass.ndim
        for axis, v in zip(lc, combo):
            index[axis] = v
        sliced = mass[tuple(index)]
        pc = float(sliced.sum())
        if pc <= 0.0:
            continue
        sliced = sliced / pc
        # axis positions after removing the conditioned axes
        remaining = [i for i in range(mass.ndim) if i not in lc]
        pos = {orig: k for k, orig in enumerate(remaining)}
        ha = _entropy_of_mass(sliced.sum(axis=tuple(pos[i] for i in lb)))
        hb = _entropy_of_mass(sliced.sum(axis=tuple(pos[i] for i in la)))
        hab = _entropy_of_mass(sliced)
        total += pc * (ha + hb - hab)
    return _clamp(total, "conditional mutual information")


def csiszar_sum_check(j: JointPmf, t_axes, a_axes, b_axes) -> tuple:
    """Evaluate both sides of the telescoping sum identity

        sum_i I(A^{i-1}; B_i | T, B_{i+1}^n) = sum_i I(B_{i+1}^n; A_i | T, A^{i-1})

    and return (lhs, rhs). The caller asserts the two agree.
    """
    t = list(t_axes)
    a = list(a_axes)
    b = list(b_axes)
    if len(a) != len(b) or len(a) < 1:
        raise InputError("need equally long, nonempty A and B axis sequences")
    seen = t + a + b
    if len(set(j.resolve_axes(seen))) != len(seen):
        raise InputError("axis roles overlap")
    n = len(a)
    lhs = 0.0
    rhs = 0.0
    for i in range(1, n + 1):
        lhs += conditional_mutual_information(j, a[: i - 1], [b[i - 1]], t + b[i:])
        rhs += conditional_mutual_information(j, b[i:], [a[i - 1]], t + a[: i - 1])
    return lhs, rhs
