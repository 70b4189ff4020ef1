"""Entropy and mutual information functionals on finite joints, in bits.

Every entropy is one _entropy_rows call, and every (conditional) mutual
information is a sum of marginal entropies,
I(A; B | C) = H(A, C) + H(B, C) - H(C) - H(A, B, C). Base-2 logarithms
throughout. Tiny negative values from float cancellation
(above -1e-9) clamp to zero; anything below that raises ConsistencyError
because it indicates a bug, not rounding.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConsistencyError, InputError
from .probability import JointPmf, Pmf

CLAMP_TOL = 1e-9


def _entropy_rows(mass, ndim: int) -> np.ndarray:
    """Entropy of the trailing `ndim` axes, one value per leading index.
    Each row is reduced along one contiguous trailing axis, so its value
    does not depend on the batch it sits in. A point mass gives +0.0: the
    sum is subtracted from 0.0, which is negation for every other value."""
    m = np.asarray(mass, dtype=np.float64)
    m = m.reshape(m.shape[:m.ndim - ndim] + (-1,))
    return 0.0 - (m * np.log2(np.where(m > 0.0, m, 1.0))).sum(axis=-1)


def _entropy_of_mass(mass: np.ndarray) -> float:
    return float(_entropy_rows(mass, np.ndim(mass)))


def _clamp(value: float, what: str) -> float:
    if value < -CLAMP_TOL:
        raise ConsistencyError(f"{what} = {value} is below -{CLAMP_TOL}")
    return 0.0 if value < 0.0 else value


def entropy(p) -> float:
    """H(p) in bits, with 0 log 0 = 0. Accepts Pmf or JointPmf."""
    if isinstance(p, (Pmf, JointPmf)):
        return _entropy_of_mass(p.mass)
    return _entropy_of_mass(np.asarray(p, dtype=np.float64))


def _group_entropy(j: JointPmf, axes) -> float:
    return _entropy_of_mass(j.marginal(axes).mass) if axes else 0.0


def _information(j: JointPmf, a: tuple, b: tuple, c: tuple, what: str) -> float:
    """I(A; B | C) = H(A, C) + H(B, C) - H(C) - H(A, B, C), clamped at zero;
    exactly 0 when A or B is empty or spans a single cell."""
    if len(set(a + b + c)) < len(a + b + c):
        raise InputError(f"{what} groups overlap")
    if min(math.prod(j.axes[i].size for i in group) for group in (a, b)) <= 1:
        return 0.0
    value = (_group_entropy(j, a + c) + _group_entropy(j, b + c) - _group_entropy(j, c)
             - _group_entropy(j, a + b + c))
    return _clamp(value, what)


def mutual_information(j: JointPmf, group_a, group_b) -> float:
    """I(A; B) = H(A) + H(B) - H(A, B), clamped at zero."""
    a = j.resolve_axes(group_a)
    b = j.resolve_axes(group_b)
    if not a or not b:
        raise InputError("mutual information groups must be nonempty")
    return _information(j, a, b, (), "mutual information")


def conditional_mutual_information(j: JointPmf, group_a, group_b, group_c) -> float:
    """I(A; B | C) from four group entropies. Reduces to I(A; B) when C is
    empty, and is 0 when A or B is."""
    return _information(j, j.resolve_axes(group_a), j.resolve_axes(group_b),
                        j.resolve_axes(group_c), "conditional mutual information")
