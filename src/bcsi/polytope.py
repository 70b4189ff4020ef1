"""Linear inequality systems over named variables.

Every inequality is of the form sum(coeff * var) <= rhs with exact rational
coefficients and a float right-hand side. Fourier-Motzkin elimination combines
rows in exact integer arithmetic: each row is scaled by the lcm of its
coefficients' denominators, all pairs of one step are formed as one int64
array, and rows too wide for int64 are combined as Python ints. Strict
inequalities from the achievability analysis are represented closed
throughout; regions are their closures. The LP layer is scipy's HiGHS,
imported on the first solve; only the 1e-7 tolerance contract is normative,
not the method.

Every variable lives in the rate box [0, BOX_HI]. Redundancy, containment
and feasibility are first tried without an LP: a row holds when a sum of at
most two rows of the system bounds it over the box; a system is feasible when
the origin satisfies it (every rhs >= 0) and infeasible when some row's
minimum over the box exceeds its rhs by more than 1e-7. These are exact
proofs, so HiGHS, called only when they fail, makes the same decision at the
same 1e-7 tolerance wherever they succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Iterable, Mapping

import numpy as np

from .errors import GuardError, InputError
from .probability import exact_number

REDUNDANCY_TOL = 1e-7
MEMBER_TOL = 1e-9
FME_ROW_CAP = 100_000
BOX_HI = 64.0  # every variable lies in [0, BOX_HI]
RATE_VARS = ("R1", "R2", "R3", "R4", "R5")


@dataclass
class LinearInequality:
    """sum_v coeffs[v] * v <= rhs. Only nonzero coefficients are stored;
    an empty coefficient map is a vacuous (or contradictory) row, which can
    appear as a projection byproduct."""

    coeffs: dict
    rhs: float

    def __post_init__(self):
        clean = {}
        for var, c in self.coeffs.items():
            if not isinstance(c, Fraction):
                c = Fraction(c)
            if c != 0:
                clean[var] = c
        self.coeffs = clean
        self.rhs = float(self.rhs)

    def canonical(self) -> "LinearInequality":
        """Scale by the positive rational making the coefficients a primitive
        integer vector (sense preserved). A primitive integer row comes back
        as an unscaled copy."""
        if not self.coeffs:
            return LinearInequality({}, self.rhs)
        denom_lcm = lcm(*(c.denominator for c in self.coeffs.values()))
        g = gcd(*(c.numerator * (denom_lcm // c.denominator) for c in self.coeffs.values()))
        if denom_lcm == g == 1:
            return LinearInequality(dict(self.coeffs), self.rhs)
        scale = Fraction(denom_lcm, g)
        coeffs = {v: c * scale for v, c in self.coeffs.items()}
        return LinearInequality(coeffs, self.rhs * float(scale))

    def key(self) -> tuple:
        return tuple(sorted((v, c) for v, c in self.coeffs.items()))

    def is_vacuous(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return f"0 <= {self.rhs:g}"
        terms = " + ".join(f"{c}*{v}" if c != 1 else v for v, c in sorted(self.coeffs.items()))
        return f"{terms} <= {self.rhs:g}"


@dataclass
class LinearSystem:
    """A conjunction of inequalities over a declared variable set."""

    variables: tuple
    inequalities: list = field(default_factory=list)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        declared = set(self.variables)
        for ineq in self.inequalities:
            undeclared = set(ineq.coeffs) - declared
            if undeclared:
                raise InputError(f"inequality uses undeclared variables {sorted(undeclared)}")

    def to_jsonable(self) -> dict:
        return {
            "variables": list(self.variables),
            "inequalities": [
                {"coeffs": {v: str(c) for v, c in sorted(ineq.coeffs.items())},
                 "rhs": ineq.rhs}
                for ineq in self.inequalities
            ],
        }


def _dedup(rows: Iterable[LinearInequality]) -> list:
    """Rows sharing a coefficient vector keep the tightest rhs, at the
    position of the first of them. The rows must be canonical."""
    best = {}
    for row in rows:
        k = row.key()
        if k not in best or row.rhs < best[k].rhs:
            best[k] = row
    return list(best.values())


def _minimal(sets: Iterable[int]) -> tuple:
    """The sets (int bitmasks) that contain no other set of the input."""
    out = []
    for s in sorted(set(sets), key=int.bit_count):
        if not any(t & s == t for t in out):
            out.append(s)
    return tuple(out)


# Largest coefficient or denominator size for which one elimination step
# stays in int64 arithmetic: a pair's combined coefficients are below 2**53,
# so they neither wrap nor lose bits as float64, and numpy's float division of
# two such integers is their correctly rounded quotient. Larger rows are
# combined as Python ints.
_INT64_SAFE = 1 << 26


def _fit(a: np.ndarray, den: np.ndarray) -> tuple:
    """The coefficient matrix a and the denominators den as int64 when every
    entry is at most _INT64_SAFE in size, else as arrays of Python ints."""
    widest = max(np.abs(a).max(initial=0), np.abs(den).max(initial=0))
    dtype = np.int64 if widest <= _INT64_SAFE else object
    return a.astype(dtype), den.astype(dtype)


def fme_eliminate(sys: LinearSystem, *variables: str) -> LinearSystem:
    """Project out the variables, in order, by pairing rows of opposite sign
    on each.

    The rows become one integer matrix, each row scaled by the lcm of its
    coefficients' denominators (row i is a[i] / den[i]), and every step
    forms all its pairs at once in exact integer arithmetic; the rhs
    combination is float. Each row comes out canonical, as
    LinearInequality.canonical gives it: pairing p (coefficient a_p on the
    variable) with q (a_q < 0) forms -a_q * p + a_p * q, with rhs
    float(-a_q) * p.rhs + float(a_p) * q.rhs, then scaled by the positive
    rational making it a primitive integer row. Rows come out of a step in
    this order: rows free of the variable, then pairs, p-major; exact
    duplicates collapse at the first one's position.

    Each row carries the sets of input rows it combines, as int bitmasks:
    the unions of one set of each parent, pooled over duplicates. After the
    k-th step, a derivation that combines more than k+1 input rows is
    implied by the others (Chernikov's rule): its set is dropped, and a row
    with no set left is dropped without an LP. A row keeps every minimal
    set, which keeps the rule exact: each step keeps every row that pruned
    elimination without merging would keep. The sets live only in this
    call, so a later call starts afresh. Aborts if an unpruned step would
    exceed FME_ROW_CAP rows.
    """
    if not variables or len(set(variables)) < len(variables):
        raise InputError(f"need distinct variables to eliminate, got {list(variables)}")
    for var in variables:
        if var not in sys.variables:
            raise InputError(f"variable {var!r} not declared")
    names = list(sys.variables)
    index = {v: i for i, v in enumerate(names)}
    a = np.zeros((len(sys.inequalities), len(names)), dtype=object)
    den = np.ones(len(sys.inequalities), dtype=object)
    for i, row in enumerate(sys.inequalities):
        den[i] = lcm(*(c.denominator for c in row.coeffs.values()))
        for v, c in row.coeffs.items():
            a[i, index[v]] = c.numerator * (den[i] // c.denominator)
    b = np.array([r.rhs for r in sys.inequalities], dtype=float)
    row_sets = [(1 << i,) for i in range(len(b))]
    for step, var in enumerate(variables, 1):
        a, den = _fit(a, den)
        j = names.index(var)
        zero, pos, neg = (np.flatnonzero(m) for m in (a[:, j] == 0, a[:, j] > 0, a[:, j] < 0))
        projected = len(zero) + len(pos) * len(neg)
        if projected > FME_ROW_CAP:
            raise GuardError(
                f"eliminating {var!r} would create {projected} inequalities (cap {FME_ROW_CAP})")
        p, q = np.repeat(pos, len(neg)), np.tile(neg, len(pos))
        alpha, beta = -a[q, j], a[p, j]  # > 0: p is scaled by alpha / den[q], q by beta / den[p]
        rows = np.concatenate([a[zero], alpha[:, None] * a[p] + beta[:, None] * a[q]])
        rows_den = np.concatenate([den[zero], den[p] * den[q]])
        rhs = np.concatenate([b[zero], (alpha / den[q]).astype(float) * b[p]
                              + (beta / den[p]).astype(float) * b[q]])
        # canonical form: divide by the gcd, and scale the rhs by the correctly
        # rounded rows_den / gcd; a row with no coefficient left keeps its rhs
        g = np.gcd.reduce(rows, axis=1)
        vacuous = g == 0
        g[vacuous] = 1
        rhs = rhs * np.where(vacuous, 1.0, (rows_den / g).astype(float))
        rows = rows // g[:, None]
        derived = [row_sets[i] for i in zero.tolist()]
        derived += [tuple(x | y for x in row_sets[i] for y in row_sets[k])
                    for i, k in zip(p.tolist(), q.tolist())]
        # exact duplicates pool their source sets at the first one's position
        pooled = {}
        for i, key in enumerate(zip(map(tuple, rows.tolist()), rhs.tolist())):
            pooled.setdefault(key, (i, []))[1].extend(derived[i])
        kept, row_sets = [], []
        for i, sets in pooled.values():
            sets = _minimal(s for s in sets if s.bit_count() <= step + 1)
            if sets:
                kept.append(i)
                row_sets.append(sets)
        kept = np.array(kept, dtype=int)
        a, b, den = np.delete(rows[kept], j, axis=1), rhs[kept], np.ones(len(kept), dtype=object)
        del names[j]
    return LinearSystem(names, [
        LinearInequality({v: Fraction(c) for v, c in zip(names, row) if c}, row_rhs)
        for row, row_rhs in zip(a.tolist(), b.tolist())])


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first solve: importing
    scipy.optimize takes about half a second, which verbs that solve no LP
    should not pay. It is taken from its defining module, so that a wrapper
    put on scipy.optimize.linprog (perfbench/layers.py wraps it for the
    simulator's LP) does not count these solves a second time."""
    from scipy.optimize._linprog import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def _matrix(rows, variables) -> tuple:
    """The rows as a float coefficient matrix over the variables, and their
    right-hand sides."""
    var_index = {v: i for i, v in enumerate(variables)}
    a = np.zeros((len(rows), len(variables)))
    b = np.zeros(len(rows))
    for i, r in enumerate(rows):
        for v, c in r.coeffs.items():
            a[i, var_index[v]] = float(c)
        b[i] = r.rhs
    return a, b


def maximize(sys: LinearSystem, objective: Mapping[str, float]):
    """Maximize sum(objective[v] * v) subject to the system within the box.

    Returns (status, value, point) with status one of "optimal" or
    "infeasible". The box bounds every variable, so unbounded cannot occur.
    """
    rows = [r for r in sys.inequalities if not r.is_vacuous()]
    for r in sys.inequalities:
        if r.is_vacuous() and r.rhs < -MEMBER_TOL:
            return "infeasible", None, None
    a_ub, b_ub = _matrix(rows, sys.variables)
    c = np.zeros(len(sys.variables))
    for v, w in objective.items():
        c[sys.variables.index(v)] = -float(w)
    res = linprog(c, A_ub=a_ub if len(rows) else None, b_ub=b_ub if len(rows) else None,
                  bounds=[(0.0, BOX_HI)] * len(sys.variables), method="highs")
    if res.status == 2:
        return "infeasible", None, None
    if not res.success:
        raise GuardError(f"LP solver failed: {res.message}")
    return "optimal", float(-res.fun), np.asarray(res.x)


def is_feasible(sys: LinearSystem) -> bool:
    """Decided without an LP when the origin satisfies every row (True) or
    some row's minimum over the box exceeds its rhs by more than 1e-7
    (False: the LP's tolerance cannot absorb that)."""
    a, b = _matrix(sys.inequalities, sys.variables)
    if (b >= 0).all():
        return True
    if (BOX_HI * np.minimum(a, 0.0).sum(axis=1) > b + REDUNDANCY_TOL).any():
        return False
    status, _, _ = maximize(sys, {})
    return status == "optimal"


def _lp_holds(sys: LinearSystem, row: LinearInequality) -> bool:
    """The LP decision: row's left side cannot exceed its rhs + 1e-7 over
    the system within the box (and the system is feasible)."""
    status, value, _ = maximize(sys, {v: float(c) for v, c in row.coeffs.items()})
    return status == "optimal" and value <= row.rhs + REDUNDANCY_TOL


class _RowSums:
    """Sums of zero, one or two rows of a system, for LP-free proofs that a
    row holds on the box intersected with the system.

    If s is such a sum, every point x of the region has a.x = s.x + (a-s).x
    <= rhs_s + max over the box of (a-s).x, so a row a.x <= rhs holds when
    that bound is at most rhs. The bound is a proof, stronger than the LP's
    rhs + 1e-7, so whatever it decides the LP decides the same way. The sums
    are built once; pairs are used only while there are at most PAIR_CAP of
    them, so that a failed proof costs well under one LP.
    """

    PAIR_CAP = 1 << 14

    def __init__(self, rows, variables):
        self.variables = variables
        n = len(rows)
        i, j = np.triu_indices(n, 1) if n * (n - 1) // 2 <= self.PAIR_CAP else ((), ())
        # sum k adds rows first[k] and second[k]; row n is zero and always usable
        self.first = np.concatenate([[n], np.arange(n), i]).astype(int)
        self.second = np.concatenate([[n], np.full(n, n), j]).astype(int)
        a, b = _matrix(rows, variables)
        a, b = np.vstack([a, np.zeros(len(variables))]), np.append(b, 0.0)
        self.coeffs = a[self.first] + a[self.second]
        self.rhs = b[self.first] + b[self.second]

    def holds(self, row: LinearInequality, usable=None) -> bool:
        """True if some sum of usable rows (a bool mask, default all) proves
        row. False means only that no such sum does."""
        d = _matrix([row], self.variables)[0][0] - self.coeffs
        proved = self.rhs + BOX_HI * np.maximum(d, 0.0).sum(axis=1) <= row.rhs
        if usable is not None:
            ok = np.append(usable, True)
            proved &= ok[self.first] & ok[self.second]
        return bool(proved.any())


def _empty_system(variables) -> LinearSystem:
    """Canonical representation of an empty region: sum of all variables
    <= -1, which no point in the nonnegative box satisfies."""
    row = LinearInequality({v: Fraction(1) for v in variables}, -1.0)
    return LinearSystem(tuple(variables), [row])


def remove_redundant(sys: LinearSystem) -> LinearSystem:
    """Drop every inequality whose left side cannot exceed rhs + 1e-7 over
    the remaining system within the box. An infeasible input is reported as
    the canonical empty region."""
    rows = []
    for r in sys.inequalities:
        r = r.canonical()
        if r.is_vacuous():
            if r.rhs < -MEMBER_TOL:
                return _empty_system(sys.variables)
            continue  # vacuously true
        rows.append(r)
    rows = _dedup(rows)
    if not is_feasible(LinearSystem(sys.variables, rows)):
        return _empty_system(sys.variables)
    sums = _RowSums(rows, sys.variables)
    kept = np.ones(len(rows), dtype=bool)
    for i, candidate in enumerate(rows):
        kept[i] = False
        if sums.holds(candidate, kept):
            continue
        rest = [r for r, k in zip(rows, kept) if k]
        kept[i] = not _lp_holds(LinearSystem(sys.variables, rest), candidate)
    return LinearSystem(sys.variables, [r for r, k in zip(rows, kept) if k])


@dataclass
class RateRegion:
    """A polyhedral rate region over (R1..R5) with implicit nonnegativity.

    The nonnegativity constraints are not stored; every LP and membership
    query uses the box [0, BOX_HI]^5, whose lower bound 0 encodes them.
    """

    system: LinearSystem
    provenance: dict | None = None

    def __post_init__(self):
        if tuple(self.system.variables) != RATE_VARS:
            # reorder/extend onto the canonical rate variables
            extra = set(self.system.variables) - set(RATE_VARS)
            if extra:
                raise InputError(f"rate region may only use {RATE_VARS}, got {extra}")
            self.system = LinearSystem(RATE_VARS, self.system.inequalities)

    @cached_property
    def feasible(self) -> bool:
        """Whether the region is nonempty, decided once per region."""
        return is_feasible(self.system)

    def to_jsonable(self) -> dict:
        out = self.system.to_jsonable()
        if self.provenance is not None:
            out["provenance"] = self.provenance
        return out

    @classmethod
    def from_jsonable(cls, data: dict) -> "RateRegion":
        try:
            ineqs = [_read_row(item) for item in data["inequalities"]]
        except (KeyError, TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise InputError(f"bad region data: {exc}") from exc
        return cls(LinearSystem(RATE_VARS, ineqs), data.get("provenance"))


def _read_row(item: dict) -> LinearInequality:
    """One row of a region file: finite float coefficients and rhs, and a
    canonical form whose scale fits a float."""
    if not isinstance(item["coeffs"], dict):
        raise TypeError("coeffs must map rate names to numbers")
    row = LinearInequality({v: exact_number(c) for v, c in item["coeffs"].items()},
                           float(item["rhs"]))
    if not (isfinite(row.rhs) and all(isfinite(float(c)) for c in row.coeffs.values())):
        raise ValueError("coefficients and rhs must be finite")
    row.canonical()
    return row


def _rows_hold(a: RateRegion, b: RateRegion) -> bool:
    """True iff every row of b holds over a (1e-7 LP tolerance); both regions
    must be feasible. A row that a sum of at most two canonical rows of a
    proves needs no LP."""
    sums = _RowSums([r.canonical() for r in a.system.inequalities if not r.is_vacuous()],
                    a.system.variables)
    for ineq in b.system.inequalities:
        if ineq.is_vacuous() or sums.holds(ineq.canonical()):
            continue
        if not _lp_holds(a.system, ineq):
            return False
    return True


def region_subset(a: RateRegion, b: RateRegion) -> bool:
    """True iff a is contained in b (within the box, 1e-7 LP tolerance). An
    empty region lies in every region."""
    return not a.feasible or b.feasible and _rows_hold(a, b)


def regions_equal(a: RateRegion, b: RateRegion) -> bool:
    """Mutual containment. Two empty regions are equal."""
    return region_subset(a, b) and region_subset(b, a)
