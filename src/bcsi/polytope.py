"""Linear inequality systems over named variables.

Every inequality is of the form sum(coeff * var) <= rhs with exact rational
coefficients and a float right-hand side. Strict inequalities from the
achievability analysis are represented closed throughout; regions are their
closures. The LP layer is scipy's HiGHS, imported on the first solve; only
the 1e-7 tolerance contract is normative, not the method.

Redundancy, containment and feasibility are first tried without an LP: a row
holds when a sum of at most two rows of the system bounds it over the box,
and a system is feasible when the box's lower corner satisfies it. These are
exact proofs, so HiGHS, called only when they fail, makes the same decision
at the same 1e-7 tolerance wherever they succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, isfinite
from typing import Iterable, Mapping

import numpy as np

from .errors import GuardError, InputError
from .probability import exact_number

REDUNDANCY_TOL = 1e-7
MEMBER_TOL = 1e-9
FME_ROW_CAP = 100_000
DEFAULT_BOX = (0.0, 64.0)
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
            c = Fraction(c)
            if c != 0:
                clean[var] = c
        self.coeffs = clean
        self.rhs = float(self.rhs)

    def canonical(self) -> "LinearInequality":
        """Scale by the positive rational making the coefficients a primitive
        integer vector (sense preserved)."""
        if not self.coeffs:
            return LinearInequality({}, self.rhs)
        denom_lcm = 1
        for c in self.coeffs.values():
            denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
        nums = [abs(int(c * denom_lcm)) for c in self.coeffs.values()]
        g = 0
        for v in nums:
            g = gcd(g, v)
        scale = Fraction(denom_lcm, g)
        coeffs = {v: c * scale for v, c in self.coeffs.items()}
        return LinearInequality(coeffs, self.rhs * float(scale))

    def key(self) -> tuple:
        return tuple(sorted((v, c) for v, c in self.coeffs.items()))

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        return float(sum(float(c) * assignment[v] for v, c in self.coeffs.items()))

    def is_vacuous(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return f"0 <= {self.rhs:g}"
        terms = " + ".join(f"{c}*{v}" if c != 1 else v for v, c in sorted(self.coeffs.items()))
        return f"{terms} <= {self.rhs:g}"


@dataclass
class LinearSystem:
    """A conjunction of inequalities over a declared variable set.

    sources[i] holds the sets of original rows that row i combines, each an
    int bitmask: one set per way of deriving the row, keeping only the
    minimal ones. eliminated counts the variables projected out so far;
    fme_eliminate prunes by both. A system built without sources starts
    fresh: each row is its own source and nothing has been eliminated.
    """

    variables: tuple
    inequalities: list = field(default_factory=list)
    sources: list | None = None
    eliminated: int = 0

    def __post_init__(self):
        self.variables = tuple(self.variables)
        declared = set(self.variables)
        for ineq in self.inequalities:
            undeclared = set(ineq.coeffs) - declared
            if undeclared:
                raise InputError(f"inequality uses undeclared variables {sorted(undeclared)}")
        if self.sources is None:
            self.sources = [(1 << i,) for i in range(len(self.inequalities))]
            self.eliminated = 0
        elif len(self.sources) != len(self.inequalities):
            raise InputError("need one source set per inequality")


def _dedup(rows: Iterable[LinearInequality]) -> list:
    """Canonicalize rows; rows sharing a coefficient vector keep the tightest
    rhs, at the position of the first of them."""
    best = {}
    for row in rows:
        row = row.canonical()
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


def fme_eliminate(sys: LinearSystem, var: str) -> LinearSystem:
    """Project out one variable by pairing rows of opposite sign on it.

    Coefficient arithmetic is exact rational; the rhs combination is float.
    A combined row's source sets are the unions of one set of each parent.
    After the k-th elimination, a derivation that combines more than k+1
    original rows is implied by the others (Chernikov's rule): its set is
    dropped, and a row with no set left is dropped without an LP. A row that
    several derivations give keeps all their minimal sets, which keeps the
    rule exact: this step then keeps every row that pruned elimination
    without merging would keep. Aborts if the unpruned step would exceed
    FME_ROW_CAP rows.
    """
    if var not in sys.variables:
        raise InputError(f"variable {var!r} not declared")
    zero, pos, neg = [], [], []
    for row, src in zip(sys.inequalities, sys.sources, strict=True):
        c = row.coeffs.get(var, Fraction(0))
        if c > 0:
            pos.append((row, src))
        elif c < 0:
            neg.append((row, src))
        else:
            zero.append((row, src))
    projected = len(zero) + len(pos) * len(neg)
    if projected > FME_ROW_CAP:
        raise GuardError(
            f"eliminating {var!r} would create {projected} inequalities (cap {FME_ROW_CAP})")
    out = list(zero)
    for p, p_src in pos:
        cp = p.coeffs[var]
        for q, q_src in neg:
            cq = q.coeffs[var]
            alpha = -cq  # > 0, multiplies p
            beta = cp    # > 0, multiplies q
            coeffs = {}
            for v, c in p.coeffs.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) + alpha * c
            for v, c in q.coeffs.items():
                coeffs[v] = coeffs.get(v, Fraction(0)) + beta * c
            coeffs.pop(var, None)  # exact cancellation by construction
            rhs = float(alpha) * p.rhs + float(beta) * q.rhs
            out.append((LinearInequality(coeffs, rhs),
                        tuple(a | b for a in p_src for b in q_src)))
    # exact duplicates collapse at the first one's position, pooling their
    # source sets
    merged = {}
    for row, src in out:
        row = row.canonical()
        k = (row.key(), row.rhs)
        first, pooled = merged.get(k, (row, ()))
        merged[k] = (first, pooled + src)
    steps = sys.eliminated + 1
    rows, sources = [], []
    for row, src in merged.values():
        src = _minimal(s for s in src if s.bit_count() <= steps + 1)
        if src:
            rows.append(row)
            sources.append(src)
    remaining = tuple(v for v in sys.variables if v != var)
    return LinearSystem(remaining, rows, sources, steps)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first solve: importing
    scipy.optimize takes about half a second, which verbs that solve no LP
    should not pay. It is taken from its defining module, so that a wrapper
    put on scipy.optimize.linprog (perfbench/layers.py wraps it for the
    simulator's LP) does not count these solves a second time."""
    from scipy.optimize._linprog import linprog as highs_linprog

    return highs_linprog(*args, **kwargs)


def _box_bounds(variables, box) -> list:
    """One (lo, hi) float pair per variable; None is unbounded, as in scipy."""
    if box is None:
        box = DEFAULT_BOX
    pairs = [box[v] for v in variables] if isinstance(box, dict) else [box] * len(variables)
    return [(-inf if lo is None else float(lo), inf if hi is None else float(hi))
            for lo, hi in pairs]


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


def maximize(sys: LinearSystem, objective: Mapping[str, float], box=None):
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
                  bounds=_box_bounds(sys.variables, box), method="highs")
    if res.status == 2:
        return "infeasible", None, None
    if not res.success:
        raise GuardError(f"LP solver failed: {res.message}")
    return "optimal", float(-res.fun), np.asarray(res.x)


def is_feasible(sys: LinearSystem, box=None) -> bool:
    """True without an LP when the box's lower corner satisfies every row."""
    lo = np.array(_box_bounds(sys.variables, box)).reshape(-1, 2)[:, 0]
    a, b = _matrix(sys.inequalities, sys.variables)
    if np.isfinite(lo).all() and (a @ lo <= b).all():
        return True
    status, _, _ = maximize(sys, {}, box)
    return status == "optimal"


def _lp_holds(sys: LinearSystem, row: LinearInequality, box) -> bool:
    """The LP decision: row's left side cannot exceed its rhs + 1e-7 over
    the system within the box (and the system is feasible)."""
    status, value, _ = maximize(sys, {v: float(c) for v, c in row.coeffs.items()}, box)
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

    def __init__(self, rows, variables, box):
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
        self.lo, self.hi = np.array(_box_bounds(variables, box)).reshape(-1, 2).T

    def holds(self, row: LinearInequality, usable=None) -> bool:
        """True if some sum of usable rows (a bool mask, default all) proves
        row. False means only that no such sum does."""
        d = _matrix([row], self.variables)[0][0] - self.coeffs
        with np.errstate(invalid="ignore"):  # 0 * inf, in branches where masks drop it
            spread = np.where(d > 0, d * self.hi, np.where(d < 0, d * self.lo, 0.0))
        proved = self.rhs + spread.sum(axis=1) <= row.rhs
        if usable is not None:
            ok = np.append(usable, True)
            proved &= ok[self.first] & ok[self.second]
        return bool(proved.any())


def _empty_system(variables) -> LinearSystem:
    """Canonical representation of an empty region: sum of all variables
    <= -1, which no point in the nonnegative box satisfies."""
    row = LinearInequality({v: Fraction(1) for v in variables}, -1.0)
    return LinearSystem(tuple(variables), [row])


def remove_redundant(sys: LinearSystem, box=None) -> LinearSystem:
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
    if not is_feasible(LinearSystem(sys.variables, rows), box):
        return _empty_system(sys.variables)
    sums = _RowSums(rows, sys.variables, box)
    kept = np.ones(len(rows), dtype=bool)
    for i, candidate in enumerate(rows):
        kept[i] = False
        if sums.holds(candidate, kept):
            continue
        rest = [r for r, k in zip(rows, kept) if k]
        kept[i] = not _lp_holds(LinearSystem(sys.variables, rest), candidate, box)
    return LinearSystem(sys.variables, [r for r, k in zip(rows, kept) if k])


def fix_variables(sys: LinearSystem, assignment: Mapping[str, float]) -> LinearSystem:
    """Substitute fixed values for some variables, folding them into the rhs."""
    for v in assignment:
        if v not in sys.variables:
            raise InputError(f"variable {v!r} not declared")
    remaining = tuple(v for v in sys.variables if v not in assignment)
    out = []
    for r in sys.inequalities:
        coeffs = {v: c for v, c in r.coeffs.items() if v not in assignment}
        shift = sum(float(c) * float(assignment[v])
                    for v, c in r.coeffs.items() if v in assignment)
        out.append(LinearInequality(coeffs, r.rhs - shift))
    return LinearSystem(remaining, _dedup(out))


@dataclass
class RateRegion:
    """A polyhedral rate region over (R1..R5) with implicit nonnegativity.

    The nonnegativity constraints are not stored; every LP and membership
    query uses a box with lower bound 0, which encodes them.
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

    def to_jsonable(self) -> dict:
        out = {
            "variables": list(RATE_VARS),
            "inequalities": [
                {"coeffs": {v: str(c) for v, c in sorted(ineq.coeffs.items())},
                 "rhs": ineq.rhs}
                for ineq in self.system.inequalities
            ],
        }
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


def contains(region: RateRegion, point) -> bool:
    """Closure membership: every inequality satisfied within 1e-9 slack."""
    values = {v: float(x) for v, x in zip(RATE_VARS, point)}
    if len(values) != 5:
        raise InputError("rate points have five entries")
    for x in values.values():
        if x < -MEMBER_TOL:
            return False
    for ineq in region.system.inequalities:
        if ineq.evaluate(values) > ineq.rhs + MEMBER_TOL:
            return False
    return True


def _rows_hold(a: RateRegion, b: RateRegion, box) -> bool:
    """True iff every row of b holds over a (1e-7 LP tolerance); both regions
    must be feasible. A row that a sum of at most two canonical rows of a
    proves needs no LP."""
    sums = _RowSums([r.canonical() for r in a.system.inequalities if not r.is_vacuous()],
                    a.system.variables, box)
    for ineq in b.system.inequalities:
        if ineq.is_vacuous() or sums.holds(ineq.canonical()):
            continue
        if not _lp_holds(a.system, ineq, box):
            return False
    return True


def region_subset(a: RateRegion, b: RateRegion, box=None, feasible=None) -> bool:
    """True iff a is contained in b (within the box, 1e-7 LP tolerance).
    feasible, when given, is the pair (is_feasible(a), is_feasible(b)), so
    that a caller testing both directions solves each feasibility LP once."""
    fa, fb = feasible if feasible is not None else (is_feasible(a.system, box), None)
    if not fa:
        return True
    if fb is None:
        fb = is_feasible(b.system, box)
    if not fb:
        return False
    return _rows_hold(a, b, box)


def regions_equal(a: RateRegion, b: RateRegion, box=None) -> bool:
    """Mutual containment via LP. Two empty regions are equal."""
    fa = is_feasible(a.system, box)
    fb = is_feasible(b.system, box)
    if fa != fb:
        return False
    if not fa:
        return True
    return _rows_hold(a, b, box) and _rows_hold(b, a, box)
