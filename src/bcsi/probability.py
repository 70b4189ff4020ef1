"""Finite-alphabet probability objects and their kernel algebra.

Pmf, JointPmf and Channel hold read-only float64 masses. Input entries are
parsed exactly (fractions.Fraction for strings and integers), so a negative,
above-1 or overflowing entry is judged on its exact value; then they are
checked, renormalized once and stored as float64. All values are immutable
after construction and every operation is a pure function.

File formats accepted by the loaders:

* channel: ``{"x_size": n, "y1_size": m1, "y2_size": m2, "kernel": [...]}``
  where ``kernel[x]`` is the row-major m1 x m2 table of p(y1, y2 | x),
  either flat or nested. Probabilities may be JSON numbers, decimal strings,
  or "num/den" rational strings; entries are parsed exactly, checked, and
  stored as float64.
* auxiliary scheme: ``{"u_sizes": [a, b, c], "joint": [...], "gamma": [...]}``
  with ``joint`` flat in row-major (u0, u1, u2) order and ``gamma`` a flat
  list of x indices of the same length.
* input-auxiliary joint p(u, x): ``{"u_size": a, "x_size": n, "joint": [...]}``.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import GuardError, InputError

SUM_TOL = 1e-9          # accepted deficit on input mass sums; renormalized once at load
EXPONENT_CAP = 400      # 10**-400 is 0.0 as a float and 10**400 overflows one
CELL_CAP = 10_000_000   # dense storage cap on the product of axis sizes


@dataclass(frozen=True)
class Alphabet:
    """Named, ordered finite alphabet."""

    name: str
    symbols: tuple

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise InputError(f"alphabet {self.name!r} must have at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise InputError(f"alphabet {self.name!r} has duplicate symbols")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @staticmethod
    def indexed(name: str, size: int) -> "Alphabet":
        return Alphabet(name, tuple(range(size)))


_EXPONENT = re.compile(r"(\s*[-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?\d+)\s*")


def exact_number(value) -> Fraction:
    """Fraction(value), at a cost bounded by the length of a string value.

    Fraction expands a decimal exponent into a full integer, so "1e-9999999"
    alone takes seconds. An exponent that puts every digit of the mantissa
    beyond 10**EXPONENT_CAP (or below 10**-EXPONENT_CAP) is clamped to
    EXPONENT_CAP plus the mantissa's length. The value keeps its sign and
    stays beyond the cap, where it is 0.0 or overflows as a float either
    way, so every check of it ends as it would on the exact value."""
    if isinstance(value, str):
        m = _EXPONENT.fullmatch(value)
        if m and abs(int(m[2])) > EXPONENT_CAP + len(m[1]):
            sign = "-" if m[2].startswith("-") else ""
            value = f"{m[1]}e{sign}{EXPONENT_CAP + len(m[1])}"
    return Fraction(value)


def parse_probability(value):
    """Parse one probability entry. Strings and ints are exact Fractions,
    floats stay floats."""
    if isinstance(value, str):
        try:
            return exact_number(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse probability {value!r}") from exc
    if isinstance(value, bool):
        raise InputError(f"cannot parse probability {value!r}")
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    raise InputError(f"cannot parse probability {value!r}")


def _capped_cells(sizes, what: str = "joint") -> int:
    """The number of cells of a dense table of the given axis sizes, checked
    against CELL_CAP before the table is allocated."""
    cells = math.prod(sizes)
    if cells > CELL_CAP:
        raise GuardError(f"{what} over {cells} cells exceeds dense cap {CELL_CAP}")
    return cells


def _frozen(mass) -> np.ndarray:
    """mass as a read-only float64 array with negative zeros scrubbed; a
    read-only float64 array is kept as it is."""
    if isinstance(mass, np.ndarray) and mass.dtype == np.float64 and not mass.flags.writeable:
        return mass
    out = np.asarray(mass, dtype=np.float64) + 0.0
    out.flags.writeable = False
    return out


def _as_written(value) -> str:
    """An entry as written, cut to at most 40 characters for a message (an
    exact value may have hundreds of digits)."""
    text = value if isinstance(value, str) else repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _checked_mass(values, shape, what: str) -> np.ndarray:
    """A pmf of the given shape from raw entries, renormalized once. Entries
    are parsed exactly, so a negative or above-1 entry is judged on its exact
    value; then they are stored as floats and checked by validate_mass. A
    failed check is an InputError prefixed by what."""
    raw = np.asarray(values, dtype=object).reshape(-1)
    parsed = [parse_probability(v) for v in raw]
    cells = math.prod(shape)
    if len(parsed) != cells:
        raise InputError(f"expected {cells} mass entries, got {len(parsed)}")
    for i, v in enumerate(parsed):
        if isinstance(v, Fraction) and v < 0:
            raise InputError(f"{what}: mass[{i}] = {_as_written(raw[i])} is negative")
        if isinstance(v, Fraction) and v > 1 + SUM_TOL:  # a float of it could overflow
            raise InputError(f"{what}: mass[{i}] is above 1")
    mass = np.array([float(v) for v in parsed])
    msg = validate_mass(mass, cells)
    if msg is not None:
        raise InputError(f"{what}: {msg}")
    total = float(mass.sum())
    return _frozen((mass if total == 1.0 else mass / total).reshape(shape))


def validate_mass(mass: np.ndarray, expected_cells: int) -> str | None:
    """Return None if the float mass vector is a valid pmf, else a
    description naming the failing index or the sum deficit."""
    if mass.size != expected_cells:
        return f"length {mass.size} != expected {expected_cells}"
    flat = mass.reshape(-1)
    for i, v in enumerate(flat):
        if not math.isfinite(v):
            return f"mass[{i}] = {v} is not finite"
        if v < 0:
            return f"mass[{i}] = {v} is negative"
    total = float(flat.sum())
    if abs(total - 1.0) > SUM_TOL:
        return f"sum = {total:g}"
    return None


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over one alphabet.

    Construct via from_values (validates and renormalizes exactly once) or
    pass an already-normalized array to the plain constructor.
    """

    alphabet: Alphabet
    mass: np.ndarray

    def __post_init__(self):
        if self.mass.shape != (self.alphabet.size,):
            raise InputError("mass shape does not match alphabet size")
        object.__setattr__(self, "mass", _frozen(self.mass))

    @classmethod
    def from_values(cls, alphabet: Alphabet, values) -> "Pmf":
        return cls(alphabet, _checked_mass(values, (alphabet.size,),
                                           f"invalid pmf over {alphabet.name!r}"))

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Pmf":
        return cls.from_values(alphabet, [Fraction(1, alphabet.size)] * alphabet.size)


class JointPmf:
    """Dense joint pmf over an ordered tuple of named alphabets."""

    def __init__(self, axes: Sequence[Alphabet], mass: np.ndarray):
        axes = tuple(axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise InputError(f"joint axes must have distinct names, got {names}")
        _capped_cells(a.size for a in axes)
        if mass.shape != tuple(a.size for a in axes):
            raise InputError("mass shape does not match axes")
        self.axes = axes
        self.mass = _frozen(mass)

    @classmethod
    def from_values(cls, axes: Sequence[Alphabet], values) -> "JointPmf":
        axes = tuple(axes)
        _capped_cells(a.size for a in axes)
        return cls(axes, _checked_mass(values, tuple(a.size for a in axes), "invalid joint pmf"))

    @classmethod
    def uniform(cls, axes: Sequence[Alphabet]) -> "JointPmf":
        axes = tuple(axes)
        cells = _capped_cells(a.size for a in axes)
        mass = np.full(tuple(a.size for a in axes), 1.0 / cells)
        return cls(axes, mass)

    def axis_index(self, key) -> int:
        if isinstance(key, (int, np.integer)):
            i = int(key)
            if not 0 <= i < len(self.axes):
                raise InputError(f"axis index {i} out of range")
            return i
        for i, a in enumerate(self.axes):
            if a.name == key:
                return i
        raise InputError(f"no axis named {key!r}")

    def resolve_axes(self, keys) -> tuple:
        idx = tuple(self.axis_index(k) for k in keys)
        if len(set(idx)) != len(idx):
            raise InputError(f"repeated axes in {keys!r}")
        return idx

    def marginal(self, keep) -> "JointPmf":
        keep_idx = sorted(self.resolve_axes(keep))
        if not keep_idx:
            raise InputError("keep set must be nonempty")
        drop = tuple(i for i in range(len(self.axes)) if i not in keep_idx)
        mass = self.mass.sum(axis=drop) if drop else self.mass
        return JointPmf(tuple(self.axes[i] for i in keep_idx), mass)


@dataclass(frozen=True)
class Channel:
    """Memoryless two-receiver broadcast kernel p(y1, y2 | x)."""

    x: Alphabet
    y1: Alphabet
    y2: Alphabet
    kernel: np.ndarray  # shape (|X|, |Y1|, |Y2|); each x-row sums to 1

    def __post_init__(self):
        expected = (self.x.size, self.y1.size, self.y2.size)
        if self.kernel.shape != expected:
            raise InputError(f"kernel shape {self.kernel.shape} != {expected}")
        object.__setattr__(self, "kernel", _frozen(self.kernel))

    @classmethod
    def from_rows(cls, rows, x_size: int, y1_size: int, y2_size: int) -> "Channel":
        """Build from per-x row-major tables of p(y1, y2 | x), validating and
        renormalizing each row once."""
        _capped_cells((x_size, y1_size, y2_size), "kernel")
        if len(rows) != x_size:
            raise InputError(f"kernel has {len(rows)} rows, expected {x_size}")
        x = Alphabet.indexed("X", x_size)  # an empty kernel stops here, before the stack
        kernel = np.stack([_checked_mass(row, (y1_size, y2_size), f"kernel row {xi}")
                           for xi, row in enumerate(rows)])
        return cls(x, Alphabet.indexed("Y1", y1_size), Alphabet.indexed("Y2", y2_size), kernel)

    @cached_property
    def _marginals(self) -> tuple:
        """(p(y1 | x), p(y2 | x)), read-only, made on first use."""
        return _frozen(self.kernel.sum(axis=2)), _frozen(self.kernel.sum(axis=1))

    def y1_given_x(self) -> np.ndarray:
        """Marginal kernel p(y1 | x)."""
        return self._marginals[0]

    def y2_given_x(self) -> np.ndarray:
        """Marginal kernel p(y2 | x)."""
        return self._marginals[1]


def noiseless_channel(size: int) -> Channel:
    """Y1 = Y2 = X with no noise."""
    rows = []
    for xi in range(size):
        table = [[0] * size for _ in range(size)]
        table[xi][xi] = 1
        rows.append(table)
    return Channel.from_rows(rows, size, size, size)


def deterministic_channel(phi1: Sequence[int], phi2: Sequence[int],
                          y1_size: int | None = None, y2_size: int | None = None) -> Channel:
    """Channel with outputs phi1(x) and phi2(x)."""
    if len(phi1) != len(phi2):
        raise InputError("phi1 and phi2 must have the same domain")
    x_size = len(phi1)
    m1 = y1_size if y1_size is not None else max(phi1) + 1
    m2 = y2_size if y2_size is not None else max(phi2) + 1
    rows = []
    for xi in range(x_size):
        table = [[0] * m2 for _ in range(m1)]
        table[phi1[xi]][phi2[xi]] = 1
        rows.append(table)
    return Channel.from_rows(rows, x_size, m1, m2)


def product_channel(p_y1_x, p_y2_x) -> Channel:
    """Two conditionally independent marginal kernels glued into one
    broadcast kernel: p(y1, y2 | x) = p(y1 | x) p(y2 | x)."""
    a = np.asarray(p_y1_x, dtype=object)
    b = np.asarray(p_y2_x, dtype=object)
    if a.shape[0] != b.shape[0]:
        raise InputError("marginal kernels disagree on |X|")
    x_size, m1 = a.shape
    m2 = b.shape[1]
    rows = []
    for xi in range(x_size):
        row1 = [parse_probability(v) for v in a[xi]]
        row2 = [parse_probability(v) for v in b[xi]]
        rows.append([[r1 * r2 for r2 in row2] for r1 in row1])
    return Channel.from_rows(rows, x_size, m1, m2)


def binary_symmetric_pair(q1, q2) -> Channel:
    """Binary input with independent symmetric crossover q1 to Y1 and q2 to Y2."""
    q1 = parse_probability(q1)
    q2 = parse_probability(q2)
    k1 = [[1 - q1, q1], [q1, 1 - q1]]
    k2 = [[1 - q2, q2], [q2, 1 - q2]]
    return product_channel(k1, k2)


def blackwell_channel() -> Channel:
    """Ternary-input deterministic channel with maps {0,1 -> 0; 2 -> 1} and
    {0 -> 0; 1,2 -> 1}."""
    return deterministic_channel([0, 0, 1], [0, 1, 1])


@dataclass(frozen=True)
class AuxScheme:
    """A joint pmf over (U0, U1, U2) plus a total map gamma into the channel
    input alphabet; the free parameters of the inner bound."""

    aux_joint: JointPmf
    gamma: np.ndarray  # integer array, shape = aux sizes, values = x indices

    def __post_init__(self):
        if len(self.aux_joint.axes) != 3:
            raise InputError("aux joint must have exactly three axes")
        g = np.asarray(self.gamma, dtype=np.int64)
        if g.shape != self.aux_joint.mass.shape:
            raise InputError("gamma shape does not match aux joint")
        if g.min() < 0:
            raise InputError("gamma contains negative x indices")
        if g.flags.writeable:
            g = g.copy()
            g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    @property
    def sizes(self) -> tuple:
        return tuple(a.size for a in self.aux_joint.axes)

    def check_against(self, ch: Channel):
        if int(self.gamma.max()) >= ch.x.size:
            raise InputError("gamma maps outside the channel input alphabet")


def induced_joint(scheme: AuxScheme, ch: Channel) -> JointPmf:
    """Joint over (U0, U1, U2, X, Y1, Y2) induced by drawing the auxiliaries,
    applying gamma, and passing the input through the channel."""
    scheme.check_against(ch)
    onehot = scheme.gamma[..., None] == np.arange(ch.x.size)
    mass = (scheme.aux_joint.mass[..., None, None, None]
            * onehot[..., :, None, None]
            * ch.kernel[None, None, None, ...])
    return JointPmf(tuple(scheme.aux_joint.axes) + (ch.x, ch.y1, ch.y2), mass)


# --- file loaders -----------------------------------------------------------

def load_json(path_or_dict):
    """Parsed JSON file (a dict passes through); unreadable files and text
    that is not JSON raise InputError."""
    if isinstance(path_or_dict, dict):
        return path_or_dict
    try:
        with open(path_or_dict) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path_or_dict}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path_or_dict} is not valid JSON: {exc}") from exc


def _integer(value) -> int:
    """An integer entry of an input file (a number or a decimal string)."""
    i = int(value)
    if not isinstance(value, str) and i != value:
        raise ValueError(f"{value!r} is not an integer")
    return i


def _indexed_axes(names, sizes) -> tuple:
    """Indexed alphabets of a file's sizes, checked before any is built."""
    if any(s < 1 for s in sizes):
        raise InputError(f"alphabet sizes must be positive, got {list(sizes)}")
    _capped_cells(sizes)
    return tuple(Alphabet.indexed(n, s) for n, s in zip(names, sizes))


def load_channel(path_or_dict) -> Channel:
    spec = load_json(path_or_dict)
    try:
        x_size = _integer(spec["x_size"])
        y1_size = _integer(spec["y1_size"])
        y2_size = _integer(spec["y2_size"])
        rows = spec["kernel"]
        if not isinstance(rows, list):
            raise TypeError("kernel must be a list of rows")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad channel file: {exc}") from exc
    return Channel.from_rows(rows, x_size, y1_size, y2_size)


def load_aux_scheme(path_or_dict) -> AuxScheme:
    spec = load_json(path_or_dict)
    try:
        sizes = tuple(_integer(s) for s in spec["u_sizes"])
        joint = spec["joint"]
        gamma = np.asarray([_integer(v) for v in spec["gamma"]], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad aux scheme file: {exc}") from exc
    if len(sizes) != 3:
        raise InputError("u_sizes must list exactly three sizes")
    jp = JointPmf.from_values(_indexed_axes(("U0", "U1", "U2"), sizes), joint)
    if gamma.size != math.prod(sizes):
        raise InputError("gamma length does not match u_sizes")
    return AuxScheme(jp, gamma.reshape(sizes))


def load_ux_joint(path_or_dict) -> JointPmf:
    """Load a p(u, x) joint for the capacity-formula regions."""
    spec = load_json(path_or_dict)
    try:
        u_size = _integer(spec["u_size"])
        x_size = _integer(spec["x_size"])
        joint = spec["joint"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad input-auxiliary joint file: {exc}") from exc
    return JointPmf.from_values(_indexed_axes(("U", "X"), (u_size, x_size)), joint)
