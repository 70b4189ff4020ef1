"""Finite-alphabet probability objects and their kernel algebra.

Pmf and JointPmf carry either float64 masses or exact rational masses
(fractions.Fraction in an object array). Exact inputs stay exact through
products, marginals and conditionals; information measures convert to float
at the point of evaluation. All values are immutable after construction and
every operation is a pure function.

File formats accepted by the loaders:

* channel: ``{"x_size": n, "y1_size": m1, "y2_size": m2, "kernel": [...]}``
  where ``kernel[x]`` is the row-major m1 x m2 table of p(y1, y2 | x),
  either flat or nested. Probabilities may be JSON numbers, decimal strings,
  or "num/den" rational strings; strings and integers are kept exact.
* auxiliary scheme: ``{"u_sizes": [a, b, c], "joint": [...], "gamma": [...]}``
  with ``joint`` flat in row-major (u0, u1, u2) order and ``gamma`` a flat
  list of x indices of the same length.
* input-auxiliary joint p(u, x): ``{"u_size": a, "x_size": n, "joint": [...]}``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import GuardError, InputError

SUM_TOL = 1e-9          # accepted deficit on input mass sums; renormalized once at load
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

    def index(self, symbol) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise InputError(f"symbol {symbol!r} not in alphabet {self.name!r}") from None

    @staticmethod
    def indexed(name: str, size: int) -> "Alphabet":
        return Alphabet(name, tuple(range(size)))


def parse_probability(value):
    """Parse one probability entry. Strings and ints are exact Fractions,
    floats stay floats."""
    if isinstance(value, str):
        try:
            return Fraction(value)
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


def _build_mass(values, shape) -> np.ndarray:
    """Build a mass array from parsed entries: object array of Fractions if
    every entry is exact, float64 otherwise."""
    parsed = [parse_probability(v) for v in values]
    total = 1
    for s in shape:
        total *= s
    if len(parsed) != total:
        raise InputError(f"expected {total} mass entries, got {len(parsed)}")
    if all(isinstance(v, Fraction) for v in parsed):
        arr = np.empty(len(parsed), dtype=object)
        arr[:] = parsed
    else:
        arr = np.array([float(v) for v in parsed], dtype=np.float64)
        arr = arr + 0.0  # scrub negative zeros
    return arr.reshape(shape)


def _is_exact(mass: np.ndarray) -> bool:
    return mass.dtype == object


def validate_mass(mass: np.ndarray, expected_cells: int) -> str | None:
    """Return None if the mass vector is a valid pmf, else a description
    naming the failing index or the sum deficit."""
    if mass.size != expected_cells:
        return f"length {mass.size} != expected {expected_cells}"
    flat = mass.reshape(-1)
    exact = _is_exact(mass)
    for i, v in enumerate(flat):
        if not exact and not math.isfinite(v):
            return f"mass[{i}] = {v} is not finite"
        if v < 0:
            return f"mass[{i}] = {v} is negative"
    if exact:
        total = sum(flat, Fraction(0))
        if abs(float(total) - 1.0) > SUM_TOL:
            return f"sum = {float(total):g}"
    else:
        total = float(flat.sum())
        if abs(total - 1.0) > SUM_TOL:
            return f"sum = {total:g}"
    return None


def _normalize_once(mass: np.ndarray) -> np.ndarray:
    if _is_exact(mass):
        total = sum(mass.reshape(-1), Fraction(0))
        if total != 1:
            mass = mass / total
    else:
        total = float(mass.sum())
        if total != 1.0:
            mass = mass / total
    out = np.array(mass, dtype=mass.dtype)
    out.flags.writeable = False
    return out


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
        if not self.mass.flags.writeable:
            return
        m = self.mass + 0.0 if not _is_exact(self.mass) else self.mass.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)

    @classmethod
    def from_values(cls, alphabet: Alphabet, values) -> "Pmf":
        mass = _build_mass(values, (alphabet.size,))
        msg = validate_mass(mass, alphabet.size)
        if msg is not None:
            raise InputError(f"invalid pmf over {alphabet.name!r}: {msg}")
        return cls(alphabet, _normalize_once(mass))

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Pmf":
        return cls.from_values(alphabet, [Fraction(1, alphabet.size)] * alphabet.size)

    @property
    def exact(self) -> bool:
        return _is_exact(self.mass)

    def as_float(self) -> np.ndarray:
        return np.asarray(self.mass, dtype=np.float64)


def validate_pmf(p: Pmf) -> str | None:
    """Check Pmf invariants; None means ok."""
    return validate_mass(p.mass, p.alphabet.size)


class JointPmf:
    """Dense joint pmf over an ordered tuple of named alphabets."""

    def __init__(self, axes: Sequence[Alphabet], mass: np.ndarray):
        axes = tuple(axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise InputError(f"joint axes must have distinct names, got {names}")
        cells = math.prod(a.size for a in axes)
        if cells > CELL_CAP:
            raise GuardError(f"joint over {cells} cells exceeds dense cap {CELL_CAP}")
        if mass.shape != tuple(a.size for a in axes):
            raise InputError("mass shape does not match axes")
        if mass.flags.writeable:
            mass = mass + 0.0 if not _is_exact(mass) else mass.copy()
            mass.flags.writeable = False
        self.axes = axes
        self.mass = mass

    @classmethod
    def from_values(cls, axes: Sequence[Alphabet], values) -> "JointPmf":
        axes = tuple(axes)
        cells = math.prod(a.size for a in axes)
        if cells > CELL_CAP:
            raise GuardError(f"joint over {cells} cells exceeds dense cap {CELL_CAP}")
        flat = np.asarray(values, dtype=object).reshape(-1)
        mass = _build_mass(list(flat), tuple(a.size for a in axes))
        msg = validate_mass(mass, cells)
        if msg is not None:
            raise InputError(f"invalid joint pmf: {msg}")
        return cls(axes, _normalize_once(mass))

    @classmethod
    def uniform(cls, axes: Sequence[Alphabet]) -> "JointPmf":
        axes = tuple(axes)
        cells = math.prod(a.size for a in axes)
        if cells > CELL_CAP:
            raise GuardError(f"joint over {cells} cells exceeds dense cap {CELL_CAP}")
        mass = np.full(tuple(a.size for a in axes), 1.0 / cells)
        return cls(axes, mass)

    @property
    def exact(self) -> bool:
        return _is_exact(self.mass)

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self.axes)

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

    def as_float(self) -> np.ndarray:
        return np.asarray(self.mass, dtype=np.float64)

    def marginal(self, keep) -> "JointPmf":
        keep_idx = sorted(self.resolve_axes(keep))
        if not keep_idx:
            raise InputError("keep set must be nonempty")
        drop = tuple(i for i in range(len(self.axes)) if i not in keep_idx)
        mass = self.mass.sum(axis=drop) if drop else self.mass
        return JointPmf(tuple(self.axes[i] for i in keep_idx), np.array(mass, dtype=self.mass.dtype))

    def condition(self, given, values) -> "JointPmf":
        given_idx = self.resolve_axes(given)
        if len(values) != len(given_idx):
            raise InputError("conditioning values do not match given axes")
        index = [slice(None)] * len(self.axes)
        for i, v in zip(given_idx, values):
            index[i] = self.axes[i].index(v) if not isinstance(v, (int, np.integer)) else int(v)
        sliced = self.mass[tuple(index)]
        total = sum(sliced.reshape(-1), Fraction(0)) if self.exact else float(sliced.sum())
        if (self.exact and total == 0) or (not self.exact and total <= 0.0):
            raise InputError("conditioning event has zero mass")
        rest = tuple(a for i, a in enumerate(self.axes) if i not in given_idx)
        return JointPmf(rest, np.array(sliced / total, dtype=self.mass.dtype))


def marginalize(j: JointPmf, keep) -> JointPmf:
    """Sum out every axis not in ``keep``; kept axes stay in original order."""
    return j.marginal(keep)


def condition(j: JointPmf, given, values) -> JointPmf:
    """Normalized slice of ``j`` at the given axis values."""
    return j.condition(given, values)


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
        if self.kernel.flags.writeable:
            k = self.kernel + 0.0 if not _is_exact(self.kernel) else self.kernel.copy()
            k.flags.writeable = False
            object.__setattr__(self, "kernel", k)

    @classmethod
    def from_rows(cls, rows, x_size: int, y1_size: int, y2_size: int) -> "Channel":
        """Build from per-x row-major tables of p(y1, y2 | x), validating and
        renormalizing each row once."""
        cells = x_size * y1_size * y2_size
        if cells > CELL_CAP:
            raise GuardError(f"kernel over {cells} cells exceeds dense cap {CELL_CAP}")
        if len(rows) != x_size:
            raise InputError(f"kernel has {len(rows)} rows, expected {x_size}")
        normalized = []
        exact = True
        for xi, row in enumerate(rows):
            flat = np.asarray(row, dtype=object).reshape(-1)
            mass = _build_mass(list(flat), (y1_size, y2_size))
            msg = validate_mass(mass, y1_size * y2_size)
            if msg is not None:
                raise InputError(f"kernel row {xi}: {msg}")
            normalized.append(_normalize_once(mass))
            exact = exact and _is_exact(mass)
        if exact:
            kernel = np.empty((x_size, y1_size, y2_size), dtype=object)
            for xi, m in enumerate(normalized):
                kernel[xi] = m
        else:
            kernel = np.stack([np.asarray(m, dtype=np.float64) for m in normalized])
        return cls(
            Alphabet.indexed("X", x_size),
            Alphabet.indexed("Y1", y1_size),
            Alphabet.indexed("Y2", y2_size),
            kernel,
        )

    @property
    def exact(self) -> bool:
        return _is_exact(self.kernel)

    def kernel_float(self) -> np.ndarray:
        return np.asarray(self.kernel, dtype=np.float64)

    def y1_given_x(self) -> np.ndarray:
        """Marginal kernel p(y1 | x) as float."""
        return self.kernel_float().sum(axis=2)

    def y2_given_x(self) -> np.ndarray:
        """Marginal kernel p(y2 | x) as float."""
        return self.kernel_float().sum(axis=1)

    def swap_receivers(self) -> "Channel":
        kernel = np.swapaxes(self.kernel, 1, 2).copy()
        return Channel(self.x, Alphabet.indexed("Y1", self.y2.size),
                       Alphabet.indexed("Y2", self.y1.size), kernel)


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
    aux = scheme.aux_joint.mass
    exact = scheme.aux_joint.exact and ch.exact
    onehot = np.zeros(scheme.sizes + (ch.x.size,), dtype=np.int64)
    it = np.ndindex(*scheme.sizes)
    for cell in it:
        onehot[cell + (int(scheme.gamma[cell]),)] = 1
    if exact:
        kern = ch.kernel
    else:
        aux = np.asarray(aux, dtype=np.float64)
        kern = ch.kernel_float()
    mass = (aux[..., None, None, None]
            * onehot[..., :, None, None]
            * kern[None, None, None, ...])
    axes = tuple(scheme.aux_joint.axes) + (ch.x, ch.y1, ch.y2)
    dtype = object if exact else np.float64
    return JointPmf(axes, np.array(mass, dtype=dtype))


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


def load_channel(path_or_dict) -> Channel:
    spec = load_json(path_or_dict)
    try:
        x_size = int(spec["x_size"])
        y1_size = int(spec["y1_size"])
        y2_size = int(spec["y2_size"])
        rows = spec["kernel"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad channel file: {exc}") from exc
    return Channel.from_rows(rows, x_size, y1_size, y2_size)


def load_aux_scheme(path_or_dict) -> AuxScheme:
    spec = load_json(path_or_dict)
    try:
        sizes = tuple(int(s) for s in spec["u_sizes"])
        joint = spec["joint"]
        gamma = spec["gamma"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad aux scheme file: {exc}") from exc
    if len(sizes) != 3:
        raise InputError("u_sizes must list exactly three sizes")
    axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(sizes))
    jp = JointPmf.from_values(axes, joint)
    g = np.asarray([int(v) for v in gamma], dtype=np.int64)
    if g.size != math.prod(sizes):
        raise InputError("gamma length does not match u_sizes")
    return AuxScheme(jp, g.reshape(sizes))


def load_ux_joint(path_or_dict) -> JointPmf:
    """Load a p(u, x) joint for the capacity-formula regions."""
    spec = load_json(path_or_dict)
    try:
        u_size = int(spec["u_size"])
        x_size = int(spec["x_size"])
        joint = spec["joint"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad input-auxiliary joint file: {exc}") from exc
    axes = (Alphabet.indexed("U", u_size), Alphabet.indexed("X", x_size))
    return JointPmf.from_values(axes, joint)
