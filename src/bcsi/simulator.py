"""Monte Carlo implementation of the layered random-coding scheme.

Per trial: draw messages uniformly, build fresh codebooks (cloud codewords
i.i.d. from p(u0), satellite codewords symbol-wise from p(u1|u0) and
p(u2|u0)), pick a bin pair by typicality scan, map through gamma, push the
input through the channel, and decode both receivers by exhaustive
typicality search. Error events are tallied per trial.

Typicality inside the coding loop is conditional: the freshly added
sequences are tested against the conditional law given the empirical type of
the part already fixed (the cloud word at the encoder, the candidate
codeword pair at the decoders). The test depends on a candidate only through
its joint type, so it runs once per distinct type rather than once per
candidate. The standalone is_jointly_typical keeps the plain multiplicative
form. Receiver errors are counted as decoded-message mismatches; a failed
search still yields a deterministic default guess, so a rate-zero
configuration never errors.

Per-trial randomness comes from counter-style derived generators
(master seed, trial index), so reports are bit-identical given the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardError, InputError
from .probability import AuxScheme, Channel, JointPmf
from .rate_regions import MiConstants, SplitRates, receiver_joints

DESK_CAP = 1_000_000  # product of all message-set and bin sizes
_CHUNK_CELLS = 4_000_000
_TABLE_KEYS = 2 ** 16  # type-key spaces up to this size get a pass/fail table
_KEY_LIMIT = 2 ** 63   # type keys below this fit int64

RATE_NAMES = ("r1", "r21", "r22", "r31", "r32", "r4", "r5", "rp1", "rp2")
SIZE_NAMES = ("m1", "m4", "m5", "m21", "m31", "m22", "m32", "l1", "l2")


def _size_from_rate(n: int, rate: float) -> int:
    v = 2.0 ** (n * rate)
    nearest = round(v)
    if abs(v - nearest) < 1e-9:
        return max(1, int(nearest))
    return max(1, math.ceil(v))


@dataclass(frozen=True)
class SchemeConfig:
    """Everything one simulation run needs besides the channel."""

    scheme: AuxScheme
    n: int
    rates: SplitRates
    eps_prime: float = 0.15
    eps1: float = 0.3
    eps2: float = 0.3
    seed: int = 0
    fresh_codebooks: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise InputError("blocklength must be at least 1")
        if not (self.eps_prime > 0 and self.eps1 > 0 and self.eps2 > 0):
            raise InputError("typicality slacks must be positive")
        if self.eps_prime >= min(self.eps1, self.eps2):
            raise InputError("eps_prime must be below the decoding slacks")
        total = 1
        for s in self._sizes.values():
            total *= s
        if total > DESK_CAP:
            raise GuardError(
                f"codebook index space {total} exceeds desk-scale cap {DESK_CAP}")

    @cached_property
    def _sizes(self) -> dict:
        r = self.rates
        rates = (r.r1, r.r4, r.r5, r.r21, r.r31, r.r22, r.r32, r.rp1, r.rp2)
        return {k: _size_from_rate(self.n, v) for k, v in zip(SIZE_NAMES, rates)}

    def sizes(self) -> dict:
        return dict(self._sizes)

    def realized_rates(self) -> dict:
        return {k: math.log2(v) / self.n for k, v in self._sizes.items()}


@dataclass(frozen=True)
class Msg:
    m1: int
    m4: int
    m5: int
    m21: int
    m31: int
    m22: int
    m32: int


@dataclass
class Codebooks:
    """cb0 indexed by (m1, m4, m5, m21, m31); cb1 adds (m22, l1); cb2 adds
    (m32, l2). Last axis is the blocklength."""

    cb0: np.ndarray
    cb1: np.ndarray
    cb2: np.ndarray


@dataclass
class DecodeResult:
    ok: bool
    messages: dict
    kind: str | None  # None, "none_typical" or "ambiguous"
    passing: np.ndarray


@dataclass
class SimReport:
    trials: int
    encoder_fallbacks: int
    rx1_errors: int
    rx2_errors: int
    rx1_events: dict
    rx2_events: dict
    pe_estimate: float
    pe_half_width_95: float
    sizes: dict
    nominal_rates: dict
    realized_rates: dict
    config: dict

    def to_jsonable(self) -> dict:
        return {
            "trials": self.trials,
            "encoder_fallbacks": self.encoder_fallbacks,
            "rx1_errors": self.rx1_errors,
            "rx2_errors": self.rx2_errors,
            "rx1_events": self.rx1_events,
            "rx2_events": self.rx2_events,
            "pe_estimate": self.pe_estimate,
            "pe_half_width_95": self.pe_half_width_95,
            "sizes": self.sizes,
            "nominal_rates": self.nominal_rates,
            "realized_rates": self.realized_rates,
            "config": self.config,
        }


def is_jointly_typical(seqs, joint: JointPmf, eps: float) -> bool:
    """Multiplicative typicality: every tuple frequency within eps*p of p.
    Tuples outside the support must not occur at all."""
    arrays = [np.asarray(s, dtype=np.int64) for s in seqs]
    if len(arrays) != len(joint.axes):
        raise InputError("sequence count does not match joint axes")
    n = arrays[0].shape[0]
    for a in arrays:
        if a.shape != (n,):
            raise InputError("sequences must share one length")
    p = joint.as_float()
    counts = np.zeros(p.shape, dtype=np.int64)
    np.add.at(counts, tuple(arrays), 1)
    freq = counts / n
    return bool(np.all(np.abs(freq - p) <= eps * p))


def _conditional_table(joint_mass: np.ndarray, known_cells: int, new_cells: int) -> np.ndarray:
    """p(new | known) from a flattened (known, new) joint, zeros off-support."""
    m = joint_mass.reshape(known_cells, new_cells)
    totals = m.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        table = np.where(totals > 0.0, m / np.where(totals > 0.0, totals, 1.0), 0.0)
    return table


def _band_ok(counts: np.ndarray, table: np.ndarray, eps: float) -> np.ndarray:
    """Conditional typicality of each row of counts (cells in (known, new)
    row-major order): counts of (known, new) cells must stay within the
    multiplicative band around count(known) * table, and off-support cells
    must stay empty."""
    counts = counts.reshape(len(counts), *table.shape)
    target = counts.sum(axis=2)[:, :, None] * table[None]
    zero_viol = ((table[None] <= 0.0) & (counts > 0)).any(axis=(1, 2))
    band_viol = (np.abs(counts - target) > eps * target + 1e-9).any(axis=(1, 2))
    return ~(zero_viol | band_viol)


def _typical_flags(known: np.ndarray, new: np.ndarray, table: np.ndarray, eps: float,
                   pass_tables: dict | None = None) -> np.ndarray:
    """Vectorized conditional typicality over candidates.

    known and new hold per-position cell indices into table = p(new | known)
    and broadcast against each other to one (..., n) array of candidates;
    the flags have the leading shape. The test depends on a candidate only
    through its count vector, which the key sum_t (n+1)**(known_t *
    new_cells + new_t) spells out in base n + 1. The band test runs on every
    possible key when there are at most _TABLE_KEYS of them (the pass/fail
    table is kept in pass_tables under (n, eps)), else on each distinct key,
    and per candidate only where a key would overflow int64.
    """
    new_cells = table.shape[1]
    cells = table.size
    shape = np.broadcast_shapes(np.shape(known), np.shape(new))
    n = shape[-1]
    base = n + 1
    if base ** cells > _KEY_LIMIT:
        comp = np.broadcast_to(known * new_cells + new, shape).reshape(-1, n)
        flags = np.empty(len(comp), dtype=bool)
        chunk = max(1, _CHUNK_CELLS // cells)
        for start in range(0, len(comp), chunk):
            part = comp[start:start + chunk]
            m = part.shape[0]
            offsets = np.arange(m, dtype=np.int64)[:, None] * cells
            counts = np.bincount((offsets + part).ravel(), minlength=m * cells)
            flags[start:start + m] = _band_ok(counts.reshape(m, cells), table, eps)
        return flags.reshape(shape[:-1])
    weights = base ** np.arange(cells, dtype=np.int64)
    keys = np.einsum("...t,...t->...", weights[::new_cells][known], weights[:new_cells][new])
    if base ** cells <= _TABLE_KEYS:
        pass_tables = {} if pass_tables is None else pass_tables
        ok = pass_tables.get((n, eps))
        if ok is None:
            every = np.arange(base ** cells, dtype=np.int64)
            ok = pass_tables[(n, eps)] = _band_ok(every[:, None] // weights % base,
                                                  table, eps)
        return ok[keys]
    uniq, inverse = np.unique(keys.reshape(-1), return_inverse=True)
    return _band_ok(uniq[:, None] // weights % base, table, eps)[inverse].reshape(keys.shape)


class _Tables:
    """Float conditionals shared by the encoder and both decoders, and the
    pass/fail tables of their typicality tests."""

    def __init__(self, scheme: AuxScheme, ch: Channel):
        scheme.check_against(ch)
        aux = np.asarray(scheme.aux_joint.mass, dtype=np.float64)
        a0, a1, a2 = aux.shape
        self.sizes = (a0, a1, a2)
        self.p_u0 = aux.sum(axis=(1, 2))
        # p(u1 | u0) and p(u2 | u0) for codebook draws
        self.t_u1 = _conditional_table(aux.sum(axis=2), a0, a1)
        self.t_u2 = _conditional_table(aux.sum(axis=1), a0, a2)
        # p(u1, u2 | u0) for the covering scan
        self.t_pair = _conditional_table(aux, a0, a1 * a2)
        self.gamma = np.asarray(scheme.gamma, dtype=np.int64)
        m1, m2 = receiver_joints(aux, self.gamma, ch.y1_given_x(), ch.y2_given_x())
        # p(y_k | u0, u_k), indexed by receiver k
        self.t_y = {1: _conditional_table(m1, a0 * a1, ch.y1.size),
                    2: _conditional_table(m2, a0 * a2, ch.y2.size)}
        self.pass_tables = {"encode": {}, 1: {}, 2: {}}
        # channel sampling cdfs over the composite (y1, y2) alphabet
        kern = ch.kernel_float().reshape(ch.x.size, -1)
        self.channel_cdf = np.cumsum(kern, axis=1)


def _need_tables(tables, cfg: SchemeConfig, ch, what: str) -> _Tables:
    if tables is not None:
        return tables
    if ch is None:
        raise InputError(f"{what} needs precomputed tables or the channel")
    return _Tables(cfg.scheme, ch)


def _inverse_cdf(r: np.ndarray, columns) -> np.ndarray:
    """Index drawn by each uniform in r: the number of cdf columns below it.
    Callers leave out the last column, which can only push the count past
    the last index."""
    idx = np.zeros(r.shape, dtype=np.int64)
    for col in columns:
        idx += col < r
    return idx


def _sample_categorical(rng: np.random.Generator, cdf_rows: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """Inverse-cdf draw: one sample per entry of `rows`, each from the cdf row
    selected by that entry."""
    r = rng.random(rows.shape)
    return _inverse_cdf(r, (cdf_rows[rows, k] for k in range(cdf_rows.shape[1] - 1)))


def _generate(cfg: SchemeConfig, ch: Channel, tables: _Tables,
              rng: np.random.Generator) -> Codebooks:
    sz = cfg.sizes()
    n = cfg.n
    base = (sz["m1"], sz["m4"], sz["m5"], sz["m21"], sz["m31"])
    _, a1, a2 = tables.sizes
    cb0 = _inverse_cdf(rng.random(base + (n,)), np.cumsum(tables.p_u0)[:-1])
    if a1 == 1:  # degenerate satellite alphabet: nothing to draw
        cb1 = np.zeros(base + (sz["m22"], sz["l1"], n), dtype=np.int64)
    else:
        cb0_b1 = np.broadcast_to(cb0[..., None, None, :], base + (sz["m22"], sz["l1"], n))
        cb1 = _sample_categorical(rng, np.cumsum(tables.t_u1, axis=1), cb0_b1)
    if a2 == 1:
        cb2 = np.zeros(base + (sz["m32"], sz["l2"], n), dtype=np.int64)
    else:
        cb0_b2 = np.broadcast_to(cb0[..., None, None, :], base + (sz["m32"], sz["l2"], n))
        cb2 = _sample_categorical(rng, np.cumsum(tables.t_u2, axis=1), cb0_b2)
    return Codebooks(cb0, cb1, cb2)


def generate_codebooks(cfg: SchemeConfig, ch: Channel) -> Codebooks:
    """Standalone codebook draw, deterministic in cfg.seed."""
    tables = _Tables(cfg.scheme, ch)
    return _generate(cfg, ch, tables, np.random.default_rng((cfg.seed, 1)))


def encode(cb: Codebooks, msg: Msg, cfg: SchemeConfig,
           tables: _Tables | None = None, ch: Channel | None = None):
    """Test every bin pair (l1, l2) and take the first conditionally typical
    triple in lexicographic order; fall back to (0, 0) when none passes.
    Returns (x_seq, (l1, l2), fallback)."""
    tables = _need_tables(tables, cfg, ch, "encode")
    a2 = tables.sizes[2]
    cloud = (msg.m1, msg.m4, msg.m5, msg.m21, msg.m31)
    u0 = cb.cb0[cloud]                       # (n,)
    u1 = cb.cb1[cloud + (msg.m22,)]          # (L1, n)
    u2 = cb.cb2[cloud + (msg.m32,)]          # (L2, n)
    flags = _typical_flags(u0, u1[:, None, :] * a2 + u2[None, :, :], tables.t_pair,
                           cfg.eps_prime, tables.pass_tables["encode"])
    # argmax is 0, i.e. the fallback pair (0, 0), when nothing passes
    l1, l2 = divmod(int(flags.argmax()), flags.shape[1])
    x = tables.gamma[u0, u1[l1], u2[l2]]
    return x, (l1, l2), not flags.any()


# Per receiver: its satellite book, the cb0 axis of the message it knows,
# the candidate axes the search is existential over (the other receiver's
# private cloud part and the bin), and the messages it decodes.
_RECEIVERS = {
    1: ("cb1", 2, (3, 5), ("m1", "m4", "m21", "m22"), "eps1"),
    2: ("cb2", 1, (2, 5), ("m1", "m5", "m31", "m32"), "eps2"),
}


def _decode(rx: int, cb: Codebooks, y: np.ndarray, known: int, cfg: SchemeConfig,
            tables: _Tables | None, ch: Channel | None) -> DecodeResult:
    tables = _need_tables(tables, cfg, ch, "decode")
    book, known_axis, hidden, names, eps = _RECEIVERS[rx]
    pick = (slice(None),) * known_axis + (known,)
    u0 = cb.cb0[pick]                        # (M1, M4 or M5, M21, M31, n)
    us = getattr(cb, book)[pick]             # (..., M22 or M32, L1 or L2, n)
    known_cells = u0[:, :, :, :, None, None, :] * tables.sizes[rx] + us  # (u0, u_rx)
    flags = _typical_flags(known_cells, y, tables.t_y[rx], getattr(cfg, eps),
                           tables.pass_tables[rx])
    return _resolve(flags.any(axis=hidden), names)


def decode_rx1(cb: Codebooks, y1: np.ndarray, m5: int, cfg: SchemeConfig,
               tables: _Tables | None = None, ch: Channel | None = None) -> DecodeResult:
    """Search all (m1, m21, m22, m4); a candidate passes if some (m31, l1)
    makes (cloud word, satellite word, y1) conditionally typical. Unique pass
    decodes; zero or several is an error with a deterministic default guess."""
    return _decode(1, cb, y1, m5, cfg, tables, ch)


def decode_rx2(cb: Codebooks, y2: np.ndarray, m4: int, cfg: SchemeConfig,
               tables: _Tables | None = None, ch: Channel | None = None) -> DecodeResult:
    """Mirror of decode_rx1: receiver 2 knows m4, decodes (m1, m31, m32, m5)
    with (m21, l2) existential."""
    return _decode(2, cb, y2, m4, cfg, tables, ch)


def _resolve(passing: np.ndarray, names) -> DecodeResult:
    total = int(passing.sum())
    if total == 1:
        idx = np.unravel_index(int(passing.reshape(-1).argmax()), passing.shape)
        return DecodeResult(True, dict(zip(names, map(int, idx))), None, passing)
    if total == 0:
        return DecodeResult(False, dict(zip(names, [0] * len(names))),
                            "none_typical", passing)
    idx = np.unravel_index(int(passing.reshape(-1).argmax()), passing.shape)
    return DecodeResult(False, dict(zip(names, map(int, idx))), "ambiguous", passing)


def _classify(result: DecodeResult, msg: Msg) -> str:
    """Error event of a wrong decision; result.messages is keyed by the
    receiver's decoded messages in candidate-axis order, cloud message first."""
    truth = tuple(getattr(msg, k) for k in result.messages)
    others = result.passing.copy()
    others[truth] = False
    if np.delete(others, truth[0], axis=0).any():
        return "wrong_cloud"
    if others[truth[:3]].any():
        return "wrong_satellite"
    if others.any():
        return "other"
    return "none_typical"


def _wilson_half_width(pe: float, trials: int) -> float:
    """Half-width of the 95% Wilson score interval [lo, hi] about pe, taken
    as max(hi - pe, pe - lo) so that pe +- half covers the interval. Unlike
    the Wald width it is not 0 at pe = 0 or 1."""
    z = 1.96
    z2n = z * z / trials
    center = (pe + z2n / 2.0) / (1.0 + z2n)
    spread = z / (1.0 + z2n) * math.sqrt(max(pe * (1.0 - pe), 0.0) / trials
                                         + z2n / (4.0 * trials))
    return max(center + spread - pe, pe - (center - spread))


def estimate_error(ch: Channel, cfg: SchemeConfig, trials: int,
                   progress=None) -> SimReport:
    """Average error over independent trials. A receiver errors when its
    decoded message tuple differs from the transmitted one; failed searches
    contribute through their default guess. Fresh codebooks per trial by
    default (the random-coding average)."""
    if trials < 1:
        raise InputError("need at least one trial")
    tables = _Tables(cfg.scheme, ch)
    sz = cfg.sizes()
    fixed_books = None
    if not cfg.fresh_codebooks:
        fixed_books = _generate(cfg, ch, tables, np.random.default_rng((cfg.seed, 1)))
    fallbacks = 0
    errors = {1: 0, 2: 0}
    any_errors = 0
    buckets = {rx: {"none_typical": 0, "wrong_satellite": 0, "wrong_cloud": 0, "other": 0}
               for rx in (1, 2)}
    for trial in range(trials):
        rng = np.random.default_rng((cfg.seed, 0, trial))
        books = fixed_books if fixed_books is not None else _generate(cfg, ch, tables, rng)
        msg = Msg(*(int(rng.integers(sz[k])) for k in
                    ("m1", "m4", "m5", "m21", "m31", "m22", "m32")))
        x, _, fb = encode(books, msg, cfg, tables)
        fallbacks += int(fb)
        flat = _sample_categorical(rng, tables.channel_cdf, x)
        results = {1: decode_rx1(books, flat // ch.y2.size, msg.m5, cfg, tables),
                   2: decode_rx2(books, flat % ch.y2.size, msg.m4, cfg, tables)}
        failed = False
        for rx, res in results.items():
            if any(v != getattr(msg, k) for k, v in res.messages.items()):
                errors[rx] += 1
                buckets[rx][_classify(res, msg)] += 1
                failed = True
        any_errors += int(failed)
        if progress is not None and (trial + 1) % 100 == 0:
            progress(trial + 1, any_errors)
    pe = any_errors / trials
    half = _wilson_half_width(pe, trials)
    r = cfg.rates
    nominal = {k: getattr(r, k) for k in RATE_NAMES}
    return SimReport(
        trials=trials,
        encoder_fallbacks=fallbacks,
        rx1_errors=errors[1],
        rx2_errors=errors[2],
        rx1_events=buckets[1],
        rx2_events=buckets[2],
        pe_estimate=pe,
        pe_half_width_95=half,
        sizes=sz,
        nominal_rates=nominal,
        realized_rates=cfg.realized_rates(),
        config={"n": cfg.n, "eps_prime": cfg.eps_prime, "eps1": cfg.eps1,
                "eps2": cfg.eps2, "seed": cfg.seed,
                "fresh_codebooks": cfg.fresh_codebooks},
    )


def plan_split_rates(consts: MiConstants, r1: float, r2: float, r3: float,
                     r4: float, r5: float, split2: float = 0.5,
                     split3: float = 0.5) -> tuple:
    """Split the private rates (even by default) and pick bin rates by a
    max-slack feasibility scan of the pre-projection conditions.

    Returns (SplitRates, slack); negative slack means the operating point
    sits outside the region at these constants.
    """
    from scipy.optimize import linprog

    if not (0.0 <= split2 <= 1.0 and 0.0 <= split3 <= 1.0):
        raise InputError("splits must lie in [0, 1]")
    r21, r22 = r2 * split2, r2 * (1.0 - split2)
    r31, r32 = r3 * split3, r3 * (1.0 - split3)
    a = consts.i_u1_u2_given_u0
    b1 = consts.i_u1_y1_given_u0
    b2 = consts.i_u2_y2_given_u0
    big1 = consts.i_u0u1_y1
    big2 = consts.i_u0u2_y2
    # variables rp1, rp2, t; maximize t
    a_ub = np.array([
        [-1.0, -1.0, 1.0],
        [1.0, 0.0, 1.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0],
    ])
    b_ub = np.array([
        -a,
        b1 - r22,
        big1 - (r1 + r21 + r31 + r4 + r22),
        b2 - r32,
        big2 - (r1 + r21 + r31 + r5 + r32),
    ])
    res = linprog(np.array([0.0, 0.0, -1.0]), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0.0, None), (0.0, None), (None, None)], method="highs")
    if not res.success:
        raise GuardError(f"bin-rate planning LP failed: {res.message}")
    rp1, rp2, slack = float(res.x[0]), float(res.x[1]), float(res.x[2])
    rates = SplitRates(r1=r1, r21=r21, r22=r22, r31=r31, r32=r32, r4=r4, r5=r5,
                       rp1=max(rp1, 0.0), rp2=max(rp2, 0.0))
    return rates, slack
