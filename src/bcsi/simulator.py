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
candidate. A type is keyed by an integer summed over groups of positions.
Each book is packed once, in its own alphabet, into one word per group, and
the side of a test that does not vary (a decoder's received word, the
encoder's cloud word) is folded into a small per-trial table of partial keys
over every possible candidate word pair, so a candidate costs one table
lookup per group. Receiver errors are counted as decoded-message
mismatches; a failed search still yields a deterministic default guess, so a
rate-zero configuration never errors.

The encoder and both decoders have one calling form: a batch of trials
(one index array per message, received words of shape (T, n)) and a
required CoderTables built once per scheme and channel. One slack eps sets
the decoders' packing tests; the encoder covers within eps / 2.

Per-trial randomness comes from counter-style derived generators: trial t
draws from the stream of default_rng((seed, 0, t)), so reports are
bit-identical given the config. Those generators are not built one by one:
their seeding (SeedSequence's fixed hash, then PCG64's two LCG steps) runs
vectorized over many trials, and one generator takes each trial's state in
turn. Trials run in blocks: every trial of a block makes its draws first,
then the codebook mapping, the encoder, the channel and both decoders each
run once over the whole block.

Each symbol takes only the random bits its law needs. A drawn table (p(u0),
p(u1 | u0), p(u2 | u0), or the channel's rows) has one width b: the smallest
b in _WIDTHS such that every cdf entry c but the last of each row has
c * 2**b an integer, else 53. A table of width 0 is a point mass per row
and draws nothing. At 1 <= b <= 32, N symbols take ceil(N * b / 64) raw
64-bit outputs, field i of output r being (r >> b * i) & (2**b - 1), and a
field v is symbol #{k : c_k * 2**b <= v}: a law of masses that are
multiples of 2**-b is sampled exactly (Knuth and Yao). At b = 53 each
symbol takes one output, as the double u that Generator.random makes of it,
and is symbol #{k : c_k < u}: a run whose tables all have width 53 draws
what a double per symbol draws.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import GuardError, InputError
from .probability import AuxScheme, Channel
from .rate_regions import MiConstants, SplitRates, raw_coding_system, receiver_joints

DESK_CAP = 1_000_000  # product of all message-set and bin sizes
_CHUNK_CELLS = 4_000_000
_TABLE_KEYS = 2 ** 16  # type-key spaces up to this size get a pass/fail table
_KEY_LIMIT = 2 ** 63   # type keys below this fit int64
_SEED_CHUNK = 256      # trials seeded together (their Python-int states are held at once)
# Codeword symbols, bin pairs and channel draws a block of trials holds (a
# block has at least one trial): what one trial of 65,536 cloud words of
# length 8 draws
_BLOCK_CELLS = 2 ** 19
_WIDTHS = (0, 1, 2, 4, 8, 16, 32)  # random bits per symbol of a dyadic law
_FULL_WIDTH = 53  # bits per symbol of any other law: a double's mantissa

RATE_NAMES = ("r1", "r21", "r22", "r31", "r32", "r4", "r5", "rp1", "rp2")
SIZE_NAMES = ("m1", "m4", "m5", "m21", "m31", "m22", "m32", "l1", "l2")
_MSG_NAMES = SIZE_NAMES[:7]  # Msg field order, the order of the message draws


def _size_from_rate(n: int, rate: float) -> int:
    if n * rate > 64:  # far beyond DESK_CAP, where 2.0 ** (n * rate) may overflow
        raise GuardError(f"message set 2^{n * rate:g} exceeds desk-scale cap {DESK_CAP}")
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
    eps: float = 0.3  # decoding (packing) slack; the encoder covers within eps / 2
    seed: int = 0
    fresh_codebooks: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise InputError("blocklength must be at least 1")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if not (self.eps_prime > 0 and math.isfinite(self.eps)):
            raise InputError("typicality slack must be positive and finite")
        total = 1
        for s in self._sizes.values():
            total *= s
        if total > DESK_CAP:
            raise GuardError(
                f"codebook index space {total} exceeds desk-scale cap {DESK_CAP}")

    @property
    def eps_prime(self) -> float:
        """Covering slack of the encoder's bin scan, below the decoders' eps."""
        return self.eps / 2

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
    """One index array per message, one entry per trial."""

    m1: np.ndarray
    m4: np.ndarray
    m5: np.ndarray
    m21: np.ndarray
    m31: np.ndarray
    m22: np.ndarray
    m32: np.ndarray


@dataclass
class Codebooks:
    """cb0 indexed by (m1, m4, m5, m21, m31); cb1 adds (m22, l1); cb2 adds
    (m32, l2). Last axis is the blocklength; an optional leading axis holds
    one book set per trial. Symbols are uint8 when every auxiliary alphabet
    has at most 256 symbols, else int64. The book of a trivial satellite
    alphabet is a read-only zero-stride view of zeros."""

    cb0: np.ndarray
    cb1: np.ndarray
    cb2: np.ndarray


@dataclass
class DecodeResult:
    """One decision per trial: every field has a leading trial axis
    (messages maps each name to an index array)."""

    ok: np.ndarray
    messages: dict
    kind: np.ndarray  # per trial None, "none_typical" or "ambiguous"
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
        return asdict(self)


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


def _group_size(n: int, tests) -> int:
    """Positions per packed word: the most, at most n and at least 1, such
    that no per-trial table has more entries than the lookups it serves.
    tests holds, per typicality test, the candidate cells of one position
    (a table over g positions has cells**g entries) and the lookups one
    trial makes into each of its tables."""
    g = 1
    while g < n and all(cells ** (g + 1) <= lookups for cells, lookups in tests):
        g += 1
    return g


def _pack(book: np.ndarray, a: int, g: int) -> np.ndarray:
    """Words sum_j book[..., s + j] * a**j of the groups of g positions
    starting at s = 0, g, 2g, ... (the last group may be shorter), on a last
    axis of groups, in the smallest unsigned dtype that holds a**g - 1. The
    positions are copied to the front first, so that Horner's rule runs over
    contiguous rows."""
    dtype = np.min_scalar_type(a ** g - 1)
    digits = np.ascontiguousarray(np.moveaxis(book, -1, 0))
    n = len(digits)
    words = np.empty((-(-n // g),) + book.shape[:-1], dtype)
    for word, s in zip(words, range(0, n, g)):
        top = min(s + g, n) - 1
        word[...] = digits[top]
        for t in range(top - 1, s - 1, -1):
            word *= dtype.type(a)
            np.add(word, digits[t], out=word, casting="unsafe")
    return np.moveaxis(words, 0, -1)


def _trial_tables(part: np.ndarray, a_major: int, a_minor: int, g: int) -> np.ndarray:
    """Per trial and group, the partial key of every candidate word pair.

    part is (T, G * g, a_major * a_minor): the key term of each candidate
    cell u_major * a_minor + u_minor at each position (0 past the last
    position). Entry w_major * a_minor**g + w_minor of row [t, s] of the
    result is the sum over the group's positions s * g + j of the term of
    digit j of both words, built by Horner's rule, one digit per step. The
    steps run with the trial axis innermost, where it is long and the digit
    axes are short."""
    trials, groups = part.shape[0], part.shape[1] // g
    part = np.ascontiguousarray(np.moveaxis(part.reshape(trials, groups, g, a_major, a_minor),
                                            0, -1))
    keys = part[:, g - 1]
    for j in range(g - 2, -1, -1):
        keys = (keys[:, :, None, :, None] + part[:, j, None, :, None]).reshape(
            groups, keys.shape[1] * a_major, keys.shape[2] * a_minor, trials)
    return np.moveaxis(keys.reshape(groups, -1, trials), -1, 0)


def _typical_flags(table: np.ndarray, eps: float, fixed: np.ndarray, fixed_known: bool,
                   major: tuple, minor: tuple, g: int,
                   pass_tables: dict | None = None) -> np.ndarray:
    """Vectorized conditional typicality of candidates against the fixed
    sequence of their trial.

    fixed is (T, ..., n) with 1 on every candidate axis: per trial the
    sequence that does not vary (a decoder's received word, the encoder's
    cloud word), on the known side of table = p(new | known) if fixed_known,
    else on the new side. On the other side, a candidate's cell at a
    position is u_major * a_minor + u_minor. major and minor are (words, a):
    the _pack words of the candidates' symbols over an alphabet of size a
    (trial axis first, groups last, broadcasting against fixed to the
    candidate shape), or None when a is 1. The flags have the broadcast
    shape.

    The test depends on a candidate only through its count vector, which
    the key sum_t (n+1)**c_t (c_t the table cell at position t) spells in
    base n + 1. The sum is taken over groups of g positions: per trial and
    group the partial key of every possible word pair is tabulated
    (_trial_tables), and a candidate's partial key in group s is one flat
    np.take at ((t * G + s) * a_major**g + major word) * a_minor**g + minor
    word. The band test runs on every possible key when there are at most
    _TABLE_KEYS of them (the pass/fail table is kept in pass_tables under
    (n, eps); with one group it is applied to the per-trial tables), else on
    each distinct key, and per candidate, on the unpacked words, only where
    a key would overflow int64.
    """
    (w_major, a_major), (w_minor, a_minor) = major, minor
    trials, n = len(fixed), fixed.shape[-1]
    groups = -(-n // g)
    shape = np.broadcast_shapes(fixed.shape[:-1], *(w.shape[:-1] for w in (w_major, w_minor)
                                                    if w is not None))
    base = n + 1
    cells = table.size
    if base ** cells > _KEY_LIMIT:
        return _bincount_flags(table, eps, fixed, fixed_known, major, minor, g, shape)
    weights = base ** np.arange(cells, dtype=np.int64)
    terms = weights.astype(np.min_scalar_type(base ** cells - 1)).reshape(table.shape)
    if not fixed_known:
        terms = terms.T
    part = np.zeros((trials, groups * g, a_major * a_minor), terms.dtype)
    part[:, :n] = terms[fixed.reshape(trials, n)]
    keys = _trial_tables(part, a_major, a_minor, g)
    on_table = base ** cells <= _TABLE_KEYS
    if on_table:
        pass_tables = {} if pass_tables is None else pass_tables
        ok = pass_tables.get((n, eps))
        if ok is None:
            every = np.arange(base ** cells, dtype=np.int64)
            ok = pass_tables[(n, eps)] = _band_ok(every[:, None] // weights % base,
                                                  table, eps)
        if groups == 1:
            keys = np.take(ok, keys)
    flat = keys.reshape(-1)
    first = np.arange(trials).reshape((trials,) + (1,) * (len(shape) - 1)) * groups
    found = None
    for s in range(groups):
        index = (first + s) * a_major ** g
        if w_major is not None:
            index = index + w_major[..., s]
        if w_minor is not None:
            index = index * a_minor ** g + w_minor[..., s]
        hit = np.take(flat, index)
        found = hit if found is None else np.add(found, hit, out=found)
    if on_table:
        return found if groups == 1 else np.take(ok, found)
    uniq, inverse = np.unique(found.reshape(-1), return_inverse=True)
    return _band_ok(uniq.astype(np.int64)[:, None] // weights % base,
                    table, eps)[inverse].reshape(found.shape)


def _bincount_flags(table, eps, fixed, fixed_known, major, minor, g, shape) -> np.ndarray:
    """_typical_flags for keys that would overflow int64: the words are
    unpacked and each candidate's cells are counted, a chunk at a time."""
    n = fixed.shape[-1]

    def symbols(words, a):
        if words is None:
            return 0
        digits = words[..., None] // a ** np.arange(g, dtype=np.int64) % a
        return digits.reshape(words.shape[:-1] + (-1,))[..., :n]

    (w_major, a_major), (w_minor, a_minor) = major, minor
    other = symbols(w_major, a_major) * a_minor + symbols(w_minor, a_minor)
    fixed = fixed.astype(np.int64)
    cells = fixed * table.shape[1] + other if fixed_known else other * table.shape[1] + fixed
    comp = np.broadcast_to(cells, shape + (n,)).reshape(-1, n)
    flags = np.empty(len(comp), dtype=bool)
    chunk = max(1, _CHUNK_CELLS // table.size)
    for start in range(0, len(comp), chunk):
        part = comp[start:start + chunk]
        m = part.shape[0]
        offsets = np.arange(m, dtype=np.int64)[:, None] * table.size
        counts = np.bincount((offsets + part).ravel(), minlength=m * table.size)
        flags[start:start + m] = _band_ok(counts.reshape(m, table.size), table, eps)
    return flags.reshape(shape)


class CoderTables:
    """Symbol laws of the codebook draw and the channel, the conditionals
    of the encoder's and both decoders' typicality tests, and their pass/fail
    tables. Build one per (scheme, channel) and pass it to every encode and
    decode call."""

    def __init__(self, scheme: AuxScheme, ch: Channel):
        scheme.check_against(ch)
        aux = scheme.aux_joint.mass
        a0, a1, a2 = aux.shape
        self.sizes = (a0, a1, a2)
        self.codeword_dtype = np.uint8 if max(self.sizes) <= 256 else np.int64
        # the _symbol_law of p(u0), p(u1 | u0) and p(u2 | u0), in book order
        self.book_laws = (_symbol_law(aux.sum(axis=(1, 2))[None]),
                          _symbol_law(_conditional_table(aux.sum(axis=2), a0, a1)),
                          _symbol_law(_conditional_table(aux.sum(axis=1), a0, a2)))
        # p(u1, u2 | u0) for the covering scan
        self.t_pair = _conditional_table(aux, a0, a1 * a2)
        self.gamma = np.asarray(scheme.gamma, dtype=np.int64)
        m1, m2 = receiver_joints(aux, self.gamma, ch.y1_given_x(), ch.y2_given_x())
        # p(y_k | u0, u_k), indexed by receiver k
        self.t_y = {1: _conditional_table(m1, a0 * a1, ch.y1.size),
                    2: _conditional_table(m2, a0 * a2, ch.y2.size)}
        self.pass_tables = {"encode": {}, 1: {}, 2: {}}
        # the channel's rows over the composite (y1, y2) alphabet
        self.channel_law = _symbol_law(ch.kernel.reshape(ch.x.size, -1))


def _symbol_law(table: np.ndarray) -> tuple:
    """(b, thresholds) of a table of laws, one per row: b is the width of
    the module docstring, and a field v of b bits is symbol #{k : T[row, k]
    <= v} of the table's row. T[row, k] is c_k * 2**b for the row's cdf
    entries c_k but the last (which can only push the count past the last
    symbol), in the smallest unsigned dtype that holds 2**b. At b = 53 the
    fields are doubles u and T[row, k] is the double just above c_k, so
    that T[row, k] <= u exactly when c_k < u."""
    cdf = np.cumsum(table, axis=1)[:, :-1]
    for bits in _WIDTHS:
        scaled = cdf * 2.0 ** bits  # a power of two scales exactly
        if (scaled == np.floor(scaled)).all():
            return bits, scaled.astype(np.min_scalar_type(2 ** bits))
    return _FULL_WIDTH, np.nextafter(cdf, np.inf)


def _raw_words(count: int, bits: int) -> int:
    """Raw outputs that count symbols of width bits take."""
    return count if bits == _FULL_WIDTH else -(-count * bits // 64)


def _buffer(lead: tuple, words: int, bits: int):
    """A buffer for words outputs per leading index (lead) of a law of width
    bits: uint64 for raw outputs, float64 at 53 for the doubles that
    Generator.random makes of them; None when the law draws nothing."""
    if not words:
        return None
    return np.empty(lead + (words,), np.float64 if bits == _FULL_WIDTH else np.uint64)


def _fill(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill out (a row of a _buffer) with rng's next outputs: as they are,
    or as doubles in place in a float64 buffer."""
    if out.dtype == np.float64:
        rng.random(out=out)
    else:
        out[...] = rng.bit_generator.random_raw(out.shape[-1])


def _fields(raw: np.ndarray, bits: int, count: int) -> np.ndarray:
    """The first count fields of width bits (1 to 32) of the raw outputs on
    raw's last axis, field i of output r being (r >> bits * i) & (2**bits -
    1); uint8 up to 8 bits, else as wide as the field."""
    octets = raw.astype("<u8", copy=False).view(np.uint8)  # the least significant first
    if bits == 1:
        # unpackbits takes about a seventh of the time of the eight shifts
        # below; without it a cloud-only simulate of 65,536 words of n = 8
        # (R1 = 2) per trial runs about 11% longer end to end
        return np.unpackbits(octets, axis=-1, count=count, bitorder="little")
    if bits >= 8:
        return octets.view(f"<u{bits // 8}")[..., :count]
    # field k of each octet in one pass over the octets per k: a shift
    # broadcast over a last axis of 8 // bits runs that short axis as numpy's
    # inner loop, and takes several times as long
    per = 8 // bits
    parts = np.empty(octets.shape + (per,), np.uint8)
    for k in range(per):
        np.right_shift(octets, np.uint8(bits * k), out=parts[..., k])
    parts &= np.uint8((1 << bits) - 1)
    return parts.reshape(raw.shape[:-1] + (-1,))[..., :count]


def _inverse_cdf(v: np.ndarray, columns, dtype=np.int64) -> np.ndarray:
    """Symbol of each field in v: the number of threshold columns (each
    broadcasting against v) at or below it. The thresholds are those of
    _symbol_law, so a field of b bits, uniform on 0 .. 2**b - 1, is symbol k
    for exactly T[row, k] - T[row, k - 1] of its values, and at b = 53 a
    double u of Generator.random is symbol #{k : c_k < u}. The first comparison
    is written straight into the result: on a codebook's fields, a bool
    temporary of v's size costs more than the comparison itself."""
    idx = np.zeros(v.shape, dtype=dtype)
    for k, col in enumerate(columns):
        if k:
            idx += col <= v
        else:
            np.less_equal(col, v, out=idx, casting="unsafe")
    return idx


def _sample(law: tuple, raw, shape: tuple, rows, dtype) -> np.ndarray:
    """Symbols of the given shape drawn from law (_symbol_law), in C order
    from the fields of raw (a _buffer of the law's width: leading axes
    first, the outputs of each leading index on the last axis). rows,
    broadcasting against shape, selects each symbol's row of the law, and is
    None for a law of one row."""
    bits, thresholds = law
    if bits == _FULL_WIDTH:
        v = raw.reshape(shape)
    elif bits:
        v = _fields(raw, bits, math.prod(shape[raw.ndim - 1:])).reshape(shape)
    else:
        v = np.broadcast_to(np.uint8(0), shape)
    if rows is None:
        columns = thresholds[0]
    else:
        columns = (thresholds[:, k][rows] for k in range(thresholds.shape[1]))
    return _inverse_cdf(v, columns, dtype)


def _book_shapes(cfg: SchemeConfig) -> tuple:
    """Shapes of cb0, cb1 and cb2 for one trial."""
    sz = cfg._sizes
    base = (sz["m1"], sz["m4"], sz["m5"], sz["m21"], sz["m31"])
    return (base + (cfg.n,), base + (sz["m22"], sz["l1"], cfg.n),
            base + (sz["m32"], sz["l2"], cfg.n))


def _book_words(cfg: SchemeConfig, tables: CoderTables) -> list:
    """Raw outputs each of cb0, cb1 and cb2 draws for one trial, in draw
    order; a book whose law has width 0 draws none."""
    return [_raw_words(math.prod(shape), law[0])
            for shape, law in zip(_book_shapes(cfg), tables.book_laws)]


def _book_buffers(cfg: SchemeConfig, tables: CoderTables, lead: tuple) -> list:
    """The _buffer of each of cb0, cb1 and cb2 for one trial's draws per
    leading index."""
    return [_buffer(lead, words, law[0])
            for words, law in zip(_book_words(cfg, tables), tables.book_laws)]


def _codebooks(cfg: SchemeConfig, tables: CoderTables, raw: list) -> Codebooks:
    """Map the outputs of each book (its _book_buffers, with any leading
    trial axes) to codewords: cloud symbols from p(u0), satellite symbols
    from p(u_k | u0) given the cloud symbol at the same position. When no
    book draws, the books have no leading axes."""
    dtype = tables.codeword_dtype
    lead = next((r.shape[:-1] for r in raw if r is not None), ())
    shapes = [lead + shape for shape in _book_shapes(cfg)]
    cb0 = _sample(tables.book_laws[0], raw[0], shapes[0], None, dtype)
    rows = cb0[..., None, None, :]
    books = [cb0]
    for k in (1, 2):
        if tables.sizes[k] == 1:  # trivial satellite alphabet: all zeros, no draw
            books.append(np.broadcast_to(np.zeros((), dtype), shapes[k]))
        else:
            books.append(_sample(tables.book_laws[k], raw[k], shapes[k], rows, dtype))
    return Codebooks(*books)


def generate_codebooks(cfg: SchemeConfig, ch: Channel) -> Codebooks:
    """Standalone codebook draw, deterministic in cfg.seed: the fixed books
    of estimate_error. Each book starts on a fresh raw output of the
    stream of default_rng((seed, 1))."""
    tables = CoderTables(cfg.scheme, ch)
    rng = np.random.default_rng((cfg.seed, 1))
    raw = _book_buffers(cfg, tables, ())
    for out in raw:
        if out is not None:
            _fill(rng, out)
    return _codebooks(cfg, tables, raw)


@dataclass
class _Packed(Codebooks):
    """Books with the words of their groups of g positions (_pack, in each
    book's own alphabet), one entry of words per book, None for a trivial
    alphabet."""

    g: int
    words: tuple


def _pack_books(cb: Codebooks, cfg: SchemeConfig, tables: CoderTables) -> _Packed:
    """cb with every nontrivial book packed once for the encoder and both
    decoders. g is the _group_size of their three tests: cell pairs
    (u0, u1), (u0, u2) and (u1, u2), each against the candidate words it
    looks up per trial (one word per trivial alphabet). A _Packed cb is
    returned as it is."""
    if isinstance(cb, _Packed):
        return cb
    sz = cfg._sizes
    a0, a1, a2 = tables.sizes
    cloud = sz["m1"] * sz["m21"] * sz["m31"]
    own1 = sz["m22"] * sz["l1"] if a1 > 1 else 1
    own2 = sz["m32"] * sz["l2"] if a2 > 1 else 1
    tests = [(a0 * a1, cloud * sz["m4"] * own1), (a0 * a2, cloud * sz["m5"] * own2),
             (a1 * a2, (sz["l1"] if a1 > 1 else 1) * (sz["l2"] if a2 > 1 else 1))]
    g = _group_size(cfg.n, tests)
    books = (cb.cb0, cb.cb1, cb.cb2)
    return _Packed(*books, g, tuple(_pack(b, a, g) if a > 1 else None
                                    for b, a in zip(books, tables.sizes)))


def _per_trial(cb: _Packed, trials: int) -> _Packed:
    """cb with a leading trial axis; books and words without one are shared
    by every trial (a zero-stride view)."""
    if cb.cb0.ndim == 7:
        return cb

    def grow(a):
        return None if a is None else np.broadcast_to(a, (trials,) + a.shape)

    return _Packed(grow(cb.cb0), grow(cb.cb1), grow(cb.cb2), cb.g,
                   tuple(grow(w) for w in cb.words))


def encode(cb: Codebooks, msg: Msg, cfg: SchemeConfig, tables: CoderTables):
    """Per trial, test every bin pair (l1, l2) and take the first
    conditionally typical triple in lexicographic order; fall back to (0, 0)
    when none passes. Returns (x, (l1, l2), fallback), each with a leading
    trial axis (x is (T, n)).

    msg holds one index array of T entries per message; cb either has a
    leading trial axis of T or is shared by every trial, and may come
    packed (_pack_books)."""
    m = [getattr(msg, k) for k in _MSG_NAMES]
    trials = np.arange(len(m[0]))
    cb = _per_trial(_pack_books(cb, cfg, tables), len(trials))
    cloud = (trials, *m[:5])
    u0 = cb.cb0[cloud]                       # (T, n)
    _, w1, w2 = cb.words
    _, a1, a2 = tables.sizes
    major = (None if w1 is None else w1[cloud + (m[5],)][:, :, None, :], a1)  # (T, L1, 1, G)
    minor = (None if w2 is None else w2[cloud + (m[6],)][:, None, :, :], a2)  # (T, 1, L2, G)
    pairs = (len(trials), cb.cb1.shape[-2], cb.cb2.shape[-2])
    flags = _typical_flags(tables.t_pair, cfg.eps_prime, u0[:, None, None, :], True, major,
                           minor, cb.g, tables.pass_tables["encode"])
    flags = np.broadcast_to(flags, pairs).reshape(len(trials), -1)
    # argmax is 0, i.e. the fallback pair (0, 0), when nothing passes
    l1, l2 = np.divmod(flags.argmax(axis=1), pairs[2])
    x = tables.gamma[u0, cb.cb1[cloud + (m[5], l1)], cb.cb2[cloud + (m[6], l2)]]
    return x, (l1, l2), ~flags.any(axis=1)


# Per receiver: its satellite book, the cb0 axis of the message it knows
# (after the trial axis), the candidate axes the search is existential over
# (the other receiver's private cloud part and the bin; the trial axis
# first), and the messages it decodes.
_RECEIVERS = {
    1: ("cb1", 3, (4, 6), ("m1", "m4", "m21", "m22")),
    2: ("cb2", 2, (3, 6), ("m1", "m5", "m31", "m32")),
}


def _decode(rx: int, cb: Codebooks, y: np.ndarray, known, cfg: SchemeConfig,
            tables: CoderTables) -> DecodeResult:
    book, known_axis, hidden, names = _RECEIVERS[rx]
    y = np.asarray(y).reshape(len(known), 1, 1, 1, 1, 1, 1, -1)
    trials = np.arange(len(known))
    cb = _per_trial(_pack_books(cb, cfg, tables), len(trials))
    pick = (trials,) + (slice(None),) * (known_axis - 1) + (known,)
    sat = getattr(cb, book)
    # the candidate axes (T, ..., M22 or M32, L1 or L2) of sat[pick]
    candidates = (len(trials),) + sat.shape[1:known_axis] + sat.shape[known_axis + 1:-1]
    # (T, M1, M4 or M5, M21, M31, 1, 1, G) cloud words, (T, ..., M22 or M32,
    # L1 or L2, G) satellite words; a trivial alphabet has none
    w0, w_sat = cb.words[0], cb.words[rx]
    major = (None if w0 is None else w0[pick][:, :, :, :, :, None, None, :], tables.sizes[0])
    minor = (None if w_sat is None else w_sat[pick], tables.sizes[rx])
    flags = _typical_flags(tables.t_y[rx], cfg.eps, y, False, major, minor, cb.g,
                           tables.pass_tables[rx])
    return _resolve(np.broadcast_to(flags, candidates).any(axis=hidden), names)


def decode_rx1(cb: Codebooks, y1: np.ndarray, m5, cfg: SchemeConfig,
               tables: CoderTables) -> DecodeResult:
    """Per trial, search all (m1, m21, m22, m4); a candidate passes if some
    (m31, l1) makes (cloud word, satellite word, y1) conditionally typical.
    Unique pass decodes; zero or several is an error with a deterministic
    default guess. y1 is (T, n) and m5 has T entries; cb as in encode."""
    return _decode(1, cb, y1, m5, cfg, tables)


def decode_rx2(cb: Codebooks, y2: np.ndarray, m4, cfg: SchemeConfig,
               tables: CoderTables) -> DecodeResult:
    """Mirror of decode_rx1: receiver 2 knows m4, decodes (m1, m31, m32, m5)
    with (m21, l2) existential."""
    return _decode(2, cb, y2, m4, cfg, tables)


def _resolve(passing: np.ndarray, names) -> DecodeResult:
    """Per trial: the first passing candidate, else the all-zero tuple."""
    flat = passing.reshape(len(passing), -1)
    total = flat.sum(axis=1)
    idx = np.unravel_index(flat.argmax(axis=1), passing.shape[1:])
    kind = np.full(len(passing), None, dtype=object)
    kind[total == 0] = "none_typical"
    kind[total > 1] = "ambiguous"
    return DecodeResult(total == 1, dict(zip(names, idx)), kind, passing)


_EVENTS = ("none_typical", "wrong_satellite", "wrong_cloud", "other")


def _classify(result: DecodeResult, msg: Msg) -> np.ndarray:
    """Error event of each trial's decision, as an index into _EVENTS (read
    only where the decision is wrong); result.messages is keyed by the
    receiver's decoded messages in candidate-axis order, cloud message
    first."""
    truth = tuple(getattr(msg, k) for k in result.messages)
    trials = np.arange(len(truth[0]))
    others = result.passing.copy()
    others[(trials,) + truth] = False
    per_cloud = others.reshape(len(trials), others.shape[1], -1).any(axis=2)
    per_cloud[trials, truth[0]] = False
    wrong_cloud = per_cloud.any(axis=1)
    wrong_satellite = others[(trials,) + truth[:3]].any(axis=1)
    other = others.reshape(len(trials), -1).any(axis=1)
    return np.select([wrong_cloud, wrong_satellite, other], [2, 1, 3], 0)


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


# SeedSequence's hash constants (NEP 19 fixes them for reproducibility) and
# PCG64's 128-bit LCG multiplier
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # (initial value, multiplier) of the entropy hash
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # (initial value, multiplier) of the state output
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(value: int) -> list:
    """The uint32 words SeedSequence takes from a nonnegative int, least
    significant first."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix, on uint32 arrays; the running constant
    advances with every call, the same for every column."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)
    return hashmix


def _seed_state(entropy: list) -> list:
    """SeedSequence(column).generate_state(4, np.uint64) for every column of
    entropy (a list of equal-length uint32 arrays, one per entropy word), as
    four uint64 arrays."""
    hashmix = _hasher(*_HASH_A)

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ r >> np.uint32(16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(*_HASH_B)
    out = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    return [out[2 * k] | out[2 * k + 1] << np.uint64(32) for k in range(4)]


def _pcg_states(seed: int, trials: np.ndarray) -> list:
    """(state, inc) of the PCG64 that default_rng((seed, 0, t)) builds, for
    each t in trials (nonnegative int64): the entropy words of (seed, 0, t)
    hashed by SeedSequence, vectorized over the trials that have as many
    words, then PCG64's seeding, two steps of its 128-bit LCG."""
    trials = np.asarray(trials, dtype=np.int64).astype(np.uint64)
    states = [None] * len(trials)
    wide = trials > _MASK32  # such a t is two entropy words
    for two in (False, True):
        which = np.flatnonzero(wide == two)
        if not len(which):
            continue
        t = trials[which]
        entropy = [np.full(len(t), w, np.uint32) for w in _uint32_words(seed) + [0]]
        entropy.append((t & np.uint64(_MASK32)).astype(np.uint32))
        if two:
            entropy.append((t >> np.uint64(32)).astype(np.uint32))
        words = np.stack(_seed_state(entropy), axis=1).tolist()
        for k, (s_hi, s_lo, i_hi, i_lo) in zip(which, words):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            states[k] = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc
    return states


def _trial_streams(seed: int, trials: int):
    """Yield, for t = 0 .. trials - 1, one reused Generator set to the state
    default_rng((seed, 0, t)) starts from; the states are computed
    _SEED_CHUNK trials at a time."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    for start in range(0, trials, _SEED_CHUNK):
        for state, inc in _pcg_states(seed, np.arange(start, min(start + _SEED_CHUNK, trials))):
            bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            yield rng


def _draw_block(cfg: SchemeConfig, streams, books: list, channel, count: int) -> Msg:
    """Every draw of the next count trials, each from its own generator
    (streams yields them in trial order), in the order books (fresh books
    only), messages, channel: each entry of books and channel is None or a
    _buffer that takes one row of outputs per trial, in its first count
    rows (every block reuses the buffers). Returns the Msg of index
    arrays."""
    msgs = np.zeros((len(_MSG_NAMES), count), dtype=np.int64)
    # a message set of size 1 is index 0 and takes nothing from the stream
    drawn = [(i, cfg._sizes[k]) for i, k in enumerate(_MSG_NAMES) if cfg._sizes[k] > 1]
    books = [raw for raw in books if raw is not None]
    for t, rng in zip(range(count), streams):
        for raw in books:
            _fill(rng, raw[t])
        for i, high in drawn:
            msgs[i, t] = rng.integers(high)
        if channel is not None:
            _fill(rng, channel[t])
    return Msg(*msgs)


def estimate_error(ch: Channel, cfg: SchemeConfig, trials: int,
                   progress=None) -> SimReport:
    """Average error over independent trials. A receiver errors when its
    decoded message tuple differs from the transmitted one; failed searches
    contribute through their default guess. Fresh codebooks per trial by
    default (the random-coding average).

    Trials run in blocks: each trial still draws from its own generator's
    stream (into output buffers every block reuses), each block's books
    are mapped and packed once, then the encoder, the channel and both
    decoders run once per block."""
    if trials < 1:
        raise InputError("need at least one trial")
    tables = CoderTables(cfg.scheme, ch)
    sz = cfg.sizes()
    fixed_books = None
    if not cfg.fresh_codebooks:
        fixed_books = _pack_books(generate_codebooks(cfg, ch), cfg, tables)
    # codeword symbols, bin pairs and channel draws of one trial
    per_trial = (sum(math.prod(s) for s in _book_shapes(cfg))
                 + cfg.n * (sz["l1"] * sz["l2"] + 1))
    block = min(trials, max(1, _BLOCK_CELLS // per_trial))
    # one set of output buffers for every block
    raw = [None] * 3 if fixed_books is not None else _book_buffers(cfg, tables, (block,))
    width = tables.channel_law[0]
    channel = _buffer((block,), _raw_words(cfg.n, width), width)
    fallbacks = 0
    errors = {1: 0, 2: 0}
    any_errors = 0
    buckets = {rx: dict.fromkeys(_EVENTS, 0) for rx in (1, 2)}
    streams = _trial_streams(cfg.seed, trials)
    for first in range(0, trials, block):
        count = min(block, trials - first)
        msg = _draw_block(cfg, streams, raw, channel, count)
        books = fixed_books if fixed_books is not None else _pack_books(
            _codebooks(cfg, tables, [None if r is None else r[:count] for r in raw]),
            cfg, tables)
        x, _, fb = encode(books, msg, cfg, tables)
        fallbacks += int(fb.sum())
        flat = _sample(tables.channel_law, None if channel is None else channel[:count],
                       x.shape, x, np.int64)
        results = {1: decode_rx1(books, flat // ch.y2.size, msg.m5, cfg, tables),
                   2: decode_rx2(books, flat % ch.y2.size, msg.m4, cfg, tables)}
        failed = np.zeros(count, dtype=bool)
        for rx, res in results.items():
            wrong = np.zeros(count, dtype=bool)
            for k, v in res.messages.items():
                wrong |= v != getattr(msg, k)
            errors[rx] += int(wrong.sum())
            events = np.bincount(_classify(res, msg)[wrong], minlength=len(_EVENTS))
            for name, c in zip(_EVENTS, events):
                buckets[rx][name] += int(c)
            failed |= wrong
        done = any_errors + np.cumsum(failed)
        any_errors = int(done[-1])
        if progress is not None:
            for t in range((first // 100 + 1) * 100, first + count + 1, 100):
                progress(t, int(done[t - first - 1]))
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
        config={"n": cfg.n, "eps_prime": cfg.eps_prime, "eps1": cfg.eps,
                "eps2": cfg.eps, "seed": cfg.seed,
                "fresh_codebooks": cfg.fresh_codebooks},
    )


def plan_split_rates(consts: MiConstants, r1: float, r2: float, r3: float,
                     r4: float, r5: float) -> tuple:
    """Split the private rates evenly and pick bin rates by a max-slack
    feasibility scan of the coding conditions of raw_coding_system, with
    every rate but the bin rates fixed.

    Returns (SplitRates, slack); negative slack means the operating point
    sits outside the region at these constants.
    """
    from scipy.optimize import linprog

    fixed = {"R1": r1, "R21": r2 * 0.5, "R22": r2 * 0.5, "R31": r3 * 0.5,
             "R32": r3 * 0.5, "R4": r4, "R5": r5}
    # the covering and packing rows; variables rp1, rp2, t; maximize t
    rows = raw_coding_system(consts).inequalities[:5]
    a_ub = np.array([[float(r.coeffs.get("Rp1", 0)), float(r.coeffs.get("Rp2", 0)), 1.0]
                     for r in rows])
    b_ub = np.array([r.rhs - sum(float(c) * fixed[v] for v, c in r.coeffs.items() if v in fixed)
                     for r in rows])
    # HiGHS accepts a row broken by up to 1e-7 by default, which would shift
    # the slack by as much near a degenerate point; hold it to its tightest
    res = linprog(np.array([0.0, 0.0, -1.0]), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(0.0, None), (0.0, None), (None, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise GuardError(f"bin-rate planning LP failed: {res.message}")
    rp1, rp2, slack = float(res.x[0]), float(res.x[1]), float(res.x[2])
    rates = SplitRates(r1=r1, r21=fixed["R21"], r22=fixed["R22"], r31=fixed["R31"],
                       r32=fixed["R32"], r4=r4, r5=r5, rp1=max(rp1, 0.0), rp2=max(rp2, 0.0))
    return rates, slack
