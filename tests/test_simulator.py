import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsi import polytope, simulator
from bcsi.errors import GuardError, InputError
from bcsi.probability import (Alphabet, AuxScheme, Channel, JointPmf, Pmf,
                              binary_symmetric_pair, noiseless_channel)
from bcsi.rate_regions import MiConstants, SplitRates, mi_constants, specialize_scheme
from bcsi.simulator import (CoderTables, Msg, SchemeConfig, decode_rx1, decode_rx2,
                            encode, estimate_error, generate_codebooks, plan_split_rates)
from conftest import random_channel, random_scheme
from oracles import (brute_conditionally_typical, closed_form_bin_rate_slack,
                     hand_written_bin_rate_lp, plain_estimate_error, plain_generate)


def complementary_scheme(ch, px=None):
    if px is None:
        px = Pmf.uniform(Alphabet.indexed("X", ch.x.size))
    return specialize_scheme("complementary", px, ch)


def one_msg(**fields):
    """A batch of one trial's messages, each index 0 unless given."""
    return Msg(*(np.array([fields.get(k, 0)]) for k in simulator._MSG_NAMES))


def correlated_scheme():
    """U1 = U2 uniform given a degenerate cloud; x = u1."""
    axes = (Alphabet.indexed("U0", 1), Alphabet.indexed("U1", 2),
            Alphabet.indexed("U2", 2))
    aux = JointPmf(axes, np.array([[[0.5, 0.0], [0.0, 0.5]]]))
    return AuxScheme(aux, np.array([[[0, 0], [1, 1]]]))


def kernel_case(rng, n, a_major, a_minor, fixed_cells, fixed_known, layout, trials=30,
                rows=24, cols=4):
    """A conditional table with off-support cells, per trial a fixed
    sequence, and candidate symbols: the first half of the rows paired with
    column 0 near-typical for the fixed sequence (drawn from the table given
    it, or the sequence closest to the table given them), everything else
    uniform (most fail). In the decoder layout the minor symbols vary along
    both candidate axes, in the encoder layout only along the second."""
    cells = a_major * a_minor
    shape = (fixed_cells, cells) if fixed_known else (cells, fixed_cells)
    table = (rng.random(shape) + 0.2) * (rng.random(shape) > 0.2)
    table[:, 0] += 0.1
    table /= table.sum(axis=1, keepdims=True)

    def draw(p):  # one index per row of the last axis, by inverse cdf
        cdf = np.cumsum(p, axis=-1)
        u = rng.random(p.shape[:-1])[..., None] * cdf[..., -1:]
        return np.minimum((cdf < u).sum(axis=-1), p.shape[-1] - 1)

    half = rows // 2
    sat_rows = half if layout == "decoder" else 1
    if fixed_known:
        fixed = rng.integers(0, fixed_cells, size=(trials, n))
        joint = table[fixed].reshape(trials, 1, n, a_major, a_minor)
        minor0 = draw(np.broadcast_to(joint.sum(axis=3), (trials, sat_rows, n, a_minor)))
        given = np.take_along_axis(joint, minor0[..., None, None], axis=4)[..., 0]
        major0 = draw(np.broadcast_to(given, (trials, half, n, a_major)))
    else:  # per trial a true candidate, and the fixed sequence closest to its type
        major0 = np.repeat(rng.integers(0, a_major, size=(trials, 1, n)), half, axis=1)
        minor0 = np.repeat(rng.integers(0, a_minor, size=(trials, 1, n)), sat_rows, axis=1)
        fixed = np.empty((trials, n), dtype=np.int64)
        for t, truth in enumerate(major0[:, 0] * a_minor + minor0[:, 0]):
            for c in np.unique(truth):
                at = np.flatnonzero(truth == c)
                share = len(at) * table[c]
                counts = np.floor(share).astype(np.int64)
                counts[np.argsort(counts - share)[:len(at) - counts.sum()]] += 1
                fixed[t, at] = rng.permutation(np.repeat(np.arange(fixed_cells), counts))
    major = rng.integers(0, a_major, size=(trials, rows, 1, n))
    major[:, :half, 0] = major0
    minor = rng.integers(0, a_minor, size=(trials, rows if layout == "decoder" else 1, cols, n))
    minor[:, :sat_rows, 0] = minor0
    return table, fixed, major, minor


def packed_flags(table, eps, fixed, fixed_known, major, minor, sizes, g, dtype, memo=None):
    """The kernel on the symbols packed by _pack (None for a trivial
    alphabet), the fixed sequence shaped to broadcast."""
    words = [(simulator._pack(s.astype(dtype), a, g) if a > 1 else None, a)
             for s, a in zip((major, minor), sizes)]
    fixed = fixed.astype(dtype).reshape(len(fixed), 1, 1, -1)
    return simulator._typical_flags(table, eps, fixed, fixed_known, *words, g, memo)


def brute_flags(table, eps, fixed, fixed_known, major, minor, a_minor):
    cand = np.broadcast_arrays(major * a_minor + minor, minor)[0]
    out = np.zeros(cand.shape[:-1], dtype=bool)
    for idx in np.ndindex(out.shape):
        seq = cand[idx]
        pair = (fixed[idx[0]], seq) if fixed_known else (seq, fixed[idx[0]])
        out[idx] = brute_conditionally_typical(*pair, table, eps)
    return out


class TestTypicalFlags:
    @staticmethod
    def roles(known_cells, new_cells, fixed_known):
        """(candidate alphabets, fixed cells) for a table of known_cells x
        new_cells: the candidate cells split into a major and a minor
        alphabet, the minor one of size 2 where the cell count is even."""
        cand, fixed = (new_cells, known_cells) if fixed_known else (known_cells, new_cells)
        minor = 2 if cand % 2 == 0 else 1
        return (cand // minor, minor), fixed

    @pytest.mark.parametrize("n, known_cells, new_cells, eps, path", [
        (8, 2, 2, 0.3, "table"),      # 9**4 keys
        (8, 2, 4, 1.0, "unique"),     # 9**8 keys
        (12, 3, 6, 1.5, "bincount"),  # 13**18 keys overflow int64
    ])
    def test_matches_per_candidate_reference(self, rng, n, known_cells, new_cells, eps, path):
        """The decoder layout (the fixed sequence on the new side of the
        table) and the encoder layout (on the known side), with uint8 and
        int64 symbols, in groups of _group_size over the 96 candidates of a
        trial (several groups in every case)."""
        keys = (n + 1) ** (known_cells * new_cells)
        assert path == ("table" if keys <= simulator._TABLE_KEYS else
                        "unique" if keys <= simulator._KEY_LIMIT else "bincount")
        for (fixed_known, layout), dtype in itertools.product(
                ((False, "decoder"), (True, "encoder")), (np.uint8, np.int64)):
            sizes, fixed_cells = self.roles(known_cells, new_cells, fixed_known)
            g = simulator._group_size(n, [(sizes[0] * sizes[1], 24 * 4)])
            assert g < n
            table, fixed, major, minor = kernel_case(rng, n, *sizes, fixed_cells, fixed_known,
                                                     layout)
            assert table.shape == (known_cells, new_cells)
            memo = {}
            flags = packed_flags(table, eps, fixed, fixed_known, major, minor, sizes, g, dtype,
                                 memo)
            expected = brute_flags(table, eps, fixed, fixed_known, major, minor, sizes[1])
            # a trivial alphabet has no words: its candidate axis broadcasts
            assert (np.broadcast_to(flags, expected.shape) == expected).all()
            assert 0 < expected.sum() < expected.size
            assert list(memo) == ([(n, eps)] if path == "table" else [])
            # a second call reuses the kept pass/fail table
            again = packed_flags(table, eps, fixed, fixed_known, major, minor, sizes, g, dtype,
                                 memo)
            assert (again == flags).all()

    @pytest.mark.parametrize("new_cells, eps", [(2, 0.5), (4, 1.0)])
    def test_broadcast_layouts(self, rng, new_cells, eps):
        """Decoder layout (per trial one output sequence against cloud words
        times satellite words) and encoder layout (per trial one cloud word
        against satellite pairs); new_cells is the output alphabet of the
        decoder and the cloud alphabet of the encoder."""
        for fixed_known, layout in ((False, "decoder"), (True, "encoder")):
            table, fixed, major, minor = kernel_case(rng, 16, 2, 2, new_cells, fixed_known,
                                                     layout)
            flags = packed_flags(table, eps, fixed, fixed_known, major, minor, (2, 2), 3,
                                 np.uint8)
            assert flags.shape == (30, 24, 4)
            expected = brute_flags(table, eps, fixed, fixed_known, major, minor, 2)
            assert (flags == expected).all() and flags.any()

    @pytest.mark.parametrize("n, known_cells, new_cells, groups", [
        (12, 2, 2, [8, 4]),  # a group boundary inside n, table path
        (1, 2, 2, [1]),
        (8, 2, 2, [8]),      # one group covers n
        (8, 2, 4, [5, 3]),   # unique path
    ])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_packed_words(self, rng, n, known_cells, new_cells, groups, dtype):
        """Keys summed over packed words of g positions, g the most with
        cells**g no more than the lookups per trial, on codeword-dtype
        operands in the flat (one trial per pair of candidates), decoder and
        encoder layouts."""
        lookups = known_cells ** groups[0]
        g = simulator._group_size(n, [(known_cells, lookups)])
        assert [min(g, n - s) for s in range(0, n, g)] == groups
        eps = 0.5
        on_table = (n + 1) ** (known_cells * new_cells) <= simulator._TABLE_KEYS
        cols = max(1, lookups // 4)
        for layout, trials, rows, cols in (("decoder", 60, 2, 1), ("decoder", 3, 4, cols),
                                           ("encoder", 3, 4, cols)):
            fixed_known = layout == "encoder"
            sizes, fixed_cells = self.roles(known_cells, new_cells, fixed_known)
            table, fixed, major, minor = kernel_case(rng, n, *sizes, fixed_cells, fixed_known,
                                                     layout, trials, rows, cols)
            memo = {}  # a pass/fail table belongs to one conditional table
            flags = packed_flags(table, eps, fixed, fixed_known, major, minor, sizes, g, dtype,
                                 memo)
            expected = brute_flags(table, eps, fixed, fixed_known, major, minor, sizes[1])
            assert (np.broadcast_to(flags, expected.shape) == expected).all()
            assert list(memo) == ([(n, eps)] if on_table else [])

    def test_trivial_candidates_key_the_fixed_sequence(self, rng):
        """Both candidate alphabets trivial (the encoder of a cloud-only
        scheme): one flag per trial, nothing packed."""
        table, fixed, _, _ = kernel_case(rng, 8, 1, 1, 3, True, "encoder", trials=6)
        flags = simulator._typical_flags(table, 0.4, fixed.reshape(6, 1, 1, 8), True,
                                         (None, 1), (None, 1), 3)
        assert flags.shape == (6, 1, 1)
        assert flags.reshape(-1).tolist() == [
            brute_conditionally_typical(f, np.zeros(8, int), table, 0.4) for f in fixed]

    @pytest.mark.parametrize("n, tests, g", [
        (12, [(2, 64)], 6),               # the in-region cloud point: 64 words, 64 entries
        (8, [(2, 65536)], 8),             # the overloaded point: one group covers n
        (1, [(2, 65536)], 1),
        (8, [(2, 32), (2, 32), (4, 64)], 3),  # the binning point: the bin scan binds
        (8, [(4, 1)], 1),                 # a table outgrows one lookup even at g = 1
        (5, [(1, 1), (1, 7)], 5),         # trivial cells never bind
    ])
    def test_group_size(self, n, tests, g):
        assert simulator._group_size(n, tests) == g
        assert all(cells ** g <= lookups or g == 1 for cells, lookups in tests)

    @pytest.mark.parametrize("n, a, g, groups", [(12, 2, 5, [5, 5, 2]), (8, 2, 8, [8]),
                                                  (7, 3, 2, [2, 2, 2, 1]), (1, 2, 1, [1])])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_pack(self, rng, n, a, g, groups, dtype):
        """One word per group of g positions, digit j of a word at position
        s + j, a last group that may be shorter, the smallest unsigned dtype
        that holds a**g - 1."""
        book = rng.integers(0, a, size=(3, 5, n)).astype(dtype)
        words = simulator._pack(book, a, g)
        assert words.shape == (3, 5, len(groups))
        assert words.dtype == np.min_scalar_type(a ** g - 1)
        starts = np.cumsum([0] + groups[:-1])
        for k, (s, size) in enumerate(zip(starts, groups)):
            digits = book[..., s:s + size].astype(np.int64)
            assert (words[..., k] == (digits * a ** np.arange(size)).sum(axis=-1)).all()


class TestSchemeConfig:
    def test_one_slack(self):
        """The encoder covers within half the decoders' slack; a slack that
        is not positive and finite (or whose half is 0) is refused."""
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=4, rates=SplitRates(), eps=0.3)
        assert cfg.eps_prime == 0.15
        for eps in (0.0, -0.3, math.inf, math.nan, 5e-324):
            with pytest.raises(InputError):
                replace(cfg, eps=eps)

    def test_desk_cap(self):
        ch = noiseless_channel(2)
        with pytest.raises(GuardError):
            SchemeConfig(scheme=complementary_scheme(ch), n=12,
                         rates=SplitRates(r1=2.0))

    def test_sizes_returns_a_fresh_copy(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.5))
        cfg.sizes()["m1"] = 3
        assert cfg.sizes()["m1"] == 16

    def test_sizes_round_cleanly(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=12,
                           rates=SplitRates(r1=0.5))
        assert cfg.sizes()["m1"] == 64
        assert cfg.realized_rates()["m1"] == pytest.approx(0.5)


class TestCodebooks:
    def test_degenerate_scheme_constant_codewords(self):
        ch = noiseless_channel(2)
        axes = tuple(Alphabet.indexed(f"U{i}", 1) for i in range(3))
        scheme = AuxScheme(JointPmf(axes, np.ones((1, 1, 1))), np.zeros((1, 1, 1), int))
        cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(r1=0.5), seed=9)
        books = generate_codebooks(cfg, ch)
        assert (books.cb0 == 0).all()
        assert (books.cb1 == 0).all()

    def test_seed_determinism(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.5), seed=5)
        b1 = generate_codebooks(cfg, ch)
        b2 = generate_codebooks(cfg, ch)
        assert (b1.cb0 == b2.cb0).all()
        assert (b1.cb1 == b2.cb1).all()

    def test_symbol_frequencies_match_marginal(self):
        ch = noiseless_channel(2)
        px = Pmf.from_values(Alphabet.indexed("X", 2), [0.25, 0.75])
        cfg = SchemeConfig(scheme=complementary_scheme(ch, px), n=8,
                           rates=SplitRates(r1=1.0), seed=11)
        books = generate_codebooks(cfg, ch)
        flat = books.cb0.reshape(-1)
        # 3 sigma binomial band around p(0) = 0.25
        n = flat.size
        sd = np.sqrt(0.25 * 0.75 / n)
        assert abs((flat == 0).mean() - 0.25) < 3 * sd + 1e-12


class TestEncode:
    def test_degenerate_satellites_never_fall_back(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=4,
                           rates=SplitRates(r1=0.5), seed=2)
        books = generate_codebooks(cfg, ch)
        m1 = np.arange(cfg.sizes()["m1"])
        zero = np.zeros_like(m1)
        msg = Msg(m1, *[zero] * 6)
        x, (l1, l2), fallback = encode(books, msg, cfg, CoderTables(cfg.scheme, ch))
        assert (l1 == 0).all() and (l2 == 0).all()
        assert not fallback.any()

    def test_gamma_consistency(self):
        ch = noiseless_channel(2)
        scheme = correlated_scheme()
        cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(rp1=0.4, rp2=0.4),
                           seed=3)
        books = generate_codebooks(cfg, ch)
        x, (l1, l2), _ = encode(books, one_msg(), cfg, CoderTables(scheme, ch))
        u1 = books.cb1[0, 0, 0, 0, 0, 0, l1[0]]
        assert (x[0] == u1).all()  # gamma maps (u0, u1, u2) -> u1 here

    @pytest.mark.parametrize("scheme_kind, eps_prime", [("correlated", 0.25),
                                                        ("random", 1.2)])
    def test_matches_sequential_scan(self, scheme_kind, eps_prime):
        """First passing bin pair in lexicographic order, one pair at a time."""
        rng = np.random.default_rng(31)
        ch = random_channel(rng, 2, 2, 2)
        scheme = correlated_scheme() if scheme_kind == "correlated" else \
            random_scheme(rng, (2, 2, 2), 2)
        tables = CoderTables(scheme, ch)
        t_pair = tables.t_pair
        a2 = scheme.sizes[2]
        fallbacks = 0
        for seed in range(20):
            cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(rp1=0.2, rp2=0.4),
                               eps=2 * eps_prime, seed=seed)
            assert cfg.eps_prime == eps_prime
            books = generate_codebooks(cfg, ch)
            u0, u1, u2 = books.cb0[0, 0, 0, 0, 0], books.cb1[0, 0, 0, 0, 0, 0], \
                books.cb2[0, 0, 0, 0, 0, 0]
            passing = [(l1, l2) for l1 in range(len(u1)) for l2 in range(len(u2))
                       if brute_conditionally_typical(u0, u1[l1] * a2 + u2[l2],
                                                      t_pair, cfg.eps_prime)]
            expected = (passing[0], False) if passing else ((0, 0), True)
            x, (l1, l2), fallback = encode(books, one_msg(), cfg, tables)
            chosen = (l1[0], l2[0])
            assert (chosen, fallback[0]) == expected
            assert (x[0] == scheme.gamma[u0, u1[chosen[0]], u2[chosen[1]]]).all()
            fallbacks += fallback[0]
        assert 0 < fallbacks < 20

    def test_correlated_pair_with_single_bin_often_falls_back(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=correlated_scheme(), n=6, rates=SplitRates(),
                           seed=4)
        report = estimate_error(ch, cfg, 200)
        assert report.encoder_fallbacks > 100

    def test_bins_reduce_fallbacks(self):
        ch = noiseless_channel(2)
        base = SchemeConfig(scheme=correlated_scheme(), n=6, rates=SplitRates(),
                            seed=4)
        more = SchemeConfig(scheme=correlated_scheme(), n=6,
                            rates=SplitRates(rp1=0.5, rp2=0.5), seed=4)
        r1 = estimate_error(ch, base, 200)
        r2 = estimate_error(ch, more, 200)
        assert r2.encoder_fallbacks < r1.encoder_fallbacks


class TestDecode:
    def test_noiseless_low_rate_decodes_correctly(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.25), seed=6)
        correct = 0
        trials = 100
        report = estimate_error(ch, cfg, trials)
        assert report.pe_estimate <= 0.05

    def test_impossible_output_symbol_yields_no_typical_tuple(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=4,
                           rates=SplitRates(r1=0.5), seed=7)
        books = generate_codebooks(cfg, ch)
        # y1 = all-ones is impossible when every candidate word has a zero;
        # force it by brute search over a seed where codewords are mixed
        y1 = np.array([1, 0, 1, 0])
        res = decode_rx1(books, y1[None], np.array([0]), cfg, CoderTables(cfg.scheme, ch))
        matches = [(books.cb0[m1, 0, 0, 0, 0] == y1).all()
                   for m1 in range(cfg.sizes()["m1"])]
        if not any(matches):
            assert not res.ok[0]
            assert res.kind[0] == "none_typical"

    def test_duplicate_codewords_force_ambiguity(self):
        ch = noiseless_channel(2)
        # blocklength 1: only two possible codewords for four messages
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=1,
                           rates=SplitRates(r1=2.0), seed=8)
        books = generate_codebooks(cfg, ch)
        y1 = books.cb0[0, 0, 0, 0, 0].copy()
        res = decode_rx1(books, y1[None], np.array([0]), cfg, CoderTables(cfg.scheme, ch))
        assert not res.ok[0]
        assert res.kind[0] == "ambiguous"

    def test_rx2_mirrors_rx1_on_symmetric_setup(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.25), seed=10)
        books = generate_codebooks(cfg, ch)
        tables = CoderTables(cfg.scheme, ch)
        x, _, _ = encode(books, one_msg(m1=1), cfg, tables)
        r1 = decode_rx1(books, x.copy(), np.array([0]), cfg, tables)
        r2 = decode_rx2(books, x.copy(), np.array([0]), cfg, tables)
        assert r1.ok[0] and r2.ok[0]
        assert r1.messages["m1"][0] == 1
        assert r2.messages["m1"][0] == 1


class TestEstimateError:
    def test_zero_rates_error_free_on_any_channel(self):
        for ch in (noiseless_channel(2), binary_symmetric_pair(0.11, 0.2)):
            scheme = complementary_scheme(ch)
            cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(), seed=1)
            report = estimate_error(ch, cfg, 100)
            assert report.pe_estimate == 0.0

    def test_interval_not_zero_width_at_pe_zero(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=6, rates=SplitRates(), seed=1)
        report = estimate_error(ch, cfg, 20)
        assert report.pe_estimate == 0.0
        # Wilson upper end for 0 of 20: z^2 / (n + z^2)
        assert report.pe_half_width_95 == pytest.approx(1.96 ** 2 / (20 + 1.96 ** 2))

    @pytest.mark.parametrize("errors,trials", [(0, 20), (20, 20), (3, 20), (37, 100),
                                               (250, 500), (1, 7)])
    def test_half_width_covers_the_wilson_interval(self, errors, trials):
        pe, z = errors / trials, 1.96
        # the textbook form (2np + z^2 -+ z sqrt(z^2 + 4np(1 - p))) / (2(n + z^2))
        root = z * np.sqrt(z * z + 4 * trials * pe * (1 - pe))
        lo = (2 * trials * pe + z * z - root) / (2 * (trials + z * z))
        hi = (2 * trials * pe + z * z + root) / (2 * (trials + z * z))
        half = simulator._wilson_half_width(pe, trials)
        assert half == pytest.approx(max(hi - pe, pe - lo), rel=1e-12, abs=1e-15)
        assert half > 0.0
        assert pe - half <= lo + 1e-15 and hi - 1e-15 <= pe + half

    def test_seed_reproducibility(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.5), seed=12)
        a = estimate_error(ch, cfg, 150)
        b = estimate_error(ch, cfg, 150)
        assert a.to_jsonable() == b.to_jsonable()

    def test_error_trend_inside_the_region(self):
        ch = noiseless_channel(2)
        scheme = complementary_scheme(ch)
        pes = []
        for n in (4, 12):
            cfg = SchemeConfig(scheme=scheme, n=n, rates=SplitRates(r1=0.5), seed=13)
            pes.append(estimate_error(ch, cfg, 300).pe_estimate)
        assert pes[1] < pes[0]

    def test_overloaded_rate_fails_hard(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=4,
                           rates=SplitRates(r1=2.0), seed=13)
        report = estimate_error(ch, cfg, 200)
        assert report.pe_estimate >= 0.3

    def test_event_counts_partition_errors(self):
        ch = binary_symmetric_pair(0.05, 0.1)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=6,
                           rates=SplitRates(r1=0.4, r4=0.2, r5=0.2), seed=14)
        report = estimate_error(ch, cfg, 300)
        assert sum(report.rx1_events.values()) == report.rx1_errors
        assert sum(report.rx2_events.values()) == report.rx2_errors
        assert report.rx1_errors > 0  # noisy enough at this blocklength

    def test_fixed_codebook_mode(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.5), seed=15,
                           fresh_codebooks=False)
        a = estimate_error(ch, cfg, 100)
        b = estimate_error(ch, cfg, 100)
        assert a.to_jsonable() == b.to_jsonable()


def trial_cells(cfg):
    """What one trial adds to a block: codeword symbols of its books, bin
    pairs scanned and channel draws."""
    sz = cfg.sizes()
    return (sum(math.prod(s) for s in simulator._book_shapes(cfg))
            + cfg.n * (sz["l1"] * sz["l2"] + 1))


ORACLE_SIZES = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2), (1, 2, 2), (2, 2, 1)]
ORACLE_RATES = [SplitRates(r1=0.5), SplitRates(r1=0.25, r22=0.25, rp1=0.25),
                SplitRates(r1=0.25, r32=0.25, rp2=0.25),
                SplitRates(r21=0.25, r32=0.25, rp1=0.25, rp2=0.25),
                SplitRates(r22=0.25, r32=0.25, rp1=0.375, rp2=0.375),
                SplitRates(r1=0.25, r4=0.25, r5=0.25, r22=0.25)]
ORACLE_TRIALS = [150, 203, 101, 250, 333, 120]
ORACLE_BLOCKS = [1, 7, 37, 64, None]  # None keeps the module's block size


class TestBatchedEstimate:
    @pytest.mark.parametrize("case", range(24))
    def test_matches_the_per_trial_loop(self, monkeypatch, case):
        """Random noisy channels, U0 of size 3 (and 1, 2), trivial and
        nontrivial satellites, fresh and fixed books, blocks that do not
        divide the trial count and that straddle a multiple of 100."""
        rng = np.random.default_rng((77, case))
        x = int(rng.integers(2, 4))
        ch = random_channel(rng, x, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        cfg = SchemeConfig(scheme=random_scheme(rng, ORACLE_SIZES[case % 6], x), n=6,
                           rates=ORACLE_RATES[case % 6], eps=(1.2, 2.5)[case % 2], seed=case,
                           fresh_codebooks=case % 4 != 3)
        trials = ORACLE_TRIALS[case % 6]
        block = ORACLE_BLOCKS[case % 5]
        if block is not None:
            monkeypatch.setattr(simulator, "_BLOCK_CELLS", block * trial_cells(cfg))
        batches = []
        encode = simulator.encode

        def recorded(cb, msg, *args):
            batches.append(len(msg.m1))
            return encode(cb, msg, *args)

        monkeypatch.setattr(simulator, "encode", recorded)
        seen, expected = [], []
        report = estimate_error(ch, cfg, trials, lambda *a: seen.append(a))
        monkeypatch.undo()
        plain = plain_estimate_error(ch, cfg, trials, lambda *a: expected.append(a))
        assert report.to_jsonable() == plain.to_jsonable()
        assert seen == expected == [(t, seen[t // 100 - 1][1]) for t in range(100, trials + 1, 100)]
        if block is not None:
            assert batches == [block] * (trials // block) + [trials % block] * (trials % block > 0)
        else:
            assert batches == [trials]


def wide_books(books):
    return simulator.Codebooks(*(np.array(b, dtype=np.int64) for b in
                                 (books.cb0, books.cb1, books.cb2)))


class TestCodewordDtype:
    @pytest.mark.parametrize("sizes", [(20, 16, 1), (2, 20, 16)])
    def test_uint8_books_decide_as_int64_books(self, sizes):
        """a0 * a1 = 320 (receiver 1's cells) and a1 * a2 = 320 (the
        encoder's pairs) overflow uint8, so the cell index must be formed in
        int64. A fifth of the (u0, u1, u2) cells carry no mass and the slacks
        are wide, so a test passes exactly when no symbol lands on an empty
        cell, and an aliased cell index changes the outcome."""
        rng = np.random.default_rng(sum(sizes))
        ch = noiseless_channel(4)
        mass = (rng.random(sizes) + 0.02) * (rng.random(sizes) > 0.3)
        axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(sizes))
        scheme = AuxScheme(JointPmf(axes, mass / mass.sum()), rng.integers(0, 4, size=sizes))
        cfg = SchemeConfig(scheme=scheme, n=4, rates=SplitRates(r1=1.0, rp1=0.5, rp2=0.5),
                           eps=2e3, seed=2)
        tables = CoderTables(scheme, ch)
        books = generate_codebooks(cfg, ch)
        assert books.cb0.dtype == books.cb1.dtype == books.cb2.dtype == np.uint8
        plain = plain_generate(cfg, np.random.default_rng((cfg.seed, 1)))
        for ours, theirs in zip((books.cb0, books.cb1, books.cb2),
                                (plain.cb0, plain.cb1, plain.cb2)):
            assert ours.shape == theirs.shape and (ours == theirs).all()
        wide = wide_books(books)
        m1 = np.arange(cfg.sizes()["m1"])
        zero = np.zeros_like(m1)
        msg = Msg(m1, *[zero] * 6)
        x, (l1, l2), fallback = encode(books, msg, cfg, tables)
        x_wide, (l1_wide, l2_wide), fallback_wide = encode(wide, msg, cfg, tables)
        assert (x == x_wide).all() and (l1 == l1_wide).all() and (l2 == l2_wide).all()
        assert (fallback == fallback_wide).all()
        for decode in (decode_rx1, decode_rx2):
            ours, theirs = decode(books, x, zero, cfg, tables), decode(wide, x, zero, cfg, tables)
            assert (ours.ok == theirs.ok).all() and (ours.kind == theirs.kind).all()
            assert all((ours.messages[k] == theirs.messages[k]).all() for k in ours.messages)
            assert list(ours.messages) == list(theirs.messages)
            assert (ours.passing == theirs.passing).all()
            if decode is decode_rx1:
                passing = ours.passing
        if sizes[0] * sizes[1] > 256:
            assert 0 < np.mean(passing) < 1
        else:
            assert len(set(zip(l1.tolist(), l2.tolist(), fallback.tolist()))) > 2

    def test_large_alphabets_keep_int64(self):
        ch = noiseless_channel(2)
        axes = (Alphabet.indexed("U0", 300), Alphabet.indexed("U1", 1),
                Alphabet.indexed("U2", 1))
        scheme = AuxScheme(JointPmf(axes, np.full((300, 1, 1), 1 / 300)),
                           np.zeros((300, 1, 1), dtype=int))
        books = generate_codebooks(SchemeConfig(scheme=scheme, n=4, rates=SplitRates()), ch)
        assert books.cb0.dtype == np.int64

    def test_trivial_satellite_books_are_zero_stride_views(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8, rates=SplitRates(r1=0.5))
        books = generate_codebooks(cfg, ch)
        for book in (books.cb1, books.cb2):
            assert book.strides == (0,) * book.ndim and not book.flags.writeable
            assert (book == 0).all()


def stacked_books(cfg, ch, trials):
    """One fresh book set per trial, stacked on a leading trial axis."""
    books = [generate_codebooks(replace(cfg, seed=s), ch) for s in range(trials)]
    return simulator.Codebooks(*(np.stack([getattr(b, k) for b in books])
                                 for k in ("cb0", "cb1", "cb2")))


class TestBatchAxis:
    """One call over T trials equals T calls over one trial exactly."""

    CLOUD = ((2, 1, 1), 2, SplitRates(r1=0.5))                       # table path
    BINNING = ((1, 2, 2), 4, SplitRates(r22=0.25, r32=0.25, rp1=0.375, rp2=0.375))  # unique

    @pytest.mark.parametrize("shape, path", [(CLOUD, "table"), (BINNING, "unique")])
    @pytest.mark.parametrize("shared", [False, True])
    def test_batched_calls_equal_single_calls(self, shape, path, shared):
        sizes, x_size, rates = shape
        rng = np.random.default_rng(5)
        ch = binary_symmetric_pair(0.05, 0.1) if x_size == 2 else noiseless_channel(4)
        mass = np.full(sizes, 1.0 / math.prod(sizes))
        axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(sizes))
        gamma = np.arange(math.prod(sizes)).reshape(sizes) % x_size
        cfg = SchemeConfig(scheme=AuxScheme(JointPmf(axes, mass), gamma), n=8, rates=rates,
                           eps=2.0, seed=4)
        tables = CoderTables(cfg.scheme, ch)
        keys = (cfg.n + 1) ** tables.t_y[1].size
        assert path == ("table" if keys <= simulator._TABLE_KEYS else "unique")
        trials = 12
        books = generate_codebooks(cfg, ch) if shared else stacked_books(cfg, ch, trials)
        sz = cfg.sizes()
        fields = np.stack([rng.integers(sz[k], size=trials) for k in simulator._MSG_NAMES])
        msg = Msg(*fields)
        x, (l1, l2), fallback = encode(books, msg, cfg, tables)
        # the sent words, half of them with symbol errors
        y = np.where(rng.random(x.shape) < 0.1 * (np.arange(trials) % 2)[:, None],
                     rng.integers(0, x_size, size=x.shape), x)
        batched = {1: decode_rx1(books, y, msg.m5, cfg, tables),
                   2: decode_rx2(books, y, msg.m4, cfg, tables)}
        kinds = set()
        for t in range(trials):
            one = books if shared else simulator.Codebooks(books.cb0[t], books.cb1[t],
                                                           books.cb2[t])
            single_msg = Msg(*fields[:, t:t + 1])
            x1, pair, fb = encode(one, single_msg, cfg, tables)
            assert (x1[0] == x[t]).all() and (pair[0][0], pair[1][0]) == (l1[t], l2[t])
            assert fb[0] == fallback[t]
            for rx, decode in ((1, decode_rx1), (2, decode_rx2)):
                known = single_msg.m5 if rx == 1 else single_msg.m4
                res = decode(one, y[t:t + 1], known, cfg, tables)
                both = batched[rx]
                assert res.ok[0] == both.ok[t] and res.kind[0] == both.kind[t]
                assert {k: v[0] for k, v in res.messages.items()} == \
                    {k: v[t] for k, v in both.messages.items()}
                assert (res.passing[0] == both.passing[t]).all()
                kinds.add(res.kind[0])
        assert None in kinds and len(kinds) > 1


def brute_passing(rx, books, y, known, cfg, tables):
    """Receiver rx's passing array one candidate at a time: it passes when
    some value of its existential axes (the other receiver's private cloud
    part and the bin) makes cloud word, satellite word and y conditionally
    typical."""
    sz = cfg.sizes()
    a = tables.sizes[rx]
    if rx == 1:
        axes, hidden = ("m1", "m4", "m21", "m22"), ("m31", "l1")
    else:
        axes, hidden = ("m1", "m5", "m31", "m32"), ("m21", "l2")
    passing = np.zeros([sz[k] for k in axes], dtype=bool)
    for idx in np.ndindex(passing.shape):
        for h in np.ndindex(*(sz[k] for k in hidden)):
            m = dict(zip(axes + hidden, idx + h), **{"m5" if rx == 1 else "m4": known})
            cloud = (m["m1"], m["m4"], m["m5"], m["m21"], m["m31"])
            sat = books.cb1[cloud + (m["m22"], m["l1"])] if rx == 1 else \
                books.cb2[cloud + (m["m32"], m["l2"])]
            cells = books.cb0[cloud].astype(np.int64) * a + sat
            if brute_conditionally_typical(cells, y, tables.t_y[rx], cfg.eps):
                passing[idx] = True
                break
    return passing


class TestPackedBooks:
    @pytest.mark.parametrize("n, rx1_path", [(7, "unique"), (12, "bincount")])
    @pytest.mark.parametrize("wide", [False, True])
    def test_decoders_and_encoder_match_brute_force(self, n, rx1_path, wide):
        """Nontrivial satellites on both receivers, |Y1| = 3 != |Y2| = 2,
        g = 2 < n (so several groups, and at n = 7 a shorter last one), uint8
        and int64 books; at n = 12 receiver 1's 18 cells overflow int64 keys."""
        rng = np.random.default_rng(n)
        ch = random_channel(rng, 2, 3, 2)
        scheme = random_scheme(rng, (3, 2, 2), 2)
        one, two = 1.0 / n, 2.0 / n
        rates = SplitRates(r1=one, r21=2 * one, r31=2 * one, r4=one, r5=one, r22=one, r32=one,
                           rp1=two, rp2=two)
        cfg = SchemeConfig(scheme=scheme, n=n, rates=rates, eps=2.0, seed=n)
        tables = CoderTables(scheme, ch)
        assert tables.t_y[1].shape == (6, 3) and tables.t_y[2].shape == (6, 2)
        assert ((n + 1) ** 18 > simulator._KEY_LIMIT) == (rx1_path == "bincount")
        books = generate_codebooks(cfg, ch)
        if wide:
            books = wide_books(books)
        assert simulator._pack_books(books, cfg, tables).g == 2
        channel_cdf = np.cumsum(ch.kernel.reshape(2, -1), axis=1)
        passing = []
        for seed in range(3):
            draw = np.random.default_rng(seed)
            m4, m5 = (int(draw.integers(2)) for _ in range(2))
            x, (l1, l2), fallback = encode(books, one_msg(m4=m4, m5=m5), cfg, tables)
            u0 = books.cb0[0, m4, m5, 0, 0]
            u1, u2 = books.cb1[0, m4, m5, 0, 0, 0], books.cb2[0, m4, m5, 0, 0, 0]
            scan = [(l1, l2) for l1 in range(len(u1)) for l2 in range(len(u2))
                    if brute_conditionally_typical(u0, u1[l1].astype(np.int64) * 2 + u2[l2],
                                                   tables.t_pair, cfg.eps_prime)]
            assert ((l1[0], l2[0]), fallback[0]) == \
                ((scan[0], False) if scan else ((0, 0), True))
            flat = (channel_cdf[x[0]] < draw.random((n, 1))).sum(axis=1)
            for rx, y, known in ((1, flat // 2, m5), (2, flat % 2, m4)):
                res = (decode_rx1 if rx == 1 else decode_rx2)(books, y[None], np.array([known]),
                                                              cfg, tables)
                expected = brute_passing(rx, books, y, known, cfg, tables)
                assert (res.passing[0] == expected).all()
                passing.append(expected)
        assert 0 < np.mean(np.concatenate([p.reshape(-1) for p in passing])) < 1

    def test_tables_no_larger_than_their_lookups(self, monkeypatch):
        """At n = 12 and M1 = 64 (the in-region cloud point) g = 6: each
        per-trial table has 2**6 = 64 entries for the 64 cloud words it
        serves, where one group of 12 positions would tabulate 4,096."""
        entries = []
        build = simulator._trial_tables

        def recorded(part, *args):
            keys = build(part, *args)
            entries.append(keys.shape[-1])
            return keys

        monkeypatch.setattr(simulator, "_trial_tables", recorded)
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=12, rates=SplitRates(r1=0.5),
                           seed=3)
        report = estimate_error(ch, cfg, 40)
        assert cfg.sizes()["m1"] == 64
        assert max(entries) == 64
        monkeypatch.undo()
        assert report.to_jsonable() == plain_estimate_error(ch, cfg, 40).to_jsonable()


def dyadic_rows(rng, rows, cols, b):
    """rows laws over cols symbols whose masses are multiples of 2**-b, as
    integer counts out of 2**b. The first count is odd at b >= 1, so that
    the table's width is exactly b; at b = 0 each row is a point mass."""
    counts = rng.multinomial(2 ** b, np.full(cols, 1.0 / cols), size=rows)
    if b and counts[0, 0] % 2 == 0:
        step = 1 if counts[0, 1] else -1
        counts[0, 0] += step
        counts[0, 1] -= step
    return counts


def dyadic_case(rng, widths, n=6):
    """A scheme with p(u0), p(u1 | u0) and p(u2 | u0) of the given widths
    (U1 and U2 independent given U0, so each conditional is exact in
    floats) and a channel of the last width, with every alphabet of size 2
    or 3 but a width-0 satellite, which is trivial."""
    b0, b1, b2, b_ch = widths
    a0 = 3
    sat = [2 if b else 1 for b in (b1, b2)]
    p0 = dyadic_rows(rng, 1, a0, b0)[0] / 2.0 ** b0
    p1, p2 = (dyadic_rows(rng, a0, a, b) / 2.0 ** b for a, b in zip(sat, (b1, b2)))
    mass = p0[:, None, None] * p1[:, :, None] * p2[:, None, :]
    axes = tuple(Alphabet.indexed(f"U{i}", a) for i, a in enumerate((a0, *sat)))
    scheme = AuxScheme(JointPmf(axes, mass), rng.integers(0, 2, size=mass.shape))
    kernel = dyadic_rows(rng, 2, 4, b_ch) / 2.0 ** b_ch
    ch = Channel.from_rows([row.tolist() for row in kernel], 2, 2, 2)
    return scheme, ch


class TestSymbolDraws:
    @pytest.mark.parametrize("fresh", [True, False])
    def test_non_dyadic_run_keeps_the_double_draw(self, fresh):
        """Every drawn table has width 53 (p(u0) = (1/3, 2/3), a random
        float channel; the trivial satellites draw nothing), so the report
        is the one a double per symbol gave: the counts below are those of
        the inverse-cdf draw on rng.random() doubles."""
        ch = random_channel(np.random.default_rng(2026), 2, 2, 2)
        axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate((2, 1, 1)))
        scheme = AuxScheme(JointPmf(axes, np.array([1 / 3, 2 / 3]).reshape(2, 1, 1)),
                           np.array([0, 1]).reshape(2, 1, 1))
        tables = CoderTables(scheme, ch)
        assert [law[0] for law in tables.book_laws] == [53, 0, 0]
        assert tables.channel_law[0] == 53
        cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(r1=0.25, r4=0.25), eps=0.5,
                           seed=21, fresh_codebooks=fresh)
        report = estimate_error(ch, cfg, 300).to_jsonable()
        expected = {
            True: (259, 181, {"none_typical": 61, "wrong_satellite": 0, "wrong_cloud": 193,
                              "other": 5},
                   {"none_typical": 108, "wrong_satellite": 0, "wrong_cloud": 73, "other": 0},
                   270),
            False: (264, 207, {"none_typical": 55, "wrong_satellite": 0, "wrong_cloud": 208,
                               "other": 1},
                    {"none_typical": 122, "wrong_satellite": 0, "wrong_cloud": 85, "other": 0},
                    282)}[fresh]
        assert (report["rx1_errors"], report["rx2_errors"], report["rx1_events"],
                report["rx2_events"], report["pe_estimate"] * 300) == expected
        assert report == plain_estimate_error(ch, cfg, 300).to_jsonable()

    @pytest.mark.parametrize("b", [0, 1, 2, 4, 8])
    def test_fields_map_onto_each_symbol_its_mass_times(self, b):
        """On random dyadic tables of width b, the 2**b field values map
        onto symbol k of a row exactly p_k * 2**b times."""
        rng = np.random.default_rng(b)
        for cols in (2, 3, 5):
            counts = dyadic_rows(rng, 4, cols, b)
            bits, thresholds = simulator._symbol_law(counts / 2.0 ** b)
            assert bits == b
            values = np.arange(2 ** b, dtype=np.uint8 if b < 8 else np.uint16)
            for row, count in enumerate(counts):
                symbols = simulator._inverse_cdf(values, thresholds[row])
                assert np.bincount(symbols, minlength=cols).tolist() == count.tolist()

    @pytest.mark.parametrize("b", [1, 2, 4, 8, 16, 32])
    def test_fields_are_read_low_bits_first(self, b):
        raw = np.random.default_rng(b).bit_generator.random_raw((3, 5))
        count = 5 * 64 // b - 3
        fields = simulator._fields(raw, b, count)
        per = 64 // b
        for t, row in enumerate(raw.tolist()):
            expected = [row[i // per] >> b * (i % per) & (1 << b) - 1 for i in range(count)]
            assert fields[t].tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(r=st.integers(0, 2 ** 64 - 1),
           floats=st.lists(st.floats(0.0, 1.0), max_size=4),
           dyadic=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2 ** 60)), max_size=4))
    def test_full_width_rule_is_the_double_compare(self, r, floats, dyadic):
        """At b = 53 the threshold rule T <= u, on the double u that
        Generator.random makes of the output r, counts exactly c < u: for
        any c, dyadic ones and c = u and its neighbours included."""
        u = (r >> 11) * 2.0 ** -53
        cs = floats + [min(k / 2.0 ** e, 1.0) for e, k in dyadic] + \
            [u, np.nextafter(u, 0.0), np.nextafter(u, 1.0), 1.0 / 3.0]
        # two-column rows (c, 1 - c): the first cdf entry of each row is c
        bits, thresholds = simulator._symbol_law(np.array([[c, 1.0 - c] for c in cs]))
        assert bits == 53
        picked = [int(simulator._inverse_cdf(np.array([u]), thresholds[row])[0])
                  for row in range(len(cs))]
        assert picked == [int(c < u) for c in cs]

    def test_width_zero_draws_nothing(self):
        """A point-mass p(u0) and a noiseless channel take no raw output:
        after a trial, the stream is where the one dyadic book and the
        messages leave it."""
        axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate((2, 2, 1)))
        mass = np.array([[0.0, 0.0], [0.25, 0.75]]).reshape(2, 2, 1)
        scheme = AuxScheme(JointPmf(axes, mass), np.array([0, 1, 0, 1]).reshape(2, 2, 1))
        ch = noiseless_channel(2)
        tables = CoderTables(scheme, ch)
        assert [law[0] for law in tables.book_laws] == [0, 2, 0]
        assert tables.channel_law[0] == 0
        cfg = SchemeConfig(scheme=scheme, n=5, rates=SplitRates(r1=0.4, rp1=0.4), seed=8)
        words = simulator._book_words(cfg, tables)
        assert words == [0, -(-cfg.sizes()["m1"] * cfg.sizes()["l1"] * 5 * 2 // 64), 0]
        raw = [None, np.empty((1, words[1]), np.uint64), None]
        rng = np.random.default_rng((cfg.seed, 0))
        msg = simulator._draw_block(cfg, rng, raw, None, 1)
        ref = np.random.default_rng((cfg.seed, 0))
        assert (ref.bit_generator.random_raw(words[1]) == raw[1][0]).all()
        assert int(ref.integers(cfg.sizes()["m1"])) == msg.m1[0]
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
        books = simulator._codebooks(cfg, tables, raw)
        assert (books.cb0 == 1).all()
        assert 0 < books.cb1.mean() < 1

    @pytest.mark.parametrize("widths", [(1, 2, 4, 8), (2, 1, 0, 16), (4, 8, 1, 2),
                                        (0, 4, 2, 32), (8, 0, 1, 1)])
    def test_dyadic_runs_match_the_per_trial_loop(self, widths):
        """Every width on books and channel, fresh and fixed books, against
        the oracle that reads each symbol's field on its own."""
        rng = np.random.default_rng(list(widths))
        scheme, ch = dyadic_case(rng, widths)
        tables = CoderTables(scheme, ch)
        assert [law[0] for law in tables.book_laws] + [tables.channel_law[0]] == list(widths)
        for fresh in (True, False):
            cfg = SchemeConfig(scheme=scheme, n=6, rates=ORACLE_RATES[3], eps=1.2, seed=3,
                               fresh_codebooks=fresh)
            report = estimate_error(ch, cfg, 120)
            assert report.to_jsonable() == plain_estimate_error(ch, cfg, 120).to_jsonable()
        assert 0 < report.rx1_errors + report.rx2_errors < 240


class TestTrialStreams:
    @pytest.mark.parametrize("fresh", [True, False])
    def test_shorter_runs_are_prefixes(self, fresh):
        """Every trial draws in turn from the one stream, so the progress
        counts of a 300-trial run at 100 and 200 are the error counts of the
        100- and 200-trial runs; cb0 draws at width 4, cb1 at width 1 and
        the channel at width 53."""
        scheme, _ = dyadic_case(np.random.default_rng(26), (4, 1, 0, 0))
        ch = binary_symmetric_pair(0.05, 0.1)
        tables = CoderTables(scheme, ch)
        assert [law[0] for law in tables.book_laws] + [tables.channel_law[0]] == [4, 1, 0, 53]
        cfg = SchemeConfig(scheme=scheme, n=6, rates=ORACLE_RATES[1], eps=1.2, seed=5,
                           fresh_codebooks=fresh)
        seen = []
        estimate_error(ch, cfg, 300, lambda *a: seen.append(a))
        shorter = [(t, round(estimate_error(ch, cfg, t).pe_estimate * t)) for t in (100, 200)]
        assert seen[:2] == shorter
        assert 0 < shorter[0][1] < shorter[1][1] < seen[2][1]

    def test_estimate_at_a_multi_word_seed(self):
        ch = binary_symmetric_pair(0.05, 0.1)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=6,
                           rates=SplitRates(r1=0.4, r4=0.2, r5=0.2), seed=2 ** 40)
        report = estimate_error(ch, cfg, 150)
        assert report.to_jsonable() == plain_estimate_error(ch, cfg, 150).to_jsonable()
        assert 0 < report.rx1_errors < 150


class TestPlanSplitRates:
    def test_even_split_and_feasible_bins(self):
        # nontrivial satellite layers leave positive slack at a modest point
        consts = MiConstants(1.0, 0.9, 0.6, 0.5, 0.1)
        rates, slack = plan_split_rates(consts, 0.1, 0.2, 0.2, 0.0, 0.0)
        assert rates.r21 == rates.r22 == pytest.approx(0.1)
        assert rates.r31 == rates.r32 == pytest.approx(0.1)
        assert slack > 0.0
        assert rates.rp1 + rates.rp2 >= consts.i_u1_u2_given_u0 - 1e-9

    def test_degenerate_satellites_pin_slack_at_zero(self):
        ch = binary_symmetric_pair(0.05, 0.1)
        scheme = complementary_scheme(ch)
        consts = mi_constants(scheme, ch)
        rates, slack = plan_split_rates(consts, 0.2, 0.0, 0.0, 0.1, 0.1)
        assert rates.r21 == rates.r22 == 0.0
        assert slack == pytest.approx(0.0, abs=1e-9)
        assert rates.rp1 == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_point_reports_negative_slack(self):
        consts = MiConstants(0.1, 0.1, 0.0, 0.0, 0.5)
        rates, slack = plan_split_rates(consts, 1.0, 0.5, 0.5, 0.0, 0.0)
        assert slack < 0.0

    # mutual informations are never -0.0; a rate of -0.0 passes the CLI
    CONSTS = st.lists(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 3.0), min_size=5,
                      max_size=5).map(lambda v: MiConstants(*v))
    POINT = st.lists(st.sampled_from([0.0, -0.0, 0.4]) | st.floats(0.0, 2.0), min_size=5,
                     max_size=5)

    @given(CONSTS, POINT)
    @settings(max_examples=300, deadline=None)
    def test_slack_matches_the_closed_form(self, consts, point):
        """The LP's slack is min(d1, d2, (d1 + d2 - a) / 3), and every coding
        row holds with that room at the returned bin rates."""
        rates, slack = plan_split_rates(consts, *point)
        assert abs(slack - closed_form_bin_rate_slack(consts, *point)) <= 1e-9
        r1, r2, r3, r4, r5 = point
        assert (rates.r1, rates.r4, rates.r5) == (r1, r4, r5)
        assert rates.r21 == rates.r22 == r2 / 2 and rates.r31 == rates.r32 == r3 / 2
        cloud = r1 + rates.r21 + rates.r31
        rows = [(-(rates.rp1 + rates.rp2), -consts.i_u1_u2_given_u0),
                (rates.r22 + rates.rp1, consts.i_u1_y1_given_u0),
                (cloud + r4 + rates.r22 + rates.rp1, consts.i_u0u1_y1),
                (rates.r32 + rates.rp2, consts.i_u2_y2_given_u0),
                (cloud + r5 + rates.r32 + rates.rp2, consts.i_u0u2_y2)]
        for lhs, rhs in rows:
            assert lhs + slack <= rhs + 1e-9

    @given(CONSTS, POINT)
    @settings(max_examples=300, deadline=None)
    def test_lp_rows_are_the_hand_written_ones(self, consts, point):
        """The rows read from raw_coding_system give linprog the bytes of
        the coding conditions written out by hand."""
        seen = []
        linprog = polytope.linprog

        def recorded(*args, **kwargs):
            seen.append((kwargs["A_ub"], kwargs["b_ub"]))
            return linprog(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polytope, "linprog", recorded)
            plan_split_rates(consts, *point)
        (a_ub, b_ub), = seen
        a_hand, b_hand = hand_written_bin_rate_lp(consts, *point)
        for ours, theirs in ((a_ub, a_hand), (b_ub, b_hand)):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert ours.tobytes() == theirs.tobytes()


def one_row_scheme(rng, side, a, b):
    """A scheme whose nontrivial books all have a law of one row and width
    b over a symbols: p(u0) beside trivial satellites ("cloud"), or
    independent p(u1) and p(u2) beside a trivial cloud ("satellites")."""
    p = [dyadic_rows(rng, 1, a, b)[0] / 2.0 ** b for _ in range(2)]
    if side == "cloud":
        sizes, mass = (a, 1, 1), p[0]
    else:
        sizes, mass = (1, a, a), p[0][:, None] * p[1][None, :]
    axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(sizes))
    return AuxScheme(JointPmf(axes, mass.reshape(sizes)),
                     rng.integers(0, 2, size=sizes))


def words_both_ways(cfg, tables, trials, seed):
    """One block of fresh books from seeded outputs: its _fresh_words, and
    _pack of the symbols _codebooks maps the same outputs to."""
    rng = np.random.default_rng(seed)
    raw = simulator._book_buffers(cfg, tables, (trials,))
    for out in raw:
        if out is not None:
            for t in range(trials):
                simulator._fill(rng, out[t])
    packed = simulator._pack_books(simulator._codebooks(cfg, tables, raw), cfg, tables)
    return simulator._fresh_words(cfg, tables, raw), packed


def assert_same_words(ours, theirs):
    assert (ours.g, ours.lead) == (theirs.g, theirs.lead)
    for mine, packed in zip(ours.words, theirs.words):
        assert (mine is None) == (packed is None)
        if mine is not None:
            assert mine.dtype == packed.dtype and mine.shape == packed.shape
            assert (mine == packed).all()


class TestWordDraws:
    @settings(max_examples=150, deadline=None)
    @given(b=st.sampled_from([1, 2, 4, 8]), a=st.integers(2, 4),
           side=st.sampled_from(["cloud", "satellites"]), n=st.integers(1, 8),
           bits=st.integers(0, 10), trials=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_word_draw_is_the_packed_symbol_draw(self, b, a, side, n, bits, trials, seed):
        """Random dyadic one-row laws of width b: each group's word read
        from its field of g * b bits is the _pack word of the symbols that
        _sample draws from the same outputs, bitwise, on the word path
        (g | n, g * b <= 16) and off it."""
        rng = np.random.default_rng(seed)
        scheme = one_row_scheme(rng, side, a, b)
        ch = noiseless_channel(2)
        rates = (SplitRates(r1=bits / n) if side == "cloud" else
                 SplitRates(r22=bits / (2 * n), rp1=bits / (2 * n), rp2=1 / n))
        cfg = SchemeConfig(scheme=scheme, n=n, rates=rates)
        tables = CoderTables(scheme, ch)
        assert {law[0] for law, s in zip(tables.book_laws, tables.sizes) if s > 1} == {b}
        assert_same_words(*words_both_ways(cfg, tables, trials, seed))

    # (sizes, law of each book given as a (u0, u1, u2) mass, n, rates) per case
    # with the number of books _fresh_words samples
    CASES = {
        "word path": ((2, 1, 1), [0.5, 0.5], 8, SplitRates(r1=2.0), 0),
        "width 53": ((2, 1, 1), [1 / 3, 2 / 3], 8, SplitRates(r1=1.0), 1),
        "g does not divide n": ((2, 1, 1), [0.25, 0.75], 7, SplitRates(r1=3 / 7), 1),
        "g * b above 16": ((3, 1, 1), [2 ** -8, 0.5, 0.5 - 2 ** -8], 6,
                           SplitRates(r1=math.log2(27) / 6), 1),
        "multi-row satellite": ((2, 2, 1), [0.125, 0.375, 0.25, 0.25], 6,
                                SplitRates(r1=1 / 3, rp1=1 / 3), 2),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_fallbacks_sample_and_pack(self, monkeypatch, case):
        sizes, mass, n, rates, sampled = self.CASES[case]
        axes = tuple(Alphabet.indexed(f"U{i}", s) for i, s in enumerate(sizes))
        scheme = AuxScheme(JointPmf(axes, np.array(mass).reshape(sizes)),
                           np.arange(math.prod(sizes)).reshape(sizes) % 2)
        cfg = SchemeConfig(scheme=scheme, n=n, rates=rates)
        tables = CoderTables(scheme, noiseless_channel(2))
        calls = []
        sample = simulator._sample
        monkeypatch.setattr(simulator, "_sample", lambda *a: calls.append(1) or sample(*a))
        ours, packed = words_both_ways(cfg, tables, 2, 7)
        assert len(calls) == sampled + sum(s > 1 for s in sizes)  # and _codebooks' own
        assert_same_words(ours, packed)
        if case == "g does not divide n":
            assert ours.g == 3
        if case == "g * b above 16":
            assert tables.book_laws[0][0] == 8 and ours.g == 3

    @pytest.mark.parametrize("fresh", [True, False])
    def test_estimate_on_the_word_path_matches_the_per_trial_loop(self, fresh):
        """R1 = 2 at n = 4: 256 cloud words of g = 4 one-bit symbols, each
        group's word one 4-bit field of the raw outputs (fresh books; fixed
        books are drawn as symbols and packed)."""
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=4, rates=SplitRates(r1=2.0),
                           seed=4, fresh_codebooks=fresh)
        tables = CoderTables(cfg.scheme, ch)
        g = simulator._coder_group(cfg, tables)
        assert (g, tables.book_laws[0][0]) == (4, 1) and tables.word_table(0, g) is not None
        report = estimate_error(ch, cfg, 60)
        assert report.to_jsonable() == plain_estimate_error(ch, cfg, 60).to_jsonable()
        assert 0 < report.rx1_errors < 60 or not fresh

    def test_overloaded_trials_hold_no_symbol_book(self):
        """The overloaded cloud-only point (65,536 cloud words of n = 8 per
        trial): four trials peak below 1.5 MB of traced allocations, where
        one book of uint8 symbols is 0.5 MB and drawing and packing it
        peaked at 1.84 MB."""
        import tracemalloc

        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8, rates=SplitRates(r1=2.0),
                           seed=3)
        estimate_error(ch, cfg, 2)
        tracemalloc.start()
        try:
            estimate_error(ch, cfg, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20


class TestBandTest:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           eps=st.floats(1e-3, 1e308) | st.sampled_from([1.0, 1e300, 1e308, 1.7e308]))
    def test_flags_at_any_eps_are_those_of_the_plain_band(self, seed, eps):
        """The band test at any finite eps gives the flags of the plain
        |count - target| > eps * target + 1e-9 (an overflowing product read
        as inf), without overflowing."""
        rng = np.random.default_rng(seed)
        table = rng.random((2, 3)) * (rng.random((2, 3)) > 0.2)
        table[:, 0] += 1e-300
        table /= table.sum(axis=1, keepdims=True)
        counts = rng.integers(0, 6, size=(50, 6))
        with np.errstate(over="raise"):
            flags = simulator._band_ok(counts, table, eps)
        c = counts.reshape(50, 2, 3)
        target = c.sum(axis=2)[:, :, None] * table
        with np.errstate(over="ignore"):
            band = (np.abs(c - target) > eps * target + 1e-9).any(axis=(1, 2))
        zero = ((table <= 0.0) & (c > 0)).any(axis=(1, 2))
        assert (flags == ~(band | zero)).all()
