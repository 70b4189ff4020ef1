import numpy as np
import pytest

from bcsi import simulator
from bcsi.errors import GuardError, InputError
from bcsi.probability import (Alphabet, AuxScheme, JointPmf, Pmf,
                              binary_symmetric_pair, noiseless_channel)
from bcsi.rate_regions import MiConstants, SplitRates, mi_constants, specialize_scheme
from bcsi.simulator import (Msg, SchemeConfig, decode_rx1, decode_rx2, encode,
                            estimate_error, generate_codebooks,
                            is_jointly_typical, plan_split_rates)
from conftest import random_channel, random_scheme
from oracles import brute_conditionally_typical


def complementary_scheme(ch, px=None):
    if px is None:
        px = Pmf.uniform(Alphabet.indexed("X", ch.x.size))
    return specialize_scheme("complementary", px, ch)


def correlated_scheme():
    """U1 = U2 uniform given a degenerate cloud; x = u1."""
    axes = (Alphabet.indexed("U0", 1), Alphabet.indexed("U1", 2),
            Alphabet.indexed("U2", 2))
    aux = JointPmf(axes, np.array([[[0.5, 0.0], [0.0, 0.5]]]))
    return AuxScheme(aux, np.array([[[0, 0], [1, 1]]]))


class TestJointTypicality:
    def joint(self):
        axes = (Alphabet.indexed("A", 2), Alphabet.indexed("B", 2))
        return JointPmf(axes, np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_exact_empirical_distribution(self):
        a = np.array([0, 1, 0, 1])
        assert is_jointly_typical((a, a), self.joint(), 1e-6)

    def test_zero_probability_tuple_excluded(self):
        a = np.array([0, 1, 0, 1])
        b = np.array([0, 1, 0, 0])  # (1, 0) has zero mass
        assert not is_jointly_typical((a, b), self.joint(), 0.9)

    def test_iid_samples_mostly_typical(self):
        rng = np.random.default_rng(1)
        p = JointPmf((Alphabet.indexed("A", 2),), np.array([0.5, 0.5]))
        hits = 0
        for _ in range(1000):
            s = rng.integers(0, 2, size=1000)
            hits += is_jointly_typical((s,), p, 0.1)
        assert hits >= 900

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            is_jointly_typical((np.array([0, 1]), np.array([0])), self.joint(), 0.1)


def typicality_case(rng, n, known_cells, new_cells, count=400):
    """A conditional table with off-support cells, and candidates drawn from
    it (many pass), uniformly (most fail) and as repeats of earlier ones."""
    table = rng.random((known_cells, new_cells)) * (rng.random((known_cells, new_cells)) > 0.2)
    table[:, 0] += 0.1
    table /= table.sum(axis=1, keepdims=True)
    known = rng.integers(0, known_cells, size=(count, n))
    cdf = np.cumsum(table, axis=1)
    drawn = (cdf[known] < rng.random((count, n))[..., None]).sum(axis=-1)
    new = np.where(np.arange(count)[:, None] < count // 2, np.minimum(drawn, new_cells - 1),
                   rng.integers(0, new_cells, size=(count, n)))
    repeat = rng.integers(0, count, size=count // 4)
    return table, np.concatenate([known, known[repeat]]), np.concatenate([new, new[repeat]])


class TestTypicalFlags:
    @pytest.mark.parametrize("n, known_cells, new_cells, eps, path", [
        (8, 2, 2, 0.3, "table"),      # 9**4 keys
        (8, 2, 4, 1.0, "unique"),     # 9**8 keys
        (12, 3, 6, 1.5, "bincount"),  # 13**18 keys overflow int64
    ])
    def test_matches_per_candidate_reference(self, rng, n, known_cells, new_cells, eps, path):
        keys = (n + 1) ** (known_cells * new_cells)
        assert path == ("table" if keys <= simulator._TABLE_KEYS else
                        "unique" if keys <= simulator._KEY_LIMIT else "bincount")
        table, known, new = typicality_case(rng, n, known_cells, new_cells)
        memo = {}
        flags = simulator._typical_flags(known, new, table, eps, memo)
        expected = [brute_conditionally_typical(k, w, table, eps) for k, w in zip(known, new)]
        assert flags.tolist() == expected
        assert 0 < sum(expected) < len(expected)
        assert list(memo) == ([(n, eps)] if path == "table" else [])
        # a second call reuses the kept pass/fail table
        assert (simulator._typical_flags(known, new, table, eps, memo) == flags).all()

    @pytest.mark.parametrize("new_cells, eps", [(2, 0.5), (4, 1.0)])
    def test_broadcast_layouts(self, rng, new_cells, eps):
        """Decoder layout (one output sequence against many codeword pairs)
        and encoder layout (one cloud word against many satellite pairs)."""
        table, known, new = typicality_case(rng, 8, 2, new_cells)
        y, u0 = new[0], known[0]
        dec = simulator._typical_flags(known.reshape(5, -1, 8), y, table, eps)
        enc = simulator._typical_flags(u0, new.reshape(5, -1, 8), table, eps)
        assert dec.shape == enc.shape == (5, len(known) // 5)
        assert dec.reshape(-1).tolist() == [brute_conditionally_typical(k, y, table, eps)
                                            for k in known]
        assert enc.reshape(-1).tolist() == [brute_conditionally_typical(u0, w, table, eps)
                                            for w in new]
        assert dec.any() and enc.any()


class TestSchemeConfig:
    def test_eps_ordering_enforced(self):
        ch = noiseless_channel(2)
        with pytest.raises(InputError):
            SchemeConfig(scheme=complementary_scheme(ch), n=4,
                         rates=SplitRates(), eps_prime=0.4, eps1=0.3, eps2=0.3)

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
        for m1 in range(cfg.sizes()["m1"]):
            msg = Msg(m1, 0, 0, 0, 0, 0, 0)
            x, (l1, l2), fallback = encode(books, msg, cfg, ch=ch)
            assert (l1, l2) == (0, 0)
            assert not fallback

    def test_gamma_consistency(self):
        ch = noiseless_channel(2)
        scheme = correlated_scheme()
        cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(rp1=0.4, rp2=0.4),
                           seed=3)
        books = generate_codebooks(cfg, ch)
        msg = Msg(0, 0, 0, 0, 0, 0, 0)
        x, (l1, l2), _ = encode(books, msg, cfg, ch=ch)
        u1 = books.cb1[0, 0, 0, 0, 0, 0, l1]
        assert (x == u1).all()  # gamma maps (u0, u1, u2) -> u1 here

    @pytest.mark.parametrize("scheme_kind, eps_prime", [("correlated", 0.25),
                                                        ("random", 1.2)])
    def test_matches_sequential_scan(self, scheme_kind, eps_prime):
        """First passing bin pair in lexicographic order, one pair at a time."""
        rng = np.random.default_rng(31)
        ch = random_channel(rng, 2, 2, 2)
        scheme = correlated_scheme() if scheme_kind == "correlated" else \
            random_scheme(rng, (2, 2, 2), 2)
        t_pair = simulator._Tables(scheme, ch).t_pair
        a2 = scheme.sizes[2]
        fallbacks = 0
        for seed in range(20):
            cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(rp1=0.2, rp2=0.4),
                               eps_prime=eps_prime, eps1=2.0, eps2=2.0, seed=seed)
            books = generate_codebooks(cfg, ch)
            msg = Msg(0, 0, 0, 0, 0, 0, 0)
            u0, u1, u2 = books.cb0[0, 0, 0, 0, 0], books.cb1[0, 0, 0, 0, 0, 0], \
                books.cb2[0, 0, 0, 0, 0, 0]
            passing = [(l1, l2) for l1 in range(len(u1)) for l2 in range(len(u2))
                       if brute_conditionally_typical(u0, u1[l1] * a2 + u2[l2],
                                                      t_pair, cfg.eps_prime)]
            expected = (passing[0], False) if passing else ((0, 0), True)
            x, chosen, fallback = encode(books, msg, cfg, ch=ch)
            assert (chosen, fallback) == expected
            assert (x == scheme.gamma[u0, u1[chosen[0]], u2[chosen[1]]]).all()
            fallbacks += fallback
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
        res = decode_rx1(books, y1, 0, cfg, ch=ch)
        matches = [(books.cb0[m1, 0, 0, 0, 0] == y1).all()
                   for m1 in range(cfg.sizes()["m1"])]
        if not any(matches):
            assert not res.ok
            assert res.kind == "none_typical"

    def test_duplicate_codewords_force_ambiguity(self):
        ch = noiseless_channel(2)
        # blocklength 1: only two possible codewords for four messages
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=1,
                           rates=SplitRates(r1=2.0), seed=8)
        books = generate_codebooks(cfg, ch)
        y1 = books.cb0[0, 0, 0, 0, 0].copy()
        res = decode_rx1(books, y1, 0, cfg, ch=ch)
        assert not res.ok
        assert res.kind == "ambiguous"

    def test_rx2_mirrors_rx1_on_symmetric_setup(self):
        ch = noiseless_channel(2)
        cfg = SchemeConfig(scheme=complementary_scheme(ch), n=8,
                           rates=SplitRates(r1=0.25), seed=10)
        books = generate_codebooks(cfg, ch)
        msg = Msg(1, 0, 0, 0, 0, 0, 0)
        x, _, _ = encode(books, msg, cfg, ch=ch)
        r1 = decode_rx1(books, x.copy(), 0, cfg, ch=ch)
        r2 = decode_rx2(books, x.copy(), 0, cfg, ch=ch)
        assert r1.ok and r2.ok
        assert r1.messages["m1"] == 1
        assert r2.messages["m1"] == 1


class TestEstimateError:
    def test_zero_rates_error_free_on_any_channel(self):
        for ch in (noiseless_channel(2), binary_symmetric_pair(0.11, 0.2)):
            scheme = complementary_scheme(ch)
            cfg = SchemeConfig(scheme=scheme, n=6, rates=SplitRates(), seed=1)
            report = estimate_error(ch, cfg, 100)
            assert report.pe_estimate == 0.0

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

    def test_split_override(self):
        consts = MiConstants(1.0, 1.0, 0.5, 0.5, 0.0)
        rates, _ = plan_split_rates(consts, 0.0, 0.4, 0.0, 0.0, 0.0, split2=0.25)
        assert rates.r21 == pytest.approx(0.1)
        assert rates.r22 == pytest.approx(0.3)
