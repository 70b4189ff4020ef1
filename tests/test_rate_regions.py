import itertools
from fractions import Fraction

import numpy as np
import pytest

from bcsi.errors import InputError
from bcsi.info_measures import mutual_information
from bcsi import rate_regions
from bcsi.polytope import (LinearInequality, LinearSystem, RATE_VARS, RateRegion,
                           fme_eliminate, maximize, regions_equal, remove_redundant)
from bcsi.probability import (Alphabet, AuxScheme, JointPmf, Pmf,
                              binary_symmetric_pair, blackwell_channel,
                              deterministic_channel, induced_joint,
                              noiseless_channel)
from bcsi.rate_regions import (MiConstants, SplitRates, _t1_rows, _t2_kernel, _t2_rows,
                               _t3_rows, deterministic_region, marton_region, mi_constants,
                               more_capable_region, project_raw_system,
                               raw_coding_system, specialize_scheme)
from conftest import random_channel, random_joint, random_scheme
from oracles import (binary_entropy, brute_cmi, brute_group_entropy, brute_mi, contains,
                     fix_variables, plain_fme, plain_t2_rows, row_value)


def key_of(coeffs):
    return LinearInequality({k: Fraction(v) for k, v in coeffs.items()}, 0.0) \
        .canonical().key()


EQ1 = key_of({"R1": 1, "R2": 1, "R4": 1})
EQ2 = key_of({"R1": 1, "R3": 1, "R5": 1})
EQ3 = key_of({"R1": 1, "R2": 1, "R3": 1, "R4": 1})
EQ4 = key_of({"R1": 1, "R2": 1, "R3": 1, "R5": 1})
EQ5 = key_of({"R1": 2, "R2": 1, "R3": 1, "R4": 1, "R5": 1})


class TestSplitRates:
    def test_aggregates(self):
        r = SplitRates(r21=0.25, r22=0.5, r31=0.1, r32=0.3)
        assert r.r2 == pytest.approx(0.75)
        assert r.r3 == pytest.approx(0.4)

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            SplitRates(r1=-0.1)


class TestMiConstants:
    def test_degenerate_satellites_kill_conditionals(self):
        ch = noiseless_channel(2)
        scheme = specialize_scheme("complementary",
                                   Pmf.uniform(Alphabet.indexed("X", 2)), ch)
        c = mi_constants(scheme, ch)
        assert c.i_u1_u2_given_u0 == 0.0
        assert c.i_u1_y1_given_u0 == 0.0
        assert c.i_u0u1_y1 == pytest.approx(1.0, abs=1e-12)

    def test_trivial_u1_gives_exact_zeros(self, rng):
        """A single-cell group carries no information: the conditionals on a
        trivial U1 are exact zeros, not float noise from four entropies."""
        for _ in range(10):
            scheme = random_scheme(rng, (2, 1, 2), 3)
            c = mi_constants(scheme, random_channel(rng, 3, 2, 3))
            assert c.i_u1_y1_given_u0 == 0.0
            assert c.i_u1_u2_given_u0 == 0.0

    def test_matches_brute_oracle(self, rng):
        scheme = random_scheme(rng, (2, 2, 2), 2)
        ch = random_channel(rng, 2, 2, 2)
        c = mi_constants(scheme, ch)
        j = induced_joint(scheme, ch).mass
        shape = j.shape
        # axes: U0 U1 U2 X Y1 Y2
        assert c.i_u0u1_y1 == pytest.approx(
            brute_mi(j, shape, [0, 1], [4]), abs=1e-10)
        assert c.i_u0u2_y2 == pytest.approx(
            brute_mi(j, shape, [0, 2], [5]), abs=1e-10)
        assert c.i_u1_y1_given_u0 == pytest.approx(
            brute_cmi(j, shape, [1], [4], [0]), abs=1e-10)
        assert c.i_u2_y2_given_u0 == pytest.approx(
            brute_cmi(j, shape, [2], [5], [0]), abs=1e-10)
        assert c.i_u1_u2_given_u0 == pytest.approx(
            brute_cmi(j, shape, [1], [2], [0]), abs=1e-10)


class TestMartonRegion:
    def test_noiseless_complementary_rhs(self):
        ch = noiseless_channel(2)
        scheme = specialize_scheme("complementary",
                                   Pmf.uniform(Alphabet.indexed("X", 2)), ch)
        region = marton_region(scheme, ch)
        keyed = {i.key(): i.rhs for i in region.system.inequalities}
        assert keyed[EQ1] == pytest.approx(1.0, abs=1e-12)
        assert keyed[EQ2] == pytest.approx(1.0, abs=1e-12)
        assert keyed[EQ3] == pytest.approx(1.0, abs=1e-12)
        assert keyed[EQ4] == pytest.approx(1.0, abs=1e-12)
        assert keyed[EQ5] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_scheme_pins_origin(self):
        axes = tuple(Alphabet.indexed(f"U{i}", 1) for i in range(3))
        scheme = AuxScheme(JointPmf(axes, np.ones((1, 1, 1))), np.zeros((1, 1, 1), int))
        region = marton_region(scheme, noiseless_channel(2))
        assert all(i.rhs == pytest.approx(0.0, abs=1e-12)
                   for i in region.system.inequalities)
        assert contains(region, (0, 0, 0, 0, 0))
        assert not contains(region, (0.01, 0, 0, 0, 0))

    def test_origin_inside_iff_nonempty(self, rng):
        # A scheme whose covering penalty exceeds its information gains has a
        # negative right-hand side and claims no rate tuple at all; otherwise
        # the origin is inside.
        for _ in range(8):
            scheme = random_scheme(rng, (2, 2, 2), 2)
            ch = random_channel(rng, 2, 2, 2)
            region = marton_region(scheme, ch)
            nonneg = all(i.rhs >= -1e-12 for i in region.system.inequalities)
            assert contains(region, (0, 0, 0, 0, 0)) == nonneg

    def test_empty_scheme_region_matches_projection(self):
        # correlated satellites over a useless channel: the raw system is
        # infeasible and the projection must agree with the direct region
        axes = (Alphabet.indexed("U0", 1), Alphabet.indexed("U1", 2),
                Alphabet.indexed("U2", 2))
        aux = JointPmf(axes, np.array([[[0.5, 0.0], [0.0, 0.5]]]))
        scheme = AuxScheme(aux, np.zeros((1, 2, 2), int))  # constant input
        ch = noiseless_channel(2)
        direct = marton_region(scheme, ch)
        assert not contains(direct, (0, 0, 0, 0, 0))
        projected = project_raw_system(raw_coding_system(mi_constants(scheme, ch)))
        assert regions_equal(projected, direct)


class TestRawSystem:
    def test_zero_constants_force_origin(self):
        sys = raw_coding_system(MiConstants(0, 0, 0, 0, 0))
        status, value, _ = maximize(sys, {v: 1.0 for v in sys.variables})
        assert status == "optimal"
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_zero_covering_term_vacuous_at_origin(self):
        sys = raw_coding_system(MiConstants(1.0, 1.0, 0.5, 0.5, 0.0))
        # Rp1 = Rp2 = 0 is allowed when there is nothing to cover
        assign = {v: 0.0 for v in sys.variables}
        for row in sys.inequalities:
            assert row_value(row, assign) <= row.rhs + 1e-12

    def test_projection_matches_direct_region(self, rng):
        for _ in range(5):
            scheme = random_scheme(rng, (2, 2, 2), 3)
            ch = random_channel(rng, 3, 2, 2)
            c = mi_constants(scheme, ch)
            projected = project_raw_system(raw_coding_system(c))
            direct = marton_region(scheme, ch)
            assert regions_equal(projected, direct)

    def test_generic_constants_give_exactly_the_five_rows(self):
        c = MiConstants(1.524897, 1.312345, 0.731201, 0.550033, 0.301077)
        projected = project_raw_system(raw_coding_system(c))
        keyed = {i.key(): i.rhs for i in projected.system.inequalities}
        assert set(keyed) == {EQ1, EQ2, EQ3, EQ4, EQ5}
        assert keyed[EQ1] == pytest.approx(c.i_u0u1_y1, abs=1e-12)
        assert keyed[EQ3] == pytest.approx(
            c.i_u0u1_y1 + c.i_u2_y2_given_u0 - c.i_u1_u2_given_u0, abs=1e-12)
        assert keyed[EQ5] == pytest.approx(
            c.i_u0u1_y1 + c.i_u0u2_y2 - c.i_u1_u2_given_u0, abs=1e-12)

    def test_pruned_projection_hands_few_rows_to_lp(self, monkeypatch):
        # Chernikov pruning leaves at most 40 of the 216 rows that plain
        # elimination with duplicate merging hands to redundancy removal
        inputs, rows_in = [], []

        def record_fme(sys, *variables):
            inputs.append((sys, variables))
            return fme_eliminate(sys, *variables)

        def record_rr(sys):
            rows_in.append(len(sys.inequalities))
            return remove_redundant(sys)

        monkeypatch.setattr(rate_regions, "fme_eliminate", record_fme)
        monkeypatch.setattr(rate_regions, "remove_redundant", record_rr)
        projected = project_raw_system(
            raw_coding_system(MiConstants(1.0, 0.9, 0.6, 0.5, 0.3)))
        assert rows_in == [rows_in[0]] and rows_in[0] <= 40
        # one call eliminates the whole order
        ((start, variables),) = inputs
        assert variables == rate_regions.ELIMINATION_ORDER
        # the same region as the unpruned elimination
        order = [start.variables.index(var) for var in variables]
        plain = plain_fme([([r.coeffs.get(v, Fraction(0)) for v in start.variables], r.rhs)
                           for r in start.inequalities], order)
        rows = [LinearInequality({v: c for v, c in zip(start.variables, coeffs)
                                  if v in RATE_VARS}, rhs) for coeffs, rhs in plain]
        assert len(rows) > 200
        unpruned = RateRegion(remove_redundant(LinearSystem(RATE_VARS, rows)))
        assert regions_equal(projected, unpruned)

    def test_zero_constants_project_to_origin(self):
        projected = project_raw_system(raw_coding_system(MiConstants(0, 0, 0, 0, 0)))
        assert contains(projected, (0, 0, 0, 0, 0))
        assert not contains(projected, (1e-3, 0, 0, 0, 0))

    def test_zero_covering_drops_sum_inequality(self):
        c = MiConstants(1.5, 1.3, 0.7, 0.5, 0.0)
        projected = project_raw_system(raw_coding_system(c))
        keys = {i.key() for i in projected.system.inequalities}
        assert len(projected.system.inequalities) <= 5
        assert EQ5 not in keys
        direct = marton_region(
            # same constants through the public surface
            random_scheme(np.random.default_rng(0), (1, 1, 1), 2),
            noiseless_channel(2))
        # region equality against a hand-built five-row region
        from bcsi.polytope import LinearSystem
        rows = [
            LinearInequality(dict(zip(("R1", "R2", "R4"), [Fraction(1)] * 3)), c.i_u0u1_y1),
            LinearInequality(dict(zip(("R1", "R3", "R5"), [Fraction(1)] * 3)), c.i_u0u2_y2),
            LinearInequality(dict(zip(("R1", "R2", "R3", "R4"), [Fraction(1)] * 4)),
                             c.i_u0u1_y1 + c.i_u2_y2_given_u0),
            LinearInequality(dict(zip(("R1", "R2", "R3", "R5"), [Fraction(1)] * 4)),
                             c.i_u0u2_y2 + c.i_u1_y1_given_u0),
            LinearInequality({"R1": Fraction(2), "R2": Fraction(1), "R3": Fraction(1),
                              "R4": Fraction(1), "R5": Fraction(1)},
                             c.i_u0u1_y1 + c.i_u0u2_y2),
        ]
        direct = RateRegion(LinearSystem(RATE_VARS, rows))
        assert regions_equal(projected, direct)


class TestDeterministicRegion:
    def test_degenerate_u_identity_channel(self):
        ch = noiseless_channel(2)
        p_ux = JointPmf((Alphabet.indexed("U", 1), Alphabet.indexed("X", 2)),
                        np.array([[0.5, 0.5]]))
        region = deterministic_region(p_ux, ch)
        keyed = {i.key(): i.rhs for i in region.system.inequalities}
        assert keyed[EQ1] == pytest.approx(1.0, abs=1e-12)
        assert keyed[EQ3] == pytest.approx(1.0, abs=1e-12)
        assert keyed[EQ5] == pytest.approx(1.0, abs=1e-12)

    def test_blackwell_first_bound_is_output_entropy(self):
        ch = blackwell_channel()
        p_ux = JointPmf((Alphabet.indexed("U", 1), Alphabet.indexed("X", 3)),
                        np.full((1, 3), 1.0 / 3.0))
        region = deterministic_region(p_ux, ch)
        keyed = {i.key(): i.rhs for i in region.system.inequalities}
        assert keyed[EQ1] == pytest.approx(binary_entropy(1.0 / 3.0), abs=1e-9)

    def test_matches_marton_specialization(self, rng):
        for _ in range(4):
            x = int(rng.integers(2, 4))
            phi1 = rng.integers(0, 2, size=x).tolist()
            phi2 = rng.integers(0, 2, size=x).tolist()
            ch = deterministic_channel(phi1, phi2)
            p_ux = random_joint(rng, (2, x), names=("U", "X"))
            scheme = specialize_scheme("deterministic", p_ux, ch)
            assert regions_equal(marton_region(scheme, ch),
                                 deterministic_region(p_ux, ch))

    def test_noisy_channel_rejected(self, rng):
        p_ux = random_joint(rng, (2, 2), names=("U", "X"))
        with pytest.raises(InputError):
            deterministic_region(p_ux, binary_symmetric_pair(0.1, 0.1))


class TestMoreCapableRegion:
    def test_degenerate_u_pins_rx2_rates(self):
        ch = binary_symmetric_pair(0.1, 0.2)
        p_ux = JointPmf((Alphabet.indexed("U", 1), Alphabet.indexed("X", 2)),
                        np.array([[0.5, 0.5]]))
        region = more_capable_region(p_ux, ch)
        keyed = {i.key(): i.rhs for i in region.system.inequalities}
        assert keyed[EQ2] == pytest.approx(0.0, abs=1e-12)
        assert keyed[EQ3] == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-12)
        assert keyed[EQ4] == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-12)

    def test_u_equal_x(self):
        ch = binary_symmetric_pair(0.1, 0.2)
        p_ux = JointPmf((Alphabet.indexed("U", 2), Alphabet.indexed("X", 2)),
                        np.array([[0.5, 0.0], [0.0, 0.5]]))
        region = more_capable_region(p_ux, ch)
        keyed = {i.key(): i.rhs for i in region.system.inequalities}
        i_x_y2 = 1.0 - binary_entropy(0.2)
        i_x_y1 = 1.0 - binary_entropy(0.1)
        assert keyed[EQ2] == pytest.approx(i_x_y2, abs=1e-12)
        assert keyed[EQ4] == pytest.approx(i_x_y2, abs=1e-12)
        assert keyed[EQ3] == pytest.approx(i_x_y1, abs=1e-12)

    def test_matches_marton_specialization_and_redundancy(self, rng):
        for _ in range(4):
            ch = random_channel(rng, 2, 3, 2)
            p_ux = random_joint(rng, (3, 2), names=("U", "X"))
            scheme = specialize_scheme("more_capable", p_ux, ch)
            full = marton_region(scheme, ch)
            reduced = remove_redundant(full.system)
            keys = {i.key() for i in reduced.inequalities}
            assert EQ1 not in keys
            assert EQ5 not in keys
            assert regions_equal(full, more_capable_region(p_ux, ch))


class TestTheoremRows:
    """The float right-hand sides the optimizer evaluates, against the
    region builders and against loop-by-loop entropies."""

    def test_t1_rows_match_marton_region(self, rng):
        checked = 0
        for sizes in itertools.product((1, 2, 3), repeat=3):
            for _ in range(4):
                x = int(rng.integers(2, 4))
                ch = random_channel(rng, x, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
                scheme = random_scheme(rng, sizes, x)
                rhs, _ = _t1_rows(scheme.aux_joint.mass, np.asarray(scheme.gamma),
                                  ch.y1_given_x(), ch.y2_given_x())
                direct = [i.rhs for i in marton_region(scheme, ch).system.inequalities]
                np.testing.assert_allclose(rhs, direct, rtol=0.0, atol=1e-12)
                checked += 1
        assert checked >= 100

    def test_t1_rows_trivial_groups_give_exact_zeros(self, rng):
        """A single-cell group zeroes its information term by shape, as in
        mi_constants, so the two definitions agree on every such term exactly
        and on the right-hand sides up to float noise (bitwise when every
        term is trivial)."""
        for sizes in itertools.product((1, 2, 3), repeat=3):
            if 1 not in sizes:
                continue
            for _ in range(6):
                x = int(rng.integers(2, 4))
                ch = random_channel(rng, x, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
                scheme = random_scheme(rng, sizes, x)
                rhs, key = _t1_rows(scheme.aux_joint.mass, np.asarray(scheme.gamma),
                                    ch.y1_given_x(), ch.y2_given_x())
                c = mi_constants(scheme, ch)
                direct = [i.rhs for i in marton_region(scheme, ch).system.inequalities]
                u0, u1, u2 = sizes
                y1, y2 = ch.y1.size, ch.y2.size
                for trivial, ours, theirs in (
                        (1 in (u0 * u1, y1), key[0], c.i_u0u1_y1),
                        (1 in (u1, y1), key[1], c.i_u1_y1_given_u0),
                        (1 in (u0 * u2, y2), key[2], c.i_u0u2_y2),
                        (1 in (u2, y2), key[3], c.i_u2_y2_given_u0)):
                    if trivial:
                        assert ours == theirs == 0.0
                np.testing.assert_allclose(rhs, direct, rtol=0.0, atol=1e-12)
                if sizes == (1, 1, 1):
                    assert np.array_equal(rhs, direct)

    @staticmethod
    def _ux_joint(rng, ch):
        """Random p(u, x) with some zero cells, and the joint over
        (U, X, Y1, Y2) it induces through the channel."""
        u = int(rng.integers(1, 4))
        m = rng.random((u, ch.x.size)) * (rng.random((u, ch.x.size)) > 0.25)
        m[0, 0] += 0.05
        p_ux = m / m.sum()
        return p_ux, p_ux[:, :, None, None] * ch.kernel[None]

    def test_t2_rows_match_brute_entropies(self, rng):
        for _ in range(30):
            x = int(rng.integers(2, 5))
            ch = deterministic_channel(rng.integers(0, 3, size=x).tolist(),
                                       rng.integers(0, 3, size=x).tolist(), 3, 3)
            p_ux, j = self._ux_joint(rng, ch)

            def h(*axes):
                return brute_group_entropy(j, j.shape, list(axes))

            # axes: U X Y1 Y2
            h_y2_given_uy1 = h(0, 2, 3) - h(0, 2)
            h_y1_given_uy2 = h(0, 2, 3) - h(0, 3)
            i_u_y1 = h(0) + h(2) - h(0, 2)
            expect = [h(2), h(3), h(2) + h_y2_given_uy1, h(3) + h_y1_given_uy2,
                      i_u_y1 + h(3) + h_y1_given_uy2]
            kernel = _t2_kernel(ch.y1_given_x(), ch.y2_given_x())
            np.testing.assert_allclose(_t2_rows(p_ux, kernel), expect, rtol=0.0, atol=1e-12)

    @staticmethod
    def _sparse_ux(rng, b, u, x):
        """b tables p(u, x), about a third of the cells zero."""
        p_ux = rng.random((b, u, x)) * (rng.random((b, u, x)) > 0.35)
        p_ux[:, 0, 0] += 1e-3  # no all-zero table
        return p_ux / p_ux.sum(axis=(1, 2), keepdims=True)

    def test_t2_rows_match_the_per_entropy_oracle(self, rng):
        """One contraction and one log pass give the rows of one einsum and
        one entropy call per term, within 1e-12, on random deterministic
        channels; einsum may add in another order where an output alphabet
        has a single symbol, so the last bits can move there."""
        for _ in range(500):
            x = int(rng.integers(2, 9))
            m1, m2 = (int(v) for v in rng.integers(1, 5, size=2))
            ch = deterministic_channel(rng.integers(0, m1, size=x).tolist(),
                                       rng.integers(0, m2, size=x).tolist(), m1, m2)
            k1, k2 = ch.y1_given_x(), ch.y2_given_x()
            p_ux = self._sparse_ux(rng, int(rng.integers(1, 6)), int(rng.integers(1, 7)), x)
            np.testing.assert_allclose(_t2_rows(p_ux, _t2_kernel(k1, k2)),
                                       plain_t2_rows(p_ux, k1, k2), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("ch", [blackwell_channel(), noiseless_channel(2)],
                             ids=["blackwell", "noiseless2"])
    def test_t2_rows_equal_the_oracle_bitwise_on_the_benchmark_channels(self, rng, ch):
        k1, k2 = ch.y1_given_x(), ch.y2_given_x()
        for u in range(1, 10):
            p_ux = self._sparse_ux(rng, 50, u, ch.x.size)
            assert np.array_equal(_t2_rows(p_ux, _t2_kernel(k1, k2)), plain_t2_rows(p_ux, k1, k2))

    def test_t3_rows_match_brute_entropies(self, rng):
        for _ in range(30):
            ch = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                                int(rng.integers(2, 4)))
            p_ux, j = self._ux_joint(rng, ch)
            i_u_y2 = brute_mi(j, j.shape, [0], [3])
            expect = [i_u_y2, i_u_y2 + brute_cmi(j, j.shape, [1], [2], [0]),
                      brute_mi(j, j.shape, [1], [2])]
            np.testing.assert_allclose(_t3_rows(p_ux, ch.y1_given_x(), ch.y2_given_x()),
                                       expect, rtol=0.0, atol=1e-12)


    def test_batched_rows_equal_single_calls_bitwise(self, rng):
        """A row's value does not depend on the batch it is computed in."""
        for _ in range(20):
            x = int(rng.integers(2, 5))
            ch = random_channel(rng, x, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            k1, k2 = ch.y1_given_x(), ch.y2_given_x()
            sizes = tuple(int(s) for s in rng.integers(1, 4, size=3))
            b = int(rng.integers(1, 40))
            aux = rng.random((b,) + sizes) * (rng.random((b,) + sizes) > 0.3) + 1e-3
            aux /= aux.sum(axis=(1, 2, 3), keepdims=True)
            gamma = rng.integers(0, x, size=(b,) + sizes)
            rhs, key = _t1_rows(aux, gamma, k1, k2)
            # one joint shared by a batch of maps, as the t1 gamma search calls it
            rhs0, key0 = _t1_rows(aux[0], gamma, k1, k2)
            u = int(rng.integers(1, 5))
            p_ux = rng.random((b, u, x)) * (rng.random((b, u, x)) > 0.3) + 1e-3
            p_ux /= p_ux.sum(axis=(1, 2), keepdims=True)
            kernel = _t2_kernel(k1, k2)
            r2, r3 = _t2_rows(p_ux, kernel), _t3_rows(p_ux, k1, k2)
            assert rhs.shape == (b, 5) and key.shape == (b, 4)
            assert r2.shape == (b, 5) and r3.shape == (b, 3)
            for i in range(b):
                one_rhs, one_key = _t1_rows(aux[i], gamma[i], k1, k2)
                assert np.array_equal(rhs[i], one_rhs) and np.array_equal(key[i], one_key)
                one_rhs, one_key = _t1_rows(aux[0], gamma[i], k1, k2)
                assert np.array_equal(rhs0[i], one_rhs) and np.array_equal(key0[i], one_key)
                assert np.array_equal(r2[i], _t2_rows(p_ux[i], kernel))
                assert np.array_equal(r3[i], _t3_rows(p_ux[i], k1, k2))


class TestSpecializeScheme:
    def test_complementary_embedding(self):
        px = Pmf.from_values(Alphabet.indexed("X", 2), [0.3, 0.7])
        scheme = specialize_scheme("complementary", px, noiseless_channel(2))
        assert scheme.sizes == (2, 1, 1)
        assert np.allclose(scheme.aux_joint.mass[:, 0, 0], [0.3, 0.7])
        assert scheme.gamma[0, 0, 0] == 0 and scheme.gamma[1, 0, 0] == 1

    def test_deterministic_support(self, rng):
        ch = blackwell_channel()
        p_ux = random_joint(rng, (2, 3), names=("U", "X"))
        scheme = specialize_scheme("deterministic", p_ux, ch)
        f = scheme.aux_joint.mass
        # realizable output pairs for the maps {0,1->0; 2->1} and {0->0; 1,2->1}
        assert f[:, 0, 0].sum() == pytest.approx(p_ux.mass[:, 0].sum())
        assert f[:, 0, 1].sum() == pytest.approx(p_ux.mass[:, 1].sum())
        assert f[:, 1, 1].sum() == pytest.approx(p_ux.mass[:, 2].sum())
        assert f[:, 1, 0].sum() == 0.0
        # gamma picks the lowest-index consistent input
        assert scheme.gamma[0, 0, 0] == 0
        assert scheme.gamma[0, 0, 1] == 1
        assert scheme.gamma[0, 1, 1] == 2

    def test_degraded_rx2_mirrors_rx1(self, rng):
        p_ux = random_joint(rng, (2, 2), names=("U", "X"))
        s1 = specialize_scheme("degraded_rx1", p_ux, noiseless_channel(2))
        s2 = specialize_scheme("degraded_rx2", p_ux, noiseless_channel(2))
        assert s1.sizes == (2, 2, 1)
        assert s2.sizes == (2, 1, 2)
        assert np.allclose(s1.aux_joint.mass[:, :, 0],
                           s2.aux_joint.mass[:, 0, :])

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(InputError):
            specialize_scheme("nonsense", random_joint(rng, (2, 2)), noiseless_channel(2))


class TestComplementaryCollapse:
    def test_slice_is_two_single_user_bounds(self):
        ch = binary_symmetric_pair(0.1, 0.2)
        px = Pmf.uniform(Alphabet.indexed("X", 2))
        scheme = specialize_scheme("complementary", px, ch)
        region = marton_region(scheme, ch)
        sliced = fix_variables(region.system, {"R2": 0.0, "R3": 0.0})
        cleaned = remove_redundant(sliced)
        keyed = {i.key(): i.rhs for i in cleaned.inequalities}
        j = induced_joint(scheme, ch)
        i1 = mutual_information(j, ("X",), ("Y1",))
        i2 = mutual_information(j, ("X",), ("Y2",))
        assert set(keyed) == {key_of({"R1": 1, "R4": 1}), key_of({"R1": 1, "R5": 1})}
        assert keyed[key_of({"R1": 1, "R4": 1})] == pytest.approx(i1, abs=1e-12)
        assert keyed[key_of({"R1": 1, "R5": 1})] == pytest.approx(i2, abs=1e-12)


class TestMonotonicity:
    def test_larger_aux_support_never_shrinks_region(self, rng):
        ch = random_channel(rng, 2, 2, 2)
        small = random_scheme(rng, (2, 1, 1), 2)
        # embed in a larger support with zero mass on the extra cells
        big_mass = np.zeros((3, 2, 2))
        big_mass[:2, :1, :1] = small.aux_joint.mass
        axes = (Alphabet.indexed("U0", 3), Alphabet.indexed("U1", 2),
                Alphabet.indexed("U2", 2))
        big_gamma = np.zeros((3, 2, 2), dtype=np.int64)
        big_gamma[:2, 0, 0] = small.gamma[:, 0, 0]
        big = AuxScheme(JointPmf(axes, big_mass), big_gamma)
        r_small = marton_region(small, ch)
        r_big = marton_region(big, ch)
        pts = rng.random((50, 5)) * 0.4
        for p in pts:
            if contains(r_small, p):
                assert contains(r_big, p)
