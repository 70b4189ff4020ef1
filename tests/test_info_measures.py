import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsi.errors import InputError
from bcsi.info_measures import conditional_mutual_information, entropy, mutual_information
from bcsi.probability import Alphabet, JointPmf, Pmf
from conftest import csiszar_sum_check, random_joint
from oracles import binary_entropy, brute_cmi, brute_mi


def joint2(mass):
    mass = np.asarray(mass, dtype=np.float64)
    axes = tuple(Alphabet.indexed(n, s) for n, s in zip("AB", mass.shape))
    return JointPmf(axes, mass)


class TestEntropy:
    def test_uniform_binary(self):
        p = Pmf.from_values(Alphabet.indexed("X", 2), [0.5, 0.5])
        assert entropy(p) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        p = Pmf.from_values(Alphabet.indexed("X", 2), [1.0, 0.0])
        assert entropy(p) == 0.0
        assert math.copysign(1.0, entropy(p)) == 1.0  # +0.0, not -0.0

    def test_entropy_rows_signs(self, rng):
        """Point masses give +0.0 in every row; every other row keeps the
        bits of the negated sum."""
        from bcsi.info_measures import _entropy_rows
        rows = rng.dirichlet(np.ones(4), size=20)
        rows[rng.random((20, 4)) < 0.4] = 0.0
        rows[::5] = np.eye(4)[rng.integers(0, 4, size=4)]
        rows[rows.sum(axis=1) == 0.0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        h = _entropy_rows(rows, 1)
        for row, value in zip(rows, h):
            if np.count_nonzero(row) == 1:
                assert value == 0.0 and math.copysign(1.0, value) == 1.0
            else:
                total = (row * np.log2(np.where(row > 0.0, row, 1.0))).sum()
                assert value == -total and value > 0.0
        assert math.copysign(1.0, float(entropy(np.array([1.0, 0.0])))) == 1.0

    def test_third_two_thirds_closed_form(self):
        # H(1/3) = log2(3) - 2/3
        p = Pmf.from_values(Alphabet.indexed("X", 2), ["1/3", "2/3"])
        assert entropy(p) == pytest.approx(math.log2(3) - 2.0 / 3.0, abs=1e-14)
        assert entropy(p) == pytest.approx(0.9182958340544896, abs=1e-12)


class TestMutualInformation:
    def test_independent_pair_is_zero(self):
        j = joint2([[0.25, 0.25], [0.25, 0.25]])
        assert mutual_information(j, ["A"], ["B"]) == 0.0

    def test_noiseless_binary_is_one(self):
        j = joint2([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(j, ["A"], ["B"]) == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_crossover_011(self):
        q = 0.11
        j = joint2([[0.5 * (1 - q), 0.5 * q], [0.5 * q, 0.5 * (1 - q)]])
        expect = 1.0 - binary_entropy(q)
        assert mutual_information(j, ["A"], ["B"]) == pytest.approx(expect, abs=1e-12)

    def test_overlapping_groups_rejected(self):
        j = joint2([[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(InputError):
            mutual_information(j, ["A"], ["A"])

    def test_matches_brute_oracle(self, rng):
        j = random_joint(rng, (3, 2, 2))
        got = mutual_information(j, ["A0"], ["A1", "A2"])
        want = brute_mi(j.mass, (3, 2, 2), [0], [1, 2])
        assert got == pytest.approx(want, abs=1e-12)


class TestConditionalMutualInformation:
    def test_degenerate_condition_equals_mi(self, rng):
        j = random_joint(rng, (2, 2, 1))
        cmi = conditional_mutual_information(j, ["A0"], ["A1"], ["A2"])
        mi = mutual_information(j, ["A0"], ["A1"])
        assert cmi == pytest.approx(mi, abs=1e-14)

    def test_identical_variables_given_themselves(self):
        # A = B = C uniform: I(A;B|C) = 0
        mass = np.zeros((2, 2, 2))
        mass[0, 0, 0] = 0.5
        mass[1, 1, 1] = 0.5
        axes = tuple(Alphabet.indexed(n, 2) for n in "ABC")
        j = JointPmf(axes, mass)
        assert conditional_mutual_information(j, ["A"], ["B"], ["C"]) == 0.0

    def test_matches_entropy_decomposition_oracle(self, rng):
        j = random_joint(rng, (2, 2, 2))
        got = conditional_mutual_information(j, ["A0"], ["A1"], ["A2"])
        want = brute_cmi(j.mass, (2, 2, 2), [0], [1], [2])
        assert got == pytest.approx(want, abs=1e-12)

    def test_markov_chain_gives_zero(self):
        # A -> C -> B: I(A;B|C) = 0
        rng = np.random.default_rng(5)
        pa = rng.random(2) + 0.1
        pa /= pa.sum()
        pc_a = rng.random((2, 3)) + 0.1
        pc_a /= pc_a.sum(axis=1, keepdims=True)
        pb_c = rng.random((3, 2)) + 0.1
        pb_c /= pb_c.sum(axis=1, keepdims=True)
        mass = np.einsum("a,ac,cb->abc", pa, pc_a, pb_c)
        axes = (Alphabet.indexed("A", 2), Alphabet.indexed("B", 2),
                Alphabet.indexed("C", 3))
        j = JointPmf(axes, mass)
        assert conditional_mutual_information(j, ["A"], ["B"], ["C"]) \
            == pytest.approx(0.0, abs=1e-12)


@st.composite
def weighted_joint(draw, sizes):
    cells = int(np.prod(sizes))
    weights = draw(st.lists(st.integers(1, 40), min_size=cells, max_size=cells))
    mass = np.asarray(weights, dtype=np.float64).reshape(sizes)
    mass /= mass.sum()
    axes = tuple(Alphabet.indexed(f"A{i}", s) for i, s in enumerate(sizes))
    return JointPmf(axes, mass)


class TestProperties:
    @given(weighted_joint((2, 2, 2)))
    @settings(max_examples=50, deadline=None)
    def test_chain_rule(self, j):
        lhs = mutual_information(j, ["A0", "A1"], ["A2"])
        rhs = mutual_information(j, ["A0"], ["A2"]) + \
            conditional_mutual_information(j, ["A1"], ["A2"], ["A0"])
        assert lhs == pytest.approx(rhs, abs=1e-10)

    @given(weighted_joint((2, 3)))
    @settings(max_examples=50, deadline=None)
    def test_conditioning_reduces_entropy(self, j):
        ha = entropy(j.marginal(["A0"]))
        hab = entropy(j)
        hb = entropy(j.marginal(["A1"]))
        assert hab - hb <= ha + 1e-10  # H(A|B) <= H(A)

    @given(weighted_joint((2, 2, 2)))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_after_clamp(self, j):
        assert mutual_information(j, ["A0"], ["A1"]) >= 0.0
        assert conditional_mutual_information(j, ["A0"], ["A1"], ["A2"]) >= 0.0


class TestCsiszarSum:
    def test_n1_both_sides_zero(self, rng):
        j = random_joint(rng, (2, 2, 2), names=("T", "A1", "B1"))
        lhs, rhs = csiszar_sum_check(j, ["T"], ["A1"], ["B1"])
        assert lhs == 0.0 and rhs == 0.0

    def test_conditionally_independent_sequences(self):
        rng = np.random.default_rng(3)
        pt = np.array([0.4, 0.6])
        pa = rng.random((2, 2, 2)) + 0.1
        pa /= pa.sum(axis=(1, 2), keepdims=True)
        pb = rng.random((2, 2, 2)) + 0.1
        pb /= pb.sum(axis=(1, 2), keepdims=True)
        mass = np.einsum("t,tab,tcd->tabcd", pt, pa, pb)
        axes = (Alphabet.indexed("T", 2), Alphabet.indexed("A1", 2),
                Alphabet.indexed("A2", 2), Alphabet.indexed("B1", 2),
                Alphabet.indexed("B2", 2))
        j = JointPmf(axes, mass)
        lhs, rhs = csiszar_sum_check(j, ["T"], ["A1", "A2"], ["B1", "B2"])
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_identity_on_random_joints(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            n = int(rng.integers(2, 4))
            sizes = (2,) + (2,) * (2 * n)
            m = rng.random(sizes) + 0.01
            m /= m.sum()
            names = ["T"] + [f"A{i}" for i in range(1, n + 1)] + \
                [f"B{i}" for i in range(1, n + 1)]
            axes = tuple(Alphabet.indexed(nm, 2) for nm in names)
            j = JointPmf(axes, m)
            lhs, rhs = csiszar_sum_check(j, ["T"],
                                         [f"A{i}" for i in range(1, n + 1)],
                                         [f"B{i}" for i in range(1, n + 1)])
            assert abs(lhs - rhs) <= 1e-9

    def test_mismatched_roles_rejected(self, rng):
        j = random_joint(rng, (2, 2, 2), names=("T", "A1", "B1"))
        with pytest.raises(InputError):
            csiszar_sum_check(j, ["T"], ["A1", "A1"], ["B1", "B1"])
