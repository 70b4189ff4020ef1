import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsi.errors import GuardError, InputError
from bcsi.probability import (Alphabet, AuxScheme, Channel, JointPmf, Pmf,
                              binary_symmetric_pair, condition, induced_joint,
                              load_aux_scheme, load_channel, marginalize,
                              noiseless_channel, validate_mass, validate_pmf)
from conftest import random_joint, random_scheme
from oracles import brute_marginal


def pmf_of(*vals):
    return Pmf.from_values(Alphabet.indexed("X", len(vals)), list(vals))


class TestValidatePmf:
    def test_uniform_binary_ok(self):
        assert validate_pmf(pmf_of(0.5, 0.5)) is None

    def test_sum_violation_names_deficit(self):
        msg = validate_mass(np.array([1.0, 0.1]), 2)
        assert msg == "sum = 1.1"

    def test_negative_zero_is_ok(self):
        p = pmf_of(1.0, -0.0)
        assert validate_pmf(p) is None
        # scrubbed to +0.0 at construction
        assert str(p.mass[1]) == "0.0"

    def test_negative_mass_names_index(self):
        msg = validate_mass(np.array([1.2, -0.2]), 2)
        assert "mass[1]" in msg

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass_names_index(self, bad):
        msg = validate_mass(np.array([0.5, bad, 0.5]), 3)
        assert msg == f"mass[1] = {bad} is not finite"

    def test_nan_kernel_entry_rejected_at_load(self):
        spec = {"x_size": 2, "y1_size": 2, "y2_size": 2,
                "kernel": [[float("nan"), 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]]}
        with pytest.raises(InputError, match=r"mass\[0\] = nan is not finite"):
            load_channel(spec)

    def test_construction_rejects_bad_mass(self):
        with pytest.raises(InputError):
            pmf_of(0.7, 0.7)

    def test_tolerant_renormalization_happens_once(self):
        p = Pmf.from_values(Alphabet.indexed("X", 2), [0.5 + 4e-10, 0.5])
        assert abs(float(p.mass.sum()) - 1.0) < 1e-15


class TestExactBacking:
    def test_rational_strings_stay_exact(self):
        p = Pmf.from_values(Alphabet.indexed("X", 3), ["1/3", "1/3", "1/3"])
        assert p.exact
        assert p.mass[0] == Fraction(1, 3)
        assert sum(p.mass) == 1

    def test_exact_renormalization_is_exact(self):
        p = Pmf.from_values(Alphabet.indexed("X", 2), ["1/3", "2/3"])
        assert sum(p.mass) == Fraction(1)

    def test_float_entry_demotes_to_float(self):
        p = Pmf.from_values(Alphabet.indexed("X", 2), ["1/2", 0.5])
        assert not p.exact


class TestMarginalizeCondition:
    def test_uniform_pair_keep_first(self):
        j = JointPmf.uniform((Alphabet.indexed("A", 2), Alphabet.indexed("B", 2)))
        m = marginalize(j, ["A"])
        assert np.allclose(m.as_float(), [0.5, 0.5])

    def test_point_mass_keep_second(self):
        axes = (Alphabet.indexed("A", 2), Alphabet.indexed("B", 3))
        mass = np.zeros((2, 3))
        mass[0, 1] = 1.0
        j = JointPmf(axes, mass)
        m = marginalize(j, ["B"])
        assert np.allclose(m.as_float(), [0.0, 1.0, 0.0])

    def test_keep_all_is_identity(self, rng):
        j = random_joint(rng, (2, 3, 2))
        m = marginalize(j, ["A0", "A1", "A2"])
        assert np.allclose(m.as_float(), j.as_float())

    def test_empty_keep_rejected(self, rng):
        j = random_joint(rng, (2, 2))
        with pytest.raises(InputError):
            marginalize(j, [])

    def test_condition_independent_pair(self):
        j = JointPmf.uniform((Alphabet.indexed("A", 2), Alphabet.indexed("B", 2)))
        c = condition(j, ["A"], (0,))
        assert np.allclose(c.as_float(), [0.5, 0.5])

    def test_condition_correlated_pair(self):
        axes = (Alphabet.indexed("A", 2), Alphabet.indexed("B", 2))
        j = JointPmf(axes, np.array([[0.5, 0.0], [0.0, 0.5]]))
        c = condition(j, ["A"], (1,))
        assert np.allclose(c.as_float(), [0.0, 1.0])

    def test_condition_zero_mass_event_rejected(self):
        axes = (Alphabet.indexed("A", 2), Alphabet.indexed("B", 2))
        j = JointPmf(axes, np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InputError):
            condition(j, ["A"], (1,))

    def test_condition_then_marginalize_matches_slice_oracle(self, rng):
        j = random_joint(rng, (3, 2, 3))
        c = condition(j, ["A1"], (1,))
        m = marginalize(c, ["A0"])
        # oracle: slice by loops, normalize, sum out the last axis
        raw = brute_marginal(j.as_float(), (3, 2, 3), [0, 1, 2])
        sliced = {k: v for k, v in raw.items() if k[1] == 1}
        total = sum(sliced.values())
        expect = [sum(v for k, v in sliced.items() if k[0] == a) / total
                  for a in range(3)]
        assert np.allclose(m.as_float(), expect, atol=1e-12)


@st.composite
def small_joint(draw):
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    weights = draw(st.lists(st.integers(1, 30),
                            min_size=int(np.prod(sizes)),
                            max_size=int(np.prod(sizes))))
    mass = np.asarray(weights, dtype=np.float64).reshape(sizes)
    mass /= mass.sum()
    axes = tuple(Alphabet.indexed(f"A{i}", s) for i, s in enumerate(sizes))
    return JointPmf(axes, mass)


class TestJointProperties:
    @given(small_joint())
    @settings(max_examples=40, deadline=None)
    def test_marginal_mass_is_one(self, j):
        m = marginalize(j, [0])
        assert abs(float(m.as_float().sum()) - 1.0) < 1e-12

    @given(small_joint())
    @settings(max_examples=40, deadline=None)
    def test_marginalize_idempotent(self, j):
        m1 = marginalize(j, [0, 1])
        m2 = marginalize(m1, [0, 1])
        assert np.allclose(m1.as_float(), m2.as_float())

    @given(small_joint())
    @settings(max_examples=40, deadline=None)
    def test_keep_order_is_original_axis_order(self, j):
        a = marginalize(j, [0, 1])
        b = marginalize(j, [1, 0])
        assert a.names == b.names
        assert np.allclose(a.as_float(), b.as_float())


class TestInducedJoint:
    def test_point_mass_scheme_noiseless(self):
        axes = tuple(Alphabet.indexed(f"U{i}", 1) for i in range(3))
        aux = JointPmf(axes, np.array([[[1.0]]]))
        scheme = AuxScheme(aux, np.array([[[1]]]))
        ch = noiseless_channel(2)
        j = induced_joint(scheme, ch)
        assert j.as_float()[0, 0, 0, 1, 1, 1] == pytest.approx(1.0)
        assert j.as_float().sum() == pytest.approx(1.0)

    def test_uniform_cloud_identity_map(self):
        axes = (Alphabet.indexed("U0", 2), Alphabet.indexed("U1", 1),
                Alphabet.indexed("U2", 1))
        aux = JointPmf(axes, np.array([[[0.5]], [[0.5]]]))
        scheme = AuxScheme(aux, np.array([[[0]], [[1]]]))
        j = induced_joint(scheme, noiseless_channel(2))
        f = j.as_float()
        assert f[0, 0, 0, 0, 0, 0] == pytest.approx(0.5)
        assert f[1, 0, 0, 1, 1, 1] == pytest.approx(0.5)

    def test_marginal_over_aux_reproduces_joint(self, rng):
        scheme = random_scheme(rng, (2, 2, 2), 2)
        ch = binary_symmetric_pair(0.1, 0.25)
        j = induced_joint(scheme, ch)
        # direct summation oracle over (x, y1, y2)
        f = j.as_float()
        back = brute_marginal(f, f.shape, [0, 1, 2])
        for (a, b, c), v in back.items():
            assert abs(v - float(scheme.aux_joint.as_float()[a, b, c])) < 1e-12

    def test_exact_inputs_reproduce_exactly(self):
        axes = (Alphabet.indexed("U0", 2), Alphabet.indexed("U1", 1),
                Alphabet.indexed("U2", 1))
        aux = JointPmf.from_values(axes, ["1/3", "2/3"])
        scheme = AuxScheme(aux, np.array([[[0]], [[1]]]))
        ch = Channel.from_rows([[["1", "0"], ["0", "0"]],
                                [["0", "0"], ["0", "1"]]], 2, 2, 2)
        j = induced_joint(scheme, ch)
        assert j.exact
        m = marginalize(j, ["U0", "U1", "U2"])
        assert m.mass[0, 0, 0] == Fraction(1, 3)
        assert m.mass[1, 0, 0] == Fraction(2, 3)

    def test_gamma_out_of_range_rejected(self, rng):
        scheme = random_scheme(rng, (2, 1, 1), 4)
        if int(scheme.gamma.max()) < 2:
            scheme = AuxScheme(scheme.aux_joint, np.array([[[3]], [[0]]]))
        with pytest.raises(InputError):
            induced_joint(scheme, noiseless_channel(2))


class TestGuards:
    def test_dense_cap_enforced(self):
        axes = (Alphabet.indexed("A", 4000), Alphabet.indexed("B", 4000))
        with pytest.raises(GuardError):
            JointPmf.uniform(axes)


class TestLoaders:
    def test_channel_roundtrip(self, tmp_path):
        path = tmp_path / "ch.json"
        spec = {"x_size": 2, "y1_size": 2, "y2_size": 1,
                "kernel": [["0.9", "0.1"], ["1/4", "3/4"]]}
        path.write_text(json.dumps(spec))
        ch = load_channel(str(path))
        assert ch.exact
        assert ch.kernel[1][0][0] == Fraction(1, 4)

    def test_channel_bad_row_sum(self, tmp_path):
        path = tmp_path / "ch.json"
        spec = {"x_size": 1, "y1_size": 2, "y2_size": 1, "kernel": [[0.9, 0.3]]}
        path.write_text(json.dumps(spec))
        with pytest.raises(InputError):
            load_channel(str(path))

    def test_aux_scheme_roundtrip(self, tmp_path):
        path = tmp_path / "aux.json"
        spec = {"u_sizes": [2, 1, 1], "joint": ["1/2", "1/2"], "gamma": [0, 1]}
        path.write_text(json.dumps(spec))
        scheme = load_aux_scheme(str(path))
        assert scheme.sizes == (2, 1, 1)
        assert scheme.gamma[1, 0, 0] == 1

    def test_nested_kernel_rows_accepted(self, tmp_path):
        path = tmp_path / "ch.json"
        spec = {"x_size": 1, "y1_size": 2, "y2_size": 2,
                "kernel": [[[0.25, 0.25], [0.25, 0.25]]]}
        path.write_text(json.dumps(spec))
        ch = load_channel(str(path))
        assert np.allclose(ch.kernel_float(), 0.25)
