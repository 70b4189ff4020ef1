import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsi.errors import GuardError, InputError
from bcsi.probability import (Alphabet, AuxScheme, Channel, JointPmf, Pmf,
                              EXPONENT_CAP, binary_symmetric_pair, exact_number,
                              induced_joint, load_aux_scheme, load_channel, load_ux_joint,
                              noiseless_channel, validate_mass)
from conftest import random_joint, random_scheme
from oracles import brute_marginal


def pmf_of(*vals):
    return Pmf.from_values(Alphabet.indexed("X", len(vals)), list(vals))


class TestValidatePmf:
    def test_uniform_binary_ok(self):
        assert validate_mass(pmf_of(0.5, 0.5).mass, 2) is None

    def test_sum_violation_names_deficit(self):
        msg = validate_mass(np.array([1.0, 0.1]), 2)
        assert msg == "sum = 1.1"

    def test_negative_zero_is_ok(self):
        p = pmf_of(1.0, -0.0)
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
    """Entries are parsed exactly, checked, and stored as float64."""

    def test_rational_strings_stored_as_float(self):
        p = Pmf.from_values(Alphabet.indexed("X", 3), ["1/3", "1/3", "1/3"])
        assert p.mass.dtype == np.float64
        assert p.mass.tolist() == [float(Fraction(1, 3))] * 3

    def test_exact_renormalization_is_exact(self):
        p = Pmf.from_values(Alphabet.indexed("X", 2), ["1/3", "2/3"])
        assert sum(p.mass) == Fraction(1)

    def test_loaded_masses_are_read_only_float64(self):
        ch = load_channel({"x_size": 2, "y1_size": 2, "y2_size": 1,
                           "kernel": [["1/2", 0.5], [1, "0"]]})
        scheme = load_aux_scheme({"u_sizes": [2, 1, 1], "joint": ["1/4", 0.75],
                                  "gamma": [0, 1]})
        p_ux = load_ux_joint({"u_size": 1, "x_size": 2, "joint": [1, "0"]})
        joint = induced_joint(scheme, ch)
        for mass in (ch.kernel, ch.y1_given_x(), ch.y2_given_x(), scheme.aux_joint.mass,
                     p_ux.mass, joint.mass, joint.marginal(["Y1"]).mass):
            assert mass.dtype == np.float64
            assert not mass.flags.writeable


class TestExactNumber:
    @given(st.sampled_from(["", "-", "+", " "]), st.integers(0, 10 ** 6),
           st.sampled_from(["", ".", ".25", ".000"]), st.sampled_from(["e", "E"]),
           st.integers(-EXPONENT_CAP - 1, EXPONENT_CAP + 1))
    @settings(max_examples=200, deadline=None)
    def test_ordinary_exponents_parse_exactly(self, sign, digits, point, e, exponent):
        text = f"{sign}{digits}{point}{e}{exponent}"
        assert exact_number(text) == Fraction(text)

    def test_far_exponents_keep_sign_and_side_of_every_float(self):
        tiny, huge = Fraction(1, 10 ** EXPONENT_CAP), 10 ** EXPONENT_CAP
        for text, sign, far in (("1e-9999999", 1, "tiny"), ("-1e-9999999", -1, "tiny"),
                                ("123.5e-99999999999", 1, "tiny"), ("1e9999999", 1, "huge"),
                                ("-0.001e99999999", -1, "huge"), ("0e99999999", 0, "tiny")):
            value = exact_number(text)
            assert (value > 0) - (value < 0) == sign
            assert abs(value) < tiny if far == "tiny" else abs(value) > huge

    def test_other_inputs_are_fractions_of_themselves(self):
        assert exact_number("1/3") == Fraction(1, 3)
        assert exact_number(7) == 7
        assert exact_number(0.1) == Fraction(0.1)
        with pytest.raises(ValueError):
            exact_number("1e")


class TestMarginalizeCondition:
    def test_uniform_pair_keep_first(self):
        j = JointPmf.uniform((Alphabet.indexed("A", 2), Alphabet.indexed("B", 2)))
        m = j.marginal(["A"])
        assert np.allclose(m.mass, [0.5, 0.5])

    def test_point_mass_keep_second(self):
        axes = (Alphabet.indexed("A", 2), Alphabet.indexed("B", 3))
        mass = np.zeros((2, 3))
        mass[0, 1] = 1.0
        j = JointPmf(axes, mass)
        m = j.marginal(["B"])
        assert np.allclose(m.mass, [0.0, 1.0, 0.0])

    def test_keep_all_is_identity(self, rng):
        j = random_joint(rng, (2, 3, 2))
        m = j.marginal(["A0", "A1", "A2"])
        assert np.allclose(m.mass, j.mass)

    def test_empty_keep_rejected(self, rng):
        j = random_joint(rng, (2, 2))
        with pytest.raises(InputError):
            j.marginal([])


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
        m = j.marginal([0])
        assert abs(float(m.mass.sum()) - 1.0) < 1e-12

    @given(small_joint())
    @settings(max_examples=40, deadline=None)
    def test_marginalize_idempotent(self, j):
        m1 = j.marginal([0, 1])
        m2 = m1.marginal([0, 1])
        assert np.allclose(m1.mass, m2.mass)

    @given(small_joint())
    @settings(max_examples=40, deadline=None)
    def test_keep_order_is_original_axis_order(self, j):
        a = j.marginal([0, 1])
        b = j.marginal([1, 0])
        assert a.axes == b.axes
        assert np.allclose(a.mass, b.mass)


class TestInducedJoint:
    def test_point_mass_scheme_noiseless(self):
        axes = tuple(Alphabet.indexed(f"U{i}", 1) for i in range(3))
        aux = JointPmf(axes, np.array([[[1.0]]]))
        scheme = AuxScheme(aux, np.array([[[1]]]))
        ch = noiseless_channel(2)
        j = induced_joint(scheme, ch)
        assert j.mass[0, 0, 0, 1, 1, 1] == pytest.approx(1.0)
        assert j.mass.sum() == pytest.approx(1.0)

    def test_uniform_cloud_identity_map(self):
        axes = (Alphabet.indexed("U0", 2), Alphabet.indexed("U1", 1),
                Alphabet.indexed("U2", 1))
        aux = JointPmf(axes, np.array([[[0.5]], [[0.5]]]))
        scheme = AuxScheme(aux, np.array([[[0]], [[1]]]))
        j = induced_joint(scheme, noiseless_channel(2))
        f = j.mass
        assert f[0, 0, 0, 0, 0, 0] == pytest.approx(0.5)
        assert f[1, 0, 0, 1, 1, 1] == pytest.approx(0.5)

    def test_marginal_over_aux_reproduces_joint(self, rng):
        scheme = random_scheme(rng, (2, 2, 2), 2)
        ch = binary_symmetric_pair(0.1, 0.25)
        j = induced_joint(scheme, ch)
        # direct summation oracle over (x, y1, y2)
        f = j.mass
        back = brute_marginal(f, f.shape, [0, 1, 2])
        for (a, b, c), v in back.items():
            assert abs(v - float(scheme.aux_joint.mass[a, b, c])) < 1e-12

    def test_rational_inputs_reproduce_their_floats(self):
        axes = (Alphabet.indexed("U0", 2), Alphabet.indexed("U1", 1),
                Alphabet.indexed("U2", 1))
        aux = JointPmf.from_values(axes, ["1/3", "2/3"])
        scheme = AuxScheme(aux, np.array([[[0]], [[1]]]))
        ch = Channel.from_rows([[["1", "0"], ["0", "0"]],
                                [["0", "0"], ["0", "1"]]], 2, 2, 2)
        j = induced_joint(scheme, ch)
        m = j.marginal(["U0", "U1", "U2"])
        assert m.mass[0, 0, 0] == float(Fraction(1, 3))
        assert m.mass[1, 0, 0] == float(Fraction(2, 3))

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

    @pytest.mark.parametrize("build", [
        lambda axes: JointPmf(axes, np.zeros(1)),
        lambda axes: JointPmf.from_values(axes, []),
        lambda axes: load_aux_scheme({"u_sizes": [4000, 4000, 1], "joint": [], "gamma": []}),
    ], ids=["init", "from_values", "scheme_file"])
    def test_joint_cap_checked_before_the_mass(self, build):
        # each mass is malformed too: the cap is checked first
        axes = (Alphabet.indexed("A", 4000), Alphabet.indexed("B", 4000))
        with pytest.raises(GuardError, match="^joint over 16000000 cells exceeds dense cap"):
            build(axes)


class TestLoaders:
    def test_channel_roundtrip(self, tmp_path):
        path = tmp_path / "ch.json"
        spec = {"x_size": 2, "y1_size": 2, "y2_size": 1,
                "kernel": [["0.9", "0.1"], ["1/4", "3/4"]]}
        path.write_text(json.dumps(spec))
        ch = load_channel(str(path))
        assert ch.kernel.tolist() == [[[0.9], [0.1]], [[0.25], [0.75]]]

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
        assert np.allclose(ch.kernel, 0.25)

    def test_float_kernels_made_once_and_read_only(self):
        ch = Channel.from_rows([["1/2", "1/4", "1/8", "1/8"], ["0", "1/3", "1/3", "1/3"]],
                               2, 2, 2)
        for get, expected in ((lambda: ch.kernel, [[[0.5, 0.25], [0.125, 0.125]],
                                                 [[0.0, 1 / 3], [1 / 3, 1 / 3]]]),
                              (ch.y1_given_x, [[0.75, 0.25], [1 / 3, 2 / 3]]),
                              (ch.y2_given_x, [[0.625, 0.375], [1 / 3, 2 / 3]])):
            first = get()
            assert get() is first
            assert not first.flags.writeable
            np.testing.assert_allclose(first, expected, rtol=0.0, atol=1e-15)
            with pytest.raises(ValueError):
                first[0, 0] = 1.0
