import numpy as np
import pytest

from bcsi.classifier import (classify_all, is_degraded, is_deterministic,
                             is_less_noisy_grid, is_more_capable_grid)
from bcsi.probability import Channel, binary_symmetric_pair, blackwell_channel, product_channel
from conftest import random_channel, swap_receivers
from oracles import brute_mi

def degraded_pair():
    return binary_symmetric_pair(0.1, 0.2)


class TestDeterministic:
    def test_blackwell_true_with_maps(self):
        v = is_deterministic(blackwell_channel())
        assert v.holds
        assert v.witness["phi1"] == [0, 0, 1]
        assert v.witness["phi2"] == [0, 1, 1]

    def test_noisy_false_with_witness_row(self):
        v = is_deterministic(degraded_pair())
        assert not v.holds
        assert "row" in v.witness

    def test_point_mass_tolerance(self):
        rows = [[[1.0 - 1e-9, 1e-9], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 1.0]]]
        ch = Channel.from_rows(rows, 2, 2, 2)
        assert is_deterministic(ch).holds

    def test_verdict_configuration_free(self):
        # exactness: repeated calls agree
        a = is_deterministic(blackwell_channel())
        b = is_deterministic(blackwell_channel())
        assert a.holds == b.holds and a.witness == b.witness


class TestDegraded:
    def test_duplicate_outputs_identity_kernel(self):
        k = [[1.0, 0.0], [0.0, 1.0]]
        ch = product_channel(k, k)
        # Y2 = Y1 = X: degrading kernel is the identity
        v = is_degraded(ch)
        assert v.holds
        assert np.allclose(v.witness["kernel"], np.eye(2), atol=1e-7)

    def test_crossover_cascade_kernel(self):
        v = is_degraded(degraded_pair())
        assert v.holds
        # 0.1 then w solves 0.1(1-w) + 0.9w = 0.2 => w = 1/8
        assert np.allclose(v.witness["kernel"],
                           [[0.875, 0.125], [0.125, 0.875]], atol=1e-6)

    def test_blackwell_not_degraded(self):
        v = is_degraded(blackwell_channel())
        assert not v.holds
        assert v.witness["residual"] > 1e-9

    def test_false_witness_residual_is_sound(self):
        v = is_degraded(blackwell_channel())
        w = np.asarray(v.witness["kernel"])
        ch = blackwell_channel()
        residual = np.abs(ch.y1_given_x() @ w - ch.y2_given_x()).max()
        assert residual == pytest.approx(v.witness["residual"], abs=1e-7)
        assert residual > 1e-9


class TestMoreCapable:
    def test_noiseless_stronger_receiver(self):
        ch = product_channel([[1, 0], [0, 1]],
                             [[0.8, 0.2], [0.3, 0.7]])
        assert is_more_capable_grid(ch, 16).holds

    def test_swapped_degraded_pair_fails_with_witness(self):
        ch = swap_receivers(degraded_pair())
        v = is_more_capable_grid(ch, 32)
        assert not v.holds
        assert v.witness["gap"] < -1e-9
        # witness re-evaluates to a genuine violation
        from bcsi.classifier import _capability_gap
        p = np.asarray(v.witness["p_x"])
        assert _capability_gap(p, ch) < -1e-9

    def test_identical_kernels_are_borderline_true(self):
        k = [[0.8, 0.2], [0.25, 0.75]]
        ch = product_channel(k, k)
        v = is_more_capable_grid(ch, 16)
        assert v.holds
        assert v.grid_resolution == 16


class TestLessNoisy:
    def test_degraded_pair_true(self):
        assert is_less_noisy_grid(degraded_pair(), 2, 12).holds

    def test_swapped_pair_false_with_witness(self):
        ch = swap_receivers(degraded_pair())
        v = is_less_noisy_grid(ch, 2, 12)
        assert not v.holds
        j = np.asarray(v.witness["joint_ux"])
        p_uy1 = j @ ch.y1_given_x()
        p_uy2 = j @ ch.y2_given_x()
        gap = (brute_mi(p_uy1, p_uy1.shape, [0], [1])
               - brute_mi(p_uy2, p_uy2.shape, [0], [1]))
        assert gap < -1e-9

    def test_constant_second_output_true(self):
        ch = product_channel([[0.9, 0.1], [0.2, 0.8]], [[1.0], [1.0]])
        assert is_less_noisy_grid(ch, 2, 12).holds


class TestHierarchy:
    def test_inclusions_on_degraded_pair(self):
        ch = degraded_pair()
        verdicts = classify_all(ch, resolution=16)
        assert verdicts["degraded"].holds
        assert verdicts["less_noisy"].holds
        assert verdicts["more_capable"].holds

    def test_grid_never_contradicts_exact_degraded(self, rng):
        for _ in range(3):
            base = rng.random((2, 2)) + 0.1
            base /= base.sum(axis=1, keepdims=True)
            w = rng.random((2, 2)) + 0.1
            w /= w.sum(axis=1, keepdims=True)
            ch = product_channel(base.tolist(), (base @ w).tolist())
            assert is_degraded(ch).holds
            assert is_less_noisy_grid(ch, 2, 8).holds
            assert is_more_capable_grid(ch, 8).holds


def test_gap_batched_equals_single_calls_bitwise(rng):
    from bcsi.classifier import _gap
    for _ in range(20):
        u, x, y1, y2 = (int(v) for v in rng.integers(1, 5, size=4))
        ch = random_channel(rng, x, y1, y2)
        b = int(rng.integers(1, 70))
        joints = rng.random((b, u, x)) * (rng.random((b, u, x)) > 0.3)
        joints[:, 0, 0] += 1e-3
        joints /= joints.sum(axis=(1, 2), keepdims=True)
        batched = _gap(joints, ch)
        assert batched.shape == (b,)
        for i in range(b):
            assert batched[i] == _gap(joints[i], ch)


def test_gap_matches_brute_force_mutual_informations(rng):
    """The stacked, zero-padded gap kernel against I(U;Y1) - I(U;Y2) by loops,
    with receivers of different output sizes."""
    from bcsi.classifier import _gap
    for y1, y2 in ((2, 3), (3, 1), (4, 2)):
        ch = random_channel(rng, 3, y1, y2)
        joint = rng.random((2, 3))
        joint /= joint.sum()
        want = 0.0
        for k, kernel in ((1, ch.y1_given_x()), (-1, ch.y2_given_x())):
            p_uy = joint @ kernel
            want += k * brute_mi(p_uy, p_uy.shape, [0], [1])
        assert _gap(joint, ch) == pytest.approx(want, abs=1e-14)


def test_large_input_alphabet_samples_instead_of_enumerating(rng, monkeypatch):
    """A default classify on |X| = 16 would enumerate 300.5M more-capable
    lattice points; the more-capable grid samples above MORE_CAPABLE_CAP,
    the less-noisy grid above LATTICE_CAP. Only the lattices matter here,
    so the descent is skipped."""
    from conftest import random_channel, swap_receivers

    import bcsi.classifier as cl
    import bcsi.simplex_search as ss
    sizes = []
    inner = ss.lattice_points

    def recording(parts, resolution):
        sizes.append(ss.lattice_count(parts, resolution))
        return inner(parts, resolution)

    monkeypatch.setattr(ss, "lattice_points", recording)
    monkeypatch.setattr(cl, "refine_on_simplex",
                        lambda objective, starts, budget: (starts, objective(starts, None)))
    ch = random_channel(rng, 16, 2, 2)
    assert ss.lattice_count(16, 16) > cl.MORE_CAPABLE_CAP
    verdicts = classify_all(ch)
    assert max(sizes, default=0) <= cl.LATTICE_CAP
    assert verdicts["more_capable"].grid_resolution == 16
    assert verdicts["less_noisy"].grid_resolution == 8
