import numpy as np
import pytest

from oracles import plain_lattice_points, plain_refine

from bcsi.optimizer import _LHS5, _SupportOracle
from bcsi.probability import blackwell_channel
from bcsi.rate_regions import _t2_rows
from bcsi.simplex_search import (GOLDEN_ITERS, lattice_count, lattice_points,
                                 refine_on_simplex, sample_lattice)


class TestLattice:
    @pytest.mark.parametrize("parts,resolution", [(1, 3), (2, 2), (3, 4), (4, 5), (6, 3)])
    def test_points_match_recursive_enumeration(self, parts, resolution):
        points = lattice_points(parts, resolution)
        expected = plain_lattice_points(parts, resolution)
        assert points.shape == (lattice_count(parts, resolution), parts)
        assert np.array_equal(points, np.array(expected))

    def test_sample_draws_the_same_bars_as_a_loop(self):
        points = sample_lattice(np.random.default_rng(4), 5, 7, 30)
        rng = np.random.default_rng(4)
        for row in points:
            bars = np.sort(rng.choice(11, size=4, replace=False))
            masses = np.diff(np.concatenate([[-1], bars, [11]])) - 1
            assert np.array_equal(row, masses / 7)


def _starts(rng, k, n):
    """Dirichlet starts, some with zero cells (skipped pairs)."""
    starts = rng.dirichlet(np.ones(n), size=k)
    starts[rng.random((k, n)) < 0.3] = 0.0
    starts[:, 0] += 1e-3
    return starts / starts.sum(axis=1, keepdims=True)


class TestLockstepRefiner:
    """All starts advance together and each ends where refining it alone
    ends, bit for bit."""

    @staticmethod
    def _check(objective, starts, budget):
        points, values = refine_on_simplex(objective, starts, budget)
        for r, start in enumerate(starts):
            x, best = plain_refine(lambda p, r=r: objective(p[None], np.array([r]))[0],
                                   start, budget)
            assert np.array_equal(points[r], x)
            assert values[r] == best

    def test_matches_plain_refiner_on_concave_objectives(self, rng):
        for _ in range(6):
            k, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            targets = rng.dirichlet(np.ones(n), size=k)

            def objective(points, which):
                return -((points - targets[which]) ** 2).sum(axis=-1)

            for budget in (1, 5 * (GOLDEN_ITERS + 1), 2500):
                self._check(objective, _starts(rng, k, n), budget)

    def test_matches_plain_refiner_on_t2_values(self, rng):
        ch = blackwell_channel()
        k1, k2 = ch.y1_given_x(), ch.y2_given_x()
        for _ in range(3):
            oracle = _SupportOracle(_LHS5, rng.random(5))

            def objective(points, which):
                return oracle.value(_t2_rows(points.reshape(-1, 3, 3), k1, k2))

            self._check(objective, _starts(rng, 4, 9), 2500)
