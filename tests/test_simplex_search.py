import numpy as np
import pytest

from oracles import plain_lattice_points, plain_refine

from bcsi.optimizer import _LHS5, _SupportOracle
from bcsi.probability import blackwell_channel
from bcsi.rate_regions import _t2_rows
from bcsi.simplex_search import (GRID_POINTS, GRID_STAGES, grid_max_1d, lattice_count,
                                 lattice_points, refine_on_simplex, sample_lattice)


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
    ends, bit for bit, against a scalar staged-grid oracle that values each
    accepted point afresh."""

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

            for budget in (1, 5, 120):
                self._check(objective, _starts(rng, k, n), budget)

    def test_matches_plain_refiner_on_t2_values(self, rng):
        ch = blackwell_channel()
        k1, k2 = ch.y1_given_x(), ch.y2_given_x()
        for _ in range(3):
            oracle = _SupportOracle(_LHS5, rng.random(5))

            def objective(points, which):
                return oracle.value(_t2_rows(points.reshape(-1, 3, 3), k1, k2))

            self._check(objective, _starts(rng, 4, 9), 120)


# The bracket after the last stage: each stage keeps 2 of its 15 steps.
FINAL_BRACKET = (2 / (GRID_POINTS - 1)) ** GRID_STAGES


class TestStagedGrid:
    def test_precision_on_concave_quadratics(self, rng):
        lo = -rng.random(200)
        hi = rng.random(200)
        peak = lo + (hi - lo) * rng.random(200)
        peak[:3] = lo[:3]  # optima at an end
        peak[3:6] = hi[3:6]
        t, val = grid_max_1d(lambda ts: -(ts - peak[:, None]) ** 2, lo, hi)
        assert np.all(np.abs(t - peak) <= (hi - lo) * FINAL_BRACKET)
        assert np.array_equal(val, -(t - peak) ** 2)
        assert np.array_equal(t[:3], lo[:3]) and np.array_equal(t[3:6], hi[3:6])

    def test_kinks_keep_the_best_point_scored(self, rng):
        # a peak on a first-stage grid point is never scored again
        lo = np.concatenate([np.zeros(3), -rng.random(200)])
        hi = np.concatenate([np.full(3, 15.0), rng.random(200)])
        peak = lo + (hi - lo) * rng.random(len(lo))
        peak[:3] = (7.0, 1.0, 13.0)
        scored = []

        def f(ts):
            vals = -np.abs(ts - peak[:, None])
            scored.append(vals.max(axis=1))
            return vals

        t, val = grid_max_1d(f, lo, hi)
        assert np.array_equal(val, np.max(scored, axis=0))
        assert np.array_equal(t[:3], peak[:3]) and np.all(val[:3] == 0.0)
        assert np.all(np.abs(t - peak) <= (hi - lo) * FINAL_BRACKET)

    def test_one_line_search_on_a_quadratic(self, rng):
        targets = rng.random(20)

        def objective(points, which):
            return -(points[:, 0] - targets[which]) ** 2

        points, _ = refine_on_simplex(objective, np.tile([0.5, 0.5], (20, 1)), 1)
        assert np.all(np.abs(points[:, 0] - targets) <= FINAL_BRACKET)

    @pytest.mark.parametrize("cell", [0, 1])
    def test_an_optimum_at_an_end_empties_the_cell_exactly(self, rng, cell):
        starts = rng.dirichlet(np.ones(3), size=4)
        points, values = refine_on_simplex(lambda p, _: -p[:, cell], starts, 120)
        assert np.all(points[:, cell] == 0.0)
        assert np.all(values == 0.0)


class TestWorkCount:
    @staticmethod
    def _counted(objective):
        calls = []

        def wrapped(points, which):
            calls.append(np.asarray(which).copy())
            return objective(points, which)
        return wrapped, calls

    def test_calls_are_one_plus_stages_per_round(self, rng):
        for _ in range(5):
            k, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
            targets = rng.dirichlet(np.ones(n), size=k)
            objective, calls = self._counted(
                lambda p, w: -((p - targets[w]) ** 2).sum(axis=-1))
            refine_on_simplex(objective, _starts(rng, k, n), 120)
            assert np.array_equal(calls[0], np.arange(k))
            # every later call scores GRID_POINTS transfers per live start
            for which in calls[1:]:
                assert np.array_equal(which, np.repeat(which[::GRID_POINTS], GRID_POINTS))
            searches = [sum(r in which[::GRID_POINTS] for which in calls[1:]) // GRID_STAGES
                        for r in range(k)]
            assert len(calls) == 1 + GRID_STAGES * max(searches)

    def test_a_spent_budget_ends_the_rounds(self, rng):
        objective, calls = self._counted(lambda p, w: -(p ** 2).sum(axis=-1))
        starts = rng.dirichlet(np.ones(6), size=3)  # 15 pairs, none empty
        refine_on_simplex(objective, starts, 4)
        assert len(calls) == 1 + GRID_STAGES * 4
