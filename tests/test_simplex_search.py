import numpy as np
import pytest

from oracles import plain_choice_loop, plain_lattice_points, plain_refine

from bcsi.optimizer import _LHS5, _SupportOracle
from bcsi.probability import blackwell_channel
from bcsi.rate_regions import _t2_kernel, _t2_rows
from bcsi.simplex_search import (GRID_POINTS, GRID_STAGES, _replay_choice, _from_bars,
                                 grid_max_1d, lattice_count, lattice_points,
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


def _same_stream(a, b):
    """Both generators hold the same state and give the same next draws."""
    if isinstance(a.bit_generator, np.random.PCG64):
        assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(0, 1000, size=3).tolist() == b.integers(0, 1000, size=3).tolist()
    assert a.random() == b.random()


def _holding(seed):
    """A generator that holds a buffered 32-bit half-word."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 7, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


class TestSampleReplay:
    """sample_lattice replays count choice calls from one raw block: the
    same bars as a plain rng.choice loop, and the generator left where the
    loop leaves it."""

    @staticmethod
    def _check(make, parts, resolution, count):
        a, b = make(), make()
        points = sample_lattice(a, parts, resolution, count)
        bars = plain_choice_loop(b, resolution + parts - 1, parts - 1, count)
        assert np.array_equal(points, _from_bars(bars, resolution))
        _same_stream(a, b)

    def test_random_draws_match_the_loop(self):
        draw = np.random.default_rng(31)
        held = 0
        for case in range(320):
            parts, resolution = int(draw.integers(2, 19)), int(draw.integers(1, 41))
            count, seed = int(draw.integers(1, 61)), int(draw.integers(0, 2**31))
            make = ((lambda: _holding(seed)) if case % 4 == 0
                    else (lambda: np.random.default_rng(seed)))
            held += case % 4 == 0
            self._check(make, parts, resolution, count)
        assert held == 80

    @pytest.mark.parametrize("hold", [False, True])
    def test_two_parts(self, hold):
        for resolution, count in ((1, 1), (1, 7), (5, 1), (9, 40), (40, 59)):
            make = (lambda: _holding(8)) if hold else (lambda: np.random.default_rng(8))
            self._check(make, 2, resolution, count)

    def test_replay_applies_on_these_draws(self):
        """The cases above do run the replay, not the fallback loop."""
        for rng in (np.random.default_rng(3), _holding(3)):
            assert _replay_choice(rng, 20, 6, 50) is not None

    def test_large_slot_count_replays_below_the_tail_shuffle_cut(self):
        # 10,200 slots: numpy's Floyd path holds for sizes up to 10200 // 50 = 204
        slots, size = 10_200, 150
        assert _replay_choice(np.random.default_rng(2), slots, size, 3) is not None
        self._check(lambda: np.random.default_rng(2), size + 1, slots - size, 3)

    def test_tail_shuffle_path_falls_back(self):
        slots, size = 10_100, 203  # size > slots // 50: numpy shuffles a tail
        rng = np.random.default_rng(6)
        before = rng.bit_generator.state
        assert _replay_choice(rng, slots, size, 2) is None
        assert rng.bit_generator.state == before
        self._check(lambda: np.random.default_rng(6), size + 1, slots - size, 2)

    def test_lemire_rejection_falls_back(self):
        """A held half-word 0 scaled to [0, 2] leaves 0 in the low 32 bits,
        below 2**32 mod 3 = 1, so the first draw rejects and draws again."""
        def make():
            rng = np.random.default_rng(12)
            state = rng.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, 0
            rng.bit_generator.state = state
            return rng

        rng = make()
        before = rng.bit_generator.state
        assert _replay_choice(rng, 4, 2, 5) is None  # resolution 2: the first draw is on [0, 2]
        assert rng.bit_generator.state == before
        self._check(make, 3, 2, 5)
        # a held 0 on [0, 2**k - 1] never rejects: the replay applies
        assert _replay_choice(make(), 5, 2, 5) is not None
        self._check(make, 3, 3, 5)

    def test_other_bit_generators_fall_back(self):
        for make in (lambda: np.random.Generator(np.random.MT19937(5)),
                     lambda: np.random.Generator(np.random.Philox(5))):
            assert _replay_choice(make(), 12, 4, 10) is None
            self._check(make, 5, 8, 10)

    def test_faster_than_the_loop(self):
        """25,000 points on 16 parts: the replay takes a fraction of the
        loop's time (best of three each)."""
        import time

        def best(run):
            times = []
            for seed in range(3):
                start = time.perf_counter()
                run(np.random.default_rng(seed))
                times.append(time.perf_counter() - start)
            return min(times)

        replay = best(lambda rng: sample_lattice(rng, 16, 30, 25_000))
        loop = best(lambda rng: plain_choice_loop(rng, 45, 15, 25_000))
        assert replay * 3 < loop


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
            x, best = plain_refine(lambda p, r=r: objective(p, np.full(len(p), r)),
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
        kernel = _t2_kernel(ch.y1_given_x(), ch.y2_given_x())
        for _ in range(3):
            oracle = _SupportOracle(_LHS5, rng.random(5))

            def objective(points, which):
                return oracle.value(_t2_rows(points.reshape(-1, 3, 3), kernel))

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
