import numpy as np
import pytest

from bcsi.errors import InputError
from bcsi.optimizer import (THEOREMS, SearchConfig, maximize_weighted_rate, region_for,
                            union_slice_2d)
from bcsi.optimizer import _LHS3, _LHS5, _SupportOracle
from bcsi.polytope import maximize
from bcsi.probability import (Channel, blackwell_channel, binary_symmetric_pair,
                              noiseless_channel, product_channel)
from oracles import evaluate_weighted_rate


class TestSupportOracle:
    def test_matches_generic_lp(self, rng):
        from scipy.optimize import linprog
        for lhs in (_LHS5, _LHS3):
            for _ in range(10):
                w = rng.random(5)
                w[rng.random(5) < 0.4] = 0.0
                if not w.any():
                    w[2] = 1.0
                oracle = _SupportOracle(lhs, w)
                for _ in range(10):
                    b = rng.random(lhs.shape[0]) * 2.5
                    res = linprog(-w, A_ub=lhs, b_ub=b,
                                  bounds=[(0.0, 64.0)] * 5, method="highs")
                    assert oracle.value(b) == pytest.approx(-res.fun, abs=1e-8)

    def test_vertices_equal_one_solve_per_plane_set(self, rng):
        """The batched screen and solve keep the vertices of a loop that
        solves each set of planes alone, in order and bit for bit."""
        from oracles import plain_dual_vertices
        for lhs in (_LHS5, _LHS3):
            for k in range(40):
                w = rng.random(5) * (rng.random(5) > 0.3)
                if k % 5 == 0:
                    w = rng.integers(0, 3, size=5).astype(np.float64)
                w[k % 5] = max(w[k % 5], 1.0)
                oracle = _SupportOracle(lhs, w)
                ys = plain_dual_vertices(lhs, np.ldexp(w, oracle.shift))
                whole = np.abs(ys) >= 2.0 ** 52
                keys = np.where(whole, ys, np.round(np.where(whole, 0.0, ys), 12))
                want = ys[np.unique(keys, axis=0, return_index=True)[1]]
                assert oracle.ys.tobytes() == want.tobytes()

    def test_negative_rhs_is_empty(self):
        oracle = _SupportOracle(_LHS5, np.ones(5))
        assert oracle.value(np.array([1.0, 1.0, -0.2, 1.0, 1.0])) == -np.inf


    def test_batched_values_equal_single_calls_bitwise(self, rng):
        for lhs in (_LHS5, _LHS3):
            oracle = _SupportOracle(lhs, rng.random(5))
            b = rng.random((50, lhs.shape[0])) * 2.0 - 0.1
            batched = oracle.value(b)
            assert batched.shape == (50,)
            for i in range(50):
                assert batched[i] == oracle.value(b[i])
            assert (batched[(b < 0).any(axis=1)] == -np.inf).all()


class TestGammaOnSupport:
    """The t1 map search enumerates maps on the support only and picks the
    maximal value of largest key sum: the same map as enumerating every
    map over every cell and taking the first Pareto-front entry of maximal
    value."""

    def test_pick_matches_full_enumeration_pareto_front(self, rng):
        from conftest import random_channel
        from oracles import pareto_gamma_pick

        from bcsi.optimizer import _Evaluator
        from bcsi.rate_regions import _t1_rows
        checked = 0
        for sizes, x in (((2, 2, 1), 2), ((2, 2, 1), 3), ((1, 2, 2), 2), ((2, 1, 2), 3),
                         ((2, 2, 2), 2)):
            for weights in ((1, 1, 1, 1, 1), (0, 0, 0, 1, 0), (0, 1, 1, 0, 0), None):
                ch = random_channel(rng, x, 2, int(rng.integers(2, 4)))
                ev = _Evaluator(ch, "t1", rng.random(5) if weights is None else weights)
                for _ in range(3):
                    aux = rng.random(sizes) * (rng.random(sizes) > 0.4)
                    aux.flat[0] += 0.1
                    aux /= aux.sum()
                    (val,), (gamma,), _ = ev._enumerated(aux[None])
                    want_val, want_gamma = pareto_gamma_pick(
                        aux, x, lambda a, g: _t1_rows(a, g, ev.k1, ev.k2),
                        ev.oracle.value)
                    assert val == want_val
                    if want_gamma is not None:
                        assert np.array_equal(gamma, want_gamma)
                    checked += 1
        assert checked == 60

    def test_pick_matches_pareto_front_on_tied_values(self):
        """Noiseless and deterministic channels at lattice joints give many
        maps of exactly equal value, where the key sum decides."""
        from oracles import pareto_gamma_pick

        from bcsi.optimizer import _Evaluator
        from bcsi.rate_regions import _t1_rows
        from bcsi.simplex_search import lattice_points
        for ch in (noiseless_channel(2), blackwell_channel()):
            for weights in ((0, 0, 0, 1, 0), (0, 1, 0, 0, 0), (1, 1, 1, 1, 1)):
                ev = _Evaluator(ch, "t1", weights)
                for sizes in ((2, 2, 1), (1, 2, 2)):
                    for p in lattice_points(4, 3)[::3]:
                        aux = p.reshape(sizes)
                        (val,), (gamma,), _ = ev._enumerated(aux[None])
                        want_val, want_gamma = pareto_gamma_pick(
                            aux, ch.x.size, lambda a, g: _t1_rows(a, g, ev.k1, ev.k2),
                            ev.oracle.value)
                        assert val == want_val
                        assert np.array_equal(gamma, want_gamma)

    def test_empty_start_is_not_refined(self):
        """Where every map of a refinement start gives an empty region (U1
        and U2 dependent given U0 on a useless channel), the start keeps
        value -inf instead of being refined with no map."""
        ch = Channel.from_rows([["1/4"] * 4] * 2, 2, 2, 2)
        for sizes in ((1, 2, 2), (2, 2, 2)):
            for resolution in (2, 3):
                cfg = SearchConfig(aux_sizes=sizes, grid_resolution=resolution)
                res = maximize_weighted_rate(ch, (1, 1, 1, 1, 1), "t1", cfg)
                assert abs(res.value) <= 1e-12

    def test_empty_start_cli_exit_0(self, tmp_path, capsys):
        import json

        from bcsi.cli import main
        path = tmp_path / "quarter.json"
        path.write_text(json.dumps({"x_size": 2, "y1_size": 2, "y2_size": 2,
                                    "kernel": [["1/4"] * 4] * 2}))
        code = main(["optimize", "--channel", str(path), "--theorem", "t1",
                     "--weights", "1,1,1,1,1", "--aux-sizes", "1,2,2", "--resolution", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err
        assert abs(json.loads(captured.out)["best_value"]) <= 1e-12


class TestGammaCellCap:
    """Above GAMMA_CELL_CAP maps on the support times joint cells, the t1 map
    search runs greedy passes that score every symbol of one cell per call."""

    @staticmethod
    def _joints(rng, sizes, count, support=None):
        cells = int(np.prod(sizes))
        for _ in range(count):
            aux = np.zeros(cells)
            aux[:support or cells] = rng.dirichlet(np.ones(support or cells))
            yield aux.reshape(sizes)

    def test_greedy_matches_scalar_loop_bitwise(self, rng):
        from conftest import random_channel
        from oracles import plain_greedy_gamma

        from bcsi.optimizer import GAMMA_CELL_CAP, _Evaluator
        cases = [(blackwell_channel(), (4, 3, 3), 12),
                 (random_channel(rng, 3, 2, 2), (3, 2, 2), 12),
                 (random_channel(rng, 5, 2, 3), (2, 2, 2), 10)]
        checked = 0
        for ch, sizes, count in cases:
            for weights in ((1, 1, 1, 1, 1), (0, 1, 1, 0, 0), rng.random(5)):
                ev = _Evaluator(ch, "t1", weights)
                for aux in self._joints(rng, sizes, count // 3 + 1):
                    assert ch.x.size ** np.count_nonzero(aux) * aux.size > GAMMA_CELL_CAP
                    val, gamma, _ = ev._greedy_map(aux)
                    want_val, want_gamma = plain_greedy_gamma(aux, ch.x.size, ev.value)
                    assert val == want_val
                    if want_gamma is not None:
                        assert np.array_equal(gamma, want_gamma)
                    checked += 1
        assert checked >= 30

    @staticmethod
    def _count_maps(monkeypatch):
        import bcsi.optimizer as opt
        counts = {"calls": 0, "maps": 0}
        inner = opt._t1_rows

        def counting(aux, gamma, k1, k2):
            counts["calls"] += 1
            counts["maps"] += int(np.prod(np.shape(gamma)[:-3]))
            return inner(aux, gamma, k1, k2)

        monkeypatch.setattr(opt, "_t1_rows", counting)
        return counts

    def test_one_search_scores_at_most_the_cap(self, rng, monkeypatch):
        from conftest import random_channel

        from bcsi.optimizer import GAMMA_CELL_CAP, _Evaluator
        ev = _Evaluator(random_channel(rng, 4, 2, 2), "t1", (1, 1, 1, 1, 1))
        aux = next(self._joints(rng, (3, 2, 2), 1))
        counts = self._count_maps(monkeypatch)
        ev._greedy_map(aux)
        assert counts["maps"] * aux.size <= GAMMA_CELL_CAP  # enumerating would score 4^12
        # one call per support cell and pass, |X| maps each
        assert counts["calls"] in (12, 24, 36)
        assert counts["maps"] == 4 * counts["calls"]

    def test_cap_counts_maps_on_the_support_times_cells(self, rng, monkeypatch):
        from conftest import random_channel

        from bcsi.optimizer import GAMMA_CELL_CAP, _Evaluator
        ev = _Evaluator(random_channel(rng, 2, 2, 2), "t1", (1, 1, 1, 1, 1))
        counts = self._count_maps(monkeypatch)
        ev.score(next(self._joints(rng, (3, 2, 2), 1)).reshape(1, -1))  # 2^12 maps of 12 cells
        assert counts["maps"] == 2 ** 12  # all scored
        wide = _Evaluator(ev.ch, "t1", (1, 1, 1, 1, 1), (4, 2, 2))
        for support, enumerated in ((12, True), (13, False), (16, False)):
            counts["maps"] = 0
            wide.score(next(self._joints(rng, (4, 2, 2), 1, support)).reshape(1, -1))
            if enumerated:  # 2^12 maps on the support, 16 cells each: at the cap
                assert counts["maps"] * 16 == GAMMA_CELL_CAP
            else:
                assert counts["maps"] <= 3 * support * 2


class TestBatchedT1Scoring:
    """score runs every enumerated joint of a call through _enumerated,
    MAP_ROWS (joint, map) pairs per _t1_rows call: values, maps and
    right-hand sides equal each joint's own _enumerated or _greedy_map call bit
    for bit, and the enumerated ones a per-joint scalar pick over all its
    maps."""

    @staticmethod
    def _joints(rng, sizes, count, zero_share=0.4):
        points = rng.dirichlet(np.ones(int(np.prod(sizes))), size=count)
        points[rng.random(points.shape) < zero_share] = 0.0
        points[:, 0] += 0.05
        return points / points.sum(axis=1, keepdims=True)

    @staticmethod
    def _check(ev, points):
        from oracles import plain_enumerated_map
        vals, maps, rhs = ev.score(points)
        tables = points.reshape((-1,) + ev.shape)
        every = ev._enumerable(tables)
        for i, aux in enumerate(tables):
            if every[i]:
                (val,), (gamma,), (row,) = ev._enumerated(aux[None])
            else:
                val, gamma, row = ev._greedy_map(aux)
            assert vals[i] == val
            assert np.array_equal(maps[i], gamma)
            assert rhs[i].tobytes() == row.tobytes()
            if every[i]:
                want = plain_enumerated_map(aux, ev.x_size, ev._score_maps)
                assert val == want[0]
                assert np.array_equal(gamma, want[1])
                assert row.tobytes() == want[2].tobytes()
        return every

    def test_random_joints_with_zero_cells(self, rng):
        from conftest import random_channel

        from bcsi.optimizer import _Evaluator
        for x in (2, 3, 4):
            for sizes in ((2, 2, 1), (1, 2, 2), (2, 2, 2), (2, 1, 2)):
                ev = _Evaluator(random_channel(rng, x, 2, int(rng.integers(2, 4))), "t1",
                                rng.random(5), sizes)
                self._check(ev, self._joints(rng, sizes, 12))

    def test_both_sides_of_the_cap_in_one_call(self, rng):
        from conftest import random_channel

        from bcsi.optimizer import _Evaluator
        # 12 cells at |X| = 4: up to 6 support cells are enumerated (4^6 * 12
        # maps x cells), 7 or more are searched greedily
        ev = _Evaluator(random_channel(rng, 4, 2, 2), "t1", (1, 1, 1, 1, 1), (3, 2, 2))
        points = self._joints(rng, (3, 2, 2), 16, zero_share=0.5)
        points[:4] = self._joints(rng, (3, 2, 2), 4, zero_share=0.0)
        every = self._check(ev, points)
        assert every.any() and not every.all()

    @pytest.mark.parametrize("rows", [None, 7])
    def test_call_spans_several_row_batches(self, rng, monkeypatch, rows):
        """12-cell joints at |X| = 2 have up to 4,096 maps each: one call
        spans several MAP_ROWS batches, and with MAP_ROWS = 7 most joints'
        maps split across batches."""
        import bcsi.optimizer as opt
        from conftest import random_channel
        if rows:
            monkeypatch.setattr(opt, "MAP_ROWS", rows)
        calls = {"n": 0}
        inner = opt._t1_rows

        def counting(aux, gamma, k1, k2):
            calls["n"] += 1
            return inner(aux, gamma, k1, k2)

        ev = opt._Evaluator(random_channel(rng, 2, 2, 3), "t1", rng.random(5), (3, 2, 2))
        points = self._joints(rng, (3, 2, 2), 10, zero_share=0.2)
        monkeypatch.setattr(opt, "_t1_rows", counting)
        ev.score(points)
        pairs = int((2 ** (points > 0.0).sum(axis=1)).sum())
        assert calls["n"] == -(-pairs // opt.MAP_ROWS) > 1
        monkeypatch.setattr(opt, "_t1_rows", inner)
        self._check(ev, points)

    def test_tied_lattice_joints(self):
        """Lattice joints on noiseless and deterministic channels give many
        maps of equal value, where the key sum and then the order decide."""
        from bcsi.optimizer import _Evaluator
        from bcsi.simplex_search import lattice_points
        for ch in (noiseless_channel(2), blackwell_channel()):
            for weights in ((0, 0, 0, 1, 0), (1, 1, 1, 1, 1)):
                self._check(_Evaluator(ch, "t1", weights, (2, 2, 1)), lattice_points(4, 3))


class TestMaximizeWeightedRate:
    def test_r4_on_noiseless_binary_reaches_capacity(self):
        ch = noiseless_channel(2)
        cfg = SearchConfig(aux_sizes=(2, 1, 1), grid_resolution=4, restarts=1, seed=0)
        res = maximize_weighted_rate(ch, (0, 0, 0, 1, 0), "t1", cfg)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_all_zero_weights_rejected(self):
        ch = noiseless_channel(2)
        with pytest.raises(InputError):
            maximize_weighted_rate(ch, (0, 0, 0, 0, 0), "t1", SearchConfig())

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed"):
            SearchConfig(seed=-1)

    def test_huge_weights_rejected_or_exact(self):
        ch = noiseless_channel(2)
        cfg = SearchConfig(aux_sizes=(2, 1, 1), grid_resolution=2, restarts=1)
        for theorem in THEOREMS:
            res = maximize_weighted_rate(ch, (1, 1, 1, 1, 1e300), theorem, cfg)
            assert res.value == 1e300
            with pytest.raises(InputError, match="too large"):
                maximize_weighted_rate(ch, (1e308,) * 5, theorem, cfg)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            maximize_weighted_rate(noiseless_channel(2), (1, -1, 0, 0, 0), "t1",
                                   SearchConfig())

    def test_t2_rejects_noisy_channel(self):
        with pytest.raises(InputError):
            maximize_weighted_rate(binary_symmetric_pair(0.1, 0.2),
                                   (0, 1, 1, 0, 0), "t2", SearchConfig())

    def test_seed_determinism(self):
        ch = blackwell_channel()
        cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=4, restarts=2, seed=7)
        a = maximize_weighted_rate(ch, (0, 1, 1, 0, 0), "t2", cfg)
        b = maximize_weighted_rate(ch, (0, 1, 1, 0, 0), "t2", cfg)
        assert a.value == b.value
        assert np.array_equal(a.scheme.aux_joint.mass,
                              b.scheme.aux_joint.mass)

    def test_reported_value_reproduces_from_scratch(self):
        ch = blackwell_channel()
        cfg = SearchConfig(aux_sizes=(4, 1, 1), grid_resolution=5, restarts=2, seed=3)
        res = maximize_weighted_rate(ch, (0, 1, 1, 0, 0), "t2", cfg)
        again = evaluate_weighted_rate(ch, "t2", (0, 1, 1, 0, 0), p_ux=res.p_ux)
        assert abs(again - res.value) <= 1e-9

    def test_oracle_value_matches_region_lp(self):
        ch = blackwell_channel()
        cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=4, restarts=1, seed=5)
        res = maximize_weighted_rate(ch, (0, 1, 1, 0, 0), "t2", cfg)
        region = region_for(ch, "t2", p_ux=res.p_ux)
        status, value, _ = maximize(region.system, {"R2": 1.0, "R3": 1.0})
        assert status == "optimal"
        assert value == pytest.approx(res.value, abs=1e-9)

    def test_more_restarts_never_hurt(self):
        ch = blackwell_channel()
        vals = []
        for restarts in (1, 2, 4):
            cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=4,
                               restarts=restarts, seed=2)
            vals.append(maximize_weighted_rate(ch, (0, 1, 1, 0, 0), "t2", cfg).value)
        assert vals[0] <= vals[1] <= vals[2]

    def test_more_resolution_never_hurts(self):
        ch = blackwell_channel()
        vals = []
        for resolution in (3, 4, 5):
            cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=resolution,
                               restarts=1, seed=2)
            vals.append(maximize_weighted_rate(ch, (1, 1, 1, 0, 0), "t2", cfg).value)
        assert vals[0] <= vals[1] <= vals[2]

    def test_t3_runs_on_noisy_channels(self):
        ch = binary_symmetric_pair(0.05, 0.15)
        cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=4, restarts=1, seed=1)
        res = maximize_weighted_rate(ch, (1, 0, 0, 0, 0), "t3", cfg)
        # common rate bounded by the weaker receiver
        assert res.value <= 1.0
        assert res.value > 0.2


class TestUnionSlice:
    def test_constant_second_output_degenerates_to_axis(self):
        ch = product_channel([[1, 0], [0, 1]], [[1.0], [1.0]])
        cfg = SearchConfig(aux_sizes=(2, 2, 2), grid_resolution=3, restarts=1, seed=0)
        points, schemes = union_slice_2d(
            ch, ("R2", "R3"), {"R1": 0.0, "R4": 0.0, "R5": 0.0}, "t1", cfg,
            directions=9)
        assert points
        for p in points:
            assert p["R3"] == pytest.approx(0.0, abs=1e-9)
        assert max(p["R2"] for p in points) > 0.5

    def test_symmetric_channel_gives_symmetric_slice(self):
        # exchangeable receivers: the support profile over sweep angles must
        # mirror about the R2 = R3 diagonal (points on flat facets may
        # tie-break to either endpoint, so compare supported values)
        ch = noiseless_channel(2)
        cfg = SearchConfig(aux_sizes=(2, 2, 2), grid_resolution=3, restarts=1, seed=0)
        points, _ = union_slice_2d(
            ch, ("R2", "R3"), {"R1": 0.0, "R4": 0.0, "R5": 0.0}, "t1", cfg,
            directions=17)
        by_angle = {round(p["angle_deg"], 6): p for p in points}

        def support(p):
            t = np.radians(p["angle_deg"])
            return np.cos(t) * p["R2"] + np.sin(t) * p["R3"]

        for p in points:
            mirror = by_angle.get(round(90.0 - p["angle_deg"], 6))
            assert mirror is not None
            assert support(p) == pytest.approx(support(mirror), abs=1e-6)

    def test_points_lie_inside_their_scheme_region(self):
        from oracles import contains

        ch = blackwell_channel()
        cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=4, restarts=1, seed=0)
        points, schemes = union_slice_2d(
            ch, ("R2", "R3"), {"R1": 0.0, "R4": 0.0, "R5": 0.0}, "t2", cfg,
            directions=9)
        for p in points:
            scheme = schemes[p["scheme_id"]]
            region = region_for(ch, "t1", scheme=scheme)
            point = (0.0, p["R2"], p["R3"], 0.0, 0.0)
            assert contains(region, point)

    def test_sum_rate_nondecreasing_in_resolution(self):
        ch = blackwell_channel()
        best = []
        for resolution in (4, 5, 6):
            cfg = SearchConfig(aux_sizes=(3, 1, 1), grid_resolution=resolution,
                               restarts=1, seed=0)
            points, _ = union_slice_2d(
                ch, ("R2", "R3"), {"R1": 0.0, "R4": 0.0, "R5": 0.0}, "t2", cfg,
                directions=9)
            best.append(max(p["R2"] + p["R3"] for p in points))
        assert best[0] <= best[1] <= best[2]

    def test_bad_free_pair_rejected(self):
        with pytest.raises(InputError):
            union_slice_2d(noiseless_channel(2), ("R2", "R2"),
                           {"R1": 0, "R4": 0, "R5": 0}, "t1")
