import importlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from bcsi import classifier, cli, polytope
from bcsi.errors import GuardError, InputError
from bcsi.polytope import (LinearInequality, LinearSystem, RATE_VARS, RateRegion,
                           fme_eliminate, is_feasible, maximize, regions_equal,
                           region_subset, remove_redundant)
from bcsi.rate_regions import MiConstants, project_raw_system, raw_coding_system
from oracles import (contains, fix_variables, fraction_canonical, fraction_fme,
                     lift_exists_interval, plain_feasible, plain_fme, plain_region_subset,
                     plain_remove_redundant, row_value)


def ineq(coeffs, rhs):
    return LinearInequality({k: Fraction(v) for k, v in coeffs.items()}, rhs)


class TestFme:
    def test_hand_projection(self):
        sys = LinearSystem(("x", "y"), [
            ineq({"y": 1}, 2.0),
            ineq({"y": -1}, 0.0),
            ineq({"x": 1, "y": 1}, 5.0),
            ineq({"x": 1, "y": -1}, 1.0),
        ])
        out = fme_eliminate(sys, "y")
        assert out.variables == ("x",)
        rendered = sorted(str(i) for i in out.inequalities)
        assert rendered == ["0 <= 2", "x <= 3", "x <= 5"]

    def test_unused_variable_is_just_dropped(self):
        sys = LinearSystem(("x", "y"), [ineq({"x": 1}, 1.0)])
        out = fme_eliminate(sys, "y")
        assert out.variables == ("x",)
        assert len(out.inequalities) == 1

    def test_undeclared_variable_rejected(self):
        # and a repeated variable or none at all
        sys = LinearSystem(("x", "y"), [ineq({"x": 1, "y": 1}, 1.0)])
        for variables in (("z",), ("y", "z"), (), ("y", "y"), ("x", "y", "x")):
            with pytest.raises(InputError):
                fme_eliminate(sys, *variables)
            with pytest.raises(InputError):
                fraction_fme(sys, variables)

    def test_explosion_guard(self):
        # 400 positive rows x 400 negative rows > 100000
        rows = []
        for k in range(400):
            rows.append(ineq({"x": 1, "y": 1}, float(k)))
            rows.append(ineq({"x": 1, "y": -1}, float(k)))
        # make coefficient vectors distinct so dedup keeps them
        rows = [LinearInequality({"x": Fraction(i + 1), "y": r.coeffs["y"]}, r.rhs)
                for i, r in enumerate(rows)]
        sys = LinearSystem(("x", "y"), rows)
        with pytest.raises(GuardError):
            fme_eliminate(sys, "y")

    def test_rational_coefficients_stay_exact(self):
        sys = LinearSystem(("x", "y"), [
            ineq({"x": Fraction(1, 3), "y": 1}, 1.0),
            ineq({"x": Fraction(1, 6), "y": -1}, 0.0),
        ])
        out = fme_eliminate(sys, "y")
        (row,) = out.inequalities
        assert row.coeffs["x"] == Fraction(1)  # canonical primitive integers

    def test_sources_and_pruning(self):
        # after two steps a row may combine at most three original rows, so
        # 3z <= 4, the sum of all four, is dropped; z <= 1 implies it
        sys = LinearSystem(("x", "y", "z"), [
            ineq({"x": 1, "y": 1}, 1.0),
            ineq({"x": -1, "y": 1}, 1.0),
            ineq({"x": 1, "y": -1, "z": 1}, 1.0),
            ineq({"x": -1, "y": -1, "z": 2}, 1.0),
        ])
        once = fme_eliminate(sys, "x")
        assert [str(r) for r in once.inequalities] == \
            ["y <= 1", "z <= 1", "z <= 2", "-2*y + 3*z <= 2"]
        twice = fme_eliminate(sys, "x", "y")
        assert twice.variables == ("z",)
        assert [str(r) for r in twice.inequalities] == ["z <= 1", "z <= 2"]
        # a second call starts afresh, each row its own source: it keeps
        # 3z <= 4 (as z <= 4/3)
        assert [r.rhs for r in fme_eliminate(once, "y").inequalities] == [1.0, 2.0, 4 / 3]
        plain = plain_fme([([r.coeffs.get(v, Fraction(0)) for v in sys.variables], r.rhs)
                           for r in sys.inequalities], [0, 1])
        assert len(plain) == 3  # 2z <= 2, z <= 2 and 6z <= 8

    def test_duplicate_row_keeps_every_minimal_source_set(self):
        # y <= 1 comes from rows 0 and 1 and from rows 2 and 3; its partner
        # -y + z <= 0 comes from rows 2 and 4, so z <= 1 combines rows 2, 3
        # and 4 by the second derivation, four rows by the first: only the
        # second keeps it
        sys = LinearSystem(("x", "y", "z"), [
            ineq({"x": 1, "y": 1}, 1.0),
            ineq({"x": -1, "y": 1}, 1.0),
            ineq({"x": 1, "z": 1}, 0.0),
            ineq({"x": -1, "y": 1, "z": -1}, 1.0),
            ineq({"x": -1, "y": -1}, 0.0),
        ])
        assert [str(r) for r in fme_eliminate(sys, "x").inequalities] == \
            ["y <= 1", "2*y + -1*z <= 2", "0 <= 1", "y + z <= 1", "-1*y + z <= 0"]
        # z <= 2 (rows 0, 3, 2 and 4) is pruned; z <= 1 stays
        assert [str(r) for r in fme_eliminate(sys, "x", "y").inequalities] == \
            ["0 <= 1", "z <= 1", "z <= 0.5"]
        assert exact_rows(fme_eliminate(sys, "x", "y")) == \
            exact_rows(fraction_fme(sys, ("x", "y")))


@st.composite
def random_system(draw, min_vars=2, max_vars=4):
    n_vars = draw(st.integers(min_vars, max_vars))
    n_rows = draw(st.integers(2, 8))
    names = tuple(f"v{i}" for i in range(n_vars))
    rows = []
    for _ in range(n_rows):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(n_vars)]
        if not any(coeffs):
            coeffs[0] = 1
        rhs = draw(st.integers(-4, 8))
        rows.append(LinearInequality(
            {names[i]: Fraction(coeffs[i]) for i in range(n_vars)}, float(rhs)))
    return LinearSystem(names, rows)


class TestFmeSoundness:
    @given(random_system(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_projection_matches_interval_oracle(self, sys, var_pick):
        var = sys.variables[var_pick % len(sys.variables)]
        projected = fme_eliminate(sys, var)
        keep = [v for v in sys.variables if v != var]
        var_idx = sys.variables.index(var)
        rows = [([float(r.coeffs.get(v, 0)) for v in sys.variables], r.rhs)
                for r in sys.inequalities]
        rng = np.random.default_rng(0)
        for _ in range(25):
            point = {v: float(rng.integers(-4, 5)) for v in keep}
            in_proj = all(
                sum(float(c) * point[v] for v, c in r.coeffs.items()) <= r.rhs + 1e-9
                for r in projected.inequalities if not r.is_vacuous()) and all(
                r.rhs >= -1e-9 for r in projected.inequalities if r.is_vacuous())
            lifted = [0.0] * len(sys.variables)
            for v, x in point.items():
                lifted[sys.variables.index(v)] = x
            liftable = lift_exists_interval(rows, var_idx, lifted)
            assert in_proj == liftable

    @given(random_system(min_vars=3, max_vars=5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pruned_steps_match_plain_fme(self, sys, data):
        # Chernikov pruning only acts from the second step on
        order = data.draw(st.permutations(range(len(sys.variables))))
        order = order[:data.draw(st.integers(2, min(3, len(sys.variables) - 1)))]
        projected = fme_eliminate(sys, *(sys.variables[j] for j in order))
        plain = plain_fme([([r.coeffs.get(v, Fraction(0)) for v in sys.variables], r.rhs)
                           for r in sys.inequalities], order)
        keep = projected.variables
        rng = np.random.default_rng(0)
        for _ in range(40):
            point = {v: float(rng.integers(-4, 5)) for v in keep}
            full = [point.get(v, 0.0) for v in sys.variables]
            in_pruned = all(row_value(r, point) <= r.rhs + 1e-9
                            for r in projected.inequalities)
            in_plain = all(sum(float(c) * x for c, x in zip(coeffs, full)) <= rhs + 1e-9
                           for coeffs, rhs in plain)
            assert in_pruned == in_plain


def exact_rows(sys):
    """Everything fme_eliminate returns, with each rhs as float.hex."""
    return (sys.variables,
            [(r.coeffs, r.rhs.hex()) for r in sys.inequalities],
            all(type(c) is Fraction for r in sys.inequalities for c in r.coeffs.values()))


# rhs values whose products and sums round, and a signed zero that merges
# with 0.0 at the first row's sign
_RHS = st.one_of(st.floats(-20, 20, allow_subnormal=False), st.sampled_from([0.0, -0.0, 1 / 3]))


@st.composite
def coefficient_system(draw, coefficient):
    """Three to five variables, 2-8 rows with coefficients drawn from
    `coefficient` or zero, so that rows skip variables and pairs cancel to
    vacuous rows."""
    n_vars = draw(st.integers(3, 5))
    names = tuple(f"v{i}" for i in range(n_vars))
    coefficient = st.one_of(st.just(0), coefficient)
    rows = draw(st.lists(st.tuples(st.lists(coefficient, min_size=n_vars, max_size=n_vars),
                                   _RHS), min_size=2, max_size=8))
    return LinearSystem(names, [LinearInequality(dict(zip(names, c)), rhs) for c, rhs in rows])


_SMALL_INT = st.integers(-3, 3).map(Fraction)
_RATIONAL = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 6, 9, 10]))


class TestFmeMatchesFractionOracle:
    """The integer-array elimination gives the Fraction elimination's rows,
    rhs bits and row order, pruning included, for every prefix of 1-3
    variables."""

    @staticmethod
    def check_chain(sys, order):
        variables = [sys.variables[j] for j in order]
        for k in range(1, len(variables) + 1):
            assert exact_rows(fme_eliminate(sys, *variables[:k])) == \
                exact_rows(fraction_fme(sys, variables[:k]))

    @given(st.one_of(coefficient_system(_SMALL_INT), coefficient_system(_RATIONAL)), st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_systems(self, sys, data):
        order = data.draw(st.permutations(range(len(sys.variables))))
        self.check_chain(sys, order[:data.draw(st.integers(1, 3))])

    @pytest.mark.parametrize("base", [2**26 - 1, 2**26, 2**26 + 1, 2**40, 2**62])
    @given(sys=coefficient_system(_SMALL_INT), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_wide_coefficients_do_not_wrap(self, base, sys, data):
        # entries near base make pair products near base**2, past int64 from
        # 2**32 on; each must come out as the oracle's exact integers
        wide = LinearSystem(sys.variables, [
            LinearInequality({v: (base + abs(k)) * (1 if k > 0 else -1)
                              for v, k in r.coeffs.items()} | {sys.variables[0]: base - 1},
                             r.rhs) for r in sys.inequalities])
        order = data.draw(st.permutations(range(1, len(sys.variables))))
        self.check_chain(wide, order[:data.draw(st.integers(1, 2))])

    def test_wide_rows_reach_the_exact_integers(self):
        big = 2**62 + 3  # prime to 15, so the combined row is primitive
        sys = LinearSystem(("x", "y", "z"), [ineq({"x": big, "y": 3, "z": 1}, 1.0),
                                             ineq({"x": 5, "y": -big}, 2.0)])
        out = fme_eliminate(sys, "y")
        (row,) = out.inequalities
        assert row.coeffs == {"x": big * big + 15, "z": big}  # past int64 and float64
        assert exact_rows(out) == exact_rows(fraction_fme(sys, ["y"]))

    def test_rows_cross_the_int64_bound_in_the_second_step(self):
        # step 1 combines int64 rows into coefficients near 2**49, past
        # _INT64_SAFE; step 2 multiplies two of them, past int64
        big = 2**24 + 1
        sys = LinearSystem(("x", "y", "z", "w"), [
            ineq({"x": big, "y": big - 2, "z": 3}, 1.0),
            ineq({"x": -(big + 2), "y": 5, "w": 1}, 2.0),
            ineq({"x": 7, "y": -(big + 4), "z": -big}, 0.5),
            ineq({"x": -3, "z": big - 6, "w": -1}, 1 / 3),
        ])
        once = fme_eliminate(sys, "x")
        assert max(abs(c) for r in once.inequalities for c in r.coeffs.values()) \
            > polytope._INT64_SAFE
        assert all(abs(c) < 2**53 for r in once.inequalities for c in r.coeffs.values())
        out = fme_eliminate(sys, "x", "y")
        assert max(abs(c) for r in out.inequalities for c in r.coeffs.values()) > 2**63
        self.check_chain(sys, [0, 1, 2])

    def test_wide_denominators(self):
        sys = LinearSystem(("x", "y", "z"), [
            ineq({"x": Fraction(1, 2**40 + 1), "y": Fraction(3, 2**31)}, 1.0),
            ineq({"x": Fraction(5, 7), "y": Fraction(-1, 2**45), "z": 1}, 1 / 3),
            ineq({"y": Fraction(-2, 3), "z": Fraction(1, 2**62)}, 0.1),
        ])
        self.check_chain(sys, [1, 0])

    def test_vacuous_rational_pair_keeps_its_rhs(self):
        # the pair cancels to 0 <= rhs; canonical form leaves that rhs unscaled
        sys = LinearSystem(("x", "y"), [ineq({"y": Fraction(1, 2)}, 1.0),
                                        ineq({"y": Fraction(-1, 3)}, 0.5)])
        (row,) = fme_eliminate(sys, "y").inequalities
        assert row.is_vacuous() and row.rhs == float(Fraction(1, 3)) * 1.0 + 0.5 * 0.5
        self.check_chain(sys, [1])

    @given(coefficient_system(st.one_of(_RATIONAL, st.integers(-2**63, 2**63).map(Fraction))))
    @settings(max_examples=60, deadline=None)
    def test_canonical_matches_fraction_arithmetic(self, sys):
        for r in sys.inequalities:
            mine, theirs = r.canonical(), fraction_canonical(r)
            assert (mine.coeffs, mine.rhs.hex()) == (theirs.coeffs, theirs.rhs.hex())
            assert mine is not r and mine.coeffs is not r.coeffs


class TestRemoveRedundant:
    def test_dominated_row_dropped(self):
        sys = LinearSystem(("x",), [ineq({"x": 1}, 5.0), ineq({"x": 1}, 3.0)])
        out = remove_redundant(sys)
        assert [str(i) for i in out.inequalities] == ["x <= 3"]

    def test_vacuous_true_dropped(self):
        sys = LinearSystem(("x",), [LinearInequality({}, 2.0), ineq({"x": 1}, 3.0)])
        out = remove_redundant(sys)
        assert [str(i) for i in out.inequalities] == ["x <= 3"]

    def test_infeasible_reported_as_empty_region(self):
        sys = LinearSystem(("x",), [ineq({"x": 1}, -2.0)])
        out = remove_redundant(sys)
        assert not is_feasible(out)

    def test_membership_preserved_on_samples(self, rng):
        rows = [
            ineq({"x": 1, "y": 1}, 4.0),
            ineq({"x": 2, "y": 1}, 6.0),
            ineq({"x": 1}, 3.0),
            ineq({"x": 1, "y": 2}, 8.0),   # redundant against the first two
            ineq({"y": 1}, 5.0),
        ]
        sys = LinearSystem(("x", "y"), rows)
        out = remove_redundant(sys)
        assert len(out.inequalities) < len(rows)
        pts = rng.random((1000, 2)) * 8.0
        for x, y in pts:
            before = all(row_value(r, {"x": x, "y": y}) <= r.rhs + 1e-9 for r in rows)
            after = all(row_value(r, {"x": x, "y": y}) <= r.rhs + 1e-9
                        for r in out.inequalities)
            assert before == after

    @pytest.mark.parametrize("sizes, seed", [((2, 2, 2), 1), ((3, 2, 2), 2), ((1, 2, 2), 4),
                                             ((2, 1, 2), 5)])
    def test_dedup_makes_no_canonical_call(self, monkeypatch, tmp_path, sizes, seed):
        """remove_redundant hands _dedup canonical rows: _dedup calls
        canonical() on none, and raw-project writes the bytes it writes with
        a _dedup that canonicalizes its rows again."""
        rng = np.random.default_rng(seed)
        kernel = rng.random((3, 4)) + 0.05
        joint = rng.random(sizes) + 0.02
        specs = {"channel": {"x_size": 3, "y1_size": 2, "y2_size": 2,
                             "kernel": (kernel / kernel.sum(axis=1, keepdims=True)).tolist()},
                 "scheme": {"u_sizes": list(sizes), "joint": (joint / joint.sum()).ravel().tolist(),
                            "gamma": rng.integers(0, 3, size=joint.size).tolist()}}
        for name, spec in specs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))

        def raw_project(out):
            assert cli.main(["raw-project", "--channel", str(tmp_path / "channel.json"),
                             "--scheme", str(tmp_path / "scheme.json"),
                             "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out).read_bytes()

        dedup, canonical = polytope._dedup, LinearInequality.canonical
        calls, inside = [], []

        def counted(row):
            calls.append(1)
            return canonical(row)

        def watched(rows):
            before = len(calls)
            out = dedup(rows)
            inside.append(len(calls) - before)
            return out

        monkeypatch.setattr(LinearInequality, "canonical", counted)
        monkeypatch.setattr(polytope, "_dedup", watched)
        ours = raw_project("ours.json")
        merged = remove_redundant(LinearSystem(("x", "y"), [ineq({"x": 2, "y": 1}, 6.0),
                                                            ineq({"x": 4, "y": 2}, 10.0)]))
        assert inside and set(inside) == {0}
        assert [(r.key(), r.rhs) for r in merged.inequalities] == \
            [((("x", Fraction(2)), ("y", Fraction(1))), 5.0)]
        monkeypatch.setattr(polytope, "_dedup", lambda rows: dedup([canonical(r) for r in rows]))
        assert ours == raw_project("theirs.json")


@st.composite
def derived_system(draw):
    """A system over 2-5 rate variables with small integer coefficients,
    plus rows that are sums, multiples or repeated directions of its rows,
    in shuffled order."""
    n_vars = draw(st.integers(2, 5))
    names = RATE_VARS[:n_vars]
    coeffs = st.lists(st.integers(-2, 3), min_size=n_vars, max_size=n_vars).filter(any)
    rows = draw(st.lists(st.tuples(coeffs, st.integers(-2, 16).map(lambda k: k / 2)),
                         min_size=1, max_size=6))
    for kind, i, j, k in draw(st.lists(st.tuples(
            st.sampled_from(["sum", "multiple", "direction"]), st.integers(0, 99),
            st.integers(0, 99), st.integers(0, 2)), max_size=6)):
        (ca, ba), (cb, bb) = rows[i % len(rows)], rows[j % len(rows)]
        if kind == "sum":
            c, rhs = [x + y for x, y in zip(ca, cb)], ba + bb + k / 2
        elif kind == "multiple":
            c, rhs = [(k + 2) * x for x in ca], (k + 2) * ba
        else:
            c, rhs = ca, ba + k - 1
        if any(c):
            rows.append((c, rhs))
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    return LinearSystem(names, [LinearInequality(dict(zip(names, c)), rhs)
                                for c, rhs in rows])


@st.composite
def near_empty_system(draw):
    """A system whose tightest row asks for 0 to 1e-6 less than that row's
    minimum over the box; every other row leaves at least 1/2 of room."""
    n_vars = draw(st.integers(2, 5))
    names = RATE_VARS[:n_vars]
    coeffs = st.lists(st.integers(-2, 3), min_size=n_vars, max_size=n_vars).filter(any)
    rows = []
    for c in draw(st.lists(coeffs, min_size=1, max_size=5)):
        low = polytope.BOX_HI * sum(min(x, 0) for x in c)
        rows.append(LinearInequality(dict(zip(names, c)), low + draw(st.integers(1, 40)) / 2))
    c = draw(coeffs)
    low = polytope.BOX_HI * sum(min(x, 0) for x in c)
    rows.insert(draw(st.integers(0, len(rows))), LinearInequality(
        dict(zip(names, c)), low - draw(st.floats(0.0, 1e-6))))
    return LinearSystem(names, rows)


def rate_region(rows):
    return RateRegion(LinearSystem(RATE_VARS, rows))


def pinned(system):
    return [(r.key(), r.rhs) for r in system.inequalities]


class TestLpFreeProofs:
    """Row-sum proofs decide before any LP; every decision stays the one
    the LP-only oracles make."""

    @given(derived_system())
    @settings(max_examples=80, deadline=None)
    def test_remove_redundant_matches_lp_only_oracle(self, system):
        assert pinned(remove_redundant(system)) == pinned(plain_remove_redundant(system))

    @given(derived_system(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_region_tests_match_lp_only_oracle(self, system, data):
        rows = system.inequalities
        picked = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=len(rows)))
        a = RateRegion(system)
        b = RateRegion(LinearSystem(system.variables, [rows[i] for i in picked]))
        regions = (a, b, RateRegion(remove_redundant(system)))
        subset = {(i, j): plain_region_subset(x, y)
                  for i, x in enumerate(regions) for j, y in enumerate(regions)}
        for i, x in enumerate(regions):
            assert is_feasible(x.system) == plain_feasible(x.system)
            for j, y in enumerate(regions):
                assert region_subset(x, y) == subset[i, j]
                assert regions_equal(x, y) == (subset[i, j] and subset[j, i])

    @given(derived_system(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_a_proved_row_holds_by_lp(self, system, data):
        rows = [r.canonical() for r in system.inequalities]
        usable = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                             max_size=len(rows))))
        sums = polytope._RowSums(polytope._Rows.of(LinearSystem(system.variables, rows)))
        live = LinearSystem(system.variables, [r for r, u in zip(rows, usable) if u])
        targets = rows + [ineq({v: 1}, 2.5) for v in system.variables]
        floats = polytope._Rows.of(LinearSystem(system.variables, targets))
        for target, coeffs, rhs in zip(targets, floats.a, floats.b):
            if not sums.holds(coeffs, rhs, usable):
                continue
            status, value, _ = maximize(live, {v: float(c) for v, c in target.coeffs.items()})
            assert status == "infeasible" or value <= target.rhs + polytope.REDUNDANCY_TOL

    @given(near_empty_system())
    @settings(max_examples=200, deadline=None)
    def test_feasibility_near_a_box_minimum_matches_lp_only_oracle(self, system):
        assert is_feasible(system) == plain_feasible(system)

    def test_a_row_beyond_rhs_within_lp_tolerance_is_left_to_the_lp(self):
        # a proof is exact: R1 <= 1 + 5e-7 does not prove R1 <= 1, the LP
        # decides (5e-7 is above its 1e-7 tolerance)
        loose = rate_region([ineq({"R1": 1}, 1.0 + 5e-7)])
        tight = rate_region([ineq({"R1": 1}, 1.0)])
        target = polytope._Rows.of(tight.system)
        assert not polytope._RowSums(polytope._Rows.of(loose.system)).holds(
            target.a[0], target.b[0])
        assert not region_subset(loose, tight)
        assert region_subset(tight, loose)

    def test_work_counts(self, monkeypatch):
        # one LP per kept facet of the projection, none for a region in
        # itself (hand count)
        solves = []
        solve = polytope.linprog
        monkeypatch.setattr(polytope, "linprog", lambda *a, **k: solves.append(1) or solve(*a, **k))
        region = project_raw_system(raw_coding_system(MiConstants(1.0, 0.9, 0.6, 0.5, 0.3)))
        assert len(region.system.inequalities) == 5
        assert len(solves) == 5
        solves.clear()
        assert region_subset(region, region)
        assert solves == []

    def test_empty_instance_projects_and_compares_without_lp(self, monkeypatch, tmp_path):
        # a benchmark-style empty instance, aux sizes (1, 2, 2): the covering
        # penalty empties both regions, and each emptiness is proved by a row
        # whose rhs lies below its minimum over the box
        rng = np.random.default_rng(4)
        kernel = rng.random((3, 4)) + 0.05
        joint = rng.random(4) + 0.02
        specs = {"channel": {"x_size": 3, "y1_size": 2, "y2_size": 2,
                             "kernel": (kernel / kernel.sum(axis=1, keepdims=True)).tolist()},
                 "scheme": {"u_sizes": [1, 2, 2], "joint": (joint / joint.sum()).tolist(),
                            "gamma": rng.integers(0, 3, size=4).tolist()}}
        for name, spec in specs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(spec))
        solves = []
        solve = polytope.linprog
        monkeypatch.setattr(polytope, "linprog", lambda *a, **k: solves.append(1) or solve(*a, **k))
        assert cli.main(["raw-project", "--channel", str(tmp_path / "channel.json"),
                         "--scheme", str(tmp_path / "scheme.json"),
                         "--out", str(tmp_path / "raw.json")]) == 0
        raw = json.loads((tmp_path / "raw.json").read_text())
        assert raw["equal"]
        assert min(row["rhs"] for row in raw["direct"]["inequalities"]) < 0
        for key in ("direct", "projection"):
            (tmp_path / f"{key}.json").write_text(json.dumps(raw[key]))
        assert cli.main(["compare", str(tmp_path / "direct.json"),
                         str(tmp_path / "projection.json"),
                         "--out", str(tmp_path / "c.json")]) == 0
        assert json.loads((tmp_path / "c.json").read_text()) == \
            {"equal": True, "a_subset_b": True, "b_subset_a": True}
        assert solves == []


class TestRegions:
    def region(self):
        return rate_region([
            ineq({"R1": 1, "R2": 1, "R4": 1}, 1.0),
            ineq({"R1": 1, "R3": 1, "R5": 1}, 1.2),
            ineq({"R1": 2, "R2": 1, "R3": 1, "R4": 1, "R5": 1}, 2.0),
        ])

    # contains is the membership oracle that the region and optimizer tests use
    def test_origin_inside(self):
        assert contains(self.region(), (0, 0, 0, 0, 0))

    def test_violation_outside(self):
        assert not contains(self.region(), (1.1, 0, 0, 0, 0))

    def test_facet_point_inside_closure(self):
        assert contains(self.region(), (1.0, 0.0, 0.0, 0.0, 0.0))

    def test_negative_entry_outside(self):
        assert not contains(self.region(), (-0.5, 0, 0, 0, 0))

    def test_equal_to_itself(self):
        r = self.region()
        assert regions_equal(r, r)

    def test_redundant_row_does_not_change_region(self):
        r = self.region()
        extra = rate_region(list(r.system.inequalities) +
                            [ineq({"R1": 1}, 5.0)])
        assert regions_equal(r, extra)

    def test_strict_subset_detected(self):
        r = self.region()
        smaller = rate_region([ineq({"R1": 1, "R2": 1, "R4": 1}, 0.5)] +
                              list(r.system.inequalities)[1:])
        assert region_subset(smaller, r)
        assert not region_subset(r, smaller)
        assert not regions_equal(r, smaller)

    def count_lps(self, monkeypatch):
        calls = []
        solve = polytope.maximize

        def counted(*args, **kwargs):
            calls.append(args[1])
            return solve(*args, **kwargs)

        monkeypatch.setattr(polytope, "maximize", counted)
        return calls

    def test_rows_a_region_states_need_no_lp(self, monkeypatch):
        r = self.region()
        calls = self.count_lps(monkeypatch)
        assert region_subset(r, r)
        # r contains its box's lower corner, the origin, so neither
        # feasibility check solves an LP
        assert calls == []
        assert regions_equal(r, r)
        assert calls == []

    def test_compare_solves_each_feasibility_lp_once(self, monkeypatch, tmp_path):
        r = self.region()
        smaller = rate_region([ineq({"R1": 1, "R2": 1, "R4": 1}, 0.5)] +
                              list(r.system.inequalities)[1:])
        paths = []
        for name, region in (("a", r), ("b", smaller)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(region.to_jsonable()))
        calls = self.count_lps(monkeypatch)
        assert cli.main(["compare", *map(str, paths), "--out", str(tmp_path / "c.json")]) == 0
        # both regions contain the origin: no feasibility LP at all; the one
        # LP is the row of b that no row sum of a proves
        assert calls == [{"R1": 1.0, "R2": 1.0, "R4": 1.0}]
        assert json.loads((tmp_path / "c.json").read_text()) == \
            {"equal": False, "a_subset_b": False, "b_subset_a": True}
        # with R1 >= 1/4 neither region holds the origin: one feasibility LP each
        for path, region in zip(paths, (r, smaller)):
            shifted = rate_region(list(region.system.inequalities) + [ineq({"R1": -1}, -0.25)])
            path.write_text(json.dumps(shifted.to_jsonable()))
        calls.clear()
        assert cli.main(["compare", *map(str, paths), "--out", str(tmp_path / "c.json")]) == 0
        assert [c for c in calls if not c] == [{}, {}]

    def test_empty_region_feasibility_solves_no_lp(self, monkeypatch):
        calls = self.count_lps(monkeypatch)
        # R1 <= -1 asks for 1 below the row's minimum over the box, 0
        assert not is_feasible(rate_region([ineq({"R1": 1}, -1.0)]).system)
        # -R1 - R2 <= -128.5 asks for 1/2 below its minimum, -128
        assert not is_feasible(rate_region([ineq({"R1": -1, "R2": -1}, -128.5)]).system)
        assert calls == []

    def test_row_stated_with_larger_rhs_still_solved(self, monkeypatch):
        r = self.region()
        rows = list(r.system.inequalities)
        tighter = rate_region([ineq({"R1": 2, "R2": 2, "R4": 2}, 1.0)] + rows[1:])
        calls = self.count_lps(monkeypatch)
        assert not region_subset(r, tighter)
        assert calls == [{"R1": 2.0, "R2": 2.0, "R4": 2.0}]
        calls.clear()
        assert region_subset(tighter, r)
        assert calls == []  # tighter states R1 + R2 + R4 <= 0.5 in canonical form

    def test_two_empty_regions_equal(self):
        empty1 = rate_region([ineq({"R1": 1}, -1.0)])
        empty2 = rate_region([ineq({"R2": 1, "R3": 1}, -0.5)])
        assert regions_equal(empty1, empty2)
        assert region_subset(empty1, empty2)

    def test_equality_is_symmetric_on_random_regions(self, rng):
        for _ in range(6):
            rows_a = [ineq({v: int(c) for v, c in zip(RATE_VARS, coeffs) if c},
                           float(rhs))
                      for coeffs, rhs in zip(rng.integers(0, 3, size=(3, 5)),
                                             rng.random(3) * 2)
                      if any(coeffs)]
            rows_b = [ineq({v: int(c) for v, c in zip(RATE_VARS, coeffs) if c},
                           float(rhs))
                      for coeffs, rhs in zip(rng.integers(0, 3, size=(3, 5)),
                                             rng.random(3) * 2)
                      if any(coeffs)]
            if not rows_a or not rows_b:
                continue
            a, b = rate_region(rows_a), rate_region(rows_b)
            assert regions_equal(a, b) == regions_equal(b, a)
            assert regions_equal(a, a) and regions_equal(b, b)

    def test_json_roundtrip(self):
        r = self.region()
        data = r.to_jsonable()
        back = RateRegion.from_jsonable(data)
        assert regions_equal(r, back)
        assert data["inequalities"][0]["coeffs"]["R1"] == "1"


class TestFixVariables:
    """The substitution oracle that the complementary-collapse tests use."""

    def test_substitution_folds_into_rhs(self):
        sys = LinearSystem(("x", "y"), [ineq({"x": 1, "y": 2}, 5.0)])
        out = fix_variables(sys, {"y": 1.5})
        (row,) = out.inequalities
        assert row.coeffs == {"x": Fraction(1)}
        assert row.rhs == pytest.approx(2.0)
        assert out.variables == ("x",)



class TestMaximize:
    def test_simple_lp(self):
        sys = LinearSystem(("x", "y"), [ineq({"x": 1, "y": 1}, 2.0)])
        status, value, point = maximize(sys, {"x": 1.0})
        assert status == "optimal"
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_infeasible_detected(self):
        sys = LinearSystem(("x",), [ineq({"x": 1}, -1.0)])
        status, _, _ = maximize(sys, {"x": 1.0})
        assert status == "infeasible"


@st.composite
def random_lp(draw):
    """linprog's arguments for an LP over 1-9 variables with 0-30 rows
    A_ub x <= b_ub and 0-3 rows A_eq x = b_eq: coefficients of a few digits,
    some rows all zero, some columns with no upper bound. The rows pass
    near a point of the unit box, in half of the LPs all with room to
    spare; now and then a row sits next to its negation with no room
    between them."""
    n = draw(st.integers(1, 9))
    value = st.floats(-4.0, 4.0).map(lambda v: round(v, 3))
    point = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))

    def block(rows, room):
        a = np.array(draw(st.lists(value, min_size=rows * n, max_size=rows * n)),
                     dtype=float).reshape(rows, n)
        zero = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        a[np.array(zero, dtype=bool)] = 0.0
        extra = draw(st.lists(room, min_size=rows, max_size=rows))
        return a, np.round(a @ point + np.array(extra, dtype=float), 3)

    a_ub, b_ub = block(draw(st.integers(0, 30)),
                       st.floats(-0.5 if draw(st.booleans()) else 0.0, 3.0))
    if len(a_ub) and draw(st.booleans()):
        i = draw(st.integers(0, len(a_ub) - 1))
        a_ub = np.vstack([a_ub, -a_ub[i]])
        b_ub = np.append(b_ub, -b_ub[i] - draw(st.sampled_from([0.0, 0.5])))
    a_eq, b_eq = block(draw(st.integers(0, 3)), st.just(0.0))
    c = np.array(draw(st.lists(value, min_size=n, max_size=n)), dtype=float)
    upper = draw(st.lists(st.sampled_from([None, 1.0, 4.0, polytope.BOX_HI]),
                          min_size=n, max_size=n))
    return dict(c=c, A_ub=a_ub if len(a_ub) else None, b_ub=b_ub if len(a_ub) else None,
                A_eq=a_eq if len(a_eq) else None, b_eq=b_eq if len(a_eq) else None,
                bounds=[(0.0, hi) for hi in upper])


def status_class(status):
    return {0: "optimal", 2: "infeasible"}.get(status, "other")


class TestLinprog:
    """polytope.linprog hands HiGHS the model and options that
    scipy.optimize.linprog(method="highs") does, so both solve alike."""

    @given(random_lp(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy_linprog_bitwise(self, lp, tight):
        options = ({"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
                   if tight else None)
        ours = polytope.linprog(**lp, options=options)
        theirs = scipy.optimize.linprog(**lp, method="highs", options=options)
        assert status_class(ours.status) == status_class(theirs.status)
        assert ours.success == theirs.success
        if ours.success:
            assert np.float64(ours.fun).tobytes() == np.float64(theirs.fun).tobytes()
            assert ours.x.tobytes() == np.asarray(theirs.x, dtype=float).tobytes()

    def test_feasibility_tolerances_reach_highs(self):
        """x <= -5e-8 with x >= 0 is within HiGHS's default 1e-7 tolerance,
        but infeasible at the bin-rate planner's 1e-10."""
        lp = dict(c=np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([-5e-8]),
                  bounds=[(0.0, None)])
        assert polytope.linprog(**lp).status == 0
        tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
        assert polytope.linprog(**lp, options=tight).status == 2
        assert scipy.optimize.linprog(**lp, method="highs", options=tight).status == 2

    @pytest.mark.parametrize("exc", [ValueError("vector::reserve"), RuntimeError("x"),
                                     MemoryError()])
    def test_an_exception_inside_highs_is_a_guard_error(self, monkeypatch, exc):
        """HiGHS raised ValueError("vector::reserve") on the bin-rate
        planner's LP at R4 = 1e307 (finite data), and on the same data it
        can crash the process, so the failure is stood in for here."""
        from scipy.optimize._highspy import _core

        class Failing(_core._Highs):
            def run(self):
                raise exc

        monkeypatch.setattr(_core, "_Highs", Failing)
        with pytest.raises(GuardError, match="LP solver failed"):
            polytope.linprog(np.array([1.0]), A_ub=np.array([[1.0]]), b_ub=np.array([1.0]),
                             bounds=[(0.0, None)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["c", "A_ub", "b_ub", "A_eq", "b_eq"])
    def test_a_nan_or_inf_coefficient_is_an_input_error(self, where, bad):
        lp = dict(c=np.array([-1.0, -1.0]), A_ub=np.array([[1.0, 2.0]]), b_ub=np.array([4.0]),
                  A_eq=np.array([[1.0, -1.0]]), b_eq=np.array([0.0]))
        lp[where] = lp[where].copy()
        lp[where].flat[0] = bad
        with pytest.raises(InputError):
            polytope.linprog(**lp, bounds=[(0.0, None)] * 2)

    def test_a_nan_bound_is_an_input_error_and_inf_is_no_bound(self):
        with pytest.raises(InputError):
            polytope.linprog(np.array([1.0]), bounds=[(math.nan, None)])
        res = polytope.linprog(np.array([1.0]), bounds=[(-1.0, math.inf)])
        assert res.success and res.fun == -1.0

    def test_a_nan_rhs_reaching_maximize_is_an_input_error(self):
        sys = LinearSystem(("x", "y"), [ineq({"x": 1, "y": 1}, math.nan)])
        with pytest.raises(InputError):
            maximize(sys, {"x": 1.0})

    def test_an_analyze_round_solves_58_lps_at_seed_3(self, monkeypatch, tmp_path):
        """Each LP is cheaper, not skipped: the benchmark's analyze job list
        at seed 3 makes as many solves as with scipy's wrapper."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads, worker = (importlib.import_module(m) for m in ("workloads", "worker"))
        plan = workloads.build("analyze", 3, str(tmp_path / "in"))
        solves = []
        for module in (polytope, classifier):
            solve = module.linprog
            monkeypatch.setattr(module, "linprog",
                                lambda *a, solve=solve, **k: solves.append(1) or solve(*a, **k))
        codes = worker.run_round(cli, plan["jobs"], str(tmp_path / "out"))
        assert set(codes.values()) == {0}
        assert len(solves) == 58
