"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from bcsi.classifier import (_capability_gap, is_degraded, is_deterministic,
                             is_more_capable_grid)
from bcsi.errors import GuardError
from bcsi.info_measures import mutual_information
from bcsi.optimizer import SearchConfig, maximize_weighted_rate
from bcsi.polytope import LinearInequality, regions_equal, remove_redundant
from bcsi.probability import (Alphabet, JointPmf, Pmf,
                              binary_symmetric_pair, blackwell_channel,
                              deterministic_channel, induced_joint,
                              noiseless_channel)
from bcsi.rate_regions import (SplitRates, deterministic_region, marton_region,
                               mi_constants, more_capable_region,
                               project_raw_system, raw_coding_system,
                               specialize_scheme)
from bcsi.simulator import SchemeConfig, estimate_error
from conftest import (csiszar_sum_check, random_channel, random_generic_channel,
                      random_joint, random_scheme, swap_receivers)
from oracles import evaluate_weighted_rate, fix_variables


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def key_of(coeffs):
    return LinearInequality({k: Fraction(v) for k, v in coeffs.items()}, 0.0) \
        .canonical().key()


EQ1 = key_of({"R1": 1, "R2": 1, "R4": 1})
EQ5 = key_of({"R1": 2, "R2": 1, "R3": 1, "R4": 1, "R5": 1})


def test_1_fme_pipeline_identity():
    with criterion("1 fme-pipeline-identity"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for trial in range(20):
            x = int(rng.integers(2, 4))
            y1 = int(rng.integers(2, 4))
            y2 = int(rng.integers(2, 4))
            sizes = tuple(int(s) for s in rng.integers(1, 3, size=3))
            scheme = random_scheme(rng, sizes, x)
            ch = random_channel(rng, x, y1, y2)
            projected = project_raw_system(
                raw_coding_system(mi_constants(scheme, ch)))
            direct = marton_region(scheme, ch)
            assert regions_equal(projected, direct), f"instance {trial}"
        elapsed = time.monotonic() - start
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_2_more_capable_specialization():
    with criterion("2 more-capable-specialization"):
        rng = np.random.default_rng(202)
        for trial in range(10):
            x = int(rng.integers(2, 4))
            ch = random_generic_channel(rng, x, int(rng.integers(2, 4)),
                                        int(rng.integers(2, 4)))
            p_ux = random_joint(rng, (int(rng.integers(2, 4)), x), names=("U", "X"))
            scheme = specialize_scheme("more_capable", p_ux, ch)
            full = marton_region(scheme, ch)
            assert regions_equal(full, more_capable_region(p_ux, ch)), \
                f"instance {trial}"
            reduced = remove_redundant(full.system)
            keys = {i.key() for i in reduced.inequalities}
            assert EQ1 not in keys and EQ5 not in keys, f"instance {trial}"


def test_3_deterministic_specialization():
    with criterion("3 deterministic-specialization"):
        rng = np.random.default_rng(303)
        for trial in range(10):
            x = int(rng.integers(2, 5))
            m1 = int(rng.integers(2, 4))
            m2 = int(rng.integers(2, 4))
            phi1 = rng.integers(0, m1, size=x).tolist()
            phi2 = rng.integers(0, m2, size=x).tolist()
            ch = deterministic_channel(phi1, phi2, m1, m2)
            p_ux = random_joint(rng, (int(rng.integers(2, 4)), x), names=("U", "X"))
            scheme = specialize_scheme("deterministic", p_ux, ch)
            assert regions_equal(marton_region(scheme, ch),
                                 deterministic_region(p_ux, ch)), f"instance {trial}"


def test_4_complementary_collapse():
    with criterion("4 complementary-collapse"):
        ch = binary_symmetric_pair(0.1, 0.2)
        px = Pmf.uniform(Alphabet.indexed("X", 2))
        scheme = specialize_scheme("complementary", px, ch)
        region = marton_region(scheme, ch)
        sliced = fix_variables(region.system, {"R2": 0.0, "R3": 0.0})
        cleaned = remove_redundant(sliced)
        j = induced_joint(scheme, ch)
        i1 = mutual_information(j, ("X",), ("Y1",))
        i2 = mutual_information(j, ("X",), ("Y2",))
        keyed = {i.key(): i.rhs for i in cleaned.inequalities}
        assert set(keyed) == {key_of({"R1": 1, "R4": 1}),
                              key_of({"R1": 1, "R5": 1})}
        assert keyed[key_of({"R1": 1, "R4": 1})] == i1
        assert keyed[key_of({"R1": 1, "R5": 1})] == i2


def test_5_csiszar_sum_identity():
    with criterion("5 csiszar-sum-identity"):
        rng = np.random.default_rng(505)
        start = time.monotonic()
        for trial in range(100):
            n = 2 if trial % 2 == 0 else 3
            sizes = (2,) * (1 + 2 * n)
            mass = rng.random(sizes) + 0.01
            mass /= mass.sum()
            names = ["T"] + [f"A{i}" for i in range(1, n + 1)] + \
                [f"B{i}" for i in range(1, n + 1)]
            j = JointPmf(tuple(Alphabet.indexed(nm, 2) for nm in names), mass)
            lhs, rhs = csiszar_sum_check(
                j, ["T"], [f"A{i}" for i in range(1, n + 1)],
                [f"B{i}" for i in range(1, n + 1)])
            assert abs(lhs - rhs) <= 1e-9, f"instance {trial}: {lhs} vs {rhs}"
        elapsed = time.monotonic() - start
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_6_classifier_consistency():
    with criterion("6 classifier-consistency"):
        pair = binary_symmetric_pair(0.1, 0.2)
        assert is_degraded(pair).holds
        assert is_more_capable_grid(pair, 32).holds

        swapped = swap_receivers(pair)
        verdict = is_more_capable_grid(swapped, 32)
        assert not verdict.holds
        witness = np.asarray(verdict.witness["p_x"])
        assert _capability_gap(witness, swapped) < -1e-9

        bw = blackwell_channel()
        assert is_deterministic(bw).holds
        assert not is_degraded(bw).holds


def test_7_simulator_achievability_trend():
    with criterion("7 simulator-achievability-trend"):
        start = time.monotonic()
        ch = noiseless_channel(2)
        scheme = specialize_scheme("complementary",
                                   Pmf.uniform(Alphabet.indexed("X", 2)), ch)
        pes = []
        for n in (4, 8, 12):
            cfg = SchemeConfig(scheme=scheme, n=n, rates=SplitRates(r1=0.5),
                               eps=0.3, seed=77)
            pes.append(estimate_error(ch, cfg, 500).pe_estimate)
        assert pes[0] > pes[1] > pes[2], f"not strictly decreasing: {pes}"
        assert pes[2] <= 0.1, f"pe at n=12 is {pes[2]}"

        # overloaded rate: the desk-scale cap excludes n=12 (2^24 messages),
        # so the counting-bound check runs at n in {4, 8}
        for n in (4, 8):
            cfg = SchemeConfig(scheme=scheme, n=n, rates=SplitRates(r1=2.0),
                               eps=0.3, seed=77)
            pe = estimate_error(ch, cfg, 500).pe_estimate
            assert pe >= 0.3, f"overloaded pe at n={n} is {pe}"
        with pytest.raises(GuardError):
            SchemeConfig(scheme=scheme, n=12, rates=SplitRates(r1=2.0),
                         eps=0.3, seed=77)
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0, f"took {elapsed:.1f}s"


def test_8_optimizer_monotonicity():
    with criterion("8 optimizer-monotonicity"):
        ch = blackwell_channel()
        weights = (0.0, 1.0, 1.0, 0.0, 0.0)
        values = []
        for resolution in (5, 7, 9):
            cfg = SearchConfig(aux_sizes=(5, 1, 1), grid_resolution=resolution,
                               restarts=2, seed=808)
            res = maximize_weighted_rate(ch, weights, "t2", cfg)
            again = evaluate_weighted_rate(ch, "t2", weights, p_ux=res.p_ux)
            assert abs(again - res.value) <= 1e-9
            values.append(res.value)
        assert values[0] <= values[1] <= values[2], f"decreasing: {values}"


NOISELESS_SPEC = {
    "x_size": 2, "y1_size": 2, "y2_size": 2,
    "kernel": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
}
AUX_SPEC = {"u_sizes": [2, 1, 1], "joint": ["1/2", "1/2"], "gamma": [0, 1]}


def test_9_cli_determinism(tmp_path):
    with criterion("9 cli-determinism"):
        ch_path = tmp_path / "ch.json"
        ch_path.write_text(json.dumps(NOISELESS_SPEC))
        aux_path = tmp_path / "aux.json"
        aux_path.write_text(json.dumps(AUX_SPEC))
        region_path = tmp_path / "region.json"

        commands = [
            ["validate", "--channel", str(ch_path), "--scheme", str(aux_path)],
            ["classify", "--channel", str(ch_path), "--resolution", "8"],
            ["region", "--theorem", "t1", "--channel", str(ch_path),
             "--scheme", str(aux_path), "--out", str(region_path)],
            ["raw-project", "--channel", str(ch_path), "--scheme", str(aux_path)],
            ["optimize", "--channel", str(ch_path), "--theorem", "t1",
             "--weights", "0,0,0,1,0", "--aux-sizes", "2,1,1",
             "--resolution", "3", "--seed", "5"],
            ["slice", "--channel", str(ch_path), "--theorem", "t1",
             "--free", "R2,R3", "--fixed", "R1=0,R4=0,R5=0",
             "--aux-sizes", "2,2,2", "--resolution", "3",
             "--directions", "5", "--seed", "5"],
            ["simulate", "--channel", str(ch_path), "--scheme", str(aux_path),
             "--rates", "R1=0.5", "--n", "6", "--trials", "100", "--seed", "5"],
        ]
        for args in commands:
            runs = []
            for _ in range(2):
                proc = subprocess.run([sys.executable, "-m", "bcsi.cli"] + args,
                                      capture_output=True)
                assert proc.returncode == 0, (args, proc.stderr)
                runs.append(proc.stdout)
            assert runs[0] == runs[1], f"nondeterministic output for {args[0]}"

        proc1 = subprocess.run(
            [sys.executable, "-m", "bcsi.cli", "compare", str(region_path),
             str(region_path)], capture_output=True)
        proc2 = subprocess.run(
            [sys.executable, "-m", "bcsi.cli", "compare", str(region_path),
             str(region_path)], capture_output=True)
        assert proc1.returncode == 0
        assert proc1.stdout == proc2.stdout
        assert json.loads(proc1.stdout)["equal"] is True
