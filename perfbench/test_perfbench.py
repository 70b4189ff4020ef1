"""Tests of the benchmark itself: every workload passes its checks in short
mode, traced and untraced, and each check rejects an output that breaks the
property it guards.

Run with: python3 -m pytest perfbench/test_perfbench.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run_short(tmp_args):
    proc = subprocess.run(RUN + ["--workload", "all", "--short", "--seconds", "0"] + tmp_args,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_short_untraced_passes_every_check():
    res = run_short(["--trace", "0"])
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    assert len(res["metrics"]) == 3 * len(workloads.WORKLOADS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_short_traced_reports_every_layer():
    res = run_short(["--trace", "1", "--seed", "2"])
    assert res["correct"] is True and res["failed"] == 0
    from run import PER_LAYER
    for w in workloads.WORKLOADS:
        for k in PER_LAYER:
            assert f"{w}.{k}" in res["metrics"]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["simulate.simulator.decode.candidates"] > 0
    assert m["simulate.simulator.encode.calls"] > 0
    assert m["analyze.lp.solves"] > 0 and m["analyze.polytope.fme_eliminate.rows_out"] > 0
    assert m["analyze.optimizer.lattice_candidates"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _report(**over):
    report = {
        "trials": 10, "encoder_fallbacks": 0, "rx1_errors": 3, "rx2_errors": 2,
        "rx1_events": {"none_typical": 0, "wrong_satellite": 0, "wrong_cloud": 3, "other": 0},
        "rx2_events": {"none_typical": 0, "wrong_satellite": 0, "wrong_cloud": 2, "other": 0},
        "pe_estimate": 0.4, "pe_half_width_95": 0.3,
        "sizes": {"m1": 4, "m4": 1, "m5": 1, "m21": 1, "m31": 1, "m22": 1, "m32": 1,
                  "l1": 1, "l2": 1},
        "nominal_rates": {k: 0.0 for k in checks.SIZE_RATES.values()},
        "realized_rates": {"m1": 0.5, **{k: 0.0 for k in checks.SIZE_RATES if k != "m1"}},
        "config": {"n": 4, "seed": 7},
    }
    report["nominal_rates"]["r1"] = 0.5
    report.update(over)
    return report


ARGV = ["simulate", "--rates", "R1=0.5", "--n", "4", "--trials", "10", "--seed", "7"]


def test_simulation_check_accepts_a_consistent_report():
    assert checks.check_simulation(_report(), ARGV) == []


@pytest.mark.parametrize("bad", [
    {"rx1_errors": 4},                                   # buckets no longer sum
    {"encoder_fallbacks": 11},                           # more than the trials
    {"pe_estimate": 0.1},                                # fewer than max(rx1, rx2)
    {"sizes": {**_report()["sizes"], "m1": 3}},          # not 2^(n R1)
    {"realized_rates": {**_report()["realized_rates"], "m1": 0.4}},
    {"config": {"n": 4, "seed": 8}},
])
def test_simulation_check_rejects(bad):
    assert checks.check_simulation(_report(**bad), ARGV)


def test_counting_bound():
    argv = ["simulate", "--n", "8"]
    sizes = {**_report()["sizes"], "m1": 2**16}
    # P(Bin(120, 1/256) > 9) < 1e-9, and 9 is the smallest such allowance
    assert checks.binomial_allowance(120, 1 / 256) == 9
    ok = _report(trials=120, rx1_errors=111, rx2_errors=115, sizes=sizes)
    assert checks.check_overloaded(ok, argv) == []
    bad = _report(trials=120, rx1_errors=110, rx2_errors=115, sizes=sizes)
    assert checks.check_overloaded(bad, argv)


def test_plain_loop_oracle_on_a_noiseless_channel(tmp_path):
    ch = tmp_path / "ch.json"
    ch.write_text(json.dumps(workloads.noiseless_spec(2)))
    scheme = tmp_path / "s.json"
    scheme.write_text(json.dumps({"u_sizes": [2, 1, 1], "joint": ["1/2", "1/2"],
                                  "gamma": [0, 1]}))
    rhs = checks.marton_rhs(checks.plain_constants(str(ch), str(scheme)))
    assert all(abs(v - 1.0) <= 1e-12 for k, v in rhs.items() if k != (2, 1, 1, 1, 1))
    assert abs(rhs[(2, 1, 1, 1, 1)] - 2.0) <= 1e-12
    region = {"inequalities": [
        {"coeffs": {v: str(c) for v, c in zip(checks.RATE_VARS, key) if c}, "rhs": val}
        for key, val in rhs.items()]}
    assert checks.check_direct(region, rhs) == []
    region["inequalities"][2]["rhs"] += 1e-6
    assert checks.check_direct(region, rhs)


def test_point_check_catches_a_moved_facet():
    region = {"inequalities": [{"coeffs": {"R1": "1", "R2": "1"}, "rhs": 1.0}]}
    moved = {"inequalities": [{"coeffs": {"R1": "1", "R2": "1"}, "rhs": 0.9}]}
    assert checks.check_points(region, region, [1]) == []
    assert checks.check_points(moved, region, [1])


def test_capability_gap_matches_binary_entropies():
    kernel = checks.load_channel_rows_from_spec(workloads.bsc_pair_spec("1/5", "1/10"))
    hb = lambda q: -q * math.log2(q) - (1 - q) * math.log2(1 - q)  # noqa: E731
    gap = checks.capability_gap(kernel, [0.5, 0.5])
    assert abs(gap - ((1 - hb(0.2)) - (1 - hb(0.1)))) <= 1e-12
    assert gap < 0


def test_slice_check():
    good = "angle_deg,R2,R3,scheme_id\n0,1.5,0,0\n"
    assert checks.check_slice(good, [{}]) == []
    assert checks.check_slice("angle_deg,R2,R3,scheme_id\n0,1.5,0.2,0\n", [{}])
    assert checks.check_slice(good, [])
