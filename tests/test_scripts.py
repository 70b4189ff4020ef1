"""Smoke runs of the example scripts, in-process and at small sizes."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_noiseless_trend(capsys):
    assert _load("noiseless_trend").main(["--trials", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["rate", "n", "pe", "ci95", "fallbacks"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [["0.50", "4"], ["0.50", "8"], ["0.50", "12"],
                                         ["2.00", "4"], ["2.00", "8"], ["2.00", "12"]]
    # overloaded: a trial decodes right only when its cloud word is the
    # first of the words equal to the received one (the default guess of an
    # ambiguous search), which at n = 4 happens in about 1 of 16 trials
    assert [row[2] for row in rows[3:5]] == ["0.9500", "1.0000"]
    assert rows[5][2] == "skipped"  # 2^24 cloud words exceed the desk-scale cap


def test_blackwell_slice(capsys, tmp_path):
    out = tmp_path / "slice.csv"
    assert _load("blackwell_slice").main(["--resolution", "3", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "max R2+R3 = 1.584963" in text
    assert f"wrote {out}" in text
    lines = out.read_text().splitlines()
    assert lines[0] == "angle_deg,R2,R3,scheme_id"
    assert len(lines) == 1 + 17


def test_blackwell_slice_prints_no_negative_zero(capsys, tmp_path):
    """At its defaults the slice has R3 = 0 at 0 degrees and R2 = 0 at 90."""
    out = tmp_path / "slice.csv"
    assert _load("blackwell_slice").main(["--out", str(out)]) == 0
    text, csv = capsys.readouterr().out, out.read_text()
    assert "-0" not in text and "-0" not in csv
    assert ",0.000000000," in csv


def test_classify_channels(capsys):
    assert _load("classify_channels").main() == 0
    verdicts = {}
    for line in capsys.readouterr().out.splitlines():
        cells = line.rsplit(maxsplit=4)
        if len(cells) == 5 and set(cells[1:]) <= {"True", "False"}:
            verdicts[cells[0].strip()] = [c == "True" for c in cells[1:]]
    # deterministic, degraded, less_noisy, more_capable
    assert verdicts == {
        "noiseless binary": [True, True, True, True],
        "crossover 0.1 / 0.2": [False, True, True, True],
        "crossover 0.2 / 0.1 (swapped)": [False, False, False, False],
        "blackwell maps": [True, False, False, False],
        "y2 constant": [False, True, True, True],
    }


def _run_line(workload, seed, side, wall, setup=0.1, rss=80.0, trace=False, failed=0):
    metrics = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss}
    return {"workload": workload, "seed": seed, "side": side, "trace": trace,
            "run_in_pair": 1, "command": "",
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}}


def test_bench_pairs_summary():
    """Medians, wins per pair and inclusive quartile distances of synthetic
    run lines; traced runs and unpaired runs are left out."""
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 2.0, 3.0, 6.0]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run_line("analyze", seed, "parent", p),
                 _run_line("analyze", seed, "change", c, failed=int(seed == 4))]
    runs += [_run_line("analyze", 3, "parent", 99.0, trace=True),
             _run_line("analyze", 9, "parent", 99.0)]
    summary = _load("bench_pairs").summarize(runs)
    wall = summary["analyze"]["wall_s"]
    assert summary["analyze"]["pairs"] == 5
    assert summary["analyze"]["failed"] == 1 and not summary["analyze"]["all_correct"]
    assert wall["parent_median"] == 3.0 and wall["change_median"] == 2.5
    assert wall["parent_quartile_distance"] == 2.0  # 4.0 - 2.0
    assert wall["change_quartile_distance"] == 1.0  # 3.0 - 2.0
    assert wall["change_lower_in_pairs"] == 3
    assert wall["relative_change_of_median"] == 2.5 / 3.0 - 1.0
    assert summary["analyze"]["setup_s"]["change_lower_in_pairs"] == 0  # ties are not wins
    assert not wall["claim_rule_met"]  # lower in 3 of 5 pairs


def test_bench_pairs_claim_rule():
    """A claim holds when the change reads lower in at least 9 of 10 pairs
    and its median gap exceeds the parent's quartile distance."""
    bench = _load("bench_pairs")

    def met(parent, change):
        runs = []
        for seed, (p, c) in enumerate(zip(parent, change)):
            runs += [_run_line("analyze", seed, "parent", p),
                     _run_line("analyze", seed, "change", c)]
        return bench.summarize(runs)["analyze"]["wall_s"]["claim_rule_met"]

    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartile distance 0.45
    assert met(parent, [p - 0.5 for p in parent])
    assert met(parent, [p - 0.5 for p in parent[:9]] + [9.0])  # 9 of 10 pairs
    assert not met(parent, [p - 0.5 for p in parent[:8]] + [9.0, 9.0])  # 8 of 10
    assert not met(parent, [p - 0.4 for p in parent])  # gap 0.4 within the spread


def test_noiseless_trend_bad_arguments_exit_1(capsys):
    """An invalid slack or trial count ends in one error line and exit 1,
    not a traceback."""
    for argv in (["--eps", "0"], ["--eps", "inf"], ["--trials", "0"]):
        assert _load("noiseless_trend").main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_blackwell_slice_bad_arguments_exit_1(capsys, tmp_path):
    """An invalid grid, direction count, auxiliary cap or seed, or an --out
    that is a directory, ends in one error line and exit 1, not a
    traceback."""
    cases = (["--resolution", "1"], ["--directions", "0"], ["--u-cap", "0"],
             ["--seed", "-1"], ["--resolution", "2", "--directions", "1", "--out", str(tmp_path)])
    for argv in cases:
        assert _load("blackwell_slice").main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_bench_pairs_traced_medians():
    """Per-layer metrics are each side's median over its traced runs;
    untraced runs are left out."""
    runs = [_run_line("simulate", 3, side, wall, trace=True)
            for side, wall in (("parent", 3.0), ("change", 5.0), ("change", 1.0),
                               ("parent", 1.0), ("parent", 2.5), ("change", 2.0))]
    runs.append(_run_line("simulate", 3, "parent", 99.0))
    traced = _load("bench_pairs").traced_medians(runs)
    assert traced == {"simulate": {
        "parent": {"setup_s": 0.1, "wall_s": 2.5, "peak_rss_mb": 80.0},
        "change": {"setup_s": 0.1, "wall_s": 2.0, "peak_rss_mb": 80.0}}}
