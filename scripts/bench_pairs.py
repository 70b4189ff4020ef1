#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as one BENCH file.

    python3 scripts/bench_pairs.py                 # parent = HEAD, change = working tree
    python3 scripts/bench_pairs.py --parent HEAD~1 --notes "..."

The committed files of the parent revision are unpacked with `git archive`
into a temporary directory. The workloads and the run length come from
BENCHMARK.json; workload w runs seeds SEED_BASE + 20w + 1 onwards. For each
of PAIRS pair indices and each workload, the two sides run one after the
other, the parent first in even-indexed pairs, and pairs of the workloads
interleave. TRACED_PAIRS traced pairs per workload at seed 3 (alternating
which side runs first) give the per-layer metrics, each side's median over
its traced runs: one traced pair swings by tens of percent on unchanged
code. The result is BENCH_<parent-sha>.json in the repository root:
parent_commit, change, machine, method, summary (with claim_rule_met per
workload and metric), notes, traced_seed_3 and runs, one entry per run with
its final JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
TRACED_PAIRS = 3
SEED_BASE = 500
METRICS = ("setup_s", "wall_s", "peak_rss_mb")
CLAIM_SHARE = 0.9  # a claimed gain reads lower in at least this share of the pairs


def _git(*args, cwd=ROOT, env=None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _quartile_distance(values: list) -> float:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def summarize(runs: list) -> dict:
    """Per workload and end-to-end metric: the median and quartile distance
    of each side's untraced runs, the number of pairs (same workload and
    seed) where the change reads lower, the change's median relative to the
    parent's, and claim_rule_met: the change reads lower in at least
    CLAIM_SHARE of the pairs and its median lies below the parent's by more
    than the parent's quartile distance."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        entry = {"pairs": len(pairs),
                 "all_correct": all(r["result"]["correct"] for r in mine),
                 "failed": sum(r["result"]["failed"] for r in mine)}
        for metric in METRICS:
            side = {s: [p[s]["metrics"][metric]["value"] for p in pairs]
                    for s in ("parent", "change")}
            parent, change = statistics.median(side["parent"]), statistics.median(side["change"])
            spread = _quartile_distance(side["parent"])
            lower = sum(c < p for p, c in zip(side["parent"], side["change"]))
            entry[metric] = {
                "parent_median": parent,
                "parent_quartile_distance": spread,
                "change_median": change,
                "change_quartile_distance": _quartile_distance(side["change"]),
                "change_lower_in_pairs": lower,
                "relative_change_of_median": change / parent - 1.0,
                "claim_rule_met": lower >= CLAIM_SHARE * len(pairs) and parent - change > spread,
            }
        out[workload] = entry
    return out


def traced_medians(runs: list) -> dict:
    """Per workload and side, the median of each metric over the traced
    runs."""
    values = {}
    for r in runs:
        if r["trace"]:
            side = values.setdefault(r["workload"], {}).setdefault(r["side"], {})
            for k, v in r["result"]["metrics"].items():
                side.setdefault(k, []).append(v["value"])
    return {w: {s: {k: statistics.median(v) for k, v in metrics.items()}
                for s, metrics in sides.items()} for w, sides in values.items()}


def _run(tree: str, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    command = (f"python3 perfbench/run.py --workload {workload} --seed {seed} "
               f"--seconds {seconds:g} --trace {trace}")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{command} in {tree} printed nothing:\n{proc.stderr[-4000:]}")
    return command, json.loads(lines[-1])


def _src_tree() -> str:
    """The git tree of the working tree's src/bcsi, through a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", "src/bcsi", env=env)
        return _git("write-tree", "--prefix=src/bcsi/", env=env)


def _machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--notes", default="", help="free text for the notes field")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = {w: SEED_BASE + 20 * k + 1 for k, w in enumerate(workloads)}
    parent = _git("rev-parse", args.parent)
    out = os.path.join(ROOT, f"BENCH_{parent[:7]}.json")
    parent_tree = tempfile.mkdtemp(prefix="bench-parent-")
    trees = {"parent": parent_tree, "change": ROOT}
    runs = []
    try:
        archive = subprocess.Popen(["git", "archive", parent], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(parent_tree)
        if archive.wait():
            raise RuntimeError(f"git archive {parent} failed")
        plan = [(p, w, seeds[w] + p, 0) for p in range(PAIRS) for w in workloads]
        plan += [(p, w, 3, 1) for p in range(TRACED_PAIRS) for w in workloads]
        for p, workload, seed, trace in plan:
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for k, side in enumerate(order, start=1):
                command, result = _run(trees[side], workload, seed, seconds, trace)
                sys.stderr.write(f"{workload} seed {seed} {side}: "
                                 f"{json.dumps(result['metrics'])[:200]}\n")
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "trace": bool(trace), "run_in_pair": k, "command": command,
                             "result": result})
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)

    seed_text = ", ".join(f"{w} seeds {s}-{s + PAIRS - 1}" for w, s in seeds.items())
    bench = {
        "parent_commit": parent,
        "change": {"src_bcsi_tree": _src_tree(),
                   "note": "working tree on top of parent_commit; src/bcsi measured at "
                           "the git tree above"},
        "machine": _machine(),
        "method": (f"alternating parent/change pairs (parent first in even-indexed pairs), "
                   f"one run after the other on the same machine, pairs of the workloads "
                   f"interleaved ({seed_text}); each line is the final JSON line of "
                   f"perfbench/run.py --seconds {seconds:g} --trace 0; the trace: true runs "
                   f"(seed 3: {TRACED_PAIRS} pairs per workload, in the order above) give the "
                   f"per-layer metrics, traced_seed_3 holds each side's median over them, and "
                   f"they are not part of the pairs; written by scripts/bench_pairs.py"),
        "summary": summarize(runs),
        "notes": args.notes,
        "traced_seed_3": traced_medians(runs),
        "runs": runs,
    }
    with open(out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
