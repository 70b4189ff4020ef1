"""Benchmark for the bcsi toolkit: one workload per invocation, or both.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --short     # every check, in seconds

The workload's inputs are generated from --seed into a scratch directory
under perfbench/_runs/, and the program receives only those files. A run
measures set-up in fresh interpreters, then runs whole rounds of the
workload's job list through bcsi.cli.main in one process of its own for
--seconds, checks every output of every round, and prints one JSON line
last: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
The exit code is 0 only when every operation passed its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# The program's matrices are tiny; one BLAS thread per process keeps the
# two cores of a small machine from fighting over them.
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
LOADERS = {"channel": "load_channel", "scheme": "load_aux_scheme"}
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bcsi.cli as cli
pairs = sys.argv[2:]
for kind, path in zip(pairs[::2], pairs[1::2]):
    getattr(cli, kind)(path)
print(time.perf_counter() - t0)
"""
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import bcsi.cli"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulator.codebook.s": "s", "simulator.codebook.mb": "MB",
    "simulator.decode_rx1.s": "s", "simulator.decode_rx2.s": "s",
    "simulator.decode.candidates": "count", "simulator.decode.candidates_per_s": "1/s",
    "simulator.trials_per_s": "1/s", "simulator.encode.s": "s",
    "simulator.encode.calls": "count", "simulator.encode.fallbacks": "count",
    "simulator.plan_split_rates.s": "s",
    "rate_regions.project_raw_system.s": "s", "rate_regions.mi_constants.s": "s",
    "rate_regions.mi_constants.calls": "count",
    "polytope.fme_eliminate.s": "s", "polytope.fme_eliminate.rows_out": "count",
    "polytope.remove_redundant.s": "s", "polytope.remove_redundant.rows_in": "count",
    "polytope.maximize.calls": "count", "polytope.maximize.s": "s",
    "polytope.region_subset.s": "s",
    "lp.solves": "count", "lp.s": "s",
    "info_measures.mutual_information.calls": "count",
    "info_measures.conditional_mutual_information.calls": "count",
    "info_measures.s": "s",
    "optimizer.maximize_weighted_rate.t1.s": "s",
    "optimizer.maximize_weighted_rate.t2.s": "s",
    "optimizer.union_slice_2d.s": "s", "optimizer.lattice_candidates": "count",
    "optimizer.lattice_candidates_per_s": "1/s",
    "simplex_search.refine_on_simplex.s": "s",
    "simplex_search.refine_on_simplex.calls": "count",
    "classifier.is_degraded.s": "s", "classifier.is_more_capable_grid.s": "s",
    "classifier.is_less_noisy_grid.s": "s",
    **{f"cli.{verb}.s": "s" for verb in ("validate", "classify", "region", "raw-project",
                                          "optimize", "slice", "simulate", "compare")},
    "cli.emit.s": "s", "probability.load.s": "s",
    "import.bcsi_cli.s": "s", "import.scipy_optimize.s": "s", "import.numpy.s": "s",
    "machine.ref_loop.s": "s", "trace.overhead.s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def measure_setup(inputs: list) -> float:
    """Median over fresh interpreters of import bcsi.cli plus loading the
    workload's input files; one unmeasured start first warms the caches."""
    args = [sys.executable, "-c", SETUP_CODE, SRC]
    for kind, path in inputs:
        args += [LOADERS[kind], path]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(args, capture_output=True, text=True, env=child_env(),
                              timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        if i:
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def import_breakdown() -> dict:
    """Cumulative import times from -X importtime in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE, SRC],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    cumulative = {}
    bcsi_total = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[1].strip().isdigit():
            continue  # header
        name = parts[2].rstrip()
        cum = int(parts[1])
        cumulative.setdefault(name.strip(), cum)
        if name.startswith(" bcsi") and not name.startswith("  "):
            bcsi_total += cum  # top level of `import bcsi.cli`
    return {"import.bcsi_cli.s": bcsi_total / 1e6,
            "import.scipy_optimize.s": cumulative.get("scipy.optimize", 0) / 1e6,
            "import.numpy.s": cumulative.get("numpy", 0) / 1e6}


def run_worker(plan: dict, run_dir: str, seconds: float, trace: bool) -> dict:
    """Run the rounds in a process of their own; the timeout keeps a hung
    program inside the 180 s a run may take."""
    plan_path = os.path.join(run_dir, "plan.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(plan_path, "w") as fh:
        json.dump({"src": SRC, "jobs": plan["jobs"], "run_dir": os.path.join(run_dir, "out"),
                   "seconds": seconds, "trace": trace}, fh)
    with open(os.path.join(run_dir, "worker.log"), "w") as log:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               plan_path, result_path], stdout=log, stderr=log,
                              env=child_env(), timeout=2 * seconds + 40)
    if proc.returncode != 0:
        with open(os.path.join(run_dir, "worker.log")) as fh:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{fh.read()[-4000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def job_outputs(job: dict, out_dir: str) -> dict:
    out = job["argv"][job["argv"].index("--out") + 1]
    paths = [out] + ([out + ".schemes.json"] if job["argv"][0] == "slice" else [])
    texts = {}
    for p in paths:
        try:
            with open(p.format(out=out_dir)) as fh:
                texts[p] = fh.read()
        except OSError:
            texts[p] = None
    return texts


def check_rounds(workload: str, plan: dict, result: dict, run_dir: str) -> tuple:
    """Every CLI job of every round is one operation. It fails on a nonzero
    exit, on a failed check of its output, or when its output differs from
    the first round's, which reran it with the same seed."""
    attempted, failed, problems = 0, 0, []
    first = {}
    for r, rnd in enumerate(result["rounds"]):
        out_dir = os.path.join(run_dir, "out", f"r{r}")
        for job in plan["jobs"]:
            if job["kind"] != "cli":
                continue
            attempted += 1
            name = job["name"]
            rc = rnd["rcs"].get(name)
            texts = job_outputs(job, out_dir)
            if rc != 0 or None in texts.values():
                errs = [f"exit {rc!r}"]
            elif r == 0:
                try:
                    errs = checks.check_job(job["part"], job, texts,
                                            plan["params"][job["part"]])
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    errs = [f"malformed output: {type(exc).__name__}: {exc}"]
                first[name] = (texts, errs)
            elif texts != first[name][0]:
                errs = ["output differs from the first round's, same seed"]
            else:
                errs = first[name][1]
            if errs:
                failed += 1
                problems.append(f"round {r} {name}: {'; '.join(errs)}")
    return attempted, failed, problems


def layer_metrics(workload: str, plan: dict, result: dict, run_dir: str) -> tuple:
    st = result["layers"]
    get = lambda k: st.get(k, 0.0)  # noqa: E731
    rounds = result["rounds"]
    metrics = {k: get(k) for k in PER_LAYER if k in st}
    candidates = trials = fallbacks = 0
    for job in plan["jobs"]:
        if job["kind"] == "cli" and job["argv"][0] == "simulate":
            texts = job_outputs(job, os.path.join(run_dir, "out", "r0"))
            rep = json.loads(next(iter(texts.values())))
            sz = rep["sizes"]
            rx1 = sz["m1"] * sz["m4"] * sz["m21"] * sz["m31"] * sz["m22"] * sz["l1"]
            rx2 = sz["m1"] * sz["m5"] * sz["m21"] * sz["m31"] * sz["m32"] * sz["l2"]
            candidates += (rx1 + rx2) * rep["trials"]
            trials += rep["trials"]
            fallbacks += rep["encoder_fallbacks"]
    decode_s = get("simulator.decode_rx1.s") + get("simulator.decode_rx2.s")
    search_s = (get("optimizer.maximize_weighted_rate.t1.s")
                + get("optimizer.maximize_weighted_rate.t2.s")
                + get("optimizer.union_slice_2d.s"))
    untraced = [r["wall"] for r in rounds if not r["traced"]]
    traced = [r["wall"] for r in rounds if r["traced"]]
    metrics.update({
        "simulator.decode.candidates": float(candidates),
        "simulator.decode.candidates_per_s": candidates / decode_s if decode_s else 0.0,
        "simulator.trials_per_s": (trials / get("simulator.estimate_error.s")
                                   if trials else 0.0),
        "simulator.encode.fallbacks": float(fallbacks),
        "lp.solves": get("lp.calls"),
        "info_measures.s": sum(get(f"info_measures.{f}.s") for f in
                               ("mutual_information", "conditional_mutual_information",
                                "entropy")),
        "optimizer.lattice_candidates_per_s": (get("optimizer.lattice_candidates") / search_s
                                               if search_s else 0.0),
        "machine.ref_loop.s": result["ref_loop_s"],
        "trace.overhead.s": statistics.median(traced) - statistics.median(untraced),
    })
    metrics.update(import_breakdown())
    expected = {k for part in workloads.WORKLOADS[workload] for k in layers.EXPECTED_CALLS[part]}
    missing = sorted(k for k in expected if not st.get(k + ".calls"))
    problems = [f"traced entry point {k} recorded no call" for k in missing]
    return {k: metrics.get(k, 0.0) for k in PER_LAYER}, problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    os.makedirs(os.path.join(HERE, "_runs"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=os.path.join(HERE, "_runs"))
    try:
        plan = workloads.build(workload, seed, os.path.join(run_dir, "in"), short)
        setup_s = measure_setup(plan["inputs"])
        result = run_worker(plan, run_dir, seconds, trace)
        attempted, failed, problems = check_rounds(workload, plan, result, run_dir)
        walls = [r["wall"] for r in result["rounds"] if not r["traced"]]
        if trace:
            metrics, more = layer_metrics(workload, plan, result, run_dir)
            problems += more
            units = PER_LAYER
        else:
            # the mean, not the median: rounds within one run fall into the
            # machine's fast and slow phases, and a median of a few such
            # rounds jumps between them
            metrics = {"setup_s": setup_s, "wall_s": statistics.fmean(walls),
                       "peak_rss_mb": result["peak_rss_mb"]}
            units = END_TO_END
        for p in problems:
            sys.stderr.write(f"{workload}: FAIL {p}\n")
        sys.stderr.write(
            f"{workload}: seed {seed}, {len(result['rounds'])} rounds "
            f"({', '.join(f'{w:.3f}' for w in walls)} s untraced), setup {setup_s:.4f} s, "
            f"peak {result['peak_rss_mb']:.1f} MB, ref_loop {result['ref_loop_s']:.4f} s, "
            f"{failed}/{attempted} failed\n")
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="reduced job lists: every check, in seconds")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bcsi", "cli.py")):
        sys.stderr.write(f"error: no bcsi sources under {SRC}; run from a checkout\n")
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), args.short)
        prefix = f"{name}." if args.workload == "all" else ""
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][prefix + k] = v
    for k, v in total["metrics"].items():
        sys.stderr.write(f"  {k} = {v['value']:.6g} {v['unit']}\n")
    print(json.dumps(total))
    return 0 if total["correct"] and total["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
