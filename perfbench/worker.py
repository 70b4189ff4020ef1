"""The workload's own process: runs whole rounds of a job list through
``bcsi.cli.main`` and writes the round times (and, traced, the layer
counters) to a JSON file.

Usage: python3 worker.py PLAN.json RESULT.json

Untraced, rounds repeat until the next one would overrun the time budget
(at least two, so that every run reruns each job with the same seed). Traced, untraced and traced rounds alternate so
that their difference, the tracing overhead, is taken under the same
machine speed.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

MIN_ROUNDS = 2


def ref_loop() -> float:
    """A fixed piece of pure Python and numpy work with no bcsi code; its
    time shows how fast the machine ran during this run."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += (i * i) % 7
    a = np.linspace(0.0, 1.0, 100_000)
    for _ in range(200):
        a = np.sqrt(a * a + 1e-3)
    return time.perf_counter() - t0


def run_round(cli, jobs, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    rcs = {}
    for job in jobs:
        if job["kind"] == "extract":
            with open(job["src"].format(out=out_dir)) as fh:
                data = json.load(fh).get(job["key"])
            with open(job["dst"].format(out=out_dir), "w") as fh:
                json.dump(data, fh)
            continue
        argv = [a.format(out=out_dir) for a in job["argv"]]
        try:
            rcs[job["name"]] = cli.main(argv)
        except SystemExit as exc:
            rcs[job["name"]] = f"exit {exc.code}"
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rcs[job["name"]] = f"{type(exc).__name__}: {exc}"
    return rcs


def time_codebooks(captured, sample: int = 200) -> dict:
    """Codebook draws for the workload's simulate configs through the public
    generate_codebooks, one per trial as estimate_error makes them. At most
    `sample` draws per config are timed and scaled to its trial count."""
    from dataclasses import replace

    from bcsi import simulator

    seconds, peak_bytes = 0.0, 0
    for ch, cfg, trials in captured:
        drawn = min(trials, sample)
        t0 = time.perf_counter()
        for k in range(drawn):
            books = simulator.generate_codebooks(replace(cfg, seed=k), ch)
        seconds += (time.perf_counter() - t0) * trials / drawn
        peak_bytes = max(peak_bytes, books.cb0.nbytes + books.cb1.nbytes + books.cb2.nbytes)
    return {"simulator.codebook.s": seconds, "simulator.codebook.mb": peak_bytes / 2**20}


def lattice_candidates(cli, jobs) -> float:
    """Lattice points swept by the optimize and slice jobs of one round."""
    from bcsi.optimizer import PER_LEVEL_CAP, default_aux_sizes
    from bcsi.simplex_search import lattice_count

    total = 0
    parser = cli.build_parser()
    for job in jobs:
        if job["kind"] != "cli" or job["argv"][0] not in ("optimize", "slice"):
            continue
        args = parser.parse_args([a.format(out=".") for a in job["argv"]])
        x_size = cli.load_channel(args.channel).x.size
        sizes = (tuple(int(s) for s in args.aux_sizes.split(","))
                 if args.aux_sizes else default_aux_sizes(args.theorem, x_size))
        cells = sizes[0] * sizes[1] * sizes[2] if args.theorem == "t1" else sizes[0] * x_size
        for level in range(2, args.resolution + 1):
            total += min(lattice_count(cells, level), PER_LEVEL_CAP)
    return float(total)


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import bcsi.cli as cli

    import layers

    ref = [ref_loop() for _ in range(3)]
    jobs = plan["jobs"]
    rounds = []
    captured = []
    budget = plan["seconds"]
    start = time.perf_counter()
    while True:
        traced = plan["trace"] and len(rounds) % 2 == 1
        tracer = layers.install(layers.Tracer(), captured) if traced else None
        t0 = time.perf_counter()
        try:
            rcs = run_round(cli, jobs, os.path.join(plan["run_dir"], f"r{len(rounds)}"))
        finally:
            if tracer is not None:
                tracer.close()
        wall = time.perf_counter() - t0
        rounds.append({"wall": wall, "traced": traced, "rcs": rcs,
                       "stats": tracer.stats if tracer else None})
        elapsed = time.perf_counter() - start
        step = max(r["wall"] for r in rounds[-2:]) if plan["trace"] else \
            statistics.median(r["wall"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + step > budget:
            break
    result = {"rounds": [{k: v for k, v in r.items() if k != "stats"} for r in rounds],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "ref_loop_s": statistics.median(ref)}
    if plan["trace"]:
        stats = [r["stats"] for r in rounds if r["traced"]]
        keys = sorted({k for s in stats for k in s})
        result["layers"] = {k: statistics.median(s.get(k, 0.0) for s in stats)
                            for k in keys}
        # every traced round captures the same configs; draw for one round's
        sims = sum(1 for j in jobs if j["kind"] == "cli" and j["argv"][0] == "simulate")
        result["layers"].update(time_codebooks(captured[:sims]))
        result["layers"]["optimizer.lattice_candidates"] = lattice_candidates(cli, jobs)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
