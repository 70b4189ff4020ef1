"""Per-layer tracing from outside the program.

Each public function is wrapped at the name its caller looks it up by:
``rate_regions`` calls ``fme_eliminate`` through the name it imported, and
``cli`` calls its library functions the same way, so wrapping only the
defining module would record nothing. A wrapper adds its wall time to
``<name>.s`` and one to ``<name>.calls``; times are inclusive of nested
wrapped calls (``polytope.maximize`` runs inside ``remove_redundant``).
"""

from __future__ import annotations

import time

VERBS = ("validate", "classify", "region", "raw_project", "optimize", "slice",
         "simulate", "compare")


class Tracer:
    """Installs wrappers, accumulates into ``stats``, and restores on close."""

    def __init__(self):
        self.stats = {}
        self._patches = []

    def add(self, key: str, value: float):
        self.stats[key] = self.stats.get(key, 0.0) + value

    def wrap(self, module, attr: str, name, after=None):
        """name is a string or a function of the call's positional args;
        after(tracer, args, kwargs, result) records extra counts."""
        original = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.add(label + ".s", time.perf_counter() - t0)
                tracer.add(label + ".calls", 1)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def close(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def install(tracer: Tracer, captured_sims: list) -> Tracer:
    """Wrap every traced entry point of the bcsi package."""
    import scipy.optimize

    from bcsi import classifier, cli, polytope, rate_regions, simulator

    w = tracer.wrap
    for verb in VERBS:
        w(cli, f"cmd_{verb}", f"cli.{verb.replace('_', '-')}")
    w(cli, "emit", "cli.emit")
    for loader in ("load_channel", "load_aux_scheme", "load_ux_joint"):
        w(cli, loader, "probability.load")

    def keep_sim(_, args, kwargs, result):
        captured_sims.append((args[0], args[1], args[2]))

    w(cli, "estimate_error", "simulator.estimate_error", keep_sim)
    w(cli, "plan_split_rates", "simulator.plan_split_rates")
    w(simulator, "encode", "simulator.encode")
    w(simulator, "decode_rx1", "simulator.decode_rx1")
    w(simulator, "decode_rx2", "simulator.decode_rx2")

    w(cli, "project_raw_system", "rate_regions.project_raw_system")
    w(cli, "mi_constants", "rate_regions.mi_constants")
    w(rate_regions, "mi_constants", "rate_regions.mi_constants")
    for fn in ("mutual_information", "conditional_mutual_information", "entropy"):
        w(rate_regions, fn, f"info_measures.{fn}")

    w(rate_regions, "fme_eliminate", "polytope.fme_eliminate",
      lambda t, a, k, r: t.add("polytope.fme_eliminate.rows_out", len(r.inequalities)))
    w(rate_regions, "remove_redundant", "polytope.remove_redundant",
      lambda t, a, k, r: t.add("polytope.remove_redundant.rows_in",
                               len(a[0].inequalities)))
    w(polytope, "maximize", "polytope.maximize")
    w(cli, "region_subset", "polytope.region_subset")
    w(polytope, "region_subset", "polytope.region_subset")
    # every LP: polytope and classifier import linprog by name, the
    # simulator's bin-rate planner imports it from scipy.optimize per call
    for module in (polytope, classifier, scipy.optimize):
        w(module, "linprog", "lp")

    w(cli, "maximize_weighted_rate",
      lambda a, k: f"optimizer.maximize_weighted_rate.{a[2]}")
    w(cli, "union_slice_2d", "optimizer.union_slice_2d")
    w(classifier, "refine_on_simplex", "simplex_search.refine_on_simplex")
    for fn in ("is_degraded", "is_more_capable_grid", "is_less_noisy_grid"):
        w(classifier, fn, f"classifier.{fn}")
    return tracer


# Entry points each workload part must reach; a traced run in which one of
# them records no call fails, so that a rename in the program shows at once.
EXPECTED_CALLS = {
    "mc_cloud": ("cli.simulate", "cli.emit", "probability.load",
                 "simulator.estimate_error", "simulator.plan_split_rates",
                 "simulator.encode", "simulator.decode_rx1", "simulator.decode_rx2",
                 "rate_regions.mi_constants", "lp"),
    "mc_binning": ("cli.simulate", "cli.emit", "probability.load",
                   "simulator.estimate_error", "simulator.encode",
                   "simulator.decode_rx1", "simulator.decode_rx2",
                   "rate_regions.mi_constants"),
    "regions": ("cli.validate", "cli.raw-project", "cli.region", "cli.compare",
                "cli.emit", "probability.load", "rate_regions.project_raw_system",
                "rate_regions.mi_constants", "info_measures.mutual_information",
                "info_measures.conditional_mutual_information",
                "polytope.fme_eliminate", "polytope.remove_redundant",
                "polytope.maximize", "polytope.region_subset", "lp"),
    "search": ("cli.optimize", "cli.slice", "cli.classify", "cli.emit",
               "probability.load", "optimizer.maximize_weighted_rate.t1",
               "optimizer.maximize_weighted_rate.t2", "optimizer.union_slice_2d",
               "simplex_search.refine_on_simplex", "classifier.is_degraded",
               "classifier.is_more_capable_grid", "classifier.is_less_noisy_grid",
               "lp"),
}
