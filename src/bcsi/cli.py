"""Command-line front end.

Verbs: validate, classify, region, raw-project, optimize, slice, simulate,
compare. Structured output is JSON with fixed field order and floats at 12
significant digits, so identical inputs and seeds give byte-identical files.
Slices are CSV. Exit codes: 1 malformed input, 2 desk-scale guard, 3
internal consistency.

Message semantics: receiver 1 wants (M1, M2, M4) and knows M5 a priori;
receiver 2 wants (M1, M3, M5) and knows M4. Rates are bits per channel use,
named R1..R5.

BCSI_THREADS caps worker parallelism (0 = auto); the current implementation
is single-process, which satisfies any cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .classifier import classify_all
from .errors import ConsistencyError, GuardError, InputError
from .optimizer import SearchConfig, maximize_weighted_rate, region_for, union_slice_2d
from .polytope import RateRegion, regions_equal, region_subset
from .probability import load_aux_scheme, load_channel, load_json, load_ux_joint
from .rate_regions import (SplitRates, marton_region, mi_constants,
                           project_raw_system, raw_coding_system)
from .simulator import SchemeConfig, estimate_error, plan_split_rates

_EPILOG = """\
side information: K1 = {M5} at receiver 1, K2 = {M4} at receiver 2;
receiver 1 requests (M1, M2, M4), receiver 2 requests (M1, M3, M5).
Theorems: t1 = general inner bound over (u0, u1, u2) schemes,
t2 = deterministic-channel capacity formula, t3 = more-capable formula.
BCSI_THREADS caps parallelism (0 = auto)."""


def worker_cap() -> int:
    """Parallelism cap from BCSI_THREADS (0 or unset = auto)."""
    raw = os.environ.get("BCSI_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        raise InputError(f"BCSI_THREADS must be an integer, got {raw!r}")
    if v < 0:
        raise InputError("BCSI_THREADS must be nonnegative")
    return v


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def emit(data: dict, out: str | None):
    text = json.dumps(_round_floats(data), indent=2) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_rates(spec: str | None) -> dict:
    out = {}
    if not spec:
        return out
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"rate assignment {part!r} is not NAME=VALUE")
        name, value = part.split("=", 1)
        name = name.strip()
        try:
            out[name] = float(value)
        except ValueError:
            raise InputError(f"bad rate value in {part!r}")
    return out


def _scheme_jsonable(scheme) -> dict:
    mass = scheme.aux_joint.as_float().reshape(-1)
    return {
        "u_sizes": list(scheme.sizes),
        "joint": [float(v) for v in mass],
        "gamma": [int(v) for v in np.asarray(scheme.gamma).reshape(-1)],
    }


# ---- verbs -----------------------------------------------------------------

def cmd_validate(args) -> int:
    report = {"channel": None, "scheme": None, "ok": True}
    ch = load_channel(args.channel)
    report["channel"] = {"x_size": ch.x.size, "y1_size": ch.y1.size,
                         "y2_size": ch.y2.size, "ok": True}
    if args.scheme:
        scheme = load_aux_scheme(args.scheme)
        scheme.check_against(ch)
        report["scheme"] = {"u_sizes": list(scheme.sizes), "ok": True}
    emit(report, args.out)
    return 0


def cmd_classify(args) -> int:
    ch = load_channel(args.channel)
    verdicts = classify_all(ch, args.resolution, args.u_size)
    emit({name: v.to_jsonable() for name, v in verdicts.items()}, args.out)
    return 0


def cmd_region(args) -> int:
    ch = load_channel(args.channel)
    if args.theorem == "t1":
        scheme = load_aux_scheme(args.scheme)
        region = region_for(ch, "t1", scheme=scheme)
    else:
        p_ux = load_ux_joint(args.scheme)
        region = region_for(ch, args.theorem, p_ux=p_ux)
    emit(region.to_jsonable(), args.out)
    return 0


def cmd_raw_project(args) -> int:
    ch = load_channel(args.channel)
    scheme = load_aux_scheme(args.scheme)
    consts = mi_constants(scheme, ch)
    raw = raw_coding_system(consts)
    direct = marton_region(scheme, ch)
    projected = project_raw_system(raw)
    equal = regions_equal(projected, direct)
    emit({
        "raw_system": {
            "variables": list(raw.variables),
            "inequalities": [
                {"coeffs": {v: str(c) for v, c in sorted(i.coeffs.items())},
                 "rhs": i.rhs} for i in raw.inequalities
            ],
        },
        "projection": projected.to_jsonable(),
        "direct": direct.to_jsonable(),
        "equal": bool(equal),
    }, args.out)
    return 0


def cmd_optimize(args) -> int:
    ch = load_channel(args.channel)
    weights = []
    for part in args.weights.split(","):
        try:
            weights.append(float(part))
        except ValueError:
            raise InputError(f"bad weight {part.strip()!r} in --weights") from None
    if len(weights) != 5:
        raise InputError("--weights needs five comma-separated values")
    cfg = SearchConfig(
        aux_sizes=tuple(int(s) for s in args.aux_sizes.split(",")) if args.aux_sizes else None,
        grid_resolution=args.resolution,
        restarts=args.restarts,
        seed=args.seed,
    )
    res = maximize_weighted_rate(ch, weights, args.theorem, cfg)
    emit({
        "theorem": res.theorem,
        "weights": list(res.weights),
        "best_value": res.value,
        "best_scheme": _scheme_jsonable(res.scheme),
        "seed": args.seed,
        "grid_resolution": args.resolution,
        "restarts": args.restarts,
    }, args.out)
    return 0


def cmd_slice(args) -> int:
    ch = load_channel(args.channel)
    free = tuple(s.strip() for s in args.free.split(","))
    fixed = _parse_rates(args.fixed)
    cfg = SearchConfig(
        aux_sizes=tuple(int(s) for s in args.aux_sizes.split(",")) if args.aux_sizes else None,
        grid_resolution=args.resolution,
        restarts=args.restarts,
        seed=args.seed,
    )
    points, schemes = union_slice_2d(ch, free, fixed, args.theorem, cfg,
                                     directions=args.directions)
    lines = [f"angle_deg,{free[0]},{free[1]},scheme_id"]
    for p in points:
        lines.append(f"{p['angle_deg']:.12g},{p[free[0]]:.12g},"
                     f"{p[free[1]]:.12g},{p['scheme_id']}")
    text = "\n".join(lines) + "\n"
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        schemes_path = args.out + ".schemes.json"
        with open(schemes_path, "w") as fh:
            fh.write(json.dumps(_round_floats(
                [_scheme_jsonable(s) for s in schemes]), indent=2) + "\n")
    return 0


def cmd_simulate(args) -> int:
    ch = load_channel(args.channel)
    scheme = load_aux_scheme(args.scheme)
    rates = _parse_rates(args.rates)
    unknown = set(rates) - {"R1", "R2", "R3", "R4", "R5",
                            "R21", "R22", "R31", "R32", "Rp1", "Rp2"}
    if unknown:
        raise InputError(f"unknown rate names {sorted(unknown)}")
    consts = mi_constants(scheme, ch)
    if any(k in rates for k in ("R21", "R22", "R31", "R32", "Rp1", "Rp2")):
        split = SplitRates(
            r1=rates.get("R1", 0.0),
            r21=rates.get("R21", rates.get("R2", 0.0) / 2),
            r22=rates.get("R22", rates.get("R2", 0.0) / 2),
            r31=rates.get("R31", rates.get("R3", 0.0) / 2),
            r32=rates.get("R32", rates.get("R3", 0.0) / 2),
            r4=rates.get("R4", 0.0), r5=rates.get("R5", 0.0),
            rp1=rates.get("Rp1", 0.0), rp2=rates.get("Rp2", 0.0))
        slack = None
    else:
        split, slack = plan_split_rates(
            consts, rates.get("R1", 0.0), rates.get("R2", 0.0),
            rates.get("R3", 0.0), rates.get("R4", 0.0), rates.get("R5", 0.0))
        if slack < 0:
            sys.stderr.write(f"warning: operating point outside the region "
                             f"(slack {slack:.6g})\n")
    cfg = SchemeConfig(scheme=scheme, n=args.n, rates=split,
                       eps_prime=args.eps / 2, eps1=args.eps, eps2=args.eps,
                       seed=args.seed, fresh_codebooks=not args.fixed_codebook)

    def progress(done, errs):
        sys.stderr.write(f"trials={done} errors={errs}\n")

    report = estimate_error(ch, cfg, args.trials, progress=progress)
    data = report.to_jsonable()
    if slack is not None:
        data["bin_rate_slack"] = slack
    emit(data, args.out)
    return 0


def cmd_compare(args) -> int:
    a = RateRegion.from_jsonable(load_json(args.region_a))
    b = RateRegion.from_jsonable(load_json(args.region_b))
    a_in_b = region_subset(a, b)
    b_in_a = region_subset(b, a)
    emit({
        "equal": bool(a_in_b and b_in_a),
        "a_subset_b": bool(a_in_b),
        "b_subset_a": bool(b_in_a),
    }, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcsi",
        description="Rate regions, classifiers and a Monte Carlo coder for "
                    "two-receiver broadcast channels with receiver message "
                    "side information.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="check channel/scheme files")
    p.add_argument("--channel", required=True)
    p.add_argument("--scheme")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="channel class verdicts")
    p.add_argument("--channel", required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--u-size", type=int, default=2)
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("region", help="region for one scheme")
    p.add_argument("--theorem", choices=("t1", "t2", "t3"), required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--scheme", required=True,
                   help="aux scheme file for t1, p(u,x) joint file for t2/t3")
    p.add_argument("--out")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("raw-project",
                       help="pre-projection system, its projection, and the equality verdict")
    p.add_argument("--channel", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_raw_project)

    p = sub.add_parser("optimize", help="search schemes for max weighted rate")
    p.add_argument("--channel", required=True)
    p.add_argument("--theorem", choices=("t1", "t2", "t3"), required=True)
    p.add_argument("--weights", required=True, help="w1,w2,w3,w4,w5")
    p.add_argument("--aux-sizes", help="a,b,c caps")
    p.add_argument("--resolution", type=int, default=5)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("slice", help="2-D slice of the union region (CSV)")
    p.add_argument("--channel", required=True)
    p.add_argument("--theorem", choices=("t1", "t2", "t3"), required=True)
    p.add_argument("--free", required=True, help="two rate names, e.g. R2,R3")
    p.add_argument("--fixed", required=True, help="e.g. R1=0,R4=0,R5=0")
    p.add_argument("--aux-sizes")
    p.add_argument("--resolution", type=int, default=5)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--directions", type=int, default=33)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("simulate", help="Monte Carlo run of the coding scheme")
    p.add_argument("--channel", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--rates", default="", help="e.g. R1=0.5 or R1=0.2,R2=0.4")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-codebook", action="store_true",
                   help="reuse one codebook instead of redrawing per trial")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="region containment verdicts")
    p.add_argument("region_a")
    p.add_argument("region_b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        worker_cap()
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except GuardError as exc:
        sys.stderr.write(f"guard: {exc}\n")
        return 2
    except ConsistencyError as exc:
        sys.stderr.write(f"internal consistency: {exc}\n")
        return 3
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
