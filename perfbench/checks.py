"""Output checks against independent computations or required properties.

Nothing here compares with a stored copy of earlier output. Entropies are
plain loops over dictionaries, in the style of the test suite's oracles, and
share no code with the library. Each check takes one job's output and
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction

LOG2_3 = math.log2(3.0)
RATE_VARS = ("R1", "R2", "R3", "R4", "R5")
SPLIT_KEYS = {"R21": "r21", "R22": "r22", "R31": "r31", "R32": "r32",
              "Rp1": "rp1", "Rp2": "rp2"}
SIZE_RATES = {"m1": "r1", "m4": "r4", "m5": "r5", "m21": "r21", "m31": "r31",
              "m22": "r22", "m32": "r32", "l1": "rp1", "l2": "rp2"}
TOL = 1e-9


# ---- plain-loop information measures ----------------------------------------

def _prob(v) -> float:
    return float(Fraction(v)) if isinstance(v, str) else float(v)


def load_channel_rows(path: str) -> list:
    with open(path) as fh:
        return load_channel_rows_from_spec(json.load(fh))


def load_channel_rows_from_spec(spec: dict) -> list:
    """p(y1, y2 | x) as nested lists [x][y1][y2], each row renormalized."""
    m1, m2 = spec["y1_size"], spec["y2_size"]
    out = []
    for row in spec["kernel"]:
        flat = []
        stack = [row]
        while stack:  # flatten nested or flat rows in row-major order
            item = stack.pop()
            if isinstance(item, list):
                stack.extend(reversed(item))
            else:
                flat.append(_prob(item))
        total = sum(flat)
        out.append([[flat[a * m2 + b] / total for b in range(m2)] for a in range(m1)])
    return out


def entropy_of(table: dict) -> float:
    return -sum(p * math.log2(p) for p in table.values() if p > 0.0)


def marginal(joint: dict, keep) -> dict:
    out = {}
    for key, p in joint.items():
        k = tuple(key[i] for i in keep)
        out[k] = out.get(k, 0.0) + p
    return out


def h(joint: dict, *keep) -> float:
    return entropy_of(marginal(joint, keep))


def plain_constants(channel_path: str, scheme_path: str) -> tuple:
    """I(U0U1;Y1), I(U0U2;Y2), I(U1;Y1|U0), I(U2;Y2|U0), I(U1;U2|U0) by
    plain loops over p(u0, u1, u2, y1, y2)."""
    kernel = load_channel_rows(channel_path)
    with open(scheme_path) as fh:
        spec = json.load(fh)
    a0, a1, a2 = spec["u_sizes"]
    mass = [_prob(v) for v in spec["joint"]]
    total = sum(mass)
    joint = {}  # axes: u0 u1 u2 y1 y2
    for u0 in range(a0):
        for u1 in range(a1):
            for u2 in range(a2):
                cell = (u0 * a1 + u1) * a2 + u2
                x = spec["gamma"][cell]
                for y1, row in enumerate(kernel[x]):
                    for y2, p in enumerate(row):
                        joint[(u0, u1, u2, y1, y2)] = mass[cell] / total * p
    return (h(joint, 0, 1) + h(joint, 3) - h(joint, 0, 1, 3),
            h(joint, 0, 2) + h(joint, 4) - h(joint, 0, 2, 4),
            h(joint, 0, 1) + h(joint, 0, 3) - h(joint, 0) - h(joint, 0, 1, 3),
            h(joint, 0, 2) + h(joint, 0, 4) - h(joint, 0) - h(joint, 0, 2, 4),
            h(joint, 0, 1) + h(joint, 0, 2) - h(joint, 0) - h(joint, 0, 1, 2))


def marton_rhs(consts: tuple) -> dict:
    """The five right-hand sides of the inner bound, keyed by the
    coefficient vector over (R1, ..., R5)."""
    i01_y1, i02_y2, i1_y1_0, i2_y2_0, i12_0 = consts
    return {
        (1, 1, 0, 1, 0): i01_y1,
        (1, 0, 1, 0, 1): i02_y2,
        (1, 1, 1, 1, 0): i01_y1 + i2_y2_0 - i12_0,
        (1, 1, 1, 0, 1): i02_y2 + i1_y1_0 - i12_0,
        (2, 1, 1, 1, 1): i01_y1 + i02_y2 - i12_0,
    }


def capability_gap(kernel: list, p_x) -> float:
    """I(X;Y1) - I(X;Y2) for an input pmf, by plain loops."""
    j1, j2 = {}, {}
    for x, row in enumerate(kernel):
        for y1, r in enumerate(row):
            for y2, p in enumerate(r):
                j1[(x, y1)] = j1.get((x, y1), 0.0) + p_x[x] * p
                j2[(x, y2)] = j2.get((x, y2), 0.0) + p_x[x] * p
    i1 = h(j1, 0) + h(j1, 1) - h(j1, 0, 1)
    i2 = h(j2, 0) + h(j2, 1) - h(j2, 0, 1)
    return i1 - i2


# ---- regions -----------------------------------------------------------------

def region_rows(region: dict) -> list:
    """(coefficient vector, rhs) pairs of a region file."""
    rows = []
    for ineq in region["inequalities"]:
        vec = tuple(float(Fraction(ineq["coeffs"].get(v, "0"))) for v in RATE_VARS)
        rows.append((vec, float(ineq["rhs"])))
    return rows


def check_direct(region: dict, oracle: dict) -> list:
    rows = region_rows(region)
    got = {vec: rhs for vec, rhs in rows}
    if sorted(got) != sorted(oracle):
        return [f"direct region rows {sorted(got)} != the five inner-bound rows"]
    return [f"rhs of {vec}: {got[vec]!r} vs plain-loop {want!r}"
            for vec, want in oracle.items() if abs(got[vec] - want) > TOL]


def check_points(projection: dict, direct: dict, seed, count: int = 400) -> list:
    """Random box points must be classed alike by both regions. No LP: a
    point is inside when every row holds; points within 1e-6 of a facet of
    either region are skipped."""
    regions = [region_rows(projection), region_rows(direct)]
    scale = max([abs(r) for _, r in regions[1]] + [1e-3]) / 2.0
    rng = random.Random(repr(seed))
    problems = []
    for _ in range(count):
        pt = [rng.uniform(0.0, scale) for _ in RATE_VARS]
        margins = [[rhs - sum(c * v for c, v in zip(vec, pt)) for vec, rhs in rows]
                   for rows in regions]
        if any(abs(m) < 1e-6 for ms in margins for m in ms):
            continue
        verdicts = [all(m > 0 for m in ms) for ms in margins]
        if verdicts[0] != verdicts[1] and len(problems) < 3:
            problems.append(f"point {pt}: projection says {verdicts[0]}, direct {verdicts[1]}")
    return problems


# ---- simulator ---------------------------------------------------------------

def _arg(argv: list, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def size_from_rate(n: int, rate: float) -> int:
    v = 2.0 ** (n * rate)
    if abs(v - round(v)) < 1e-9:
        return max(1, int(round(v)))
    return max(1, math.ceil(v))


def check_simulation(report: dict, argv: list) -> list:
    """Properties every simulate report must have, whatever the channel."""
    problems = []
    n = int(_arg(argv, "--n"))
    trials = int(_arg(argv, "--trials"))
    if report["trials"] != trials:
        problems.append(f"trials {report['trials']} != {trials}")
    if report["config"]["n"] != n or report["config"]["seed"] != int(_arg(argv, "--seed")):
        problems.append("config does not echo --n and --seed")
    for rx in ("rx1", "rx2"):
        errors = report[f"{rx}_errors"]
        events = report[f"{rx}_events"]
        if sum(events.values()) != errors:
            problems.append(f"{rx} events {events} do not sum to {errors} errors")
        if not all(0 <= c <= trials for c in list(events.values()) + [errors]):
            problems.append(f"{rx} counts outside [0, {trials}]")
    if not 0 <= report["encoder_fallbacks"] <= trials:
        problems.append(f"encoder_fallbacks {report['encoder_fallbacks']} outside [0, {trials}]")
    any_errors = report["pe_estimate"] * trials
    lo = max(report["rx1_errors"], report["rx2_errors"])
    hi = min(report["rx1_errors"] + report["rx2_errors"], trials)
    if abs(any_errors - round(any_errors)) > 1e-6 or not lo <= round(any_errors) <= hi:
        problems.append(f"pe_estimate {report['pe_estimate']} is not a count in "
                        f"[{lo}, {hi}] over {trials} trials")
    rates = {}
    for part in _arg(argv, "--rates").split(","):
        name, value = part.split("=")
        rates[name] = float(value)
    nominal = report["nominal_rates"]
    if abs(nominal["r1"] - rates.get("R1", 0.0)) > TOL:
        problems.append(f"nominal r1 {nominal['r1']} != requested {rates.get('R1', 0.0)}")
    for name, key in SPLIT_KEYS.items():
        if name in rates and abs(nominal[key] - rates[name]) > TOL:
            problems.append(f"nominal {key} {nominal[key]} != requested {rates[name]}")
    for size_name, rate_name in SIZE_RATES.items():
        want = size_from_rate(n, nominal[rate_name])
        if report["sizes"][size_name] != want:
            problems.append(f"size {size_name} {report['sizes'][size_name]} != {want}")
        realized = math.log2(want) / n
        if abs(report["realized_rates"][size_name] - realized) > TOL:
            problems.append(f"realized rate {size_name} != log2({want})/{n}")
    return problems


def binomial_allowance(trials: int, p: float, tail: float = 1e-9) -> int:
    """Smallest k with P(Binomial(trials, p) > k) < tail."""
    cdf = 0.0
    for k in range(trials + 1):
        cdf += math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
        if 1.0 - cdf < tail:
            return k
    return trials


def check_overloaded(report: dict, argv: list) -> list:
    """Counting bound: the n output symbols of a binary channel take 2^n
    values, so at most 2^n of the M1 messages decode correctly and each
    receiver is right with probability at most 2^n / M1."""
    n = int(_arg(argv, "--n"))
    trials = report["trials"]
    allowance = binomial_allowance(trials, min(1.0, 2.0**n / report["sizes"]["m1"]))
    return [f"{rx}: {trials - report[f'{rx}_errors']} error-free trials exceed the "
            f"counting-bound allowance {allowance}" for rx in ("rx1", "rx2")
            if trials - report[f"{rx}_errors"] > allowance]


# ---- search ------------------------------------------------------------------

def check_slice(text: str, schemes: list) -> list:
    rows = list(csv.DictReader(text.splitlines()))
    if not rows:
        return ["slice has no points"]
    problems = []
    for row in rows:
        r2, r3 = float(row["R2"]), float(row["R3"])
        if r2 < -TOL or r3 < -TOL or r2 + r3 > LOG2_3 + TOL:
            problems.append(f"slice point R2={r2}, R3={r3} breaks R2+R3 <= log2 3")
        if not 0 <= int(row["scheme_id"]) < len(schemes):
            problems.append(f"scheme_id {row['scheme_id']} has no scheme")
    return problems


def check_job(part: str, job: dict, outputs: dict, params: dict) -> list:
    """Check one CLI job's outputs (file path -> text) of one round; params
    are those its part was built with."""
    name = job["name"]
    argv = job["argv"]
    out = _arg(argv, "--out")
    text = outputs[out]
    if part in ("mc_cloud", "mc_binning"):
        report = json.loads(text)
        problems = check_simulation(report, argv)
        if name == "overloaded":
            problems += check_overloaded(report, argv)
        if name == "inregion" and report["pe_estimate"] > params["inregion"]["pe_max"]:
            problems.append(f"in-region pe {report['pe_estimate']} > "
                            f"{params['inregion']['pe_max']}")
        return problems
    if part == "regions":
        data = json.loads(text)
        i = int(name.rsplit("_", 1)[1])
        inst = params["instances"][i]
        if name.startswith("validate"):
            ok = data["ok"] and data["channel"]["ok"] and data["scheme"]["ok"]
            return [] if ok else [f"validate says {data}"]
        if name.startswith("raw"):
            problems = [] if data["equal"] is True else ["projection != direct region"]
            problems += check_direct(data["direct"], marton_rhs(
                plain_constants(inst["channel"], inst["scheme"])))
            return problems + check_points(data["projection"], data["direct"],
                                           params["points_seed"] + [i])
        if name.startswith("region"):
            return check_direct(data, marton_rhs(plain_constants(inst["channel"],
                                                                 inst["scheme"])))
        if name.startswith("compare"):
            ok = data["equal"] and data["a_subset_b"] and data["b_subset_a"]
            return [] if ok else [f"compare says {data}"]
    if part == "search":
        if name == "slice":
            return check_slice(text, json.loads(outputs[out + ".schemes.json"]))
        data = json.loads(text)
        if name == "opt_t2":
            v = data["best_value"]
            if abs(v - LOG2_3) > 1e-6 or v > LOG2_3 + TOL:
                return [f"Blackwell t2 sum-rate {v!r} is not log2 3 within 1e-6"]
            return []
        if name == "opt_t1":
            v = data["best_value"]
            return [] if v <= 1.0 + TOL else [f"t1 R4 {v!r} exceeds the cut-set bound 1"]
        if name == "classify_bsc":
            if data["degraded"]["holds"] and data["more_capable"]["holds"]:
                return []
            return ["BSC(0.1, 0.2) must be degraded and more capable"]
        if name == "classify_bsc_swapped":
            mc = data["more_capable"]
            if mc["holds"]:
                return ["swapped BSC pair must not be more capable"]
            gap = capability_gap(load_channel_rows(params["bsc_swapped"]),
                                 mc["witness"]["p_x"])
            return [] if gap < 0.0 else [f"witness gap {gap} is not negative"]
        if name == "classify_blackwell":
            if data["deterministic"]["holds"] and not data["degraded"]["holds"]:
                return []
            return ["Blackwell channel must be deterministic and not degraded"]
    return [f"no check for job {name}"]
