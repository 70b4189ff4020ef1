#!/usr/bin/env python3
"""Sweep the private-rate plane (R2, R3) of the Blackwell-map channel.

Runs the deterministic-channel capacity formula (t2) at a small auxiliary
cap, prints the supported boundary points and the best sum rate R2 + R3, and
writes them as CSV to --out (blackwell_slice.csv in the working directory by
default).
"""

import argparse
import sys

from bcsi.optimizer import SearchConfig, union_slice_2d
from bcsi.probability import blackwell_channel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=6)
    ap.add_argument("--directions", type=int, default=17)
    ap.add_argument("--u-cap", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="blackwell_slice.csv")
    args = ap.parse_args(argv)

    ch = blackwell_channel()
    fixed = {"R1": 0.0, "R4": 0.0, "R5": 0.0}
    cfg = SearchConfig(aux_sizes=(args.u_cap, 1, 1),
                       grid_resolution=args.resolution, seed=args.seed)
    points, _ = union_slice_2d(ch, ("R2", "R3"), fixed, "t2", cfg,
                               directions=args.directions)
    print(f"{'angle':>7}  {'R2':>10}  {'R3':>10}  scheme")
    for p in points:
        print(f"{p['angle_deg']:7.2f}  {p['R2']:10.6f}  {p['R3']:10.6f}  "
              f"{p['scheme_id']}")
    best = max(points, key=lambda p: p["R2"] + p["R3"])
    print(f"\nmax R2+R3 = {best['R2'] + best['R3']:.6f} "
          f"(log2(3) = 1.584963 is the known optimum)")
    with open(args.out, "w") as fh:
        fh.write("angle_deg,R2,R3,scheme_id\n")
        for p in points:
            fh.write(f"{p['angle_deg']:.6f},{p['R2']:.9f},{p['R3']:.9f},"
                     f"{p['scheme_id']}\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
