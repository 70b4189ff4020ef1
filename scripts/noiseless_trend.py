#!/usr/bin/env python3
"""Error-probability trend of the coding scheme on the noiseless binary channel.

A common-message rate inside the region (R1 = 0.5 of capacity 1.0) should
decay with blocklength; an overloaded rate (R1 = 2.0) should stay pinned near
one by counting. An invalid --eps or --trials prints one error line to stderr
and exits 1.
"""

import argparse
import sys

from bcsi.errors import GuardError, InputError
from bcsi.probability import Alphabet, Pmf, noiseless_channel
from bcsi.rate_regions import SplitRates, specialize_scheme
from bcsi.simulator import SchemeConfig, estimate_error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=500)
    ap.add_argument("--eps", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=77)
    args = ap.parse_args(argv)

    ch = noiseless_channel(2)
    scheme = specialize_scheme("complementary",
                               Pmf.uniform(Alphabet.indexed("X", 2)), ch)
    print(f"{'rate':>6} {'n':>4} {'pe':>8} {'ci95':>8} {'fallbacks':>10}")
    try:
        for r1 in (0.5, 2.0):
            for n in (4, 8, 12):
                try:
                    cfg = SchemeConfig(scheme=scheme, n=n, rates=SplitRates(r1=r1),
                                       eps=args.eps, seed=args.seed)
                except GuardError as exc:
                    print(f"{r1:6.2f} {n:4d}  skipped ({exc})")
                    continue
                rep = estimate_error(ch, cfg, args.trials)
                print(f"{r1:6.2f} {n:4d} {rep.pe_estimate:8.4f} "
                      f"{rep.pe_half_width_95:8.4f} {rep.encoder_fallbacks:10d}")
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
