"""Grid-search additive models for second-branch maximal curves.

Prints the scan report as JSON, the same document as the `scan` block
of `maxcurves conjecture`. Exits 3 when the budget ran out before the
grid was exhausted, mirroring the CLI convention.
"""

import argparse
import json
import sys

from maxcurves import build_tower, conjecture_explore, to_json


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--a", type=int, required=True)
    ap.add_argument("--m1", type=int, required=True,
                    help="additive degree, a power of p")
    ap.add_argument("--d", type=int, default=None,
                    help="x-degree, default q + 1")
    ap.add_argument("--scan-budget", type=int, default=1 << 22)
    args = ap.parse_args(argv)

    tower = build_tower(args.p, args.a)
    rep = conjecture_explore(tower, args.m1, d=args.d, budget=args.scan_budget)
    print(json.dumps(to_json(rep, tower), sort_keys=True, indent=2))
    return 0 if rep.complete else 3


if __name__ == "__main__":
    sys.exit(main())
