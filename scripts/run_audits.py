"""Audit every bundled instance and print one summary row each.

The verdict of each row is `maxcurves.audit`, the same one that
`maxcurves audit` reports as all_identities.  Exits nonzero if any
instance fails, so the script doubles as a smoke check after source
changes.  It imports maxcurves from the checkout's `src`, so it runs
from a plain checkout: `python scripts/run_audits.py`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxcurves import Skipped, audit, build_tower, define_curve, hermitian_curve

INSTANCES = (
    ("q2 m3", 2, 1, ("hermitian", 3)),
    ("q3 m2", 3, 1, ("hermitian", 2)),
    ("q3 m4", 3, 1, ("hermitian", 4)),
    ("q5 m2", 5, 1, ("hermitian", 2)),
    ("q5 m3", 5, 1, ("hermitian", 3)),
    ("q4 d5", 2, 2, ("additive", "1,1", 5)),
    # a*y^5 + b*y = x^3 with a, b != 1, a scaling of y^5 + y = x^3: trace sections run
    ("q5 tw3", 5, 1, ("additive", "1:0:1:2,0:0:1:2", 3)),
)


def build(p, a, recipe):
    """The curve of a recipe; additive coefficients are written as for
    `maxcurves --additive`."""
    tower = build_tower(p, a)
    if recipe[0] == "hermitian":
        return hermitian_curve(tower, recipe[1])
    return define_curve(tower, [tower.parse_element(c) for c in recipe[1].split(",")],
                        recipe[2])


def cell(section, flag):
    if isinstance(section, Skipped):
        return "skip"
    return "ok" if getattr(section, flag) else "FAIL"


def audit_one(name, p, a, recipe):
    curve = build(p, a, recipe)
    rep = audit(curve)
    print(f"{name:<8} q={curve.tower.q:<2} g={curve.genus:<2} "
          f"N={curve.count(2):<3} branch={rep.dichotomy.branch:<22} "
          f"census={cell(rep.order_census, 'ok'):<4} "
          f"ram={cell(rep.ramification, 'all_ok'):<4} "
          f"emb={cell(rep.embedding, 'ok'):<4} "
          f"{'clean' if rep.all_identities else 'FAIL'}")
    return rep.all_identities


def main():
    results = [audit_one(*row) for row in INSTANCES]
    failed = results.count(False)
    print(f"{len(results) - failed}/{len(results)} instances clean")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
