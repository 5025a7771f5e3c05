"""Self-check of the benchmark: oracles, digest check and BENCHMARK.json.

Runs every smoke op in-process, requires the oracles to accept each
output and to reject it once tampered (a count off by one, exit code
1), requires the digest check to flag a changed output, and compares
BENCHMARK.json with the workload and metric tables.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

from run import END_TO_END, PER_LAYER, ROOT, compare_digests
from workloads import WORKLOADS, check, plan

# command -> paths of counts the oracles pin down; each is bumped by one
TAMPER = {
    "audit": (("order_census", "points"), ("embedding", "rational_points")),
    "curve": (("counts", "rational"), ("counts", "quartic"), ("curve", "genus")),
    "conjecture": (("scan", "tested"),),
    "code": (("code", "k"), ("code", "n")),
}


def _bumped(doc: dict, path: tuple[str, ...]) -> str:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += 1
    return json.dumps(doc)


def check_oracles() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    from maxcurves.cli import main

    problems = []
    for workload in WORKLOADS:
        for argv in plan(workload, 0, smoke=True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            text = out.getvalue()
            name = " ".join(argv)
            if check(argv, code, text):
                problems.append(f"{name}: oracle rejects the real output: {check(argv, code, text)}")
                continue
            if not check(argv, 1, text):
                problems.append(f"{name}: oracle accepts exit code 1")
            for path in TAMPER[argv[0]]:
                if not check(argv, 0, _bumped(json.loads(text), path)):
                    problems.append(f"{name}: oracle accepts {'.'.join(path)} + 1")
            rec = {"argv": argv, "digest": "0" * 64, "failures": []}
            compare_digests([rec], {name: "1" * 64})
            if not rec["failures"]:
                problems.append(f"{name}: digest check accepts a changed output")
            print(f"ok  {name}")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want = {w: why for w, (why, _, _) in WORKLOADS.items()}
    got = {w["name"]: w["why"] for w in spec["workloads"]}
    if got != want:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if got != {name: row[:2] for name, row in table.items()}:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def self_check() -> int:
    problems = check_oracles() + check_benchmark_json()
    for line in problems:
        print("FAIL", line)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0
