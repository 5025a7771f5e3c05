"""The benchmark's workloads and the known-answer oracles for their outputs.

Every op is one `maxcurves` CLI invocation.  The seed fixes the order of
the ops in a pass and the `--sample-seed` of each audit; the instances
themselves are fixed, so the work per pass does not depend on the seed.
All instances are trace curves y^q + y = x^m with m | q + 1, whose point
counts and genus are known in closed form.
"""

from __future__ import annotations

import json
import random

# name -> (why, full-size ops, smoke ops with q <= 4)
WORKLOADS = {
    "audit-odd": (
        "audit p=7 m=4 and p=3 a=2 m=5 (q=9, the ROADMAP target): order sequences "
        "(function_field, linalg, weierstrass) and odd-p FieldTower.add; little tower set-up",
        (["audit", "--p", "7", "--a", "1", "--hermitian-m", "4"],
         ["audit", "--p", "3", "--a", "2", "--hermitian-m", "5"]),
        (["audit", "--p", "3", "--a", "1", "--hermitian-m", "4"],
         ["audit", "--p", "3", "--a", "1", "--hermitian-m", "2"]),
    ),
    "big-tower": (
        "curve p=5 a=2 m=13 and p=2 a=4 m=17: tower construction and level-4 "
        "enumeration of about 4e5 elements, no order sequences",
        (["curve", "--p", "5", "--a", "2", "--hermitian-m", "13"],
         ["curve", "--p", "2", "--a", "4", "--hermitian-m", "17"]),
        (["curve", "--p", "2", "--a", "2", "--hermitian-m", "5"],
         ["curve", "--p", "3", "--a", "1", "--hermitian-m", "4"]),
    ),
    "char2-search": (
        "conjecture p=2 a=4 m1=4 and a=3 m1=4 d=3, code p=2 a=2 m=5 lambda=8 --exact: "
        "characteristic 2 (XOR addition), about 4.4k short-lived curves, distance scan",
        (["conjecture", "--p", "2", "--a", "4", "--m1", "4"],
         ["conjecture", "--p", "2", "--a", "3", "--m1", "4", "--d", "3"],
         ["code", "--p", "2", "--a", "2", "--hermitian-m", "5", "--lambda", "8", "--exact"]),
        (["conjecture", "--p", "2", "--a", "2", "--m1", "2"],
         ["conjecture", "--p", "2", "--a", "2", "--m1", "2", "--d", "3"],
         ["code", "--p", "2", "--a", "1", "--hermitian-m", "3", "--lambda", "3", "--exact"]),
    ),
}

SAMPLE_SEEDS = 8


def plan(workload: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The argv of each op of one pass, in the order the seed gives."""
    _, full, small = WORKLOADS[workload]
    rng = random.Random(seed)
    ops = [list(argv) for argv in (small if smoke else full)]
    rng.shuffle(ops)
    for argv in ops:
        if argv[0] == "audit":
            argv += ["--sample-seed", str(rng.randrange(SAMPLE_SEEDS))]
    return ops


def _flags(argv: list[str]) -> dict[str, int]:
    return {argv[i][2:]: int(argv[i + 1]) for i in range(1, len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}


def check(argv: list[str], exit_code, stdout: str) -> list[str]:
    """Reasons the op's result is wrong; empty when every oracle holds."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    f = _flags(argv)
    q = f["p"] ** f["a"]
    cmd = argv[0]
    try:
        if cmd == "conjecture":
            return _check_conjecture(q, f, doc["scan"])
        m = f["hermitian-m"]
        g = (q - 1) * (m - 1) // 2
        rational = q * q + 2 * g * q + 1
        quartic = q ** 4 + 1 - 2 * g * q * q
        bad = []
        if doc["curve"]["genus"] != g:
            bad.append(f"genus {doc['curve']['genus']} != {g}")
        if cmd == "curve":
            _expect(bad, "rational count", doc["counts"]["rational"], rational)
            _expect(bad, "quartic count", doc["counts"]["quartic"], quartic)
        elif cmd == "audit":
            # the embedding check counts affine points; the place at infinity is rational
            _expect(bad, "rational count", doc["embedding"]["rational_points"] + 1, rational)
            _expect(bad, "order_census.points", doc["order_census"]["points"], quartic)
            if doc["all_identities"] is not True:
                bad.append("all_identities is not true")
        elif cmd == "code":
            bad += _check_code(q, m, f["lambda"], rational - 1, doc)
        return bad
    except (KeyError, TypeError) as exc:
        return [f"output lacks {exc}"]


def _expect(bad: list[str], what: str, got, want) -> None:
    if got != want:
        bad.append(f"{what} {got} != {want}")


def _check_conjecture(q: int, f: dict[str, int], scan: dict) -> list[str]:
    p, m1 = f["p"], f["m1"]
    e = 0
    while p ** e < m1:
        e += 1
    bad = []
    _expect(bad, "tested + skipped_equivalent", scan["tested"] + scan["skipped_equivalent"],
            (q * q - 1) * q ** (2 * (e - 1)))
    if scan["complete"] is not True:
        bad.append("scan incomplete")
    for hit in scan["hits"]:
        _expect(bad, "hit count", hit["count"], q * q + 1 + 2 * hit["genus"] * q)
    return bad


def _check_code(q: int, m: int, lam: int, n: int, doc: dict) -> list[str]:
    # pole orders at infinity are i*q + j*m with j < q (x has pole order q, y has m)
    nongaps = sum(1 for j in range(q) for i in range(lam + 1) if i * q + j * m <= lam)
    code = doc["code"]
    bad = []
    _expect(bad, "n", code["n"], n)
    _expect(bad, "k", code["k"], nongaps)
    if code["rank_verified"] is not True:
        bad.append("rank_verified is not true")
    if doc["distance"]["distance"] < n - lam:
        bad.append(f"distance {doc['distance']['distance']} < n - lambda = {n - lam}")
    return bad


def work_done(argv: list[str], stdout: str) -> dict[str, int]:
    """Units of work an op reports: points, candidates or codewords."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return {}
    if argv[0] == "audit":
        return {"points": doc.get("order_census", {}).get("points", 0)}
    if argv[0] == "conjecture":
        scan = doc.get("scan", {})
        return {"candidates": scan.get("tested", 0) + scan.get("skipped_equivalent", 0),
                "skipped": scan.get("skipped_equivalent", 0)}
    if argv[0] == "code":
        return {"codewords": doc.get("distance", {}).get("scanned", 0)}
    return {}
