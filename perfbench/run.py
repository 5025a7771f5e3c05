"""Benchmark of the maxcurves CLI: time to verdict on three fixed workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-odd --seed 1 --seconds 35 --trace 0

Each workload is a list of `maxcurves` subcommands (see workloads.py).
The run starts child processes one at a time, so at most one core is
busy: a few probes that only set up (interpreter start, `import
maxcurves`, building the op list), then one worker that runs each op of
the workload once and then keeps cycling through the ops that still fit
in `--seconds`.  A shared host can vary in speed by tens of percent
over seconds to minutes, so each op is timed as often as the run allows
and wall_s is a pass made of per-op mean times.  With `--trace 1` it runs one
untraced pass and then one traced pass in a second worker, and reports
the per-layer metrics and the tracing overhead.

Every op's output is checked against closed-form answers, and its
stdout digest must match the digest of the same op in earlier runs of
the same source tree (kept in perfbench/_run/).  The next-to-last line
of stdout is a JSON report with the environment, every op and every
metric; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload big-tower --seed 1 --seconds 5 --trace 0 --smoke
    python3 perfbench/run.py --self-check

`--smoke` runs q <= 4 instances of the workload in a second or so.
`--self-check` runs every smoke op, checks that the oracles accept the
outputs and reject tampered ones, and checks BENCHMARK.json against the
metric tables below.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / "_run"
WORKER = HERE / "worker.py"

PROBES = 11
RUN_LIMIT_S = 170.0

# name -> (unit, better); gated by BENCHMARK.json bounds
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# reported, not gated: verdict_max_s is one op's time and spreads more than
# wall_s across runs; the rates apply to one workload each; fail_frac is 0
# on a correct run
REPORTED = {
    "verdict_max_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "codewords_per_s": ("1/s", "higher"),
    "candidates_per_s": ("1/s", "higher"),
    "fail_frac": ("1", "lower"),
}
# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "field_tower.build_s": ("s", "lower", "wall_s on big-tower; about 0 elsewhere"),
    "field_tower.add_ns": ("ns", "lower", "points_per_s on audit-odd (odd p)"),
    "field_tower.mul_ns": ("ns", "lower", "any workload"),
    "field_tower.inv_ns": ("ns", "lower", "any workload"),
    "field_tower.computed_field_s": (
        "s", "lower", "computed as calls x ns/op, not measured; any workload"),
    "field_tower.add_calls": ("count", "lower", "audit-odd"),
    "field_tower.mul_calls": ("count", "lower", "any workload"),
    "field_tower.pow_calls": ("count", "lower", "big-tower"),
    "field_tower.coeffs_calls": ("count", "lower", "char2-search"),
    "curve_model.enumerate_s": (
        "s", "lower", "wall_s on big-tower, candidates_per_s on char2-search"),
    "curve_model.points_enumerated": (
        "count", "lower", "wall_s on big-tower, candidates_per_s on char2-search"),
    "curve_model.curves_built": ("count", "lower", "candidates_per_s on char2-search"),
    "function_field.local_expansion_calls": ("count", "lower", "points_per_s on audit-odd"),
    "function_field.local_expansion_self_s": ("s", "lower", "points_per_s on audit-odd"),
    "function_field.series_terms": ("count", "lower", "points_per_s on audit-odd"),
    "linalg.row_echelon_calls": ("count", "lower", "points_per_s on audit-odd"),
    "linalg.row_echelon_self_s": ("s", "lower", "points_per_s on audit-odd"),
    "weierstrass.order_sequence_calls": (
        "count", "lower", "points_per_s and verdict_max_s on audit-odd"),
    "weierstrass.order_sequence_self_s": (
        "s", "lower", "points_per_s and verdict_max_s on audit-odd"),
    "weierstrass.order_census_s": ("s", "lower", "points_per_s and verdict_max_s on audit-odd"),
    "weierstrass.ramification_audit_s": (
        "s", "lower", "points_per_s and verdict_max_s on audit-odd"),
    "weierstrass.echelon_per_sequence": ("ratio", "lower", "points_per_s on audit-odd"),
    "verdicts.conjecture_explore_s": ("s", "lower", "candidates_per_s on char2-search"),
    "verdicts.orbit_skip_ratio": ("ratio", "higher", "candidates_per_s on char2-search"),
    "verdicts.embedding_check_s": ("s", "lower", "wall_s on audit-odd"),
    "verdicts.dichotomy_check_s": ("s", "lower", "wall_s on audit-odd"),
    "agcode.build_code_s": ("s", "lower", "codewords_per_s on char2-search"),
    "agcode.min_distance_s": ("s", "lower", "codewords_per_s on char2-search"),
    "agcode.codewords_scanned": ("count", "lower", "codewords_per_s on char2-search"),
    "cli.self_s": ("s", "lower", "wall_s on any workload (argparse, JSON encoding)"),
    "cli.output_bytes": ("bytes", "lower", "wall_s on any workload"),
    "field_tower.self_s": ("s", "lower", "wall_s on big-tower"),
    "curve_model.self_s": ("s", "lower", "wall_s on big-tower and char2-search"),
    "function_field.self_s": ("s", "lower", "points_per_s on audit-odd"),
    "linalg.self_s": ("s", "lower", "points_per_s on audit-odd"),
    "weierstrass.self_s": ("s", "lower", "points_per_s on audit-odd"),
    "verdicts.self_s": ("s", "lower", "candidates_per_s on char2-search"),
    "agcode.self_s": ("s", "lower", "codewords_per_s on char2-search"),
    "trace_overhead_frac": ("ratio", "lower", "none: traced wall_s / untraced wall_s - 1"),
}
THROUGHPUT = {"points_per_s": ("audit", "points"),
              "codewords_per_s": ("code", "codewords"),
              "candidates_per_s": ("conjecture", "candidates")}


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=20, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "git_sha": sha,
        "source_sha256": source_digest(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def start_worker(args, deadline: float, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for `ready`; returns it with its set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not set up ({' '.join(cmd[2:])})")
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.communicate()


def finish_worker(proc: subprocess.Popen, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError(f"worker ran past the {RUN_LIMIT_S:.0f} s limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def compare_digests(records: list[dict], store: dict) -> None:
    """Fail an op whose stdout differs from the same op in an earlier run."""
    for rec in records:
        key = " ".join(rec["argv"])
        if key in store and store[key] != rec["digest"]:
            rec["failures"].append("stdout digest differs from an earlier run of this source")
        elif not rec["failures"]:
            store.setdefault(key, rec["digest"])


def load_store(src: str) -> tuple[dict, dict]:
    path = STATE / "digests.json"
    try:
        everything = json.loads(path.read_text())
    except (OSError, ValueError):
        everything = {}
    return everything, everything.setdefault(src, {})


def save_store(everything: dict) -> None:
    STATE.mkdir(exist_ok=True)
    tmp = STATE / "digests.json.tmp"
    tmp.write_text(json.dumps(everything, indent=1, sort_keys=True))
    os.replace(tmp, STATE / "digests.json")


def end_to_end(records: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    """wall_s is a pass made of each op's mean time; verdict_max_s its slowest op.

    Means, not medians, per op: under host speed phases of seconds to
    minutes the median of an op's samples jumps between the fast and the
    slow phase, while the mean moves with the share of time spent in each.
    """
    times: dict[int, list[float]] = {}
    for rec in records:
        times.setdefault(rec["op"], []).append(rec["seconds"])
    means = [statistics.mean(t) for t in times.values()]
    m = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(means),
        "peak_rss_mb": peak_rss_mb,
        "verdict_max_s": max(means),
    }
    for name, (cmd, unit) in THROUGHPUT.items():
        ops = [rec for rec in records if rec["argv"][0] == cmd]
        if ops:
            m[name] = sum(rec["work"].get(unit, 0) for rec in ops) / sum(
                rec["seconds"] for rec in ops)
    m["fail_frac"] = sum(bool(rec["failures"]) for rec in records) / len(records)
    return m


def with_units(values: dict, table: dict) -> dict:
    return {k: {"value": v, "unit": table[k][0]} for k, v in values.items()}


def run(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "maxcurves" / "cli.py").is_file():
        raise BenchError(f"no maxcurves sources under {ROOT / 'src'}")
    env = environment()
    setup = []
    for _ in range(PROBES):
        proc, seconds = start_worker(args, deadline, "--probe")
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
            stop(proc)
        if code != 0:
            raise BenchError("set-up probe failed")
        setup.append(seconds)

    one_pass = ["--one-pass"] if args.trace else []
    proc, seconds = start_worker(args, deadline, *one_pass)
    setup.append(seconds)
    plain = finish_worker(proc, deadline)
    records = plain["ops"]
    traced = None
    if args.trace:
        STATE.mkdir(exist_ok=True)
        spans = STATE / f"spans-{args.workload}.json"
        proc, seconds = start_worker(args, deadline, *one_pass, "--trace", "--spans-out", str(spans))
        setup.append(seconds)
        traced = finish_worker(proc, deadline)
        records = records + traced["ops"]

    everything, store = load_store(env["source_sha256"])
    compare_digests(records, store)
    save_store(everything)

    e2e = end_to_end(plain["ops"], setup, plain["peak_rss_mb"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": args.trace, "env": env,
        "setup_samples_s": setup,
        "end_to_end": with_units(e2e, {**END_TO_END, **REPORTED}),
        "ops": [{k: rec[k] for k in ("argv", "seconds", "exit", "failures")}
                for rec in records],
    }
    if traced is not None:
        layer = dict(traced["per_layer"])
        layer["trace_overhead_frac"] = (
            sum(rec["seconds"] for rec in traced["ops"]) / e2e["wall_s"] - 1)
        report["per_layer"] = with_units(layer, PER_LAYER)
        report["spans_file"] = str(spans.relative_to(ROOT))
        metrics = report["per_layer"]
    else:
        metrics = with_units({k: e2e[k] for k in END_TO_END}, END_TO_END)
    failed = sum(bool(rec["failures"]) for rec in records)
    STATE.mkdir(exist_ok=True)
    (STATE / f"report-{args.workload}-trace{int(args.trace)}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="run the q <= 4 instances")
    ap.add_argument("--self-check", action="store_true",
                    help="check the oracles and BENCHMARK.json, then exit")
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            from selfcheck import self_check
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
