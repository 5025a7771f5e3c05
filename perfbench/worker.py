"""One child process of the benchmark; `run.py` starts it.

It imports maxcurves from the checkout's `src`, builds the op list from
the seed, prints `ready`, then runs the workload's ops, calling
`maxcurves.cli.main(argv)` in-process with stdout captured.  The last
line it prints is a JSON object with one record per op and, when
traced, the per-layer metrics.  With `--probe` it exits right after
`ready`, which lets `run.py` time set-up on its own.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FIELD_PAIRS = 20000
FIELD_REPS = 5
FIELD_OPS = ("add", "mul", "inv")


def op_order(n: int, last: dict[int, float], deadline: float, one_pass: bool):
    """Indices of the ops to run: one full pass, then, cycling in pass
    order, each op whose latest time still fits before the deadline."""
    yield from range(n)
    i = 0
    while not one_pass:
        fits = [j % n for j in range(i, i + n)
                if time.perf_counter() + last[j % n] <= deadline]
        if not fits:
            return
        yield fits[0]
        i = fits[0] + 1


def run_op(cli, argv: list[str], check, work_done) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    failures = [error] if error else check(argv, code, text)
    if failures and err.getvalue():
        failures.append("stderr: " + err.getvalue()[-300:])
    return {
        "argv": argv,
        "seconds": seconds,
        "exit": code,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "output_bytes": len(text.encode()),
        "work": work_done(argv, text),
        "failures": failures,
    }


def field_ns(tower, originals: dict, rng: random.Random) -> dict[str, float]:
    """Median ns per call of add, mul and inv on seeded nonzero operands.

    The unpatched methods are timed, so tracing adds nothing; the time
    includes the Python call, as in the program.
    """
    xs = [rng.randrange(1, tower.order) for _ in range(FIELD_PAIRS)]
    ys = [rng.randrange(1, tower.order) for _ in range(FIELD_PAIRS)]
    clock = time.perf_counter
    out = {}
    for op in FIELD_OPS:
        fn = originals[f"field_tower.FieldTower.{op}"].__get__(tower)
        samples = []
        for _ in range(FIELD_REPS):
            start = clock()
            if op == "inv":
                for x in xs:
                    fn(x)
            else:
                for x, y in zip(xs, ys):
                    fn(x, y)
            samples.append(clock() - start)
        out[op] = statistics.median(samples) / FIELD_PAIRS * 1e9
    return out


def trace_record(tracer, op_id: int, before: dict, rng: random.Random) -> dict:
    """Span table, call counts and field timings of one traced op."""
    table = tracer.span_table(op_id)
    after = tracer.call_counts()
    table["calls"] = {k: n - before.get(k, 0) for k, n in after.items()
                      if n != before.get(k, 0)}
    towers, tracer.towers = tracer.towers, []
    per_tower = [field_ns(t, tracer.originals, rng) for t in towers]
    table["field_ns"] = {op: statistics.mean(ns[op] for ns in per_tower) if per_tower else 0.0
                         for op in FIELD_OPS}
    table["self_sum_s"] = sum(row[2] for row in table["spans"].values())
    return table


def layer_metrics(tracer, ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced pass from the per-op trace records."""
    from tracer import LAYERS

    spans: dict[str, list[float]] = {}
    calls: dict[str, int] = {}
    for rec in ops:
        for name, row in rec["trace"]["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, n in rec["trace"]["calls"].items():
            calls[name] = calls.get(name, 0) + n

    def span(name, i):  # i: 0 calls, 1 total seconds, 2 self seconds
        return spans.get(name, [0, 0.0, 0.0])[i]

    def count(name):
        return calls.get("field_tower.FieldTower." + name, 0)

    m: dict[str, float] = {"field_tower.build_s": span("field_tower.build_tower", 1)}
    computed = 0.0
    for op in FIELD_OPS:
        weighted = weight = 0.0
        plain = []
        for rec in ops:
            ns = rec["trace"]["field_ns"][op]
            n = rec["trace"]["calls"].get("field_tower.FieldTower." + op, 0)
            weighted += n * ns
            weight += n
            plain.append(ns)
        m[f"field_tower.{op}_ns"] = weighted / weight if weight else statistics.mean(plain)
        computed += weighted * 1e-9
    m["field_tower.computed_field_s"] = computed
    for op in ("add", "mul", "pow", "coeffs"):
        m[f"field_tower.{op}_calls"] = count(op)
    m["curve_model.enumerate_s"] = span("curve_model.CurveModel.enumerate_points", 1)
    m["curve_model.points_enumerated"] = tracer.points_enumerated
    m["curve_model.curves_built"] = calls.get("curve_model.CurveModel.__init__", 0)
    m["function_field.local_expansion_calls"] = span("function_field.local_expansion", 0)
    m["function_field.local_expansion_self_s"] = span("function_field.local_expansion", 2)
    m["function_field.series_terms"] = tracer.series_terms
    m["linalg.row_echelon_calls"] = span("linalg.row_echelon", 0)
    m["linalg.row_echelon_self_s"] = span("linalg.row_echelon", 2)
    sequences = span("weierstrass.order_sequence", 0)
    m["weierstrass.order_sequence_calls"] = sequences
    m["weierstrass.order_sequence_self_s"] = span("weierstrass.order_sequence", 2)
    m["weierstrass.order_census_s"] = span("weierstrass.order_census", 1)
    m["weierstrass.ramification_audit_s"] = span("weierstrass.ramification_audit", 1)
    echelons = sum(rec["trace"]["echelon_in_sequence"] for rec in ops)
    m["weierstrass.echelon_per_sequence"] = echelons / sequences if sequences else 0.0
    m["verdicts.conjecture_explore_s"] = span("verdicts.conjecture_explore", 1)
    candidates = sum(rec["work"].get("candidates", 0) for rec in ops)
    skipped = sum(rec["work"].get("skipped", 0) for rec in ops)
    m["verdicts.orbit_skip_ratio"] = skipped / candidates if candidates else 0.0
    m["verdicts.embedding_check_s"] = span("verdicts.embedding_check", 1)
    m["verdicts.dichotomy_check_s"] = span("verdicts.dichotomy_check", 1)
    m["agcode.build_code_s"] = span("agcode.build_code", 1)
    m["agcode.min_distance_s"] = span("agcode.min_distance_exact", 1)
    m["agcode.codewords_scanned"] = sum(rec["work"].get("codewords", 0) for rec in ops)
    m["cli.output_bytes"] = sum(rec["output_bytes"] for rec in ops)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row[2] for name, row in spans.items()
                                   if name.startswith(layer + "."))
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--one-pass", action="store_true",
                    help="run each op once instead of filling --seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import maxcurves.cli as cli
    if Path(cli.__file__).resolve().parent != src / "maxcurves":
        print(f"maxcurves was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import check, plan, work_done
    ops = plan(args.workload, args.seed, args.smoke)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        field_rng = random.Random(f"field-{args.seed}")
    records = []
    last: dict[int, float] = {}
    deadline = time.perf_counter() + args.seconds
    for i in op_order(len(ops), last, deadline, args.one_pass):
        op_id = len(records)
        if tracer is not None:
            tracer.op = op_id
            before = tracer.call_counts()
        rec = run_op(cli, list(ops[i]), check, work_done)
        rec["op"] = i
        last[i] = rec["seconds"]
        if tracer is not None:
            rec["trace"] = trace_record(tracer, op_id, before, field_rng)
            if rec["trace"]["self_sum_s"] > rec["seconds"] + 1e-9:
                rec["failures"].append("layer self times exceed the op's wall time")
        records.append(rec)
        if len(records) == len(ops):
            # later repeats only add allocator fragmentation, so read memory after one pass
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "ops": records,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["per_layer"] = layer_metrics(tracer, records)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
