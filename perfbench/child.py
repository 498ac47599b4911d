"""Run one workload in this (fresh) interpreter and print its raw measurements.

    python3 perfbench/child.py --workload NAME --seed S --ops N --trace 0|1 [--spans PATH]

One closed-loop client on one thread: ops run one at a time, in a fixed number
generated from the seed before the timer starts.  Between ops, outside the
timer, the op's output is checked and ``gc.collect()`` runs.  The last line of
stdout is one JSON object; run.py turns it into the benchmark's metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import workloads

MAX_REPORTED_FAILURES = 5


def check(w, inp, out, seed: int) -> str | None:
    try:
        return w.check(inp, out, seed)
    except Exception as exc:  # a check that cannot even run means a wrong output
        return f"check raised {type(exc).__name__}: {exc}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--ops", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    inputs = w.make_inputs(args.seed, args.ops)
    warmup = w.warmup_inputs(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    failures: list[str] = []
    for inp in warmup:
        try:
            problem = check(w, inp, w.run(inp), args.seed)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append(f"warm-up: {problem}")

    wall_ns: list[int] = []
    cpu_ns = 0
    failed = 0
    for i, inp in enumerate(inputs):
        gc.collect()
        if tracer:
            tracer.after_collect()
            tracer.begin_op(i)
        c0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            out = w.run(inp)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        c1 = time.process_time_ns()
        if tracer:
            tracer.end_op()
        wall_ns.append(t1 - t0)
        cpu_ns += c1 - c0
        if error is None:
            error = check(w, inp, out, args.seed)
        if error is not None:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"op {i}: {error}")
        out = None
    gc.collect()

    result = {
        "attempted": len(inputs),
        "failed": failed,
        "failures": failures,
        "wall_ns": wall_ns,
        "cpu_ns": cpu_ns,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.after_collect()
        extra = {"cli.repl.lines": 0, "suites.trials": 0, **w.counts(inputs)}
        result["layers"] = tracer.metrics(args.workload, extra)
        result["trace_problems"] = tracer.problems
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
