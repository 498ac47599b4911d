"""hyclif benchmark: three closed-loop workloads, each checked op by op.

    python3 perfbench/run.py --workload {suites,bigprod,repl} --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing but the bytecode of
``src/hyclif``.  Every workload runs as one client on one thread, in its own
fresh child interpreter, for a fixed number of ops set by ``--seconds`` (never a
time box), so two runs with one seed do identical work.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a traced run made after an untraced run with the same seed and op count
(their ops_per_s ratio is ``trace.overhead_pct``).  Human-readable lines come
first; the last line of stdout is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys

from plan import CONTEXT_DIM, MAX_SECONDS, op_count

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 170

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import hyclif\n"
    "hyclif.AlgebraContext({dim})\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_python(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:2])} exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str) -> float:
    """Median over fresh interpreters of importing hyclif and building the context."""
    probe = SETUP_PROBE.format(dim=CONTEXT_DIM[workload])
    return statistics.median(float(run_python(["-c", probe])) for _ in range(SETUP_SAMPLES))


def run_child(workload: str, seed: int, ops: int, trace: int) -> dict:
    args = [os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
            "--ops", str(ops), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        args += ["--spans", os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.json")]
    return json.loads(run_python(args))


def end_to_end(raw: dict) -> dict[str, tuple[float, str]]:
    wall = raw["wall_ns"]
    done = raw["attempted"] - raw["failed"]
    p50, p90 = percentiles(wall)
    return {
        "ops_per_s": (done / (sum(wall) / 1e9), "1/s"),
        "latency_p50_ms": (p50 / 1e6, "ms"),
        "latency_p90_ms": (p90 / 1e6, "ms"),
        "cpu_ms_per_op": (raw["cpu_ns"] / 1e6 / raw["attempted"], "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def percentiles(values: list[int]) -> tuple[float, float]:
    """Median and 90th percentile (inclusive method: no extrapolation)."""
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(CONTEXT_DIM))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= MAX_SECONDS:
        ap.error(f"--seconds must be from 1 to {MAX_SECONDS}")
    if not os.path.isfile(os.path.join(SRC, "hyclif", "__init__.py")):
        print(f"error: no hyclif sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(os.path.join(SRC, "hyclif"), quiet=1):
        print("error: src/hyclif does not compile", file=sys.stderr)
        return 2

    ops = op_count(args.workload, args.seconds)
    try:
        if args.trace:
            metrics, raw, problems = traced(args.workload, args.seed, ops)
        else:
            raw = run_child(args.workload, args.seed, ops, 0)
            metrics = end_to_end(raw)
            metrics["setup_s"] = (setup_seconds(args.workload), "s")
            problems = []
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for problem in raw["failures"] + problems:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}: seed {args.seed}, {raw['attempted']} ops, "
          f"{raw['failed']} failed, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}/{name} = {value:.6g} {unit}")
    result = {
        "correct": raw["failed"] == 0 and not raw["failures"] and not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def traced(workload: str, seed: int, ops: int):
    from tracer import PER_LAYER_METRICS

    plain = run_child(workload, seed, ops, 0)
    raw = run_child(workload, seed, ops, 1)
    layers = raw["layers"]
    plain_rate = end_to_end(plain)["ops_per_s"][0]
    traced_rate = end_to_end(raw)["ops_per_s"][0]
    layers["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100
    problems = list(raw["trace_problems"]) + plain["failures"]
    problems += [f"per-layer metric {m} missing" for m in PER_LAYER_METRICS if m not in layers]
    raw["failed"] += plain["failed"]
    raw["attempted"] += plain["attempted"]
    metrics = {m: (layers[m], unit) for m, unit in PER_LAYER_METRICS.items() if m in layers}
    return metrics, raw, problems


if __name__ == "__main__":
    sys.exit(main())
