#!/usr/bin/env python3
"""Paired benchmark runs of a base revision against the working tree.

    python3 scripts/bench.py --pr N [--base REV] WORKLOAD:SEEDS ...
    python3 scripts/bench.py --compare OLD.json NEW.json

The first form checks REV (default HEAD) out into a temporary git worktree and,
for each WORKLOAD:SEEDS argument (for example ``suites:200-209`` or
``repl:100,101,102``), runs ``perfbench/run.py --trace 0`` once per seed on each
side for the run length BENCHMARK.json sets, alternating which side goes
first: the host's speed drifts between runs, so only such pairs give usable
ratios.  It writes BENCH_<N>.json at the root of the repository: per workload
and end-to-end metric, each side's median and IQR/median and the number of
pairs the change won, with every run's values, the revisions, the Python
version and the CPU count.  It prints the table too.

The second form prints, per workload and metric, the ratio of the change's
median in NEW.json to that in OLD.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def iqr_over_median(values: list[float]) -> float:
    """Distance between the quartiles over the median (inclusive quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / q2 if q2 else float("inf")


def summarize(runs: list[dict], metric: str, better: str) -> dict:
    """Medians, spreads and wins of one metric over paired runs.

    Each run is {"parent": {metric: value, ...}, "change": {...}}; the change
    wins a pair when it is strictly better in the direction `better`, and ties
    count for neither side.
    """
    values = {side: [run[side][metric] for run in runs] for side in SIDES}
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
    out = {side: {"median": statistics.median(v), "iqr_over_median": iqr_over_median(v)}
           for side, v in values.items()}
    base = out["parent"]["median"]
    out.update(better=better, pairs=len(runs), change_won=wins,
               ratio=out["change"]["median"] / base if base else None)
    return out


def compare_rows(old: dict, new: dict) -> list[tuple[str, str, float, float, float | None]]:
    """(workload, metric, old change median, new change median, new/old) rows."""
    rows = []
    for workload, entry in new["workloads"].items():
        before = old["workloads"].get(workload, {}).get("metrics", {})
        for metric, stats in entry["metrics"].items():
            if metric in before:
                a, b = before[metric]["change"]["median"], stats["change"]["median"]
                rows.append((workload, metric, a, b, b / a if a else None))
    return rows


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} failed its checks:\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_pairs(pr: int, base: str, plan: list[tuple[str, list[int]]]) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", base)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out = {
        "pr": pr,
        "revision": {"parent": base_rev, "change": git("rev-parse", "HEAD") + ("+dirty" if dirty else "")},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="hyclif-bench-") as tmp:
        checkout = os.path.join(tmp, "parent")
        git("worktree", "add", "--detach", checkout, base_rev)
        try:
            for workload, seeds in plan:
                runs = []
                for i, seed in enumerate(seeds):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    run = {"seed": seed, "first": order[0]}
                    for side in order:
                        run[side] = run_once(checkout if side == "parent" else ROOT, workload, seed, seconds)
                        print(f"{workload} seed {seed} {side}: ops_per_s {run[side]['ops_per_s']:.4g}",
                              file=sys.stderr)
                    runs.append(run)
                metrics = {m: summarize(runs, m, better[m]) for m in runs[0]["parent"] if m in better}
                out["workloads"][workload] = {"seeds": seeds, "metrics": metrics, "runs": runs}
        finally:
            git("worktree", "remove", "--force", checkout)
    return out


def print_table(result: dict) -> None:
    print(f"{'workload':<8} {'metric':<15} {'parent':>10} {'change':>10} {'ratio':>7} "
          f"{'won':>6} {'IQR/med':>8}")
    for workload, entry in result["workloads"].items():
        for metric, s in entry["metrics"].items():
            ratio = f"{s['ratio']:.3f}" if s["ratio"] is not None else "-"
            print(f"{workload:<8} {metric:<15} {s['parent']['median']:>10.4g} "
                  f"{s['change']['median']:>10.4g} {ratio:>7} {s['change_won']:>3}/{s['pairs']:<2} "
                  f"{s['parent']['iqr_over_median']:>8.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("plan", nargs="*", metavar="WORKLOAD:SEEDS")
    ap.add_argument("--pr", type=int, help="number for the output file BENCH_<pr>.json")
    ap.add_argument("--base", default="HEAD", help="revision to compare the working tree against")
    ap.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    args = ap.parse_args(argv)

    if args.compare:
        with open(args.compare[0]) as fh_old, open(args.compare[1]) as fh_new:
            rows = compare_rows(json.load(fh_old), json.load(fh_new))
        for workload, metric, a, b, ratio in rows:
            shown = f"{ratio:.3f}" if ratio is not None else "-"
            print(f"{workload:<8} {metric:<15} {a:>10.4g} -> {b:>10.4g}  x{shown}")
        return 0
    if args.pr is None or not args.plan:
        ap.error("give --pr and at least one WORKLOAD:SEEDS, or --compare OLD.json NEW.json")
    plan = []
    for item in args.plan:
        workload, _, seeds = item.partition(":")
        plan.append((workload, parse_seeds(seeds)))
    result = run_pairs(args.pr, args.base, plan)
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print_table(result)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
