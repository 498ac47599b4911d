#!/usr/bin/env python3
"""Run every identity suite across dimensions and print one summary block each.

Usage: python scripts/run_suites.py [--trials T] [--seed S]
"""

import argparse
import sys
import time

from hyclif.fock import MAX_SPAN_DIM
from hyclif.suites import SUITE_NAMES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    failures = 0
    for name in SUITE_NAMES:
        for n in range(1, MAX_SPAN_DIM + 1):
            start = time.perf_counter()
            report = run_suite(name, n, trials=args.trials, seed=args.seed)
            elapsed = time.perf_counter() - start
            status = "ok" if report.passed else "FAILED"
            print(f"[{status}] suite={name} n={n} trials={args.trials} ({elapsed:.2f}s)")
            if not report.passed:
                failures += report.failures
                print(report.render())
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
