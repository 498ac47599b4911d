"""The run plan: op counts and context sizes of each workload.

Shared by run.py, which never imports hyclif, and by workloads.py, so each
size is decided in one place.
"""

from __future__ import annotations

import math

DEFAULT_SEED = 0
MAX_SECONDS = 60  # the longest --seconds a run accepts

# the AlgebraContext dimension each workload's ops build; setup_s builds the same
CONTEXT_DIM = {"suites": 3, "bigprod": 8, "repl": 3}

# nominal ops per second on a 2-vCPU VM: op count = seconds * rate, at least
# MIN_OPS so that p90 has ten samples beyond it.  A suites op runs every suite
# (about 1.7 s), so it gets a lower floor that keeps a run under a minute.
NOMINAL_OPS_PER_S = {"suites": 0.6, "bigprod": 9.0, "repl": 17.0}
MIN_OPS = {"suites": 20, "bigprod": 100, "repl": 100}


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS[workload], math.ceil(seconds * NOMINAL_OPS_PER_S[workload]))
