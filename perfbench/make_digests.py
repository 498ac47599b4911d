"""Regenerate bigprod_digests.json: canonical-text digests of the bigprod products.

    PYTHONPATH=src python3 perfbench/make_digests.py

The file pins the products (gp, lcontract, rcontract, wedge per op) of every op
a default-seed bigprod run can make, up to the longest --seconds run.py
accepts, so a change to any product kernel that alters a value fails the
bigprod check.  Regenerate it only from a commit whose products are known to be
right.
"""

from __future__ import annotations

import json

import workloads as W


def main() -> None:
    digests = [W.Bigprod.digests(W.Bigprod.run(inp))
               for inp in W.Bigprod.make_inputs(W.DEFAULT_SEED, W.DIGEST_COUNT)]
    rows = ",\n".join(json.dumps(d) for d in digests)
    with open(W.DIGEST_FILE, "w") as fh:
        fh.write(f'{{"seed": {W.DEFAULT_SEED}, "digests": [\n{rows}\n]}}\n')


if __name__ == "__main__":
    main()
