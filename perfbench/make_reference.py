"""Record the reference outputs that every benchmark pass is checked against.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload and case seed, at both sizes,
and writes ``perfbench/reference.json``.  Run it only on the commit whose
outputs are the reference; a later commit must reproduce them.
"""

import json
import sys

from run import HERE, run_pass
from workloads import CASES, HORIZON, WORKLOADS

# floats are compared with math.isclose; statuses, rounds and actions exactly
TOLERANCE = {"rtol": 1e-7, "atol": 1e-9}


def main() -> int:
    reference = {"tolerance": TOLERANCE}
    for size in HORIZON:
        for workload in WORKLOADS:
            cases = {}
            for case in range(CASES):
                rec = run_pass(workload, case, size, 0, False, 170.0)
                if rec is None:
                    return 1
                cases[str(case)] = {
                    k: rec[k] for k in ("exit_code", "cells") if k in rec
                }
                print(size, workload, case,
                      [c["status"] for c in rec["cells"]], flush=True)
            reference.setdefault(size, {})[workload] = cases
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
