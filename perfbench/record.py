"""Record the reference outputs that ``check.py`` compares against.

    python3 perfbench/record.py

Run from the root of a bfvkit checkout.  One pass of every workload at
``REFERENCE_SEED`` is run and its ``--format machine`` stdout is written
to ``perfbench/reference.json``.  Re-record only with a change whose
output change is intended, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

import check
import workloads
from run import Bench, workspace

REFERENCE_SEED = 1


def main() -> int:
    root = os.getcwd()
    outputs = {}
    for workload in sorted(workloads.WORKLOADS):
        with workspace(root, f"record-{workload}") as workdir:
            bench = Bench(root, workload, REFERENCE_SEED, workdir)
            result = bench.worker("pass")
        outputs[workload] = {workloads.op_id(op): out["stdout"]
                             for op, out in zip(bench.ops, result["ops"])}
    with open(check.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"seed": REFERENCE_SEED, "outputs": outputs}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
