"""Write the reference outputs the correctness gate compares against.

    python3 bench/capture_reference.py [NAME ...]

Runs each named workload (default: all) once at the acceptance seed and
writes ``bench/reference/NAME.json``.  Re-capture only when a change is meant
to alter results, and say so with the drift it shows.
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in names:
        workload = workloads.WORKLOADS[name]
        inputs = workload.build(workloads.SEED)
        outputs = workload.run(inputs)
        try:
            summary = workload.summarize(inputs, outputs)
        finally:
            workload.cleanup(inputs, outputs)
        path = os.path.join(workloads.REFERENCE_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
