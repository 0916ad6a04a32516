"""Self-check of the benchmark's tracing: counts must repeat exactly.

    python3 bench/selfcheck.py [--workload NAME ...] [--seed N]

For each workload, builds the inputs and runs the body twice, each time
traced from input building on.  The two passes must give identical
``probe.iterations``, ``probe.restrict_calls``, ``rationals.calls`` and
``measures.random_flat_retries``, and ``verify_cli`` must make no probe
operator call.  Exits 1 on any mismatch.  It is a script, not a test module,
so the tier-1 pytest run does not collect it.
"""

from __future__ import annotations

import argparse

import workloads
from tracing import Tracer

REPEATED = ("probe.iterations", "probe.restrict_calls", "rationals.calls",
            "measures.random_flat_retries")


def traced_counts(workload, seed: int) -> list[dict]:
    tracer = Tracer()
    for run_id in (1, 2):
        tracer.begin_run(run_id)
        with tracer.installed():
            inputs = workload.build(seed)
            outputs = workload.run(inputs)
        workload.cleanup(inputs, outputs)
    return [tracer.layer_metrics(run_id) for run_id in (1, 2)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.SEED)
    args = parser.parse_args(argv)
    ok = True
    for name in args.workload or list(workloads.WORKLOADS):
        first, second = traced_counts(workloads.WORKLOADS[name], args.seed)
        for key in REPEATED:
            same = first[key] == second[key]
            ok &= same
            print(f"{name:18s} {key:30s} {first[key]:>10} {second[key]:>10} "
                  f"{'same' if same else 'DIFFERENT'}")
        if name == "verify_cli":
            for key in ("probe.restrict_calls", "probe.extend_calls"):
                zero = first[key] == 0 and second[key] == 0
                ok &= zero
                print(f"{name:18s} {key:30s} {'zero' if zero else 'NONZERO'}")
    print("selfcheck:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
