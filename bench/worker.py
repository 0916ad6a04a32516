"""One fresh benchmark process: build a workload's inputs, then time passes of it.

    python3 bench/worker.py setup   --workload NAME --seed N
    python3 bench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1 \
        --out PATH [--spans PATH]

``setup`` only imports and builds the inputs; ``run.py`` times it from spawn
to exit.  ``measure`` runs passes of the body until the next one would end
after ``--seconds``, at least one (two with ``--trace 1``: one untraced, one
traced, alternating), checks every pass against the reference, and writes a
JSON record to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from contextlib import nullcontext

import workloads
from tracing import Tracer


def numpy_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__, "name": None, "version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError, AttributeError):
        pass
    return info


def median(values: list):
    """Median that keeps whole-number counts whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def run_pass(workload, inputs, reference: dict, tracer: Tracer | None) -> dict:
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with tracer.installed() if tracer is not None else nullcontext():
            outputs = workload.run(inputs)
        error = None
    except Exception as exc:  # a failing body fails every operation of the pass
        outputs, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    record = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu}
    if error is not None:
        record.update(attempted=workload.ops_per_pass, failed=workload.ops_per_pass,
                      drift=None, messages=[error])
        return record
    try:
        outcome = workload.check(workload.summarize(inputs, outputs), reference)
    finally:
        workload.cleanup(inputs, outputs)
    record.update(attempted=outcome.attempted, failed=outcome.failed, drift=outcome.drift,
                  messages=outcome.messages)
    return record


def measure(args) -> dict:
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference(workload.name)
    tracer = Tracer() if args.trace else None
    with tracer.installed() if tracer is not None else nullcontext():
        inputs = workload.build(args.seed)

    passes = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.begin_run(len(passes))
        t0 = time.perf_counter()
        passes.append(run_pass(workload, inputs, reference, tracer if traced else None))
        lap = time.perf_counter() - t0
        if len(passes) == 1:
            # peak of set-up plus one pass: later passes reuse freed memory
            # unevenly, so a peak over all passes would depend on their number
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace and len(passes) < 2:
            continue
        if time.perf_counter() + lap > deadline:
            break

    record = {"passes": passes, "peak_rss_mb": peak_rss_mb, "numpy": numpy_info()}
    if tracer is not None:
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        setup = tracer.layer_metrics(0)
        per_pass = [tracer.layer_metrics(i) for i in traced_ids]
        layer = {k: setup[k] + median([m[k] for m in per_pass]) for k in setup}
        layer["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in passes if p["traced"])
            - statistics.median(p["wall_s"] for p in passes if not p["traced"]))
        record["layer"] = layer
        record["layer_per_pass"] = per_pass
        record["spans"] = args.spans
        tracer.save(args.spans)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None, help="JSON record of the passes")
    parser.add_argument("--spans", default=None, help="where --trace 1 writes its spans (.npz)")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        workloads.WORKLOADS[args.workload].build(args.seed)
        return 0
    record = measure(args)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
