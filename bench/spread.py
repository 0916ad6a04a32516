"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 bench/spread.py [--workload NAME ...] [--seeds 1,2,...] [--trace 0|1] [--out PATH]

Runs ``bench/run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and records how long each run took.
For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(Q3 - Q1) / median``,
marked against the metric's bound.  ``--out`` writes the same as JSON, with
every run's values and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    report = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, elapsed = [], []
        for seed in seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                              if k in bounds)
            print(f"{name} seed {seed}: correct={result['correct']} {values} "
                  f"[run took {elapsed[-1]:.1f} s]", flush=True)
        metrics = {k: summarize([r["metrics"][k]["value"] for r in runs])
                   for k in runs[0]["metrics"]}
        report["workloads"][name] = {
            "seeds": seeds, "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "run_elapsed_s": elapsed,
            "metrics": metrics}
        for k, m in metrics.items():
            bound = bounds.get(k)
            mark = "" if bound is None or m["spread"] is None else (
                "ok" if m["spread"] < bound / 3 else "WIDE" if m["spread"] >= bound else "loose")
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:18s} {k:32s} median {m['median']:.6g}  spread {spread}"
                  + (f"  bound {bound} {mark}" if bound is not None else ""))
    env_file = os.path.join(
        BENCH_DIR, "out", f"result-{name}-seed{seeds[-1]}-trace{args.trace}.json")
    with open(env_file) as fh:
        report["environment"] = json.load(fh)["environment"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
