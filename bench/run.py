"""restrictlab benchmark entry point.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a restrictlab checkout.  Set-up is timed in
``SETUP_REPEATS`` fresh processes (interpreter start, imports, inputs) and
reported as their median.  A further fresh process times passes of the
workload body for ``--seconds`` and checks each pass against the reference
outputs in ``bench/reference``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``).  Samples, the
environment record and diagnostics go to ``bench/out/result-*.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
# run.py imports neither numpy nor restrictlab, so that it fails cleanly where
# the sources are missing; these mirror workloads.WORKLOADS and workloads.SEED
WORKLOADS = ("sweep_flat_1d", "growth_circle_2d", "growth_cantor_1d", "verify_cli")
DEFAULT_SEED = 20240613
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
RECORDED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
                "NUMPY_MADVISE_HUGEPAGE")
# Worker environment unless the caller sets these.  BLAS runs single-threaded:
# on the 2-core baseline machine a second OpenBLAS thread cut
# growth_circle_2d's wall time (X up to 48) by 9 % for twice the CPU time,
# and doubled the spread between runs.  numpy does not advise huge pages:
# whether the kernel grants them varies over time, and with them
# verify_cli's peak RSS after one pass read 123, 131 or 139 MB on one seed.
WORKER_ENV_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes_computed"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(numpy: dict, env: dict) -> dict:
    """Machine facts kept beside, never inside, the metric values."""
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy["numpy"],
        "blas": {"name": numpy["name"], "version": numpy["version"]},
        "worker_env": {k: env.get(k) for k in RECORDED_ENV},
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    for key, value in WORKER_ENV_DEFAULTS.items():
        env.setdefault(key, value)
    return env


def worker(*args: str, env: dict, timeout: float) -> None:
    """Run a worker to completion; kill it after ``timeout`` seconds.

    A blocking wait with a timer, not ``wait(timeout=...)``: the latter polls
    in steps of up to 50 ms, which would quantize the set-up times.
    """
    # the worker's stdout goes to our stderr: our stdout ends with the result line
    proc = subprocess.Popen([sys.executable, WORKER, *args], stdout=sys.stderr, cwd=ROOT,
                            env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:  # interrupted: do not leave the worker behind
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker {' '.join(args[:3])} exited with {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="restrictlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through worker()'s cleanup instead of dying at once
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "restrictlab", "__init__.py")):
        print(f"error: no restrictlab sources under {ROOT}/src; "
              "run from the root of a restrictlab checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    env = worker_env()
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            worker("setup", *common, env=env, timeout=60)
            setup.append(time.perf_counter() - t0)
        stem = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}")
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        worker("measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", stem + "-worker.json", "--spans", stem + "-spans.npz",
               env=env, timeout=remaining)
    except RuntimeError as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    with open(stem + "-worker.json") as fh:
        record = json.load(fh)
    os.unlink(stem + "-worker.json")

    passes = record["passes"]
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values = record["layer"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in untraced),
                  "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
                  "peak_rss_mb": record["peak_rss_mb"],
                  "setup_s": statistics.median(setup)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    drifts = [p["drift"] for p in passes if p["drift"] is not None]
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    sidecar = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result,
        "samples": {"passes": passes, "setup_s": setup},
        "diagnostics": {"failed_frac": failed / attempted if attempted else 1.0,
                        "result_max_rel_drift": max(drifts) if drifts else None,
                        "layer_per_pass": record.get("layer_per_pass"),
                        "spans": record.get("spans")},
        "environment": environment(record["numpy"], env),
    }
    with open(stem + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
    for p in passes:
        for message in p["messages"][:5]:
            print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
