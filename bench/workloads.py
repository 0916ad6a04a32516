"""The four benchmark workloads: inputs from a seed, a timed body, a correctness gate.

Each workload is a closed loop: one caller runs one body at a time. The body
reaches the program only through module attributes (``probe.sweep``,
``cli.main``, ...), so the tracer can rebind them from outside the package.

Every probe workload pins its measure and its restart seed to the acceptance
configuration (``SEED``).  Their iteration counts depend on both: over nine
restart seeds ``growth_circle_2d`` (X up to 48) needed 1404 to 2033 operator
applications, and a different ``random_flat`` seed halves the sweep's work
(seed 3).  Letting the benchmark seed move them would make runs on different
seeds time different amounts of work.  The benchmark seed drives the random
data of ``verify_cli``, whose work does not depend on it.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# measure the checkout's own sources, not an installed copy
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from restrictlab import cli, measures, probe  # noqa: E402
from restrictlab.rationals import INF, exp_str  # noqa: E402

SEED = 20240613
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Tolerances of the repo's own oracles: a probe norm is certified to
# WITNESS_EVAL_TOL, density norms are checked to 1e-12 (criterion 3).
NORM_REL_TOL = probe.WITNESS_EVAL_TOL
DENSITY_REL_TOL = 1e-12
MONOTONE_REL_TOL = 1e-10


@dataclass
class Outcome:
    """Result of the correctness gate for one pass."""

    attempted: int = 0
    failed: int = 0
    drift: float | None = None
    messages: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def add_drift(self, value: float, ref: float) -> None:
        d = abs(value - ref) / max(abs(ref), 1e-300)
        self.drift = d if self.drift is None else max(self.drift, d)


def _monotone(norms) -> bool:
    return all(b >= a * (1 - MONOTONE_REL_TOL) for a, b in zip(norms, norms[1:]))


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


class Workload:
    name: str
    ops_per_pass: int

    def build(self, seed: int):
        """Inputs the workload takes as given; timed as part of set-up."""
        raise NotImplementedError

    def run(self, inputs):
        """The timed body; returns raw outputs for ``summarize``."""
        raise NotImplementedError

    def summarize(self, inputs, outputs) -> dict:
        """JSON-able outputs compared against the reference."""
        raise NotImplementedError

    def check(self, summary: dict, reference: dict) -> Outcome:
        raise NotImplementedError

    def cleanup(self, inputs, outputs) -> None:
        pass


# ---------------------------------------------------------------------------
# Probe workloads
# ---------------------------------------------------------------------------

def _check_series(out: Outcome, key: str, got: dict | None, ref: dict) -> list[str]:
    """Monotone norms, norms and class against the reference; returns problems."""
    if got is None:
        return [f"{key}: cell missing"]
    problems = []
    norms = got["norms"]
    if not _monotone(norms):
        problems.append(f"{key}: norms decrease in X {norms}")
    if len(norms) != len(ref["norms"]):
        problems.append(f"{key}: {len(norms)} norms, reference has {len(ref['norms'])}")
    for v, r in zip(norms, ref["norms"]):
        out.add_drift(v, r)
        if not _close(v, r, NORM_REL_TOL):
            problems.append(f"{key}: norm {v!r} != reference {r!r}")
    if got.get("class") != ref.get("class"):
        problems.append(f"{key}: class {got.get('class')} != reference {ref.get('class')}")
    return problems


class SweepFlat1D(Workload):
    """Acceptance criterion-5 sweep on random_flat(4096, 185)."""

    name = "sweep_flat_1d"
    P_GRID = (Fraction(5, 4), Fraction(4, 3), Fraction(8, 5))
    Q_GRID = (Fraction(3, 2), Fraction(2), Fraction(4))
    X_LIST = (64, 128, 256, 512)
    ops_per_pass = 9
    # (p, q) -> class demanded by criterion 5, with its slope threshold
    CRITERION_5 = {"4/3,2": "bounded", "5/4,3/2": "bounded",
                   "8/5,2": "growing", "4/3,4": "growing"}

    def build(self, seed):
        mu = measures.random_flat(4096, 185, seed=SEED, flatness_c=4.0, max_retries=200)
        return mu, probe.ProbeOptions(restarts=8, max_iters=500, tol=1e-9, seed=SEED)

    def run(self, inputs):
        mu, options = inputs
        return probe.sweep(mu, self.P_GRID, self.Q_GRID, self.X_LIST, n=2, r=INF,
                           options=options, threads=1)

    def summarize(self, inputs, grid):
        return {"cells": {f"{r['p']},{r['q']}": {
            "norms": [r[f"norm_X{X}"] for X in grid.X_list], "slope": r["slope"],
            "class": r["class"], "in_theorem_region": r["in_theorem_region"]}
            for r in grid.to_rows()}}

    def check(self, summary, reference):
        out = Outcome()
        for key, ref in reference["cells"].items():
            cell = summary["cells"].get(key)
            problems = _check_series(out, key, cell, ref)
            if cell is not None:
                want = self.CRITERION_5.get(key)
                if want == "bounded" and not (cell["class"] == want
                                              and cell["slope"] < probe.SLOPE_BOUNDED_MAX):
                    problems.append(f"{key}: criterion 5 wants bounded, got {cell['class']}")
                if want == "growing" and not (cell["class"] == want
                                              and cell["slope"] > probe.SLOPE_GROWING_MIN):
                    problems.append(f"{key}: criterion 5 wants growing, got {cell['class']}")
                if cell["in_theorem_region"] and cell["class"] == "growing":
                    problems.append(f"{key}: in-region cell classified growing")
            out.op(not problems, "; ".join(problems))
        return out


class GrowthCircle2D(Workload):
    """growth_exponent on circle(128, 1/4) at (4/3, 2): large dense 2-D operators.

    X stops at 32 (operators up to 4225 x 184, 12 MB).  With X up to 48
    (9409 x 184, 28 MB) a pass took 10 to 15 s depending on other tenants'
    memory traffic, and the spread of wall_s over ten seeds reached 25 %.
    """

    name = "growth_circle_2d"
    X_LIST = (4, 8, 16, 32)
    ops_per_pass = 1

    def build(self, seed):
        mu = measures.circle(128, 0.25)
        return mu, probe.ProbeOptions(restarts=2, max_iters=200, seed=SEED)

    def run(self, inputs):
        mu, options = inputs
        return [probe.growth_exponent(mu, Fraction(4, 3), Fraction(2), self.X_LIST, options)]

    def summarize(self, inputs, results):
        return {"cells": {f"{exp_str(g.p)},{exp_str(g.q)}": {"norms": list(g.norms),
                                                              "slope": g.slope, "class": None}
                          for g in results}}

    def check(self, summary, reference):
        out = Outcome()
        for key, ref in reference["cells"].items():
            problems = _check_series(out, key, summary["cells"].get(key), ref)
            out.op(not problems, "; ".join(problems))
        return out


class GrowthCantor1D(GrowthCircle2D):
    """growth_exponent on cantor(4, {0,3}, 8): sparse atoms on a large 1-D grid."""

    name = "growth_cantor_1d"
    X_LIST = (64, 128, 256, 512)
    ops_per_pass = 2

    def build(self, seed):
        mu = measures.cantor(4, {0, 3}, 8)
        return mu, probe.ProbeOptions(restarts=4, max_iters=300, seed=SEED)

    def run(self, inputs):
        mu, options = inputs
        return [probe.growth_exponent(mu, Fraction(4, 3), q, self.X_LIST, options)
                for q in (Fraction(2), Fraction(4))]


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

class VerifyCLI(Workload):
    """In-process ``cli.main`` sequence: measures, analyze, conv, verify suites.

    Every subcommand gets its own ``--seed``: the global ``--seed`` flag is
    dropped by the parser at this commit, so passing it there would not reach
    the suites.
    """

    name = "verify_cli"
    CONV_RESOLUTIONS = [4**k for k in range(3, 11)]  # 64 .. 1048576

    @staticmethod
    def argvs(seed: int) -> list[list[str]]:
        s = str(seed)
        res = ",".join(str(n) for n in VerifyCLI.CONV_RESOLUTIONS)
        return [
            ["measure", "new", "--kind", "random-flat", "--N", "4096", "--m", "185",
             "--seed", s, "--out", "flat.json"],
            ["measure", "new", "--kind", "cantor", "--base", "4", "--digits", "0,3",
             "--stage", "10", "--out", "cantor10.json"],
            ["measure", "new", "--kind", "circle", "--N", "256", "--out", "circle256.json"],
            ["measure", "new", "--kind", "circle", "--N", "1024", "--out", "circle1024.json"],
            ["analyze", "--measure", "flat.json", "--out", "analyze_flat.json"],
            ["analyze", "--measure", "cantor10.json", "--out", "analyze_cantor10.json"],
            ["analyze", "--measure", "circle1024.json", "--out", "analyze_circle1024.json"],
            ["conv", "--measure", "cantor10.json", "-n", "2", "-r", "inf",
             "--resolutions", res, "--out", "conv.csv"],
            ["verify", "--suite", "chain", "--trials", "100", "--measure", "flat.json",
             "--seed", s, "--out", "verify_chain_flat.json"],
            ["verify", "--suite", "chain", "--trials", "40", "--measure", "circle256.json",
             "--seed", s, "--out", "verify_chain_circle256.json"],
            ["verify", "--suite", "prop1", "--seed", s, "--out", "verify_prop1.json"],
            ["verify", "--suite", "prop2", "--measure", "cantor10.json", "--seed", s,
             "--out", "verify_prop2.json"],
            ["verify", "--suite", "prop3", "--measure", "cantor10.json", "--seed", s,
             "--out", "verify_prop3.json"],
            ["verify", "--suite", "knapp", "--measure", "cantor10.json", "--seed", s,
             "--out", "verify_knapp.json"],
            ["verify", "--suite", "bilinear", "--trials", "20", "--seed", s,
             "--out", "verify_bilinear.json"],
            ["verify", "--suite", "hy", "--trials", "100", "--seed", s,
             "--out", "verify_hy.json"],
            ["verify", "--suite", "expid", "--seed", s, "--out", "verify_expid.json"],
        ]

    @property
    def ops_per_pass(self):
        return len(self.argvs(SEED))

    def build(self, seed):
        return self.argvs(seed)

    def run(self, argvs):
        os.makedirs(OUT_DIR, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="verify_cli-", dir=OUT_DIR)
        codes = []
        with redirect_stdout(StringIO()):
            for argv in argvs:
                argv = [os.path.join(workdir, a) if a.endswith((".json", ".csv")) else a
                        for a in argv]
                try:
                    codes.append(cli.main(argv))
                except Exception as exc:  # an escaped exception is a failed operation
                    codes.append(f"{type(exc).__name__}: {exc}")
        return workdir, codes

    def summarize(self, argvs, outputs):
        workdir, codes = outputs
        commands = []
        for argv, code in zip(argvs, codes):
            out = argv[argv.index("--out") + 1]
            record = {"command": f"{argv[0]} {out}", "exit": code}
            if argv[0] == "verify":
                try:
                    with open(os.path.join(workdir, out)) as fh:
                        record["passed"] = json.load(fh)["passed"]
                except (OSError, ValueError, KeyError):
                    record["passed"] = None
            commands.append(record)
        try:
            with open(os.path.join(workdir, "conv.csv")) as fh:
                conv = [float(row["density_norm"]) for row in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError):
            conv = []
        return {"commands": commands, "conv_density_norms": conv}

    def check(self, summary, reference):
        out = Outcome()
        ref_conv = reference["conv_density_norms"]
        for rec in summary["commands"]:
            problems = []
            if rec["exit"] != 0:
                problems.append(f"exit {rec['exit']}")
            if "passed" in rec and rec["passed"] is not True:
                problems.append("suite did not pass")
            if rec["command"].startswith("conv"):
                got = summary["conv_density_norms"]
                for v, r in zip(got, ref_conv):
                    out.add_drift(v, r)
                if len(got) != len(ref_conv) or not all(
                        _close(v, r, DENSITY_REL_TOL) for v, r in zip(got, ref_conv)):
                    problems.append(f"density norms {got} != reference {ref_conv}")
            out.op(not problems, f"{rec['command']}: {'; '.join(problems)}")
        return out

    def cleanup(self, argvs, outputs):
        shutil.rmtree(outputs[0], ignore_errors=True)


WORKLOADS = {w.name: w for w in (SweepFlat1D(), GrowthCircle2D(), GrowthCantor1D(), VerifyCLI())}
