"""Command-line entry point tying constructors, analyzers, probes, and verifiers together.

Subcommands: measure, analyze, conv, exponents, probe, sweep, verify, report.
Exit codes: 0 success, 1 check failure or exceeded budget, 2 usage error.
Artifacts are JSON/CSV with embedded schema version, config hash, and seed;
files are written atomically.  Long sweeps print progress to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import measures, probe, regularity, spectral, verifiers
from .config import ExperimentConfig, artifact_envelope, default_output_dir
from .measures import AtomBudgetError, atomic_write_text, load_measure, save_measure
from .rationals import INF, as_exponent, conjugate, exp_mul, exp_str, is_inf


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_json(path: str | None, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text)


def _write_csv(path: str | None, fieldnames: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt(row[k]) for k in fieldnames])
    if path:
        atomic_write_text(path, buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _parse_grid(text: str) -> list[Fraction]:
    """Exact rational grid "a:b:step", both endpoints included when reachable."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid {text!r} is not of the form a:b:step")
    a, b, step = (Fraction(p) for p in parts)
    if step <= 0 or b < a:
        raise argparse.ArgumentTypeError(f"grid {text!r} is empty")
    vals, v = [], a
    while v <= b:
        vals.append(v)
        v += step
    return vals


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t]


def _exp(text: str):
    try:
        return as_exponent(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_measure(args, config: ExperimentConfig) -> int:
    if args.action != "new":
        raise argparse.ArgumentTypeError(f"unknown measure action {args.action!r}")
    kind = args.kind.replace("-", "_")
    if kind == "dirac":
        index = _parse_int_list(args.index) if args.dim == 2 else int(args.index)
        mu = measures.dirac(args.dim, args.N, index)
    elif kind == "uniform":
        mu = measures.uniform(args.dim, args.N)
    elif kind == "cantor":
        mu = measures.cantor(args.base, _parse_int_list(args.digits), args.stage,
                             confine=args.confine)
    elif kind == "random_flat":
        mu = measures.random_flat(args.N, args.m, config.seed,
                                  flatness_c=args.flatness_c, max_retries=args.retries,
                                  confine=args.confine)
    elif kind == "circle":
        mu = measures.circle(args.N, args.radius)
    else:
        raise argparse.ArgumentTypeError(f"unknown measure kind {args.kind!r}")
    out = args.out or os.path.join(config.output_dir, f"{kind}.json")
    save_measure(mu, out)
    print(f"wrote {out}: {kind} measure, dim {mu.dim}, N {mu.N}, {mu.num_atoms} atoms")
    return 0


def cmd_analyze(args, config: ExperimentConfig) -> int:
    mu = load_measure(args.measure)
    run_all = not (args.alpha or args.beta or args.gamma)
    payload: dict = {"measure": mu.constructor, "N": mu.N, "dim": mu.dim}
    scales = [float(Fraction(s)) for s in args.scales.split(",")] if args.scales else None
    if args.alpha or run_all:
        payload["alpha"] = regularity.ahlfors_alpha(mu, scales).as_dict()
    if args.beta or run_all:
        K = args.beta or min(mu.N // 2, 256)
        payload["beta"] = regularity.fourier_beta(spectral.fourier(mu, K)).as_dict()
    if args.gamma or run_all:
        payload["gamma"] = regularity.billingsley_gamma(mu, scales).as_dict()
    _write_json(args.out, artifact_envelope(config, payload))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_conv(args, config: ExperimentConfig) -> int:
    mu = load_measure(args.measure)
    resolutions = args.resolutions or [mu.N]
    rows = []
    for N in resolutions:
        m = mu if N == mu.N else measures.rebuild(mu.constructor, resolution=N)
        nu = spectral.convolve_power(m, args.n)
        rows.append({"N": N, "n": args.n, "r": exp_str(args.r),
                     "density_norm": spectral.density_norm(nu, args.r)})
    _write_csv(args.out, ["N", "n", "r", "density_norm"], rows)
    return 0


def cmd_exponents(args, config: ExperimentConfig) -> int:
    printed = False
    if args.n is not None:
        if args.r is None:
            raise argparse.ArgumentTypeError("--n requires --r")
        rng = regularity.theorem_range(args.n, args.r)
        nrp = exp_mul(args.n, conjugate(args.r)) if args.r != 1 else INF
        if is_inf(nrp):
            print(f"p_max = {exp_str(rng.p_max)}, q_max(p) = 0 (infeasible)")
        else:
            print(f"p_max = {exp_str(rng.p_max)}, q_max(p) = p'/{exp_str(nrp)}")
        printed = True
    if args.alpha is not None and args.beta is not None:
        d = args.d or 1
        p0 = regularity.mockenhaupt_p0(d, Fraction(args.alpha), Fraction(args.beta))
        print(f"p0 = {exp_str(p0)}")
        printed = True
    if args.gamma is not None and args.p is not None:
        d = args.d or 1
        qmax = regularity.knapp_bound(d, Fraction(args.gamma), args.p)
        print(f"q_max = {exp_str(qmax)}")
        printed = True
    if not printed:
        raise argparse.ArgumentTypeError(
            "nothing to compute: pass --n/--r, --alpha/--beta, or --gamma/--p")
    return 0


def cmd_probe(args, config: ExperimentConfig) -> int:
    mu = load_measure(args.measure)
    op = probe.assemble(mu, args.X)
    options = probe.ProbeOptions(args.restarts, args.iters, args.tol, config.seed)
    result = probe.restriction_norm(op, args.p, args.q, options)
    _write_json(args.out, artifact_envelope(config, {"probe": result.as_dict(),
                                                     "options": options.as_dict()}))
    return 0


def cmd_sweep(args, config: ExperimentConfig) -> int:
    mu = load_measure(args.measure)
    options = probe.ProbeOptions(args.restarts, args.iters, args.tol, config.seed)
    total = len(args.p_grid) * len(args.q_grid)
    done = [0]

    def progress(cell):
        done[0] += 1
        print(f"sweep {done[0]}/{total}: p={exp_str(cell.p)} q={exp_str(cell.q)} "
              f"slope={cell.slope:.4f} {cell.classification}", file=sys.stderr)

    grid = probe.sweep(mu, args.p_grid, args.q_grid, args.X, n=args.n, r=args.r,
                       options=options, threads=config.threads, progress=progress)
    rows = grid.to_rows()
    fields = ["p", "q"] + [f"norm_X{X}" for X in grid.X_list] + [
        "slope", "residual", "class", "in_theorem_region", "in_knapp_region"]
    _write_csv(args.out, fields, rows)
    return 0


def cmd_report(args, config: ExperimentConfig) -> int:
    lines = ["# Restriction probe report", ""]
    try:
        with open(args.sweep) as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "p" not in reader.fieldnames:
                raise ValueError(f"{args.sweep} is not a sweep CSV")
            rows = list(reader)
    except (OSError, csv.Error, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines.append("## Empirical boundedness region")
    lines.append("")
    lines.append("| p | q | slope | class | in theorem region | in Knapp region |")
    lines.append("|---|---|-------|-------|-------------------|-----------------|")
    for row in rows:
        lines.append("| {p} | {q} | {slope} | {cls} | {thm} | {knapp} |".format(
            p=row.get("p", "?"), q=row.get("q", "?"),
            slope=row.get("slope", "?"), cls=row.get("class", "?"),
            thm=row.get("in_theorem_region", "?"), knapp=row.get("in_knapp_region", "?")))
    if args.analysis:
        try:
            with open(args.analysis) as fh:
                analysis = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines += ["", "## Regularity estimates", ""]
        for name in ("alpha", "beta", "gamma"):
            if name in analysis:
                rec = analysis[name]
                est = rec.get("estimate", rec.get("beta_sup"))
                lines.append(f"- {name}: {est}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _default_flat_measure(seed: int):
    return measures.random_flat(256, 32, seed, flatness_c=4.0, max_retries=200)


def _suite_hy(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    rng = np.random.default_rng(config.seed)
    records = []
    for trial in range(args.trials):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for s in (2, 4, 8, INF):
            rec = verifiers.check_hausdorff_young(h, s)
            records.append({"trial": trial, **rec.as_dict()})
    return records, all(r["holds"] for r in records)


def _verify_nrp(args) -> tuple[int, object, object]:
    n = args.n if args.n is not None else 2
    r = args.r if args.r is not None else INF
    p = args.p if args.p is not None else Fraction(4, 3)
    return n, r, p


def _suite_chain(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    mu = load_measure(args.measure) if args.measure else _default_flat_measure(config.seed)
    n, r, p = _verify_nrp(args)
    records = []
    for trial in range(args.trials):
        g = verifiers.random_bounded_g(mu.N, mu.dim, config.seed + 1000 + trial)
        report = verifiers.check_dual_chain(mu, g, n, r, p, epsilon=args.eps)
        records.append({"trial": trial, **report.as_dict()})
    return records, all(r["all_hold"] for r in records)


def _suite_prop1(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    if args.measure:
        instances = [("file", load_measure(args.measure))]
    else:
        instances = [
            ("uniform", measures.uniform(1, 4096)),
            ("dirac", measures.dirac(1, 4096, 0)),
            ("random_flat", measures.random_flat(4096, 185, config.seed)),
        ]
    n = args.n if args.n is not None else 2
    records = []
    for name, mu in instances:
        rep = verifiers.check_prop1(mu, n)
        records.append({"measure": name, **rep.as_dict()})
    return records, all(r["passed"] for r in records)


def _suite_prop2(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    mu = load_measure(args.measure) if args.measure else measures.cantor(4, (0, 3), 8)
    gamma = Fraction(args.gamma) if args.gamma else Fraction(1, 2)
    K_list = args.K or [2**j for j in range(4, 13)]
    records = []
    for s in (2, 8):
        rep = verifiers.check_prop2(mu, gamma, s, K_list)
        records.append(rep.as_dict())
    return records, all(r["agrees"] for r in records)


def _suite_prop3(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    mu = load_measure(args.measure) if args.measure else measures.cantor(4, (0, 3), 8)
    gamma = Fraction(args.gamma) if args.gamma else Fraction(1, 2)
    rep = verifiers.check_prop3(mu, gamma)
    return [rep.as_dict()], rep.passed


def _suite_knapp(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    mu = load_measure(args.measure) if args.measure else measures.cantor(4, (0, 3), 8)
    r_list = [4.0**-i for i in range(1, 6)]
    cases = [(Fraction(4, 3), Fraction(2), False), (Fraction(4, 3), Fraction(4), True)]
    records, ok = [], True
    for p, q, expect_violation in cases:
        rep = verifiers.knapp_test(mu, p, q, r_list)
        agrees = rep.violated == expect_violation
        ok = ok and agrees
        records.append({**rep.as_dict(), "expected_violation": expect_violation,
                        "agrees": agrees})
    return records, ok


def _suite_bilinear(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    mu = load_measure(args.measure) if args.measure else _default_flat_measure(config.seed)
    rng = np.random.default_rng(config.seed)
    records = []
    shape = (mu.N,) * mu.dim
    for trial in range(args.trials):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for p in (1, Fraction(4, 3), INF):
            rec = verifiers.check_bilinear(mu, f, g, p, epsilon=args.eps)
            records.append({"trial": trial, **rec.as_dict()})
    return records, all(r["holds"] for r in records)


def _suite_expid(args, config: ExperimentConfig) -> tuple[list[dict], bool]:
    records = []
    if args.n is not None and args.r is not None and args.p is not None:
        records.append(verifiers.exponent_identity(args.n, args.r, args.p))
    else:
        for n, r, p in verifiers.feasible_triples():
            records.append(verifiers.exponent_identity(n, r, p))
    return records, all(r["holds"] for r in records)


_SUITES = {
    "hy": _suite_hy,
    "chain": _suite_chain,
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "prop3": _suite_prop3,
    "knapp": _suite_knapp,
    "bilinear": _suite_bilinear,
    "expid": _suite_expid,
}


def cmd_verify(args, config: ExperimentConfig) -> int:
    records, passed = _SUITES[args.suite](args, config)
    payload = artifact_envelope(config, {
        "suite": args.suite, "trials": args.trials, "passed": passed,
        "instances": records,
    })
    _write_json(args.out, payload)
    if args.out:
        print(f"suite {args.suite}: {'pass' if passed else 'FAIL'} ({len(records)} records)")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restrictlab",
        description="Numerical laboratory for restriction estimates of singular measures")
    # subcommands repeat --seed/--threads with default=SUPPRESS, so they
    # override these global values only when given
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    parser.add_argument("--threads", type=int, default=1, help="parallelism cap")
    parser.add_argument("--output-dir", default=None, help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="construct measures")
    m.add_argument("action", choices=["new"])
    m.add_argument("--kind", required=True,
                   choices=["dirac", "uniform", "cantor", "random-flat", "random_flat", "circle"])
    m.add_argument("--dim", type=int, default=1)
    m.add_argument("--N", type=int, default=4096)
    m.add_argument("--index", default="0")
    m.add_argument("--base", type=int, default=4)
    m.add_argument("--digits", default="0,3")
    m.add_argument("--stage", type=int, default=6)
    m.add_argument("--m", type=int, default=185)
    m.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    m.add_argument("--flatness-c", type=float, default=4.0)
    m.add_argument("--retries", type=int, default=200)
    m.add_argument("--radius", type=float, default=0.25)
    m.add_argument("--confine", type=int, default=1)
    m.add_argument("--out", default=None)
    m.set_defaults(func=cmd_measure)

    a = sub.add_parser("analyze", help="regularity estimates")
    a.add_argument("--measure", required=True)
    a.add_argument("--alpha", action="store_true")
    a.add_argument("--beta", type=int, default=0, metavar="K")
    a.add_argument("--gamma", action="store_true")
    a.add_argument("--scales", default=None)
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("conv", help="convolution power density norms")
    c.add_argument("--measure", required=True)
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-r", type=_exp, required=True)
    c.add_argument("--resolutions", type=_parse_int_list, default=None)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_conv)

    e = sub.add_parser("exponents", help="exact exponent calculators")
    e.add_argument("--n", type=int, default=None)
    e.add_argument("--r", type=_exp, default=None)
    e.add_argument("--d", type=int, default=None)
    e.add_argument("--alpha", default=None)
    e.add_argument("--beta", default=None)
    e.add_argument("--gamma", default=None)
    e.add_argument("--p", type=_exp, default=None)
    e.set_defaults(func=cmd_exponents)

    pr = sub.add_parser("probe", help="single restriction-norm estimate")
    pr.add_argument("--measure", required=True)
    pr.add_argument("-p", type=_exp, required=True)
    pr.add_argument("-q", type=_exp, required=True)
    pr.add_argument("-X", type=int, required=True)
    pr.add_argument("--restarts", type=int, default=8)
    pr.add_argument("--iters", type=int, default=500)
    pr.add_argument("--tol", type=float, default=1e-9)
    pr.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_probe)

    sw = sub.add_parser("sweep", help="exponent-plane sweep")
    sw.add_argument("--measure", required=True)
    sw.add_argument("--p-grid", type=_parse_grid, required=True)
    sw.add_argument("--q-grid", type=_parse_grid, required=True)
    sw.add_argument("--X", type=_parse_int_list, default=[64, 128, 256, 512])
    sw.add_argument("--n", type=int, default=2)
    sw.add_argument("--r", type=_exp, default=INF)
    sw.add_argument("--restarts", type=int, default=8)
    sw.add_argument("--iters", type=int, default=500)
    sw.add_argument("--tol", type=float, default=1e-9)
    sw.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sw.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    sw.add_argument("--out", default=None)
    sw.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True, choices=sorted(_SUITES))
    v.add_argument("--measure", default=None)
    v.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--r", type=_exp, default=None)
    v.add_argument("--p", type=_exp, default=None)
    v.add_argument("--eps", type=int, default=2)
    v.add_argument("--gamma", default=None)
    v.add_argument("--K", type=_parse_int_list, default=None)
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    rp = sub.add_parser("report", help="render markdown summary from artifacts")
    rp.add_argument("--sweep", required=True)
    rp.add_argument("--analysis", default=None)
    rp.add_argument("--out", default=None)
    rp.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    config = ExperimentConfig(seed=args.seed, threads=args.threads,
                              output_dir=args.output_dir or default_output_dir())
    try:
        return args.func(args, config)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (AtomBudgetError, MemoryError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
