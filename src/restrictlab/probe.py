"""Discrete restriction/extension operators and empirical norm estimation.

Functions f live on the truncated dual lattice [-X, X]^dim with counting
measure; their transform f_hat(xi) = sum_x f(x) exp(-2*pi*i <x, xi>) is
evaluated at the atoms of a measure.  The restriction norm

    sup { ||f_hat||_{L^q(mu)} : ||f||_{l^p} = 1 }

is estimated from below by alternating Holder-extremal alignment: push a
witness forward, take the L^q(mu) dual element of its image, pull that back
through the adjoint, and replace the witness by the l^p extremal vector of
the pulled-back functional.  For p = q = 2 the loop is exactly power
iteration and converges to the top singular value; elsewhere the problem is
nonconvex and the result is a certified lower bound with a stored witness.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .fitting import FitResult, loglog_fit
from .measures import DiscreteMeasure
from .rationals import Exponent, conjugate, exp_float, exp_str, is_inf, validate_exponent
from .spectral import lp_norm

MAX_MATRIX_ENTRIES_DEFAULT = 8_388_608
WITNESS_EVAL_TOL = 1e-10
SLOPE_BOUNDED_MAX = 0.05
SLOPE_GROWING_MIN = 0.10


@dataclass(frozen=True)
class ProbeOptions:
    restarts: int = 8
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def as_dict(self) -> dict:
        return {"restarts": self.restarts, "max_iters": self.max_iters,
                "tol": self.tol, "seed": self.seed}


@dataclass(frozen=True)
class ExtensionOperator:
    """Dense pairing between dual-lattice points and measure atoms.

    matrix[x, j] = exp(2*pi*i <x, xi_j>) has unit modulus; restriction is the
    conjugate transpose applied to a lattice vector.
    """

    dim: int
    X: int
    weights: np.ndarray
    matrix: np.ndarray

    @property
    def lattice_size(self) -> int:
        return self.matrix.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.matrix.shape[1]

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """f on the lattice -> f_hat at the atoms."""
        return self.matrix.conj().T @ f

    def extend(self, g: np.ndarray) -> np.ndarray:
        """g at the atoms -> weighted exponential sum on the lattice."""
        return self.matrix @ (self.weights * g)


def assemble(mu: DiscreteMeasure, X: int,
             max_matrix_entries: int = MAX_MATRIX_ENTRIES_DEFAULT) -> ExtensionOperator:
    if X < 1:
        raise ValueError("X must be >= 1")
    side = 2 * X + 1
    rows = side**mu.dim
    entries = rows * mu.num_atoms
    if entries > max_matrix_entries:
        raise MemoryError(
            f"operator would need {entries} entries > max_matrix_entries budget {max_matrix_entries}")
    axis = np.arange(-X, X + 1)
    pos = mu.positions()
    if mu.dim == 1:
        matrix = np.exp(2j * np.pi * np.outer(axis, pos[:, 0]))
    else:
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        phase = np.outer(xx.ravel(), pos[:, 0]) + np.outer(yy.ravel(), pos[:, 1])
        matrix = np.exp(2j * np.pi * phase)
    return ExtensionOperator(mu.dim, X, mu.weights.copy(), matrix)


# ---------------------------------------------------------------------------
# Norm machinery
# ---------------------------------------------------------------------------

def _phase(z: np.ndarray) -> np.ndarray:
    a = np.abs(z)
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0)


def _measure_dual(u: np.ndarray, weights: np.ndarray, q: Exponent) -> np.ndarray:
    """Holder-extremal element for the L^q(mu) norm of u (scale-free)."""
    if is_inf(q):
        g = np.zeros_like(u)
        masked = np.where(weights > 0, np.abs(u), -1.0)
        j = int(np.argmax(masked))
        g[j] = _phase(u[j : j + 1])[0] / weights[j]
        return g
    qf = exp_float(q)
    a = np.abs(u)
    peak = a.max()
    if peak == 0.0:
        return np.ones_like(u)
    return _phase(u) * (a / peak) ** (qf - 1.0)


def _lattice_extremal(c: np.ndarray, p: Exponent) -> np.ndarray:
    """Unit-l^p vector f maximizing Re sum_x f(x) c(x)."""
    ph = np.conj(_phase(c))
    a = np.abs(c)
    if exp_float(p) == 1.0:
        f = np.zeros_like(c)
        j = int(np.argmax(a))
        f[j] = ph[j]
        return f
    if is_inf(p):
        f = ph.astype(np.complex128)
    else:
        peak = a.max()
        if peak == 0.0:
            raise ArithmeticError("pulled-back functional vanished")
        pprime = exp_float(conjugate(p))
        f = ph * (a / peak) ** (pprime - 1.0)
    return f / lp_norm(f, p)


@dataclass(frozen=True)
class ProbeResult:
    p: Exponent
    q: Exponent
    X: int
    norm_lower_bound: float
    witness: np.ndarray
    trace: list[float] = field(default_factory=list)
    restarts_used: int = 0

    def as_dict(self) -> dict:
        return {
            "p": exp_str(self.p),
            "q": exp_str(self.q),
            "X": self.X,
            "norm_lower_bound": self.norm_lower_bound,
            "restarts_used": self.restarts_used,
            "trace": list(self.trace),
            "witness": [[float(z.real), float(z.imag)] for z in self.witness],
        }


def _rayleigh(op: ExtensionOperator, f: np.ndarray, p: Exponent, q: Exponent) -> float:
    nf = lp_norm(f, p)
    if nf == 0.0:
        return 0.0
    return lp_norm(op.restrict(f), q, op.weights) / nf


def _embed_witness(w: np.ndarray, dim: int, target_size: int) -> np.ndarray:
    """Zero-pad a witness from a smaller centered lattice cube into a larger one."""
    if len(w) > target_size:
        raise ValueError("warm start longer than lattice")
    if dim == 1:
        f0 = np.zeros(target_size, dtype=np.complex128)
        off = (target_size - len(w)) // 2
        f0[off : off + len(w)] = w
        return f0
    side_from = int(round(len(w) ** 0.5))
    side_to = int(round(target_size**0.5))
    if side_from**2 != len(w) or side_to**2 != target_size:
        raise ValueError("witness is not a flattened square lattice")
    block = np.zeros((side_to, side_to), dtype=np.complex128)
    off = (side_to - side_from) // 2
    block[off : off + side_from, off : off + side_from] = w.reshape(side_from, side_from)
    return block.ravel()


def probe_seed(seed: int, p: Exponent, q: Exponent, X: int, restart: int) -> np.random.Generator:
    """Deterministic per-cell generator, independent of scheduling order."""
    def enc(x: Exponent) -> tuple[int, int]:
        if is_inf(x):
            return (0, 0)
        fr = Fraction(x)
        return (fr.numerator, fr.denominator)

    entropy = [abs(int(seed)), *enc(p), *enc(q), int(X), int(restart)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def restriction_norm(op: ExtensionOperator, p: Exponent, q: Exponent,
                     options: ProbeOptions = ProbeOptions(),
                     warm_starts: list[np.ndarray] | None = None) -> ProbeResult:
    """Certified lower bound on the l^p -> L^q(mu) restriction norm.

    Every reported value is re-evaluated from the stored witness; nothing is
    trusted from the iteration itself.  Random restarts use complex Gaussian
    starts with seeds derived from (options.seed, p, q, X, restart); callers
    may add warm starts, e.g. zero-padded witnesses from a smaller lattice.
    """
    p = validate_exponent(p, "p")
    q = validate_exponent(q, "q")
    L = op.lattice_size
    starts: list[np.ndarray] = []
    for i in range(options.restarts):
        rng = probe_seed(options.seed, p, q, op.X, i)
        starts.append(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    for w in warm_starts or []:
        starts.append(_embed_witness(np.asarray(w, dtype=np.complex128), op.dim, L))

    best_val, best_f = -1.0, None
    trace: list[float] = []
    for f in starts:
        f = f.astype(np.complex128)
        nf = lp_norm(f, p)
        if nf == 0.0:
            continue
        f = f / nf
        last = -1.0
        for _ in range(options.max_iters):
            u = op.restrict(f)
            val = lp_norm(u, q, op.weights)
            if not np.isfinite(val):
                raise ArithmeticError("non-finite value in norm iteration")
            if val > best_val:
                best_val, best_f = val, f.copy()
                trace.append(val)
            if last > 0.0 and val - last < options.tol * abs(last):
                break
            last = val
            g = _measure_dual(u, op.weights, q)
            c = np.conj(op.extend(g))
            f = _lattice_extremal(c, p)

    if best_f is None:
        raise ArithmeticError("all starts degenerate")
    certified = _rayleigh(op, best_f, p, q)
    if abs(certified - best_val) > WITNESS_EVAL_TOL * max(1.0, abs(best_val)):
        raise AssertionError(
            f"witness re-evaluation {certified} disagrees with tracked value {best_val}")
    return ProbeResult(p, q, op.X, certified, best_f / lp_norm(best_f, p),
                       trace=trace, restarts_used=len(starts))


@dataclass(frozen=True)
class GrowthResult:
    p: Exponent
    q: Exponent
    X_list: list[int]
    norms: list[float]
    fit: FitResult

    @property
    def slope(self) -> float:
        return self.fit.slope

    def as_dict(self) -> dict:
        return {"p": exp_str(self.p), "q": exp_str(self.q), "X_list": list(self.X_list),
                "norms": list(self.norms), **self.fit.as_dict()}


def growth_exponent(mu: DiscreteMeasure, p: Exponent, q: Exponent, X_list,
                    options: ProbeOptions = ProbeOptions(),
                    operators: dict[int, ExtensionOperator] | None = None) -> GrowthResult:
    """Slope of log norm_lower_bound against log X over a geometric X series.

    The best witness at each X is zero-padded into the next larger lattice as
    a warm start, which makes the estimates nondecreasing in X by
    construction.
    """
    X_list = [int(x) for x in X_list]
    if len(X_list) < 4:
        raise ValueError("need at least 4 lattice truncations")
    if sorted(X_list) != X_list:
        raise ValueError("X list must be increasing")
    ratios = {X_list[i + 1] / X_list[i] for i in range(len(X_list) - 1)}
    if max(ratios) - min(ratios) > 1e-9:
        raise ValueError("X list must be geometrically spaced")
    norms, warm = [], []
    for X in X_list:
        op = operators[X] if operators and X in operators else assemble(mu, X)
        res = restriction_norm(op, p, q, options, warm_starts=warm)
        norms.append(res.norm_lower_bound)
        warm = [res.witness]
        if len(norms) >= 2 and norms[-1] < norms[-2] * (1 - 1e-10):
            raise AssertionError("norm estimates decreased along the X series")
    fit = loglog_fit(X_list, norms, drop_ends=False)
    return GrowthResult(p, q, X_list, norms, fit)


# ---------------------------------------------------------------------------
# Exponent-plane sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    p: Exponent
    q: Exponent
    norms: list[float]
    slope: float
    residual: float
    classification: str
    in_theorem_region: bool
    in_knapp_region: bool


@dataclass(frozen=True)
class SweepGrid:
    X_list: list[int]
    cells: list[SweepCell]
    n: int
    r: Exponent
    gamma_hat: float
    tau_bounded: float
    tau_growing: float

    def to_rows(self) -> list[dict]:
        rows = []
        for c in self.cells:
            row = {"p": exp_str(c.p), "q": exp_str(c.q)}
            for X, nv in zip(self.X_list, c.norms):
                row[f"norm_X{X}"] = nv
            row.update({"slope": c.slope, "residual": c.residual, "class": c.classification,
                        "in_theorem_region": c.in_theorem_region,
                        "in_knapp_region": c.in_knapp_region})
            rows.append(row)
        return rows


def classify_slope(slope: float, tau_bounded: float = SLOPE_BOUNDED_MAX,
                   tau_growing: float = SLOPE_GROWING_MIN) -> str:
    if tau_bounded >= tau_growing:
        raise ValueError("bounded threshold must be below growing threshold")
    if slope < tau_bounded:
        return "bounded"
    if slope > tau_growing:
        return "growing"
    return "inconclusive"


def sweep(mu: DiscreteMeasure, p_grid, q_grid, X_list,
          n: int = 2, r: Exponent = None, gamma_hat: float | None = None,
          options: ProbeOptions = ProbeOptions(),
          tau_bounded: float = SLOPE_BOUNDED_MAX,
          tau_growing: float = SLOPE_GROWING_MIN,
          threads: int = 1, progress=None) -> SweepGrid:
    """Classify every (p, q) cell as bounded / growing / inconclusive.

    Overlay columns mark membership in the closed admissible region for the
    given (n, r) and in the necessary region q <= (gamma_hat/dim) p'.  Cells
    are independent tasks with seeds fixed by (seed, p, q, X, restart), so
    the grid is reproducible under any scheduling.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .regularity import billingsley_gamma, theorem_range

    if r is None:
        r = float("inf")
    region = theorem_range(n, r)
    if gamma_hat is None:
        gamma_hat = billingsley_gamma(mu).estimate
    X_list = [int(x) for x in X_list]
    operators = {X: assemble(mu, X) for X in X_list}
    p_grid = [validate_exponent(p, "p") for p in p_grid]
    q_grid = [validate_exponent(q, "q") for q in q_grid]
    cells_in = [(p, q) for p in p_grid for q in q_grid]

    def run_cell(pq):
        p, q = pq
        g = growth_exponent(mu, p, q, X_list, options, operators=operators)
        pprime = conjugate(p)
        knapp_ok = True if is_inf(pprime) else (
            exp_float(q) <= gamma_hat / mu.dim * exp_float(pprime) + 1e-12)
        return SweepCell(p, q, g.norms, g.slope, g.fit.residual,
                         classify_slope(g.slope, tau_bounded, tau_growing),
                         region.contains(p, q), knapp_ok)

    results: list[SweepCell] = []
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        # consumed lazily, so progress fires as each cell finishes, in grid order
        for cell in (pool.map if pool else map)(run_cell, cells_in):
            results.append(cell)
            if progress:
                progress(cell)
    return SweepGrid(X_list, results, n, r, gamma_hat, tau_bounded, tau_growing)
