"""Machine checks of the inequality chain and its supporting propositions.

Every checker evaluates both sides of an inequality on a concrete discrete
instance and reports the slack RHS - LHS.  On the finite group Z_N^dim with
normalized volume the Hausdorff-Young, Holder, and Young steps are exact
inequalities, so negative slack beyond round-off always indicates a bug, not
discretization error.  Limit statements (divergent norms, vanishing-ball
asymptotics) are probed through finite-scale trend surrogates with declared
windows; those checkers generate evidence, not proofs.

Normalization used throughout: a density h on the grid has integral
N^-dim * sum(h); its transform h_hat(x) = N^-dim sum_j h_j e(-<j,x>/N) lives
on the full dual grid with counting measure, so s = 2 is Parseval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .fitting import loglog_fit
from .measures import DiscreteMeasure, _from_half_spectrum, _half_spectrum, mollify
from .rationals import (
    INF,
    Exponent,
    conjugate,
    exp_div,
    exp_float,
    exp_mul,
    exp_str,
    is_inf,
    reciprocal,
    validate_exponent,
)
from .regularity import (
    ScanReport,
    ahlfors_alpha,
    ball_masses_at,
    default_scales,
    endpoint_q,
    theorem_range,
)
from .spectral import (
    CONV_CLIP_ERROR,
    check_truncations,
    convolve_power,
    density_norm,
    fourier,
    lp_norm,
    self_correlation,
)

SLACK_REL_TOL = 1e-8
ORACLE_MATCH_TOL = 1e-10
KNAPP_VIOLATION_SLOPE = -0.05
PROP1_MARGIN = 0.1
PROP2_DIVERGE_SLOPE = 0.1
PROP3_MARGIN = 0.1
G_CLIP = 10.0
# the (n, r) pairs of feasible_triples and the number of p per pair
FEASIBLE_N = (1, 2, 3)
FEASIBLE_R = (Fraction(3, 2), 2, 3, INF)
FEASIBLE_P_PER_PAIR = 5


# ---------------------------------------------------------------------------
# Grid transforms (finite-group normalization)
# ---------------------------------------------------------------------------

def grid_transform(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Transform of a grid density onto the full dual grid (counting measure), into out if given."""
    return np.fft.fftn(values, norm="forward", out=out)


def torus_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of densities with the normalized volume element."""
    return np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b)) / a.size


def torus_convolve_power(a: np.ndarray, n: int) -> np.ndarray:
    """n-fold convolution power of a nonnegative real density with the normalized volume element.

    The power is taken in place on the half spectrum of a real FFT, which
    is inverted in place, so one half spectrum is alive and the result is real.
    Its round-off below zero is clipped in place; a value below
    -CONV_CLIP_ERROR times the peak, from a signed input or a precision
    failure, raises ArithmeticError.
    """
    if n == 1:
        out = a.astype(np.float64)
    else:
        spec = _half_spectrum(a)
        spec **= n
        out = _from_half_spectrum(spec, a.shape[-1])
        out /= a.size ** (n - 1)
    worst = float(out.min())
    if worst < -CONV_CLIP_ERROR * float(out.max()):
        raise ArithmeticError(f"convolution power has negative value {worst}; "
                              "signed input or precision failure")
    return np.maximum(out, 0.0, out=out)


def torus_integral(values: np.ndarray) -> complex:
    return complex(values.sum() / values.size)


# ---------------------------------------------------------------------------
# Hausdorff-Young
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlackRecord:
    """LHS <= RHS record; ``kind="identity"`` demands equality instead."""

    name: str
    lhs: float
    rhs: float
    kind: str = "inequality"

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def relative_slack(self) -> float:
        return self.slack / max(abs(self.lhs), abs(self.rhs), 1.0)

    def holds(self, tol: float = SLACK_REL_TOL) -> bool:
        if self.kind == "identity":
            return abs(self.relative_slack) <= tol
        return self.relative_slack >= -tol

    def as_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "relative_slack": self.relative_slack,
                "holds": self.holds()}


def check_hausdorff_young(values: np.ndarray, s: Exponent) -> SlackRecord:
    """||h_hat||_s <= ||h||_{s'} for s >= 2 under the fixed normalization.

    h is a density on the torus grid and h_hat its transform on the dual
    lattice.  Equality at s = 2 is Parseval.
    """
    s = validate_exponent(s, "s")
    if not is_inf(s) and Fraction(s) < 2:
        raise ValueError("Hausdorff-Young direction requires s >= 2")
    sp = conjugate(s)
    values = np.asarray(values, dtype=np.complex128)
    lhs = lp_norm(grid_transform(values), s)
    rhs = lp_norm(values, sp, volume=values.size)
    return SlackRecord(f"hausdorff_young(s={exp_str(s)})", lhs, rhs)


# ---------------------------------------------------------------------------
# The dual-estimate inequality chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainReport:
    steps: list[SlackRecord]
    instance: dict
    end_to_end: SlackRecord
    oracle_match: float | None = None

    def all_hold(self, tol: float = SLACK_REL_TOL) -> bool:
        ok = all(s.holds(tol) for s in self.steps) and self.end_to_end.holds(tol)
        if self.oracle_match is not None:
            ok = ok and self.oracle_match <= ORACLE_MATCH_TOL
        return ok

    def as_dict(self) -> dict:
        return {
            "instance": self.instance,
            "steps": [s.as_dict() for s in self.steps],
            "end_to_end": self.end_to_end.as_dict(),
            "oracle_match": self.oracle_match,
            "all_hold": self.all_hold(),
        }


def random_bounded_g(N: int, dim: int, seed: int) -> np.ndarray:
    """Complex Gaussian surrogate for a bounded Borel function, |g| <= G_CLIP."""
    rng = np.random.default_rng(seed)
    shape = (N,) * dim
    g = np.empty(shape, dtype=np.complex128)
    g.real = rng.standard_normal(shape)
    g.imag = rng.standard_normal(shape)
    # complex division by sqrt(2) multiplies both parts by 1 / sqrt(2)
    g *= 1.0 / math.sqrt(2)
    mod = np.abs(g)
    over = mod > G_CLIP
    g[over] *= G_CLIP / mod[over]
    return g


def materialized_pair_sum(h: np.ndarray) -> np.ndarray:
    """Brute-force eta-sum for the two-fold inner integral, dim 1 only.

    Materializes sum_eta G(xi, eta) M(xi, eta) as an explicit double loop over
    the auxiliary variable; equals the convolution form h * h exactly.
    """
    if h.ndim != 1:
        raise ValueError("materialized oracle is implemented for dim 1")
    N = len(h)
    out = np.zeros(N, dtype=np.complex128)
    for xi in range(N):
        acc = 0.0 + 0.0j
        for eta in range(N):
            acc += h[eta] * h[(xi - eta) % N]
        out[xi] = acc / N
    return out


@dataclass(frozen=True)
class PreparedChain:
    """The per-instance side of the dual chain: everything that does not depend on g.

    mu_eps, M_n and M_n_root are read-only, so trials on one prepared chain
    cannot affect each other.  constant is ||mu^{*n}||_r^{1/(nq)}.  qp and
    sp are the exact conjugates q' and s', and holder_exponent is
    1/s' - 1/(qr), which equals 1/q'.  M_n_root is M_n^{1/q}, None when
    q' = inf.  instance holds the report fields that do not depend on g.
    """

    mu: DiscreteMeasure
    n: int
    r: Exponent
    p: Exponent
    q: Exponent
    s: Exponent
    epsilon: int
    mu_eps: np.ndarray
    M_n: np.ndarray
    mu_eps_conv_norm: float
    atomic_conv_norm: float
    constant: float
    qp: Exponent
    sp: Exponent
    holder_exponent: Exponent
    M_n_root: np.ndarray | None
    instance: dict


def prepare_chain(mu: DiscreteMeasure, n: int, r: Exponent, p: Exponent,
                  epsilon: int = 2) -> PreparedChain:
    """Validate the exponents and compute the g-independent data of one chain instance.

    q is pinned to the endpoint p'/(n r') and s = p'/n; the instance must be
    feasible (s >= 2, q >= 1).  The mollified power M_n = mu_eps^{*n} and
    its root M_n^{1/q}, its L^r norm, the atomic norm ||mu^{*n}||_r behind
    the constant, and the exact exponents are computed here once, whatever
    the number of g checked against them.
    """
    r = validate_exponent(r, "r")
    p = validate_exponent(p, "p")
    q = validate_exponent(endpoint_q(n, r, p), "q")
    s = exp_div(conjugate(p), n)
    if is_inf(s) or Fraction(s) < 2:
        raise ValueError(f"infeasible exponents: s = p'/n = {exp_str(s)} must be finite and >= 2")
    qp, sp = conjugate(q), conjugate(s)
    mu_eps = mollify(mu, epsilon)
    M_n = torus_convolve_power(mu_eps, n)
    M_n_root = None if is_inf(qp) else M_n ** (1.0 / exp_float(q))
    for array in (mu_eps, M_n, M_n_root):
        if array is not None:
            array.setflags(write=False)
    atomic_conv_norm = density_norm(convolve_power(mu, n), r)
    constant = atomic_conv_norm ** float(reciprocal(exp_mul(n, q)))
    instance = {
        "N": mu.N, "dim": mu.dim, "n": n, "epsilon": epsilon,
        "p": exp_str(p), "q": exp_str(q), "r": exp_str(r), "s": exp_str(s),
        "measure": mu.constructor.get("kind", "custom"), "seed": mu.seed,
        # the dual-estimate constant; with each trial's achieved ratio,
        # tracking it across epsilon exposes the (non-certified) uniformity trend
        "constant": constant,
    }
    return PreparedChain(mu, n, r, p, q, s, epsilon, mu_eps, M_n,
                         lp_norm(M_n, r, volume=mu_eps.size), atomic_conv_norm, constant,
                         qp, sp, reciprocal(sp) - reciprocal(exp_mul(q, r)), M_n_root, instance)


def check_dual_chain(chain: PreparedChain, g: np.ndarray) -> ChainReport:
    """Evaluate every step of the dual estimate on a prepared instance and one g.

    Steps: the power identity, Hausdorff-Young, the inner Holder bound
    through the convolution representation (|g|^{q'} mu_eps)^{*n}, the outer
    Holder with the L^r norm, Young's inequality against the unmollified
    convolution power, and the assembled end-to-end dual estimate.

    For n = 2 on tiny grids the inner object is additionally materialized as
    a brute-force eta-sum and compared exactly to the convolution form.
    """
    mu, n, q, s, qp, sp = chain.mu, chain.n, chain.q, chain.s, chain.qp, chain.sp
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (mu.N,) * mu.dim:
        raise ValueError("g must be defined on the full grid")

    mu_eps, M_n = chain.mu_eps, chain.M_n
    vol = mu_eps.size
    h = g * mu_eps
    oracle = n == 2 and mu.dim == 1 and mu.N <= 64
    # the transforms overwrite h, h_hat and conv_h in turn; the oracle reads h
    h_hat = grid_transform(h, out=None if oracle else h)
    hat_norm = lp_norm(h_hat, n * Fraction(s))
    h_hat **= n

    steps: list[SlackRecord] = []

    # Power identity: ||h_hat||_{ns}^n = || (h_hat)^n ||_s.
    lhs_a = hat_norm**n
    rhs_a = lp_norm(h_hat, s)
    steps.append(SlackRecord("power_identity", lhs_a, rhs_a, kind="identity"))

    # Hausdorff-Young on the n-fold convolution, whose transform is h_hat^n.
    conv_h = np.fft.ifftn(h_hat, norm="forward", out=h_hat)
    lhs_b = rhs_a
    rhs_b = lp_norm(conv_h, sp, volume=vol)
    steps.append(SlackRecord("hausdorff_young", lhs_b, rhs_b))

    # Inner Holder: |h^{*n}| <= (mu_eps^{*n})^{1/q} ((|g|^{q'} mu_eps)^{*n})^{1/q'}.
    if is_inf(qp):
        support = mu_eps > 0
        g_sup = float(np.abs(g)[support].max()) if support.any() else 0.0
        pointwise_rhs = M_n * g_sup**n
    else:
        qpf = exp_float(qp)
        # |g|^{q'} mu_eps, whose integral is the single-factor mass below
        weighted = np.abs(g)
        weighted **= qpf
        weighted *= mu_eps
        single_mass = float(torus_integral(weighted).real)
        T_n = torus_convolve_power(weighted, n)
        del weighted
        inner_mass = float(torus_integral(T_n).real)
        # M_n^{1/q} T_n^{1/q'}, written over T_n
        T_n **= 1.0 / qpf
        T_n *= chain.M_n_root
        pointwise_rhs = T_n
    lhs_c = rhs_b
    rhs_c = lp_norm(pointwise_rhs, sp, volume=vol)
    steps.append(SlackRecord("inner_holder", lhs_c, rhs_c))

    # Outer Holder: uses the exact identity 1/s' - 1/(qr) = 1/q'.
    mu_eps_conv_norm = chain.mu_eps_conv_norm
    if is_inf(qp):
        factor_g = g_sup**n
    else:
        factor_g = inner_mass ** float(chain.holder_exponent)
    lhs_d = rhs_c
    rhs_d = mu_eps_conv_norm ** float(reciprocal(q)) * factor_g
    steps.append(SlackRecord("outer_holder", lhs_d, rhs_d))

    # Mass identity: integral of (|g|^{q'} mu_eps)^{*n} is the n-th power of
    # the single-factor integral (Fubini on the torus).
    if not is_inf(qp):
        steps.append(SlackRecord("inner_mass_identity", inner_mass, single_mass**n,
                                 kind="identity"))
        g_norm_factor = single_mass ** float(reciprocal(qp))
    else:
        g_norm_factor = g_sup

    # Young: mollified convolution power never beats the atomic one in L^r.
    steps.append(SlackRecord("young_mollifier", mu_eps_conv_norm, chain.atomic_conv_norm))

    # End-to-end dual estimate with explicit constant ||mu^{*n}||_r^{1/(nq)}.
    end = SlackRecord("dual_estimate", hat_norm, chain.constant * g_norm_factor)

    oracle_gap = None
    if oracle:
        oracle_gap = float(np.abs(materialized_pair_sum(h) - conv_h).max())

    instance = {**chain.instance,
                "achieved_ratio": (end.lhs / g_norm_factor) if g_norm_factor > 0 else 0.0}
    return ChainReport(steps, instance, end, oracle_gap)


# ---------------------------------------------------------------------------
# Regularity-transfer and divergence propositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prop1Report:
    alpha_conv: float
    alpha_mu: float
    n: int
    margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {"alpha_conv": self.alpha_conv, "alpha_mu": self.alpha_mu,
                "n": self.n, "margin": self.margin, "passed": self.passed}


def check_prop1(mu: DiscreteMeasure, n: int) -> Prop1Report:
    """Regularity transfer: if mu^{*n} is alpha-regular then mu is alpha/n-regular.

    Both exponents are fitted over the default scales; the check passes
    within PROP1_MARGIN.  Degenerate measures fit slope 0 on constant ball
    masses, so the dirac case passes with both estimates at 0.
    """
    conv = convolve_power(mu, n)
    a_conv = ahlfors_alpha(conv).estimate
    a_mu = ahlfors_alpha(mu).estimate
    return Prop1Report(a_conv, a_mu, n, PROP1_MARGIN, a_mu >= a_conv / n - PROP1_MARGIN)


@dataclass(frozen=True)
class Prop2Report:
    s: Exponent
    gamma: Fraction
    critical: Fraction
    K_list: list[int]
    partial_sums: list[float]
    slope: float
    classification: str
    expected: str
    agrees: bool

    def as_dict(self) -> dict:
        return {"s": exp_str(self.s), "gamma": exp_str(self.gamma),
                "critical_s": exp_str(self.critical), "K_list": list(self.K_list),
                "partial_sums": list(self.partial_sums), "slope": self.slope,
                "classification": self.classification, "expected": self.expected,
                "agrees": self.agrees}


def check_prop2(mu: DiscreteMeasure, gamma, s_values, K_list) -> list[Prop2Report]:
    """Partial sums of |mu_hat|^s across truncations K, one classified report per s.

    A gamma-dimensional measure should have divergent lattice sums for every
    s < 2 dim / gamma; the checker fits the log-log growth of the partial
    sums and calls slopes above PROP2_DIVERGE_SLOPE divergent.  The
    coefficients (from spectral.fourier, by its route rule) and their
    squared radii are computed once for all s.  The sums run over the
    frequencies of Z_N^dim, so at K = N/2, where -N/2 = N/2 (mod N), only the
    end -N/2 of each axis is kept.
    """
    gamma = Fraction(gamma)
    if not (0 < gamma <= mu.dim):
        raise ValueError(f"gamma {gamma} outside (0, dim]")
    s_values = [validate_exponent(s, "s") for s in s_values]
    K_list = sorted(int(k) for k in K_list)
    check_truncations(mu.N, K_list)
    top = K_list[-1]
    window = slice(None, -1 if 2 * top == mu.N else None)
    magnitude = np.abs(fourier(mu, top)[(window,) * mu.dim])
    k = np.arange(-top, top + 1)[window]
    r2 = reduce(np.add.outer, [k * k] * mu.dim)  # the exact integer |k|^2
    inside = [r2 <= K * K for K in K_list]
    critical = 2 * Fraction(mu.dim) / gamma
    reports = []
    for s in s_values:
        power = magnitude ** exp_float(s)
        sums = [float(power[m].sum()) for m in inside]
        fit = loglog_fit(K_list, sums)
        classification = "diverging" if fit.slope > PROP2_DIVERGE_SLOPE else "leveling"
        expected = "diverging" if (not is_inf(s) and Fraction(s) < critical) else "leveling"
        reports.append(Prop2Report(s, gamma, critical, K_list, sums, fit.slope,
                                   classification, expected, classification == expected))
    return reports


@dataclass(frozen=True)
class Prop3Report:
    gamma: Fraction
    eps_list: list[float]
    masses: list[float]
    packing_counts: list[int]
    fitted_exponent: float
    margin: float
    passed: bool

    def as_dict(self) -> dict:
        return {"gamma": exp_str(self.gamma), "eps_list": list(self.eps_list),
                "masses": list(self.masses), "packing_counts": list(self.packing_counts),
                "fitted_exponent": self.fitted_exponent, "margin": self.margin,
                "passed": self.passed}


def greedy_disjoint_balls(mu: DiscreteMeasure, eps: float) -> int:
    """Left-to-right maximal packing of disjoint radius-eps/2 balls centered at atoms."""
    if mu.dim != 1:
        raise ValueError("packing sweep is implemented for dim 1")
    sep = eps * mu.N
    count, last = 0, -np.inf
    for j in np.sort(mu.indices[:, 0]):
        if j - last >= sep:
            count += 1
            last = j
    return count


def check_prop3(mu: DiscreteMeasure, gamma) -> Prop3Report:
    """Autocorrelation mass near the origin scales no faster than eps^gamma.

    Computes (mu * reflected mu)(B(0, eps)) across the default scales eps,
    fits the exponent, and passes when the fit does not exceed
    gamma + PROP3_MARGIN; the greedy disjoint-ball counts underlying the
    lower-bound argument are reported alongside.
    """
    gamma = Fraction(gamma)
    corr = self_correlation(mu)
    eps_list = sorted(default_scales(mu.N))
    masses = ball_masses_at(corr, (0,) * mu.dim, eps_list)
    counts = [greedy_disjoint_balls(mu, eps) if mu.dim == 1 else -1 for eps in eps_list]
    fit = loglog_fit(eps_list, masses)
    return Prop3Report(gamma, eps_list, masses, counts, fit.slope, PROP3_MARGIN,
                       fit.slope <= float(gamma) + PROP3_MARGIN)


# ---------------------------------------------------------------------------
# Knapp necessity test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnappReport:
    p: Exponent
    q: Exponent
    center: tuple[int, ...]
    gamma_hat: float
    r_list: list[float]
    ratios: list[float]
    fitted_exponent: float
    predicted_exponent: float
    violated: bool

    def as_dict(self) -> dict:
        return {"p": exp_str(self.p), "q": exp_str(self.q), "center": list(self.center),
                "gamma_hat": self.gamma_hat, "r_list": list(self.r_list),
                "ratios": list(self.ratios), "fitted_exponent": self.fitted_exponent,
                "predicted_exponent": self.predicted_exponent, "violated": self.violated}


def _fejer(t: np.ndarray, M: int) -> np.ndarray:
    """Fejer kernel sum_{|x|<=M} (1-|x|/(M+1)) e(-xt), nonnegative, peak M+1."""
    out = np.full_like(t, float(M + 1))
    tt = np.mod(np.asarray(t, dtype=float), 1.0)
    interior = np.abs(np.sin(np.pi * tt)) > 1e-15
    num = np.sin(np.pi * (M + 1) * tt[interior]) ** 2
    den = np.sin(np.pi * tt[interior]) ** 2
    out[interior] = num / den / (M + 1)
    return out


def knapp_test(mu: DiscreteMeasure, p: Exponent, q: Exponent, r_list,
               gamma_report: ScanReport) -> KnappReport:
    """Concentrated-bump necessity probe at the heaviest point of the measure.

    For each width r the lattice function whose transform is a Fejer bump of
    width ~r at the Billingsley center is fed through the restriction ratio
    ||f_hat||_{L^q(mu)} / ||f||_{l^p}.  The fitted exponent of ratio against
    r should match gamma_hat/q - dim/p'; a fit below KNAPP_VIOLATION_SLOPE
    means the ratio blows up as r -> 0 and the (p, q) pair fails the
    necessary condition.  gamma_report is billingsley_gamma(mu); the (p, q)
    cases of one measure share it, since the scan depends on the measure
    alone.
    """
    p = validate_exponent(p, "p")
    q = validate_exponent(q, "q")
    center = gamma_report.center
    x0 = np.asarray(center, dtype=float) / mu.N
    r_list = sorted(float(r) for r in r_list)
    pos = mu.positions()
    ratios = []
    for r in r_list:
        M = max(1, int(round(1.0 / r)))
        taps = 1.0 - np.abs(np.arange(-M, M + 1)) / (M + 1)
        fhat_at_atoms = reduce(np.multiply,
                               (_fejer(pos[:, a] - x0[a], M) for a in range(mu.dim)))
        f_norm = lp_norm(reduce(np.multiply.outer, [taps] * mu.dim).ravel(), p)
        ratios.append(lp_norm(fhat_at_atoms, q, mu.weights) / f_norm)
    fit = loglog_fit(r_list, ratios)
    predicted = (gamma_report.estimate / exp_float(q)
                 - mu.dim * float(reciprocal(conjugate(p))))
    return KnappReport(p, q, tuple(int(c) for c in center), gamma_report.estimate,
                       r_list, ratios, fit.slope, predicted,
                       fit.slope < KNAPP_VIOLATION_SLOPE)


# ---------------------------------------------------------------------------
# Bilinear estimate
# ---------------------------------------------------------------------------

def check_bilinear(mu: DiscreteMeasure, f: np.ndarray, g: np.ndarray,
                   p: Exponent, epsilon: int = 2) -> SlackRecord:
    """||f mu_eps * g mu_eps||_p <= ||mu_eps * mu_eps||_inf^{1/p'} ||f||_{L^p(mu_eps)} ||g||_{L^p(mu_eps)}."""
    p = validate_exponent(p, "p")
    mu_eps = mollify(mu, epsilon)
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if f.shape != mu_eps.shape or g.shape != mu_eps.shape:
        raise ValueError("f and g must be defined on the full grid")
    conv = torus_convolve(f * mu_eps, g * mu_eps)
    vol = mu_eps.size
    lhs = lp_norm(conv, p, volume=vol)
    corr_sup = float(torus_convolve_power(mu_eps, 2).max())
    rhs = (corr_sup ** float(reciprocal(conjugate(p)))
           * lp_norm(f, p, mu_eps, vol) * lp_norm(g, p, mu_eps, vol))
    return SlackRecord(f"bilinear(p={exp_str(p)})", lhs, rhs)


# ---------------------------------------------------------------------------
# Exact exponent identity
# ---------------------------------------------------------------------------

def exponent_identity(n: int, r: Exponent, p: Exponent) -> dict:
    """Exact check of 1/s' - 1/(qr) = 1/q' at q = p'/(n r'), s = p'/n."""
    q = validate_exponent(endpoint_q(n, r, p), "q")
    s = validate_exponent(exp_div(conjugate(p), n), "s")
    lhs = reciprocal(conjugate(s)) - reciprocal(exp_mul(q, r))
    rhs = reciprocal(conjugate(q))
    return {
        "n": n, "r": exp_str(r), "p": exp_str(p), "q": exp_str(q),
        "s": exp_str(s), "lhs": exp_str(lhs), "rhs": exp_str(rhs),
        "holds": lhs == rhs,
    }


def feasible_triples() -> list[tuple[int, Exponent, Fraction]]:
    """Feasible (n, r, p) triples with p spread over (1, p_max], exact rationals."""
    triples = []
    for n in FEASIBLE_N:
        for r in FEASIBLE_R:
            rng = theorem_range(n, r)
            if not rng.feasible:
                continue
            p_max = Fraction(rng.p_max)
            for i in range(1, FEASIBLE_P_PER_PAIR + 1):
                pi = 1 + (p_max - 1) * Fraction(i, FEASIBLE_P_PER_PAIR)
                triples.append((n, r, pi))
    return triples
