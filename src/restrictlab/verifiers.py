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

import numpy as np

from .fitting import loglog_fit
from .measures import DiscreteMeasure, mollify
from .rationals import (
    INF,
    Exponent,
    conjugate,
    exp_float,
    exp_mul,
    exp_str,
    is_inf,
    reciprocal,
    validate_exponent,
)
from .regularity import ExponentParams, ball_masses, billingsley_gamma, theorem_range
from .spectral import convolve_power, density_norm, lp_norm, self_correlation

SLACK_REL_TOL = 1e-8
ORACLE_MATCH_TOL = 1e-10
KNAPP_VIOLATION_SLOPE = -0.05
PROP1_MARGIN = 0.1
PROP2_DIVERGE_SLOPE = 0.1
PROP3_MARGIN = 0.1
G_CLIP = 10.0


# ---------------------------------------------------------------------------
# Grid transforms (finite-group normalization)
# ---------------------------------------------------------------------------

def grid_transform(values: np.ndarray) -> np.ndarray:
    """Transform of a grid density onto the full dual grid (counting measure)."""
    return np.fft.fftn(values) / values.size


def grid_inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Adjoint direction: lattice coefficients -> function values on the grid."""
    return np.fft.ifftn(coeffs) * coeffs.size


def torus_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Convolution of densities with the normalized volume element."""
    return np.fft.ifftn(np.fft.fftn(a) * np.fft.fftn(b)) / a.size


def torus_convolve_power(a: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return a.astype(np.complex128)
    return np.fft.ifftn(np.fft.fftn(a) ** n) / a.size ** (n - 1)


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


def check_hausdorff_young(values: np.ndarray, s: Exponent,
                          direction: str = "grid_density") -> SlackRecord:
    """||transform||_s <= ||source||_{s'} for s >= 2 under the fixed normalization.

    direction "grid_density" transforms a density on the torus grid to the
    dual lattice; "lattice" goes the other way (coefficients to a grid
    function).  Equality at s = 2 is Parseval.
    """
    s = validate_exponent(s, "s")
    if not is_inf(s) and Fraction(s) < 2:
        raise ValueError("Hausdorff-Young direction requires s >= 2")
    sp = conjugate(s)
    values = np.asarray(values, dtype=np.complex128)
    if direction == "grid_density":
        lhs = lp_norm(grid_transform(values), s)
        rhs = lp_norm(values, sp, volume=values.size)
    elif direction == "lattice":
        lhs = lp_norm(grid_inverse_transform(values), s, volume=values.size)
        rhs = lp_norm(values, sp)
    else:
        raise ValueError(f"unknown direction {direction!r}")
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


def random_bounded_g(N: int, dim: int, seed: int, clip: float = G_CLIP) -> np.ndarray:
    """Complex Gaussian surrogate for a bounded Borel function, |g| <= clip."""
    rng = np.random.default_rng(seed)
    shape = (N,) * dim
    g = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    mod = np.abs(g)
    over = mod > clip
    g[over] *= clip / mod[over]
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


def check_dual_chain(mu: DiscreteMeasure, g: np.ndarray, n: int, r: Exponent,
                     p: Exponent, epsilon: int = 2,
                     materialize_oracle: bool | None = None) -> ChainReport:
    """Evaluate every step of the dual estimate on a concrete instance.

    q is pinned to the endpoint p'/(n r') and s = p'/n; the instance must be
    feasible (s >= 2, q >= 1).  Steps: the power identity, Hausdorff-Young,
    the inner Holder bound through the convolution representation
    (|g|^{q'} mu_eps)^{*n}, the outer Holder with the L^r norm, Young's
    inequality against the unmollified convolution power, and the assembled
    end-to-end dual estimate.

    For n = 2 on tiny grids the inner object is additionally materialized as
    a brute-force eta-sum and compared exactly to the convolution form.
    """
    r = validate_exponent(r, "r")
    p = validate_exponent(p, "p")
    params = ExponentParams(d=mu.dim, n=n, p=p, r=r)
    q, s = params.q, params.s
    if is_inf(s) or Fraction(s) < 2:
        raise ValueError(f"infeasible exponents: s = p'/n = {exp_str(s)} must be finite and >= 2")
    if Fraction(q) < 1:
        raise ValueError(f"infeasible exponents: q = {exp_str(q)} < 1")
    qp, sp = params.q_prime, params.s_prime
    g = np.asarray(g, dtype=np.complex128)
    if g.shape != (mu.N,) * mu.dim:
        raise ValueError("g must be defined on the full grid")

    mu_eps = mollify(mu, epsilon).values
    vol = mu_eps.size
    h = g * mu_eps
    h_hat = grid_transform(h)
    ns = n * Fraction(s)

    steps: list[SlackRecord] = []

    # Power identity: ||h_hat||_{ns}^n = || (h_hat)^n ||_s.
    lhs_a = lp_norm(h_hat, ns) ** n
    rhs_a = lp_norm(h_hat**n, s)
    steps.append(SlackRecord("power_identity", lhs_a, rhs_a, kind="identity"))

    # Hausdorff-Young on the n-fold convolution.
    conv_h = torus_convolve_power(h, n)
    lhs_b = rhs_a
    rhs_b = lp_norm(conv_h, sp, volume=vol)
    steps.append(SlackRecord("hausdorff_young", lhs_b, rhs_b))

    # Inner Holder: |h^{*n}| <= (mu_eps^{*n})^{1/q} ((|g|^{q'} mu_eps)^{*n})^{1/q'}.
    M_n = np.maximum(torus_convolve_power(mu_eps, n).real, 0.0)
    support = mu_eps > 0
    if is_inf(qp):
        g_sup = float(np.abs(g)[support].max()) if support.any() else 0.0
        pointwise_rhs = M_n * g_sup**n
        T_n = None
    else:
        qpf = exp_float(qp)
        T_n = np.maximum(torus_convolve_power(np.abs(g) ** qpf * mu_eps, n).real, 0.0)
        pointwise_rhs = M_n ** (1.0 / exp_float(q)) * T_n ** (1.0 / qpf)
    lhs_c = rhs_b
    rhs_c = lp_norm(pointwise_rhs, sp, volume=vol)
    steps.append(SlackRecord("inner_holder", lhs_c, rhs_c))

    # Outer Holder: uses the exact identity 1/s' - 1/(qr) = 1/q'.
    mu_eps_conv_norm = lp_norm(M_n, r, volume=vol)
    if is_inf(qp):
        factor_g = g_sup**n
    else:
        inner_mass = float(torus_integral(T_n).real)
        exponent = reciprocal(sp) - reciprocal(exp_mul(q, r))
        factor_g = inner_mass ** float(exponent)
    lhs_d = rhs_c
    rhs_d = mu_eps_conv_norm ** float(reciprocal(q)) * factor_g
    steps.append(SlackRecord("outer_holder", lhs_d, rhs_d))

    # Mass identity: integral of (|g|^{q'} mu_eps)^{*n} is the n-th power of
    # the single-factor integral (Fubini on the torus).
    if not is_inf(qp):
        single_mass = float(torus_integral(np.abs(g) ** exp_float(qp) * mu_eps).real)
        steps.append(SlackRecord("inner_mass_identity", inner_mass, single_mass**n,
                                 kind="identity"))
        g_norm_factor = single_mass ** float(reciprocal(qp))
    else:
        g_norm_factor = g_sup

    # Young: mollified convolution power never beats the atomic one in L^r.
    mu_conv = convolve_power(mu, n)
    lhs_e = mu_eps_conv_norm
    rhs_e = density_norm(mu_conv, r)
    steps.append(SlackRecord("young_mollifier", lhs_e, rhs_e))

    # End-to-end dual estimate with explicit constant ||mu^{*n}||_r^{1/(nq)}.
    constant = rhs_e ** float(reciprocal(exp_mul(n, q)))
    end = SlackRecord("dual_estimate", lp_norm(h_hat, ns), constant * g_norm_factor)

    oracle_gap = None
    if materialize_oracle is None:
        materialize_oracle = n == 2 and mu.dim == 1 and mu.N <= 64
    if materialize_oracle:
        if n != 2 or mu.dim != 1:
            raise ValueError("materialized oracle supports n=2, dim=1 only")
        oracle_gap = float(np.abs(materialized_pair_sum(h) - conv_h).max())

    instance = {
        "N": mu.N, "dim": mu.dim, "n": n, "epsilon": epsilon,
        "p": exp_str(p), "q": exp_str(q), "r": exp_str(r), "s": exp_str(s),
        "measure": mu.constructor.get("kind", "custom"), "seed": mu.seed,
        # the dual-estimate constant and the ratio it actually achieved on
        # this instance; tracking these across epsilon exposes the
        # (non-certified) uniformity trend
        "constant": constant,
        "achieved_ratio": (end.lhs / g_norm_factor) if g_norm_factor > 0 else 0.0,
    }
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


def check_prop1(mu: DiscreteMeasure, n: int, scales=None,
                margin: float = PROP1_MARGIN) -> Prop1Report:
    """Regularity transfer: if mu^{*n} is alpha-regular then mu is alpha/n-regular.

    Degenerate measures fit slope 0 on constant ball masses, so the dirac
    case passes with both estimates at 0.
    """
    from .regularity import ahlfors_alpha

    conv = convolve_power(mu, n)
    a_conv = ahlfors_alpha(conv, scales).estimate
    a_mu = ahlfors_alpha(mu, scales).estimate
    return Prop1Report(a_conv, a_mu, n, margin, a_mu >= a_conv / n - margin)


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


def check_prop2(mu: DiscreteMeasure, gamma, s: Exponent, K_list,
                diverge_slope: float = PROP2_DIVERGE_SLOPE) -> Prop2Report:
    """Partial sums of |mu_hat|^s across truncations K, with trend classification.

    A gamma-dimensional measure should have divergent lattice sums for every
    s < 2 dim / gamma; the checker fits the log-log growth of the partial
    sums and calls slopes above ``diverge_slope`` divergent.
    """
    gamma = Fraction(gamma)
    if not (0 < gamma <= mu.dim):
        raise ValueError(f"gamma {gamma} outside (0, dim]")
    s = validate_exponent(s, "s")
    K_list = sorted(int(k) for k in K_list)
    if K_list[0] < 1 or K_list[-1] > mu.N // 2:
        raise ValueError("K values must lie in [1, N/2]")
    full = np.fft.fftn(mu.dense_weights())
    if mu.dim == 1:
        freqs = np.fft.fftfreq(mu.N, d=1.0 / mu.N)
        radii = np.abs(freqs)
    else:
        freqs = np.fft.fftfreq(mu.N, d=1.0 / mu.N)
        radii = np.hypot(*np.meshgrid(freqs, freqs, indexing="ij"))
    power = np.abs(full) ** exp_float(s)
    sums = [float(power[radii <= K].sum()) for K in K_list]
    fit = loglog_fit(K_list, sums)
    classification = "diverging" if fit.slope > diverge_slope else "leveling"
    critical = 2 * Fraction(mu.dim) / gamma
    expected = "diverging" if (not is_inf(s) and Fraction(s) < critical) else "leveling"
    return Prop2Report(s, gamma, critical, K_list, sums, fit.slope,
                       classification, expected, classification == expected)


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


def check_prop3(mu: DiscreteMeasure, gamma, eps_list=None,
                margin: float = PROP3_MARGIN) -> Prop3Report:
    """Autocorrelation mass near the origin scales no faster than eps^gamma.

    Computes (mu * reflected mu)(B(0, eps)) across eps, fits the exponent,
    and passes when the fit does not exceed gamma + margin; the greedy
    disjoint-ball counts underlying the lower-bound argument are reported
    alongside.
    """
    gamma = Fraction(gamma)
    corr = self_correlation(mu)
    if eps_list is None:
        from .regularity import default_scales
        eps_list = default_scales(mu.N)
    eps_list = sorted(float(e) for e in eps_list)
    masses, counts = [], []
    for eps in eps_list:
        window = ball_masses(corr, eps)
        masses.append(float(window[(0,) * mu.dim] if mu.dim == 2 else window[0]))
        counts.append(greedy_disjoint_balls(mu, eps) if mu.dim == 1 else -1)
    fit = loglog_fit(eps_list, masses)
    return Prop3Report(gamma, eps_list, masses, counts, fit.slope, margin,
                       fit.slope <= float(gamma) + margin)


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
               center: tuple[int, ...] | None = None,
               violation_slope: float = KNAPP_VIOLATION_SLOPE) -> KnappReport:
    """Concentrated-bump necessity probe at the heaviest point of the measure.

    For each width r the lattice function whose transform is a Fejer bump of
    width ~r at the Billingsley center is fed through the restriction ratio
    ||f_hat||_{L^q(mu)} / ||f||_{l^p}.  The fitted exponent of ratio against
    r should match gamma_hat/q - dim/p'; a clearly negative fit means the
    ratio blows up as r -> 0 and the (p, q) pair fails the necessary
    condition.
    """
    p = validate_exponent(p, "p")
    q = validate_exponent(q, "q")
    gamma_report = billingsley_gamma(mu)
    if center is None:
        center = gamma_report.center
    x0 = np.asarray(center, dtype=float) / mu.N
    r_list = sorted(float(r) for r in r_list)
    pos = mu.positions()
    ratios = []
    for r in r_list:
        M = max(1, int(round(1.0 / r)))
        taps = 1.0 - np.abs(np.arange(-M, M + 1)) / (M + 1)
        if mu.dim == 1:
            fhat_at_atoms = _fejer(pos[:, 0] - x0[0], M)
            f_norm = lp_norm(taps, p)
        else:
            fhat_at_atoms = (_fejer(pos[:, 0] - x0[0], M) * _fejer(pos[:, 1] - x0[1], M))
            f_norm = lp_norm(np.outer(taps, taps).ravel(), p)
        ratios.append(lp_norm(fhat_at_atoms, q, mu.weights) / f_norm)
    fit = loglog_fit(r_list, ratios)
    predicted = (gamma_report.estimate / exp_float(q)
                 - mu.dim * float(reciprocal(conjugate(p))))
    return KnappReport(p, q, tuple(int(c) for c in center), gamma_report.estimate,
                       r_list, ratios, fit.slope, predicted,
                       fit.slope < violation_slope)


# ---------------------------------------------------------------------------
# Bilinear estimate
# ---------------------------------------------------------------------------

def check_bilinear(mu: DiscreteMeasure, f: np.ndarray, g: np.ndarray,
                   p: Exponent, epsilon: int = 2) -> SlackRecord:
    """||f mu_eps * g mu_eps||_p <= ||mu_eps * mu_eps||_inf^{1/p'} ||f||_{L^p(mu_eps)} ||g||_{L^p(mu_eps)}."""
    p = validate_exponent(p, "p")
    mu_eps = mollify(mu, epsilon).values
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if f.shape != mu_eps.shape or g.shape != mu_eps.shape:
        raise ValueError("f and g must be defined on the full grid")
    conv = torus_convolve(f * mu_eps, g * mu_eps)
    vol = mu_eps.size
    lhs = lp_norm(conv, p, volume=vol)
    corr_sup = float(np.maximum(torus_convolve_power(mu_eps, 2).real, 0.0).max())
    rhs = (corr_sup ** float(reciprocal(conjugate(p)))
           * lp_norm(f, p, mu_eps, vol) * lp_norm(g, p, mu_eps, vol))
    return SlackRecord(f"bilinear(p={exp_str(p)})", lhs, rhs)


# ---------------------------------------------------------------------------
# Exact exponent identity
# ---------------------------------------------------------------------------

def exponent_identity(n: int, r: Exponent, p: Exponent) -> dict:
    """Exact check of 1/s' - 1/(qr) = 1/q' at q = p'/(n r'), s = p'/n."""
    params = ExponentParams(d=1, n=n, p=p, r=r)
    lhs = reciprocal(params.s_prime) - reciprocal(exp_mul(params.q, params.r))
    rhs = reciprocal(params.q_prime)
    return {
        "n": n, "r": exp_str(r), "p": exp_str(p), "q": exp_str(params.q),
        "s": exp_str(params.s), "lhs": exp_str(lhs), "rhs": exp_str(rhs),
        "holds": lhs == rhs,
    }


def feasible_triples(n_values=(1, 2, 3), r_values=(Fraction(3, 2), 2, 3, INF),
                     p_per_pair: int = 5) -> list[tuple[int, Exponent, Fraction]]:
    """Feasible (n, r, p) triples with p spread over (1, p_max], exact rationals."""
    triples = []
    for n in n_values:
        for r in r_values:
            rng = theorem_range(n, r)
            if not rng.feasible:
                continue
            p_max = Fraction(rng.p_max)
            for i in range(1, p_per_pair + 1):
                pi = 1 + (p_max - 1) * Fraction(i, p_per_pair)
                triples.append((n, r, pi))
    return triples
