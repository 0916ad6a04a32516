"""Regularity diagnostics and exact exponent formulas.

Two kinds of machinery live here.  The estimators (ahlfors_alpha,
fourier_beta, billingsley_gamma) fit power laws to finite-scale data and are
explicit about their scale window; the exponent calculators (theorem_range,
mockenhaupt_p0, knapp_bound) are exact rational arithmetic with infinity as a
legal value.

Ball masses are windowed prefix sums, one pass per axis, last axis first.
Both passes share one prefix buffer per call, and the pass along axis 0
adds whole rows, the same sequential adds per line as a cumsum, so the bits
are those of a cumsum per line.  ahlfors_alpha sizes that buffer for its
largest half-width and reads every scale from it; in dim 1 it builds no
grid at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fitting import FitResult, loglog_fit
from .measures import DiscreteMeasure, _flat_indices
from .rationals import (
    Exponent,
    conjugate,
    exp_div,
    exp_le,
    exp_mul,
    validate_exponent,
)
from .spectral import DIRECT_CHUNK_ENTRIES, frequency_radii

DEFAULT_SCALE_COUNT = 6
# fourier_beta: ratio of consecutive annulus radii, and the first radius
ANNULUS_BASE = 2.0
ANNULUS_K_MIN = 4.0


# ---------------------------------------------------------------------------
# Ball-mass scans (sliding-window prefix sums, wrap-around metric)
# ---------------------------------------------------------------------------

def _prefix_sums(values: np.ndarray, halfwidth: int, axis: int,
                 buffer: np.ndarray) -> np.ndarray:
    """Cumulative sums of [0, v, v[:2h]] along axis, v = values, in the front of a flat buffer.

    They form a C-ordered array with n + 2h + 1 entries on axis in place of
    n, returned with that axis first.  So one buffer of
    N^(dim-1) * (N + 2H + 1) entries serves the pass along either axis of an
    (N,)*dim grid at every h <= H, and the front n + 2h + 1 entries of a
    line are its prefix for h.  values may sit in the buffer already, at
    entries 1..n of a 1-D prefix.  Along the last axis cumsum runs on each
    line; along axis 0 of a 2-D grid whole rows are added,
    np.add(c[i - 1], c[i], out=c[i]) row after row: the same sequential
    adds per line, so the same bits, in C order.
    """
    shape = list(values.shape)
    n, h = shape[axis], halfwidth
    shape[axis] += 2 * h + 1
    lines = np.moveaxis(buffer[:math.prod(shape)].reshape(shape), axis, 0)
    v = np.moveaxis(values, axis, 0)
    lines[0] = 0.0
    lines[1:n + 1] = v
    lines[n + 1:] = v[:2 * h]
    if axis == values.ndim - 1:
        np.cumsum(lines[1:], axis=0, out=lines[1:])
    else:
        for prev, row in zip(lines[1:], lines[2:]):
            np.add(prev, row, out=row)
    return lines


def _windowed_sums(values: np.ndarray, halfwidth: int, axis: int, buffer: np.ndarray | None) -> None:
    """Overwrite values with its circular sums over [x - h, x + h] along one axis, at every x.

    Where 2h + 1 >= n the window is the whole axis, every x gets the axis
    total, and buffer may be None.  Otherwise the prefix sums go into buffer
    (see _prefix_sums), of at least size / n * (n + 2h + 1) entries.
    """
    v = np.moveaxis(values, axis, 0)
    n = v.shape[0]
    h = halfwidth
    if 2 * h + 1 >= n:
        v[...] = v.sum(axis=0, keepdims=True)
        return
    lines = _prefix_sums(values, h, axis, buffer)
    # the window starting at x - h is written at its center x
    np.subtract(lines[n + h + 1:n + 2 * h + 1], lines[n - h:n], out=v[:h])
    np.subtract(lines[2 * h + 1:n + h + 1], lines[:n - h], out=v[h:])


def _window_max(lines: np.ndarray, n: int, halfwidth: int) -> float:
    """Largest circular window sum over 2h + 1 cells of a 1-D prefix from _prefix_sums.

    The window starting at x is lines[x + 2h + 1] - lines[x]; the
    differences are taken chunk by chunk into one array of a quarter of
    fourier's chunk budget (512 KiB of float64), which stays in cache while
    the max reads it.
    """
    step = DIRECT_CHUNK_ENTRIES // 4
    chunk = np.empty(min(step, n))
    best = 0.0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        diff = np.subtract(lines[lo + 2 * halfwidth + 1:hi + 2 * halfwidth + 1], lines[lo:hi],
                           out=chunk[:hi - lo])
        best = max(best, float(diff.max()))
    return best


def _ball_mass_grid(mu: DiscreteMeasure, halfwidth: int, grid: np.ndarray,
                    buffer: np.ndarray | None) -> np.ndarray:
    """Write mu(B(x, h cells)) at every center x into grid, one pass per axis, last axis first."""
    grid[...] = 0.0
    grid[tuple(mu.indices.T)] = mu.weights
    for axis in reversed(range(mu.dim)):
        _windowed_sums(grid, halfwidth, axis, buffer)
    return grid


def _prefix_buffer(mu: DiscreteMeasure, halfwidth: int) -> np.ndarray | None:
    """One flat buffer for every pass at half-widths up to h (None when the window is the whole axis)."""
    if 2 * halfwidth + 1 >= mu.N:
        return None
    return np.empty(mu.N ** (mu.dim - 1) * (mu.N + 2 * halfwidth + 1))


def ball_masses(mu: DiscreteMeasure, radius: float) -> np.ndarray:
    """mu(B(x, radius)) for every grid center x, torus metric.

    Balls are intervals in dim 1 and squares (sup metric) in dim 2; the
    half-width in cells is floor(radius * N).  One prefix buffer serves the
    pass along each axis; the axis-0 pass of a 2-D grid adds whole rows.
    """
    if not (0 < radius <= 0.5):
        raise ValueError(f"radius {radius} outside (0, 1/2]")
    h = int(np.floor(radius * mu.N))
    return _ball_mass_grid(mu, h, np.empty((mu.N,) * mu.dim), _prefix_buffer(mu, h))


def ball_masses_at(mu: DiscreteMeasure, center, radii) -> list[float]:
    """mu(B(center, r)) for each radius r, summed over the atoms; builds no grid.

    Same balls as ball_masses: torus sup metric, half-width floor(r * N)
    cells, so at radius 1/2 the ball is the whole torus.
    """
    offset = (mu.indices - np.asarray(center, dtype=np.int64)) % mu.N
    distance = np.minimum(offset, mu.N - offset).max(axis=1)
    masses = []
    for radius in radii:
        if not (0 < radius <= 0.5):
            raise ValueError(f"radius {radius} outside (0, 1/2]")
        h = int(np.floor(radius * mu.N))
        masses.append(float(mu.weights[distance <= h].sum()))
    return masses


def default_scales(N: int) -> list[float]:
    """Up to DEFAULT_SCALE_COUNT dyadic radii in (1/N, 1/4], coarsest first."""
    scales = []
    r = 0.25
    while len(scales) < DEFAULT_SCALE_COUNT and r > 1.0 / N:
        scales.append(r)
        r /= 2
    return scales


@dataclass(frozen=True)
class ScanReport:
    """Power-law fit of ball masses over a declared scale window."""

    estimate: float
    scales: list[float]
    values: list[float]
    fit: FitResult
    window: tuple[float, float]
    center: tuple[int, ...] | None = None

    def as_dict(self) -> dict:
        d = {
            "estimate": self.estimate,
            "scales": list(self.scales),
            "values": list(self.values),
            "window": list(self.window),
            **self.fit.as_dict(),
        }
        if self.center is not None:
            d["center"] = list(self.center)
        return d


def _check_scales(mu: DiscreteMeasure, scales) -> list[float]:
    if scales is None:
        scales = default_scales(mu.N)
    scales = sorted(float(s) for s in scales)
    if len(scales) < 3:
        raise ValueError(f"need at least 3 scales, got {len(scales)}")
    for s in scales:
        if not (1.0 / mu.N < s <= 0.25):
            raise ValueError(f"scale {s} outside (1/N, 1/4]")
    return scales


def ahlfors_alpha(mu: DiscreteMeasure, scales=None) -> ScanReport:
    """Upper-regularity exponent: slope of log max-ball-mass against log r.

    Only the largest mass at each scale is kept, and one prefix buffer,
    sized for the largest half-width H, is made per call.  In dim 1 the
    atoms are scattered straight into one prefix of [0, v, v[:2H]], and
    every scale is read off it (the prefix for h is the front of the one
    for H); no grid is built.  In dim 2 each scale fills one reused grid
    with ball_masses' passes.  Either way the maxima have ball_masses' bits.
    """
    scales = _check_scales(mu, scales)
    halfwidths = [int(np.floor(r * mu.N)) for r in scales]
    H = max(halfwidths)
    buffer = _prefix_buffer(mu, H)  # not None: 2H + 1 < N, as every scale is <= 1/4
    if mu.dim == 1:
        weights = buffer[1:mu.N + 1]
        weights[...] = 0.0
        weights[mu.indices[:, 0]] = mu.weights
        lines = _prefix_sums(weights, H, 0, buffer)
        maxima = [_window_max(lines, mu.N, h) for h in halfwidths]
    else:
        grid = np.empty((mu.N,) * mu.dim)
        maxima = [float(_ball_mass_grid(mu, h, grid, buffer).max()) for h in halfwidths]
    fit = loglog_fit(scales, maxima)
    return ScanReport(fit.slope, scales, maxima, fit, (min(scales), max(scales)))


def billingsley_gamma(mu: DiscreteMeasure, scales=None) -> ScanReport:
    """Local dimension at the most concentrated point.

    The center is the arg-max of ball mass at the finest scale, the one
    ball-mass grid built here; the exponent is fitted to the masses at that
    fixed center, read from the atoms, which seeds Knapp-type tests with a
    genuinely heavy point.
    """
    scales = _check_scales(mu, scales)
    finest_masses = ball_masses(mu, scales[0])
    # argmax is flat over window-width plateaus; break ties toward the cell
    # carrying the most atomic mass so the center is a genuine support point.
    # The plateau cells' masses are read off the sorted atoms (0 where no
    # atom sits), not off a second dense grid
    flat_masses = finest_masses.ravel()
    plateau = np.flatnonzero(flat_masses >= flat_masses.max() * (1 - 1e-12))
    flat = _flat_indices(mu.indices, mu.N)
    order = np.argsort(flat)
    at = np.minimum(np.searchsorted(flat[order], plateau), len(order) - 1)
    cell_mass = np.where(flat[order[at]] == plateau, mu.weights[order[at]], 0.0)
    center = tuple(int(c) for c in np.unravel_index(plateau[np.argmax(cell_mass)],
                                                    finest_masses.shape))
    values = ball_masses_at(mu, center, scales)
    fit = loglog_fit(scales, values)
    return ScanReport(fit.slope, scales, values, fit, (min(scales), max(scales)), center=center)


# ---------------------------------------------------------------------------
# Fourier decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Fourier decay exponents over dyadic annuli: sup and average variants."""

    beta_sup: float
    beta_avg: float
    annuli: list[tuple[float, float]]
    sup_values: list[float]
    avg_values: list[float]
    fit_sup: FitResult
    fit_avg: FitResult

    def as_dict(self) -> dict:
        return {
            "beta_sup": self.beta_sup,
            "beta_avg": self.beta_avg,
            "annuli": [list(a) for a in self.annuli],
            "sup_values": self.sup_values,
            "avg_values": self.avg_values,
            "fit_sup": self.fit_sup.as_dict(),
            "fit_avg": self.fit_avg.as_dict(),
        }


def fourier_beta(coefficients: np.ndarray) -> DecayReport:
    """Decay exponent of |mu_hat|^2: negative slope over dyadic annuli.

    coefficients is the (2K+1,)*dim array that spectral.fourier returns; K
    and dim are read from its shape.  The sup variant fits
    sup_{|k| in annulus} |mu_hat(k)|^2; the average variant fits the annulus
    mean, the quantity controlling averaged-decay arguments.  Annuli start at
    ANNULUS_K_MIN: the first couple of octaves say nothing about asymptotic
    decay and would bias the fit.
    """
    coefficients = np.asarray(coefficients)
    dim = coefficients.ndim
    K = (coefficients.shape[0] - 1) // 2 if dim else 0
    if dim == 0 or coefficients.shape != (2 * K + 1,) * dim:
        raise ValueError(f"coefficient shape {coefficients.shape} is not (2K+1,)*dim")
    if K < 16:
        raise ValueError("need K >= 16 for a meaningful decay fit")
    radii = frequency_radii(np.arange(-K, K + 1, dtype=float), dim)
    power = np.abs(coefficients) ** 2
    annuli, sups, avgs, mids = [], [], [], []
    lo = ANNULUS_K_MIN
    while lo * ANNULUS_BASE <= K + 0.5:
        hi = lo * ANNULUS_BASE
        mask = (radii >= lo) & (radii < hi)
        if mask.any():
            vals = power[mask]
            if float(vals.max()) == 0.0:
                raise ValueError(f"annulus [{lo}, {hi}) is identically zero")
            annuli.append((lo, hi))
            sups.append(float(vals.max()))
            avgs.append(float(vals.mean()))
            mids.append(float(np.sqrt(lo * hi)))
        lo = hi
    if len(annuli) < 3:
        raise ValueError("fewer than 3 usable annuli; increase K")
    fit_sup = loglog_fit(mids, sups)
    fit_avg = loglog_fit(mids, avgs)
    return DecayReport(-fit_sup.slope, -fit_avg.slope, annuli, sups, avgs, fit_sup, fit_avg)


# ---------------------------------------------------------------------------
# Exact exponent calculators
# ---------------------------------------------------------------------------

def endpoint_q(n: int, r: Exponent, p: Exponent) -> Exponent:
    """q = p'/(n r'), the largest q the convolution-power estimate allows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r = validate_exponent(r, "r")
    p = validate_exponent(p, "p")
    if r == 1:
        return Fraction(0)
    return exp_div(conjugate(p), exp_mul(n, conjugate(r)))


@dataclass(frozen=True)
class ExponentRange:
    """Admissible (p, q) region for given convolution order n and density exponent r."""

    n: int
    r: Exponent
    p_max: Exponent
    feasible: bool

    def q_max(self, p: Exponent) -> Exponent:
        return endpoint_q(self.n, self.r, p)

    def contains(self, p: Exponent, q: Exponent) -> bool:
        """Closed region: 1 <= p <= p_max and 1 <= q <= p'/(n r')."""
        p = validate_exponent(p, "p")
        q = validate_exponent(q, "q")
        return exp_le(p, self.p_max) and exp_le(q, self.q_max(p))


def theorem_range(n: int, r: Exponent) -> ExponentRange:
    """Admissible exponent range of the convolution-power restriction estimate.

    p_max is 2n/(2n-1) when r >= 2 and nr'/(nr'-1) when 1 <= r <= 2 (the
    branches agree at r = 2); the range is infeasible when even the endpoint
    q drops below 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    r = validate_exponent(r, "r")
    if exp_le(2, r):
        p_max: Exponent = Fraction(2 * n, 2 * n - 1)
    elif r == 1:
        p_max = Fraction(1)
    else:
        nrp = exp_mul(n, conjugate(r))
        p_max = exp_div(nrp, nrp - 1)
    q_at_pmax = endpoint_q(n, r, p_max)
    feasible = exp_le(1, q_at_pmax)
    return ExponentRange(n, r, p_max, feasible)


def mockenhaupt_p0(d: int, alpha, beta) -> Fraction:
    """Critical p of the decay-plus-regularity restriction range.

    p0 = (4(d - alpha) + 2 beta) / (4(d - alpha) + beta), exact rationals;
    alpha and beta may sit at the boundary 0 (degenerate full-decay case).
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (0 <= alpha < d and 0 <= beta < d):
        raise ValueError(f"need 0 <= alpha, beta < d, got alpha={alpha}, beta={beta}, d={d}")
    return (4 * (d - alpha) + 2 * beta) / (4 * (d - alpha) + beta)


def knapp_bound(d: int, gamma, p: Exponent) -> Exponent:
    """Necessary upper bound q <= (gamma/d) p' from concentrated bump examples."""
    gamma = Fraction(gamma)
    if not (0 < gamma <= d):
        raise ValueError(f"need 0 < gamma <= d, got {gamma}")
    p = validate_exponent(p, "p")
    return exp_mul(Fraction(gamma) / d, conjugate(p))


def stein_tomas_p(d: int) -> Fraction:
    """Classical sphere endpoint 2(d+1)/(d+3)."""
    return Fraction(2 * (d + 1), d + 3)
