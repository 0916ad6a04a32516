"""Regularity diagnostics and exact exponent formulas.

Two kinds of machinery live here.  The estimators (ahlfors_alpha,
fourier_beta, billingsley_gamma) fit power laws to finite-scale data and are
explicit about their scale window; the exponent calculators (theorem_range,
mockenhaupt_p0, knapp_bound) are exact rational arithmetic with infinity as a
legal value.

Ball masses are windowed prefix sums, one pass per axis, last axis first.
A pass takes the lines along its axis in blocks, one cumsum per block into
a buffer of about DIRECT_CHUNK_ENTRIES / 8 entries, so a scan holds its
N^dim grid and that block, and the bits are those of a cumsum per line.
In dim 1 ahlfors_alpha and billingsley_gamma build no grid at all: the
grid's prefix only steps at an atom, so both read the prefix of the sorted
atoms, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

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
from .spectral import DIRECT_CHUNK_ENTRIES

DEFAULT_SCALE_COUNT = 6
# fourier_beta: ratio of consecutive annulus radii, and the first radius
ANNULUS_BASE = 2.0
ANNULUS_K_MIN = 4.0


# ---------------------------------------------------------------------------
# Ball-mass scans (sliding-window prefix sums, wrap-around metric)
# ---------------------------------------------------------------------------

def _windowed_sums(values: np.ndarray, halfwidth: int, axis: int,
                   occupied: np.ndarray | None = None) -> None:
    """Overwrite values with its circular sums over [x - h, x + h] along one axis, at every x.

    Where 2h + 1 >= n the window is the whole axis and every x gets the axis
    total.  Otherwise the lines along axis go in blocks: their prefix sums
    of [0, v, v[:2h]] fill one buffer of about DIRECT_CHUNK_ENTRIES / 8
    entries, laid out as values is, one cumsum along axis runs per block,
    and every window is the difference of two prefixes, so the bits are
    those of a cumsum per line.  occupied, when given, flags the lines that
    may be nonzero; a block of lines it does not flag stays all zero and is
    skipped.
    """
    n, h = values.shape[axis], halfwidth
    if 2 * h + 1 >= n:
        v = np.moveaxis(values, axis, 0)
        v[...] = v.sum(axis=0, keepdims=True)
        return
    lines = np.moveaxis(values, axis, 0).reshape(n, -1)  # a view: dim is 1 or 2
    step = max(1, DIRECT_CHUNK_ENTRIES // 8 // (n + 2 * h + 1))
    width = min(step, lines.shape[1])
    if axis == values.ndim - 1:
        prefix = np.empty((width, n + 2 * h + 1)).T
    else:
        prefix = np.empty((n + 2 * h + 1, width))
    for lo in range(0, lines.shape[1], step):
        if occupied is not None and not occupied[lo:lo + step].any():
            continue
        block = lines[:, lo:lo + step]
        p = prefix[:, :block.shape[1]]
        p[0] = 0.0
        p[1:n + 1] = block
        p[n + 1:] = block[:2 * h]
        np.cumsum(p[1:], axis=0, out=p[1:])
        # the window starting at x - h is written at its center x
        np.subtract(p[n + h + 1:n + 2 * h + 1], p[n - h:n], out=block[:h])
        np.subtract(p[2 * h + 1:n + h + 1], p[:n - h], out=block[h:])


def _ball_mass_grid(mu: DiscreteMeasure, halfwidth: int, grid: np.ndarray) -> np.ndarray:
    """Write mu(B(x, h cells)) at every center x into grid, one pass per axis, last axis first.

    Before the first pass only the lines holding an atom are nonzero, so
    that pass skips the blocks of lines without one.
    """
    grid[...] = 0.0
    grid[tuple(mu.indices.T)] = mu.weights
    occupied = np.zeros(grid.size // mu.N, dtype=bool)
    occupied[_flat_indices(mu.indices, mu.N) // mu.N] = True
    for axis in reversed(range(mu.dim)):
        _windowed_sums(grid, halfwidth, axis, occupied if axis == mu.dim - 1 else None)
    return grid


def ball_masses(mu: DiscreteMeasure, radius: float) -> np.ndarray:
    """mu(B(x, radius)) for every grid center x, torus metric.

    Balls are intervals in dim 1 and squares (sup metric) in dim 2; the
    half-width in cells is floor(radius * N).  Besides the grid, each pass
    holds one block of prefix sums (_windowed_sums).
    """
    if not (0 < radius <= 0.5):
        raise ValueError(f"radius {radius} outside (0, 1/2]")
    return _ball_mass_grid(mu, int(np.floor(radius * mu.N)), np.empty((mu.N,) * mu.dim))


def _atom_prefix(mu: DiscreteMeasure, halfwidth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cells, weights, prefix) of a 1-D measure, for window sums at half-widths up to h.

    cells are the atoms' cells in increasing order, followed by those below
    2h once more, N cells on (their wrapped copies), and weights are the
    weights in that order; prefix holds 0 and then their cumulative sums.
    Adding 0.0 is exact, so prefix[i] is the grid's prefix of [0, v, v[:2h]]
    (_windowed_sums) just past cells[i - 1], with the same bits, and no
    N-cell grid is built.
    """
    cells, weights = mu.indices[:, 0], mu.weights
    if np.any(cells[1:] < cells[:-1]):  # a measure built directly may list its atoms unsorted
        order = np.argsort(cells)
        cells, weights = cells[order], weights[order]
    wrapped = np.searchsorted(cells, 2 * halfwidth)
    cells = np.concatenate((cells, cells[:wrapped] + mu.N))
    weights = np.concatenate((weights, weights[:wrapped]))
    prefix = np.empty(len(cells) + 1)
    prefix[0] = 0.0
    np.cumsum(weights, out=prefix[1:])
    return cells, weights, prefix


def _atom_window_sums(cells: np.ndarray, prefix: np.ndarray, halfwidth: int,
                      starts: np.ndarray) -> np.ndarray:
    """Circular sums over the cells [x, x + 2h] for each start x in [0, N), from _atom_prefix.

    The sum is the difference of the grid's prefixes at x + 2h + 1 and at
    x; a window past N - 1 ends among the wrapped copies.
    """
    return (prefix[np.searchsorted(cells, starts + 2 * halfwidth, "right")]
            - prefix[np.searchsorted(cells, starts)])


def _atom_window_max(mu: DiscreteMeasure, cells: np.ndarray, prefix: np.ndarray,
                     halfwidth: int) -> float:
    """Largest circular sum over 2h + 1 cells of a 1-D measure, from the windows starting at an atom or at N - 1.

    Any other window slides right, to the next atom or to N - 1, without
    losing an atom, and window sums are differences of a nondecreasing
    prefix, so the largest sum is among these, with the grid's bits.  The
    window starting at the i-th atom begins at prefix[i]; the atoms go in
    chunks of DIRECT_CHUNK_ENTRIES / 8, and their ends are sorted, so each
    chunk takes one search.
    """
    step = DIRECT_CHUNK_ENTRIES // 8
    best = float(_atom_window_sums(cells, prefix, halfwidth, np.array([mu.N - 1]))[0])
    for lo in range(0, mu.num_atoms, step):
        hi = min(lo + step, mu.num_atoms)
        sums = prefix[np.searchsorted(cells, cells[lo:hi] + 2 * halfwidth, "right")]
        sums -= prefix[lo:hi]
        best = max(best, float(sums.max()))
    return best


def _atom_center(mu: DiscreteMeasure, halfwidth: int) -> tuple[int]:
    """billingsley_gamma's center of a 1-D measure, read off the atoms.

    The ball mass at center c is the window sum from start (c - h) mod N,
    and it is constant, bit for bit, between the cuts 0, h (where the start
    wraps), p - h (atom p enters) and p + h + 1 (it leaves), mod N: at most
    2m + 2 segments, each read once at its first cell.  Of the plateau
    cells (mass >= max (1 - 1e-12)) the one carrying the most atomic mass
    wins, the lowest cell among ties, as on the dense grid; an atom-free
    cell carries 0, so the first plateau cell stands for all of those.
    """
    N, h, m = mu.N, halfwidth, mu.num_atoms
    cells, weights, prefix = _atom_prefix(mu, h)
    atoms, atom_weights = cells[:m], weights[:m]  # without the wrapped copies
    cuts = np.concatenate(([0, h], (atoms - h) & (N - 1), (atoms + h + 1) & (N - 1)))
    cuts.sort()
    masses = np.empty(len(cuts))
    step = DIRECT_CHUNK_ENTRIES // 8
    for lo in range(0, len(cuts), step):
        masses[lo:lo + step] = _atom_window_sums(cells, prefix, h, (cuts[lo:lo + step] - h) & (N - 1))
    plateau = masses >= masses.max() * (1 - 1e-12)
    on = plateau[np.searchsorted(cuts, atoms, "right") - 1]
    candidates = np.append(cuts[np.argmax(plateau)], atoms[on])
    cell_mass = np.append(0.0, atom_weights[on])
    return (int(candidates[cell_mass == cell_mass.max()].min()),)


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

    Only the largest mass at each scale is kept, with ball_masses' bits.  In
    dim 1 every scale is read off one prefix of the sorted atoms, sized for
    the largest half-width (_atom_prefix, _atom_window_max), and no grid is
    built; in dim 2 each scale fills one reused grid with ball_masses'
    passes.
    """
    scales = _check_scales(mu, scales)
    halfwidths = [int(np.floor(r * mu.N)) for r in scales]
    if mu.dim == 1:
        cells, _, prefix = _atom_prefix(mu, max(halfwidths))
        maxima = [_atom_window_max(mu, cells, prefix, h) for h in halfwidths]
    else:
        grid = np.empty((mu.N,) * mu.dim)
        maxima = [float(_ball_mass_grid(mu, h, grid).max()) for h in halfwidths]
    fit = loglog_fit(scales, maxima)
    return ScanReport(fit.slope, scales, maxima, fit, (min(scales), max(scales)))


def billingsley_gamma(mu: DiscreteMeasure, scales=None) -> ScanReport:
    """Local dimension at the most concentrated point.

    The center is the arg-max of ball mass at the finest scale, ties over
    its plateau broken toward the cell carrying the most atomic mass, so the
    center is a genuine support point; the exponent is fitted to the masses
    at that fixed center, read from the atoms, which seeds Knapp-type tests
    with a genuinely heavy point.  In dim 1 the center is read off the
    atoms (_atom_center); in dim 2 off the one ball-mass grid built here.
    """
    scales = _check_scales(mu, scales)
    if mu.dim == 1:
        center = _atom_center(mu, int(np.floor(scales[0] * mu.N)))
    else:
        finest_masses = ball_masses(mu, scales[0])
        # the plateau cells' masses are read off the sorted atoms (0 where
        # no atom sits), not off a second dense grid
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
    # the exact integer |k|^2, in the narrowest signed type that holds dim K^2
    k = np.arange(-K, K + 1, dtype=np.min_scalar_type(-dim * K * K))
    r2 = reduce(np.add.outer, [k * k] * dim)
    power = np.abs(coefficients)
    np.square(power, out=power)
    annuli, sups, avgs, mids = [], [], [], []
    lo = ANNULUS_K_MIN
    while lo * ANNULUS_BASE <= K + 0.5:
        hi = lo * ANNULUS_BASE
        mask = r2 >= lo * lo
        mask &= r2 < hi * hi
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
