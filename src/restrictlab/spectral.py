"""Fourier data of grid measures: transforms, convolution powers, L^p norms.

The transform convention is mu_hat(k) = sum_j w_j exp(-2*pi*i <k, j/N>) on the
truncated dual lattice k in [-K, K]^dim.  Because atoms live on the grid, the
fast path reads coefficients off an FFT of the dense weight grid; a direct
trigonometric summation path is kept as an independent route for any K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, _finalize
from .rationals import Exponent, exp_float, is_inf, validate_exponent

SPECTRUM_MASS_TOL = 1e-10
CONV_CLIP_ERROR = 1e-8
CONV_DROP_REL = 1e-14


@dataclass(frozen=True)
class Spectrum:
    """Complex Fourier coefficients on the dual lattice [-K, K]^dim.

    coefficients[k + K] (dim 1) or coefficients[k1 + K, k2 + K] (dim 2) holds
    the value at frequency k.
    """

    dim: int
    K: int
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.shape != (2 * self.K + 1,) * self.dim:
            raise ValueError(f"coefficient shape {coeffs.shape} does not match K={self.K}")
        object.__setattr__(self, "coefficients", coeffs)

    def at(self, k) -> complex:
        if self.dim == 1:
            return complex(self.coefficients[int(k) + self.K])
        k1, k2 = k
        return complex(self.coefficients[int(k1) + self.K, int(k2) + self.K])

    def frequencies(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    def validate(self, mass: float = 1.0, real_source: bool = True) -> None:
        if abs(self.at(0 if self.dim == 1 else (0, 0)) - mass) > SPECTRUM_MASS_TOL:
            raise ValueError("coefficient at k=0 does not match total mass")
        if real_source:
            flipped = self.coefficients[::-1] if self.dim == 1 else self.coefficients[::-1, ::-1]
            if np.max(np.abs(np.conj(flipped) - self.coefficients)) > SPECTRUM_MASS_TOL:
                raise ValueError("conjugate symmetry violated for a real source")


def fourier(mu: DiscreteMeasure, K: int, method: str = "auto") -> Spectrum:
    """Fourier coefficients of a measure on [-K, K]^dim.

    method "fft" requires K <= N/2 and reads an FFT of the dense grid;
    "direct" performs the exact trigonometric sum over atoms and accepts any
    K; "auto" picks the FFT path when the truncation permits.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if method == "auto":
        method = "fft" if K <= mu.N // 2 else "direct"
    if method == "fft":
        if K > mu.N // 2:
            raise ValueError(f"FFT path requires K <= N/2 = {mu.N // 2}")
        full = np.fft.fftn(mu.dense_weights())
        ks = np.arange(-K, K + 1) % mu.N
        coeffs = full[ks] if mu.dim == 1 else full[np.ix_(ks, ks)]
    elif method == "direct":
        ks = np.arange(-K, K + 1)
        pos = mu.positions()
        if mu.dim == 1:
            phases = np.exp(-2j * np.pi * np.outer(ks, pos[:, 0]))
            coeffs = phases @ mu.weights
        else:
            ph1 = np.exp(-2j * np.pi * np.outer(ks, pos[:, 0]))
            ph2 = np.exp(-2j * np.pi * np.outer(ks, pos[:, 1]))
            coeffs = np.einsum("kj,lj,j->kl", ph1, ph2, mu.weights)
    else:
        raise ValueError(f"unknown method {method!r}")
    return Spectrum(mu.dim, K, coeffs)


def lp_norm(values: np.ndarray, s: Exponent, weights: np.ndarray | None = None,
            volume: float = 1.0) -> float:
    """L^s norm of |values| against atom weights (counting measure when None), over volume.

    Computed as peak * (sum_j w_j (|v_j|/peak)^s / volume)^(1/s), so large
    exponents neither overflow nor underflow.  With weights, the sup norm
    runs over positive-weight atoms only.
    """
    a = np.abs(values)
    if is_inf(s):
        return float((a if weights is None else a[weights > 0]).max())
    sf = exp_float(s)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    scaled = (a / peak) ** sf
    total = np.sum(scaled) if weights is None else weights.ravel() @ scaled.ravel()
    return float(peak * (total / volume) ** (1.0 / sf))


def _grid_measure(mu: DiscreteMeasure, spectral_map, constructor: dict) -> DiscreteMeasure:
    """Measure on mu's grid whose weights are the inverse FFT of spectral_map(mu_hat).

    Values below -CONV_CLIP_ERROR raise ArithmeticError; the rest of the
    round-off is clipped and dropped as convolve_power describes.
    """
    axes = tuple(range(mu.dim))
    spec = np.fft.rfftn(mu.dense_weights(), axes=axes)
    grid = np.fft.irfftn(spectral_map(spec), s=(mu.N,) * mu.dim, axes=axes)
    worst = float(grid.min())
    if worst < -CONV_CLIP_ERROR:
        raise ArithmeticError(
            f"{constructor['kind']} produced negative weight {worst}; "
            "resolution/precision failure")
    grid = np.maximum(grid, 0.0)
    grid[grid < CONV_DROP_REL * grid.max()] = 0.0
    sites = np.argwhere(grid)
    return _finalize(mu.dim, mu.N, sites, grid[tuple(sites.T)], constructor, seed=mu.seed)


def convolve_power(mu: DiscreteMeasure, n: int) -> DiscreteMeasure:
    """Circular n-fold self-convolution via FFT of the dense weight grid.

    Round-off is handled in two declared steps: values below -CONV_CLIP_ERROR
    (-1e-8) raise ArithmeticError, signalling a precision failure, and
    smaller negative values are clipped to zero; then atoms below
    CONV_DROP_REL relative to the peak are dropped before the final
    renormalization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return mu
    return _grid_measure(mu, lambda spec: spec**n,
                         {"kind": "convolve_power", "n": n, "of": mu.constructor})


def density_norm(mu: DiscreteMeasure, r: Exponent) -> float:
    """Finite-resolution L^r norm of the measure viewed as a grid density.

    Atom weight W occupies one cell of volume N^-dim, so its density is
    W * N^dim.  Boundedness claims are only meaningful across resolutions,
    never from a single N.
    """
    vol = float(mu.N) ** mu.dim
    return lp_norm(mu.weights * vol, validate_exponent(r, "r"), volume=vol)


def self_correlation(mu: DiscreteMeasure) -> DiscreteMeasure:
    """mu * reflect(mu): the autocorrelation measure, peaked at lag zero."""
    return _grid_measure(mu, lambda spec: np.abs(spec) ** 2,
                         {"kind": "self_correlation", "of": mu.constructor})


def flatness(mu: DiscreteMeasure) -> dict:
    """Statistics of mu * reflect(mu) off the zero lag.

    ratio is max/mean of the off-zero weights over all N^dim - 1 lags (0 when
    there is no off-zero mass), the diagnostic for bounded self-convolution.
    """
    corr = self_correlation(mu)
    grid = corr.dense_weights()
    if mu.dim == 1:
        off = np.delete(grid, 0)
    else:
        off = np.delete(grid.ravel(), 0)
    max_off = float(off.max()) if off.size else 0.0
    mean_off = float(off.mean()) if off.size else 0.0
    return {
        "max_offzero": max_off,
        "mean_offzero": mean_off,
        "ratio": (max_off / mean_off) if mean_off > 0 else 0.0,
    }
