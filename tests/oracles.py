"""Independent brute-force oracles used to pin expected values in the tests.

These deliberately avoid the code paths they check: pairwise loops instead
of FFTs, direct digit enumeration instead of self-similar recursions, dense
scans instead of prefix sums.
"""

import math

import numpy as np


def pairwise_difference_counts(members, N):
    """O(m^2) count of ordered pairs (a, b) with a - b = t mod N, for all t."""
    counts = np.zeros(N, dtype=np.int64)
    members = list(members)
    for a in members:
        for b in members:
            counts[(a - b) % N] += 1
    return counts


def pairwise_sum_weights(indices, weights, N):
    """O(m^2) weights of mu * mu at every site, by direct summation over pairs."""
    out = np.zeros(N)
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            out[(a + b) % N] += weights[i] * weights[j]
    return out


def digit_multiplicity_peak(stage):
    """Max number of digit-pair representations for the {0,3} base-4 measure.

    Per-digit sums 0, 3, 6 occur with multiplicities 1, 2, 1 and never
    collide mod 4^stage (their differences are multiples of 3, while 4^stage
    is not), so the peak representation count is 2^stage.
    """
    counts = {0: 1}
    for _ in range(stage):
        new = {}
        for value, mult in counts.items():
            for digit_sum, m in ((0, 1), (3, 2), (6, 1)):
                key = value * 4 + digit_sum
                new[key] = new.get(key, 0) + mult * m
        counts = new
    peak = max(counts.values())
    assert peak == 2**stage
    return peak


def dense_ball_masses(indices, weights, N, radius):
    """Brute-force mu(B(x, r)) on the torus for every grid center x, dim 1."""
    h = int(np.floor(radius * N))
    out = np.zeros(N)
    for x in range(N):
        total = 0.0
        for j, w in zip(indices, weights):
            d = abs((j - x) % N)
            d = min(d, N - d)
            if d <= h:
                total += w
        out[x] = total
    return out


def direct_fourier_1d(indices, weights, N, ks):
    """Exact trigonometric sums, one frequency at a time."""
    return np.array([
        sum(w * np.exp(-2j * np.pi * k * j / N) for j, w in zip(indices, weights))
        for k in ks
    ])


def cantor_product_spectrum(base, digits, stage, ks):
    """Self-similarity product: mu_hat(k) = prod_i mean_d e(-k d / base^i)."""
    ks = np.asarray(ks, dtype=float)
    out = np.ones(len(ks), dtype=complex)
    for i in range(1, stage + 1):
        out *= np.mean(
            [np.exp(-2j * np.pi * ks * d / base**i) for d in digits], axis=0)
    return out


def dirichlet_interval_spectrum_sq(N, k):
    """|mu_hat(k)|^2 for the uniform measure on the first half of the grid."""
    if k % N == 0:
        return 1.0
    num = np.sin(np.pi * k / 2.0) ** 2
    den = (N / 2.0) ** 2 * np.sin(np.pi * k / N) ** 2
    return float(num / den)


def weighted_lp_norm(values, s, weights=None, volume=1.0):
    """(sum_j w_j |v_j|^s / volume)^(1/s) term by term, no peak scaling.

    s = inf gives the max of |v_j| over atoms with w_j > 0.  Counting
    measure when weights is None.
    """
    mags = [abs(complex(v)) for v in np.ravel(values)]
    ws = [1.0] * len(mags) if weights is None else [float(w) for w in np.ravel(weights)]
    if s == float("inf"):
        return max(m for m, w in zip(mags, ws) if w > 0)
    s = float(s)
    return (math.fsum(w * m**s for m, w in zip(mags, ws)) / volume) ** (1.0 / s)
