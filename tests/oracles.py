"""Independent brute-force oracles used to pin expected values in the tests.

These deliberately avoid the code paths they check: pairwise loops instead
of FFTs, direct digit enumeration instead of self-similar recursions, dense
scans instead of prefix sums.
"""

import itertools
import math

import numpy as np

SPECTRUM_MASS_TOL = 1e-10


def pairwise_difference_counts(members, N):
    """O(m^2) count of ordered pairs (a, b) with a - b = t mod N, for all t."""
    counts = np.zeros(N, dtype=np.int64)
    members = list(members)
    for a in members:
        for b in members:
            counts[(a - b) % N] += 1
    return counts


def reflect(mu):
    """Atoms (indices, weights) of the pushforward under x -> -x on the torus: atom j maps to -j mod N."""
    return (-mu.indices) % mu.N, mu.weights


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
    """Brute-force mu(B(x, r)) for every grid center x, torus sup metric.

    indices has shape (m, dim); balls are intervals in dim 1, squares in dim 2.
    """
    indices = np.asarray(indices).reshape(len(weights), -1)
    dim = indices.shape[1]
    h = int(np.floor(radius * N))
    out = np.zeros((N,) * dim)
    for x in itertools.product(range(N), repeat=dim):
        total = 0.0
        for j, w in zip(indices, weights):
            d = max(min((a - b) % N, (b - a) % N) for a, b in zip(j, x))
            if d <= h:
                total += w
        out[x] = total
    return out


def concat_roll_windowed_sums(values, halfwidth, axis):
    """Circular window sums as the preallocated regularity._windowed_sums replaced them.

    Concatenates the first 2h entries onto a copy, prepends a zero column to
    a cumsum copy, and rolls the differences into place; the routine it
    checks must agree bit for bit.  A window of 2h + 1 >= n cells is the
    whole axis, whose total every entry gets.
    """
    v = np.moveaxis(values, axis, -1)
    n = v.shape[-1]
    h = halfwidth
    if 2 * h + 1 >= n:
        return np.broadcast_to(values.sum(axis=axis, keepdims=True), values.shape)
    ext = np.concatenate([v, v[..., : 2 * h]], axis=-1)
    cs = np.concatenate([np.zeros(v.shape[:-1] + (1,)), np.cumsum(ext, axis=-1)], axis=-1)
    sums = cs[..., 2 * h + 1:] - cs[..., :n]
    return np.moveaxis(np.roll(sums, h, axis=-1), -1, axis)


def lattice_phase_matrix(indices, N, X):
    """exp(2 pi i <x, j/N>) one entry at a time, rows x in [-X, X]^dim in row-major order."""
    indices = np.asarray(indices)
    rows = itertools.product(range(-X, X + 1), repeat=indices.shape[1])
    return np.array([[np.exp(2j * np.pi * sum(a * b for a, b in zip(x, j)) / N)
                      for j in indices] for x in rows])


def gram_by_padded_ffts(spectrum, f, X, dim):
    """T f for the rows of a (k, L) block f by FFTs that pad through np.fft's n= into fresh arrays.

    spectrum is ExtensionOperator._gram_kernel[0].  The same transforms, in
    the same order, as the workspace gram, which must match it bit for bit.
    """
    side, size = 2 * X + 1, spectrum.shape[0]
    z = f.reshape((len(f),) + (side,) * dim)
    for axis in range(1, dim + 1):
        z = np.fft.fft(z, n=size, axis=axis)
    z = z * spectrum
    window = slice(2 * X, 4 * X + 1)
    for axis in range(1, dim + 1):
        z = np.fft.ifft(z, axis=axis)[(slice(None),) * axis + (window,)]
    return z.reshape(len(f), -1)


def _phase_rows(z, a):
    """z / |z| entry by entry where a = |z| > 0, else 1."""
    return np.where(a > 0, z / np.where(a > 0, a, 1.0), 1.0)


def phase_power_extremal(pulled, p):
    """Unit-l^p rows maximizing Re <f, pulled>, as phase(pulled) (|pulled| / peak)^(p' - 1) / ||.||_p.

    The probe's l^p extremal vector for a float 1 < p < inf, written with a
    modulus, a phase divide and two powers per entry, row by row.
    """
    pprime = p / (p - 1.0)
    out = []
    for row in np.atleast_2d(pulled):
        a = np.abs(row)
        t = (a / a.max()) ** (pprime - 1.0)
        t = t / np.sum(t**p) ** (1.0 / p)
        out.append(_phase_rows(row, a) * t)
    return np.array(out)


def phase_power_measure(u, weights, q):
    """The L^q(mu) norms of the rows of u and their dual elements phase(u) (|u| / peak)^(q - 1).

    Row by row for a float 1 <= q < inf; a row that vanished has norm 0 and
    dual element 1.
    """
    norms, duals = [], []
    for row in np.atleast_2d(u):
        a = np.abs(row)
        peak = a.max()
        if peak == 0.0:
            norms.append(0.0)
            duals.append(np.ones_like(row))
            continue
        s = a / peak
        norms.append(peak * np.sum(weights * s**q) ** (1.0 / q))
        duals.append(_phase_rows(row, a) * s ** (q - 1.0))
    return np.array(norms), np.array(duals)


def dense_grid_billingsley_center(mu, finest_masses):
    """The argmax of a ball-mass grid, ties over its plateau broken by the most atomic mass on the dense weight grid."""
    flat_masses = finest_masses.ravel()
    plateau = np.flatnonzero(flat_masses >= flat_masses.max() * (1 - 1e-12))
    cell_mass = mu.dense_weights().ravel()[plateau]
    return tuple(int(c) for c in np.unravel_index(plateau[np.argmax(cell_mass)], finest_masses.shape))


def direct_fourier_1d(indices, weights, N, ks):
    """Exact trigonometric sums, one frequency at a time."""
    return np.array([
        sum(w * np.exp(-2j * np.pi * k * j / N) for j, w in zip(indices, weights))
        for k in ks
    ])


def validate_spectrum(coefficients):
    """Raise unless a centered (2K+1,)*dim array is the spectrum of a real probability measure.

    Checks the mass 1 at k = 0 and the conjugate symmetry mu_hat(-k) = conj(mu_hat(k)).
    """
    coefficients = np.asarray(coefficients)
    zero = tuple(n // 2 for n in coefficients.shape)
    if abs(coefficients[zero] - 1.0) > SPECTRUM_MASS_TOL:
        raise ValueError("coefficient at k=0 does not match total mass")
    flipped = np.flip(coefficients)
    if np.max(np.abs(np.conj(flipped) - coefficients)) > SPECTRUM_MASS_TOL:
        raise ValueError("conjugate symmetry violated for a real source")


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


def _scaled_lp(values, s, weights=None):
    """Peak-scaled L^s norm of |values|, one vector, sup over positive weights at s = inf."""
    a = np.abs(values)
    if s == math.inf:
        return float((a if weights is None else a[weights > 0]).max())
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    scaled = (a / peak) ** s
    total = np.sum(scaled) if weights is None else weights @ scaled
    return float(peak * total ** (1.0 / s))


def serial_restriction_norm(matrix, weights, p, q, starts, max_iters, tol):
    """Boyd's p -> q power method on one start after another, by matrix-vector products.

    The reference for the block engine: the starts (lattice vectors) run in
    order, each until max_iters or its own stopping test, and the running
    best, its start and the trace are kept as they arise.  p and q are
    floats (math.inf allowed).  Returns the witness re-evaluated norm with
    the per-start diagnostics; start_best is each start's largest value
    (-1 for a start skipped as zero).
    """
    pprime = math.inf if p == 1.0 else (1.0 if p == math.inf else p / (p - 1.0))

    def restrict(f):
        return np.conj(np.conj(f) @ matrix)

    best_val, best_f, best_start = -1.0, None, -1
    trace, iterations, converged, start_best = [], [], [], []
    for start, f in enumerate(starts):
        iterations.append(0)
        converged.append(False)
        start_best.append(-1.0)
        f = np.asarray(f, dtype=np.complex128)
        nf = _scaled_lp(f, p)
        if nf == 0.0:
            continue
        f = f / nf
        last = -1.0
        for _ in range(max_iters):
            u = restrict(f)
            iterations[-1] += 1
            val = _scaled_lp(u, q, weights)
            start_best[-1] = max(start_best[-1], val)
            if val > best_val:
                best_val, best_f, best_start = val, f.copy(), start
                trace.append(val)
            if last > 0.0 and val - last < tol * abs(last):
                converged[-1] = True
                break
            last = val
            # L^q(mu) dual element of u
            a = np.abs(u)
            if q == math.inf:
                g = np.zeros_like(u)
                j = int(np.argmax(np.where(weights > 0, a, -1.0)))
                g[j] = _phase_rows(u[j], a[j]) / weights[j]
            elif a.max() == 0.0:
                g = np.ones_like(u)
            else:
                g = _phase_rows(u, a) * (a / a.max()) ** (q - 1.0)
            # l^p extremal vector of the pulled-back functional
            c = np.conj(matrix @ (weights * g))
            a = np.abs(c)
            ph = np.conj(_phase_rows(c, a))
            if p == 1.0:
                f = np.zeros_like(c)
                j = int(np.argmax(a))
                f[j] = ph[j]
            elif p == math.inf:
                f = ph.astype(np.complex128)
            else:
                f = ph * (a / a.max()) ** (pprime - 1.0)
            f = f / _scaled_lp(f, p)
    norm = _scaled_lp(restrict(best_f), q, weights) / _scaled_lp(best_f, p)
    return {"norm": norm, "trace": trace, "iterations": iterations,
            "converged": converged, "best_start": best_start, "start_best": start_best}


def whole_table_fourier(indices, weights, N, K):
    """mu_hat on [-K, K]^dim by one einsum over whole (2K+1) x m phase tables, one per axis.

    The direct sum as it reads without chunking; its tables are the memory
    that spectral.fourier's chunked direct path avoids.
    """
    indices = np.asarray(indices).reshape(len(weights), -1)
    ks = np.arange(-K, K + 1)
    tables = [np.exp(-2j * np.pi * np.outer(ks, indices[:, a] / N)) for a in range(indices.shape[1])]
    axes = "klmn"[:len(tables)]
    return np.einsum(",".join(a + "j" for a in axes) + ",j->" + axes, *tables, weights)
