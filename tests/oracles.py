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


def digit_sum_weights(digits, n):
    """Law of d_1 + ... + d_n for independent uniform digits, as {sum: probability}, by enumeration."""
    law = {}
    for combo in itertools.product(digits, repeat=n):
        law[sum(combo)] = law.get(sum(combo), 0) + 1
    total = len(digits) ** n
    return {value: count / total for value, count in law.items()}


def self_similar_density_norm(base, digit_weights, stage, r):
    """Closed-form L^r norm of the grid density of a self-similar measure.

    Each of the stage base-b digits e of a point is drawn independently with
    weight w_e.  When the digit values are distinct mod b, every digit string
    lands on its own cell of the b^stage grid, so a cell has density
    prod (b w_e) and the norm is (b^{r-1} sum_e w_e^r)^{stage/r}, or
    (b max_e w_e)^stage at r = inf.
    """
    if r == math.inf:
        return (base * max(digit_weights)) ** stage
    r = float(r)
    return (base ** (r - 1) * math.fsum(w**r for w in digit_weights)) ** (stage / r)


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
    """The dense L x m operator exp(2 pi i <x, j/N>), rows x in [-X, X]^dim in row-major order.

    The integer phase <x, j> is reduced mod N before np.exp, so an entry's
    error does not grow with X.
    """
    indices = np.asarray(indices).reshape(len(indices), -1)
    dim = indices.shape[1]
    lattice = np.indices((2 * X + 1,) * dim).reshape(dim, -1).T - X
    return np.exp(2j * np.pi * ((lattice @ indices.T) % N) / N)


def gram_by_circulant_ffts(spectrum, corner, f, X, dim):
    """T f for the rows of a (k, L) block f as the circular convolution on Z_M^dim, in fresh arrays.

    spectrum and corner are ExtensionOperator._gram_kernel[0] and [3]: the
    kernel's DFT over M^dim, and K(-2X) - K(2X) when M = 4X (1-D), where
    the two differences share one slot, else None.  Each axis, first first,
    places the block at [0, 2X] in a new zero array of length M and
    transforms it; after the multiply each axis, last first, is inverted
    without its 1/M factor and read back at [0, 2X].  At M = 4X the term
    of x = X at x = -X is mended by corner f(X).  The same transforms, in
    the same order, as the workspace gram, which must match it bit for bit.
    """
    M, k, side = spectrum.shape[0], len(f), 2 * X + 1
    z = f.reshape((k,) + (side,) * dim)
    for axis in range(1, dim + 1):
        placed = np.zeros(z.shape[:axis] + (M,) + z.shape[axis + 1:], dtype=np.complex128)
        placed[(slice(None),) * axis + (slice(side),)] = z
        z = np.fft.fft(placed, axis=axis)
    z = z * spectrum
    for axis in range(dim, 0, -1):
        z = np.fft.ifft(z, axis=axis, norm="forward")[(slice(None),) * axis + (slice(side),)]
    z = z.reshape(k, -1).copy()
    if corner is not None:
        z[:, 0] += corner * f[:, -1]
    return z


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
    that spectral.fourier's chunked direct path avoids.  Each table is the
    conjugate of lattice_phase_matrix on one axis, taken at the exact
    integer phase.
    """
    indices = np.asarray(indices).reshape(len(weights), -1)
    tables = [np.conj(lattice_phase_matrix(indices[:, a], N, K)) for a in range(indices.shape[1])]
    axes = "klmn"[:len(tables)]
    return np.einsum(",".join(a + "j" for a in axes) + ",j->" + axes, *tables, weights)


def dense_half_spectrum_read(grid, K):
    """mu_hat on [-K, K]^dim read off np.fft.rfftn of the whole dense weight grid at k mod N.

    The grid read without folding into residue classes: spectral._grid_read
    must give these bits whenever every residue class holds an atom.  Off
    the half spectrum, last-axis frequencies past N/2 are read as the
    conjugate of their mirror.
    """
    N, dim = grid.shape[0], grid.ndim
    spec = np.fft.rfftn(grid)
    ks = np.arange(-K, K + 1) % N
    flip = (-ks) % N
    near = ks <= N // 2
    coeffs = np.empty((2 * K + 1,) * dim, dtype=np.complex128)
    coeffs[..., near] = spec[np.ix_(*[ks] * (dim - 1), ks[near])]
    coeffs[..., ~near] = np.conj(spec[np.ix_(*[flip] * (dim - 1), flip[~near])])
    return coeffs
