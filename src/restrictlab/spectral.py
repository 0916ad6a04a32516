"""Fourier data of grid measures: transforms, convolution powers, L^p norms.

The transform convention is mu_hat(k) = sum_j w_j exp(-2*pi*i <k, j/N>) on the
truncated dual lattice k in [-K, K]^dim.  fourier is the one reader of these
coefficients: it takes whichever of two exact routes costs less, a real FFT
of the weights or the sum over atoms.  The FFT route splits the grid into
residue classes mod P, with P as coarse as [-K, K] allows, and transforms
only the classes that hold atoms; when those fill more than half the grid,
it transforms the dense grid.

Weights are real, so every full-grid transform here is a real one, which
keeps the half spectrum (last-axis frequencies 0..N/2, the rest follow from
mu_hat(-k) = conj(mu_hat(k))), and no complex copy of the grid is made.
fourier's grid route never holds the grid either: it builds the rows from
the atoms a block at a time and keeps only the half-spectrum columns it
reads.  The convolution powers and the self-correlation take a transform
only when their m^n atom products outnumber the N^dim grid points;
otherwise they add the products up over the atoms directly, in chunks,
with no transform and no round-off to clip.  Their grid route keeps one
spectrum alive and maps and inverts it in place.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np

from .measures import DiscreteMeasure, _finalize, _from_half_spectrum, _half_spectrum
from .rationals import Exponent, exp_float, is_inf, validate_exponent

CONV_CLIP_ERROR = 1e-8
CONV_DROP_REL = 1e-14
# an eighth of it (about 256 KiB of float64) sizes the chunks of fourier's
# direct sum (frequencies x atoms), of the atom sums of convolve_power and
# self_correlation (rows x atoms), of the grid read's row blocks and of the
# ball-mass scans; the probe's root tables split at its bit length
DIRECT_CHUNK_ENTRIES = 262_144


def fourier(mu: DiscreteMeasure, K: int) -> np.ndarray:
    """Fourier coefficients of a measure on [-K, K]^dim, shape (2K+1,)*dim.

    Entry [k + K], with k an integer vector of length dim, holds mu_hat(k).

    Atoms sit on the grid, so mu_hat is N-periodic and both routes are exact
    for every K: the grid route (_grid_read) when the N^dim grid is no
    larger than the (2K+1)^dim x num_atoms direct sum, and the sum over
    atoms otherwise, so a sparse measure on a fine grid never builds its
    grid.  The grid route holds the half spectra of the C occupied residue
    classes, Q^dim points each, on the min(K, Q/2) + 1 last-axis
    frequencies it reads (Q^dim = N^dim and C = 1 when the occupied classes
    fill more than half the grid), one block of rows of about
    DIRECT_CHUNK_ENTRIES / 8 entries and its rfft, and up to two coefficient
    arrays of the result's size.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if mu.N ** mu.dim > (2 * K + 1) ** mu.dim * mu.num_atoms:
        return _direct_sum(mu, K)
    return _grid_read(mu, K)


def check_truncations(N: int, K_list) -> None:
    """Raise ValueError unless every truncation K lies in [1, N/2].

    mu_hat is N-periodic, so frequencies past N/2 only repeat it.
    """
    if min(K_list) < 1 or max(K_list) > N // 2:
        raise ValueError("K values must lie in [1, N/2]")


def _residue_classes(mu: DiscreteMeasure, K: int) -> tuple[int, int, np.ndarray, np.ndarray | int]:
    """(P, Q, classes, slot): the residue classes mod P per axis that _grid_read transforms.

    Q is the least power of two >= 2K + 1, at most N, and P = N / Q.  classes
    holds the flat codes (base P) of the C occupied classes in increasing
    order, and slot[j] the position of atom j's class among them (0 for
    every atom when there is one class).  The read
    folds only when the classes' C Q^dim points are at most half the grid
    (2 C <= P^dim); otherwise P = 1, Q = N and the one class is the whole
    grid.  On fourier's grid route N^dim <= (2K + 1)^dim m, so the
    P^dim-entry table here is no longer than the atom list.
    """
    Q = min(mu.N, 1 << (2 * K).bit_length())
    P = mu.N // Q
    if P > 1:
        codes = reduce(lambda acc, r: acc * P + r, (mu.indices & (P - 1)).T)
        position = np.bincount(codes, minlength=P ** mu.dim)
        if 2 * np.count_nonzero(position) <= P ** mu.dim:
            classes = np.flatnonzero(position)
            position[classes] = np.arange(len(classes))
            return P, Q, classes, position[codes]
    return 1, mu.N, np.zeros(1, dtype=np.int64), 0


def _class_spectra(mu: DiscreteMeasure, P: int, Q: int, count: int, slot, columns: int) -> np.ndarray:
    """rfftn of the count stacked residue classes (C, Q, ...), last-axis frequencies 0..columns - 1 only.

    The stack's lines along the last axis are built from the atoms a block
    of about DIRECT_CHUNK_ENTRIES / 8 entries at a time, each block goes
    through one rfft, and only the columns the read uses are kept; in 2-D
    the fft along the class's first axis then runs in place.  That is
    rfftn's order, line by line, so the kept entries have rfftn's bits, and
    no stack or full half spectrum is held.  Each atom's flat position in
    the stack is one int64, built in place.
    """
    spec = np.empty((count,) + (Q,) * (mu.dim - 1) + (columns,), dtype=np.complex128)
    lines = spec.reshape(-1, columns)
    flat = np.zeros(mu.num_atoms, dtype=np.int64)
    flat += slot
    digit = np.empty_like(flat)
    for axis in range(mu.dim):
        flat *= Q
        flat += np.floor_divide(mu.indices[:, axis], P, out=digit)
    del digit
    step = max(1, DIRECT_CHUNK_ENTRIES // 8 // Q)
    block = np.empty((min(step, len(lines)), Q))
    half = np.empty((len(block), Q // 2 + 1), dtype=np.complex128)
    for lo in range(0, len(lines), step):
        n = min(step, len(lines) - lo)
        block[:n] = 0.0
        if n == len(lines):
            block.reshape(-1)[flat] = mu.weights
        else:
            inside = flat >= lo * Q
            inside &= flat < (lo + n) * Q
            block.reshape(-1)[flat[inside] - lo * Q] = mu.weights[inside]
        np.fft.rfft(block[:n], axis=-1, out=half[:n])
        lines[lo:lo + n] = half[:n, :columns]
    if mu.dim > 1:
        np.fft.fft(spec, axis=1, out=spec)
    return spec


def _runs(positions: np.ndarray, sources: np.ndarray, step: int) -> list[tuple[slice, slice]]:
    """(out, src) slice pairs for out[positions] = src[sources]: maximal runs where positions step by 1 and sources by step."""
    if not len(positions):
        return []
    breaks = np.flatnonzero((np.diff(positions) != 1) | (np.diff(sources) != step)) + 1
    pairs = []
    for a, b in zip([0, *breaks], [*breaks, len(positions)]):
        stop = int(sources[b - 1]) + step
        pairs.append((slice(int(positions[a]), int(positions[b - 1]) + 1),
                      slice(int(sources[a]), stop if stop >= 0 else None, step)))
    return pairs


def _grid_read(mu: DiscreteMeasure, K: int) -> np.ndarray:
    """mu_hat on [-K, K]^dim from real FFTs of the occupied residue classes mod P.

    An atom j = r + P s (_residue_classes) adds w_j e(-<k, r>/N) e(-<k, s>/Q),
    so mu_hat(k) is the sum over the classes r that hold atoms of
    e(-<k, r>/N) times the Q^dim-point DFT of the class's weights at k mod Q
    (decimation in time).  The C classes' half spectra come from
    _class_spectra, with rfftn's bits; at P = 1 the one class is the dense
    grid, and its read is the result.  A class is read off its half
    spectrum, last-axis frequencies 0..Q/2: a frequency whose last
    coordinate has k mod Q <= Q/2 directly, any other as
    conj(spec[(-k) mod Q]), since the weights are real; the frequencies
    whose indices run in steps of one are copied as slices, so no read
    makes a temporary.  Its twiddle is taken per axis from a table of roots
    at the exact integer phase -k r mod N, and the classes are added one at
    a time, so no (C, 2K + 1) table is built.
    """
    P, Q, classes, slot = _residue_classes(mu, K)
    spec = _class_spectra(mu, P, Q, len(classes), slot, min(K, Q // 2) + 1)
    ks = np.arange(-K, K + 1)
    at = ks % Q
    flip = (-ks) % Q
    near = at <= Q // 2
    everywhere = np.arange(len(ks))
    direct = list(itertools.product(*[_runs(everywhere, at, 1)] * (mu.dim - 1),
                                    _runs(everywhere[near], at[near], 1)))
    mirrored = list(itertools.product(*[_runs(everywhere, flip, -1)] * (mu.dim - 1),
                                      _runs(everywhere[~near], flip[~near], -1)))
    residues = list(zip(*np.unravel_index(classes, (P,) * mu.dim)))
    roots = unit_roots(mu.N, mu.N.bit_length() // 2) if P > 1 else None

    def read(c: int, out: np.ndarray) -> np.ndarray:
        for pieces in direct:
            out[tuple(o for o, _ in pieces)] = spec[c][tuple(i for _, i in pieces)]
        for pieces in mirrored:
            np.conjugate(spec[c][tuple(i for _, i in pieces)], out=out[tuple(o for o, _ in pieces)])
        for axis, r in enumerate(residues[c]):
            if r:
                out *= roots_at(roots, ks * -r, mu.N).reshape((-1,) + (1,) * (mu.dim - 1 - axis))
        return out

    coeffs = read(0, np.empty((2 * K + 1,) * mu.dim, dtype=np.complex128))
    if len(classes) > 1:
        part = np.empty_like(coeffs)
        for c in range(1, len(classes)):
            coeffs += read(c, part)
    return coeffs


def unit_roots(N: int, shift: int) -> tuple[np.ndarray, np.ndarray, int]:
    """exp(2 pi i k / N) for 0 <= k < N as high[k >> shift] * low[k & (2^shift - 1)], for roots_at."""
    low = np.exp(2j * np.pi * np.arange(1 << shift) / N)
    high = np.exp(2j * np.pi * np.arange(N >> shift) * (1 << shift) / N)
    return high, low, shift


def roots_at(roots: tuple[np.ndarray, np.ndarray, int], k: np.ndarray, N: int) -> np.ndarray:
    """exp(2 pi i k / N) for an integer array k, read from roots = unit_roots(N, .); k is overwritten.

    The phase k mod N is exact (N is a power of two), so an entry's error
    is that of the table and does not grow with k.
    """
    high, low, shift = roots
    k &= N - 1
    if not shift:
        return high[k]
    table = high[k >> shift]
    table *= low[np.bitwise_and(k, (1 << shift) - 1, out=k)]
    return table


def _direct_sum(mu: DiscreteMeasure, K: int) -> np.ndarray:
    """mu_hat on [-K, K]^dim as the sum over atoms, in chunks of frequencies.

    Each axis is cut into chunks of DIRECT_CHUNK_ENTRIES // 8 // m frequencies,
    and each chunk of the output is one einsum over per-axis (chunk, m)
    phase tables, so the peak memory is a small multiple of m times the
    chunk and never the (2K+1) x m table of the whole sum.  A phase is read
    at the exact integer phase -k j mod N from two tables of about sqrt(N)
    roots of unity each, so its error does not grow with K.
    """
    ks = np.arange(-K, K + 1)
    roots = unit_roots(mu.N, mu.N.bit_length() // 2)
    step = max(1, DIRECT_CHUNK_ENTRIES // 8 // mu.num_atoms)
    chunks = [slice(lo, lo + step) for lo in range(0, len(ks), step)]
    axes = "klmn"[:mu.dim]
    subscripts = ",".join(a + "j" for a in axes) + ",j->" + axes
    coeffs = np.empty((len(ks),) * mu.dim, dtype=np.complex128)
    tables: list[np.ndarray] = [np.empty(0)] * mu.dim
    for block in itertools.product(chunks, repeat=mu.dim):
        for a, c in enumerate(block):
            # product() runs the last axis fastest, so an axis moves to its
            # next chunk only when every later axis starts over
            if all(later.start == 0 for later in block[a + 1:]):
                tables[a] = roots_at(roots, np.multiply.outer(-ks[c], mu.indices[:, a]), mu.N)
        coeffs[block] = np.einsum(subscripts, *tables, mu.weights)
    return coeffs


def lp_norm(values: np.ndarray, s: Exponent, weights: np.ndarray | None = None,
            volume: float = 1.0, rows: bool = False) -> float | np.ndarray:
    """L^s norm of |values| against atom weights (counting measure when None), over volume.

    Computed as peak * (sum_j w_j (|v_j|/peak)^s / volume)^(1/s), so large
    exponents neither overflow nor underflow.  With weights, the sup norm
    runs over positive-weight atoms only.

    rows=True is the row-wise form for a (k, n) block, one vector per row
    and weights of shape (n,): it returns the k row norms as an array.  Each
    row is reduced by a contiguous sum of its own, never by a product with
    the weights, so a row's norm does not depend on the other rows.
    """
    a = np.abs(values, dtype=np.float64)  # a new float array, scaled in place below
    if is_inf(s):
        top = (a if weights is None else a[..., weights > 0]).max(axis=-1 if rows else None)
        return top if rows else float(top)
    sf = exp_float(s)
    if rows:
        peak = a.max(axis=-1, keepdims=True)
        scaled = np.power(a / np.where(peak > 0.0, peak, 1.0), sf, order="C")
        total = np.sum(scaled if weights is None else scaled * weights, axis=-1)
        return peak[:, 0] * (total / volume) ** (1.0 / sf)
    peak = float(a.max())
    if peak == 0.0:
        return 0.0
    a /= peak
    a **= sf
    total = np.sum(a) if weights is None else weights.ravel() @ a.ravel()
    return float(peak * (total / volume) ** (1.0 / sf))


def _grid_measure(mu: DiscreteMeasure, spectral_map, constructor: dict) -> DiscreteMeasure:
    """Measure on mu's grid whose weights are the inverse FFT of spectral_map(mu_hat).

    spectral_map rewrites the half spectrum of the real grid in place, and
    the inverse transform overwrites it, so one spectrum is alive at a time;
    it is dropped before the thresholding, which works in place on the real
    grid, and the grid is dropped before the atoms are sorted.  Values below
    -CONV_CLIP_ERROR raise ArithmeticError; the rest of the round-off is
    clipped and dropped as convolve_power describes.
    """
    spec = _half_spectrum(mu.dense_weights())
    spectral_map(spec)
    grid = _from_half_spectrum(spec, mu.N)
    del spec
    worst = float(grid.min())
    if worst < -CONV_CLIP_ERROR:
        raise ArithmeticError(
            f"{constructor['kind']} produced negative weight {worst}; "
            "resolution/precision failure")
    np.maximum(grid, 0.0, out=grid)
    grid[grid < CONV_DROP_REL * grid.max()] = 0.0
    sites = np.argwhere(grid)
    weights = grid[tuple(sites.T)]
    del grid
    return _finalize(mu.dim, mu.N, sites, weights, constructor, seed=mu.seed)


def _atom_sums(mu: DiscreteMeasure, n: int, sign: int, constructor: dict) -> DiscreteMeasure:
    """n-fold circular sum (sign 1) or difference (sign -1, n = 2) measure, summed over the atoms.

    Each of the n - 1 steps adds every product w_i w_j of a support cell i
    and an atom j of mu at the cell (i + sign j) mod N, by np.add.at into one
    N^dim accumulator, and takes the nonzero cells as the next support, kept
    as flat indices until the accumulator is dropped.  The rows of the
    support go in chunks of DIRECT_CHUNK_ENTRIES // 8 // m, so the cell,
    index and product arrays of a chunk hold at most DIRECT_CHUNK_ENTRIES / 8
    entries each, and the index arithmetic runs in place.  Nothing is
    clipped or dropped: a cell is kept when a product reached it.
    """
    shape = (mu.N,) * mu.dim
    atoms = tuple(sign * mu.indices.T)
    acc = np.zeros(mu.N ** mu.dim)
    support, row_weights = np.ravel_multi_index(tuple(mu.indices.T), shape), mu.weights
    step = max(1, DIRECT_CHUNK_ENTRIES // 8 // mu.num_atoms)
    for _ in range(n - 1):
        for lo in range(0, len(row_weights), step):
            chunk = slice(lo, lo + step)
            cells = np.zeros((len(row_weights[chunk]), mu.num_atoms), dtype=np.int64)
            part = np.empty_like(cells)
            for row, atom in zip(np.unravel_index(support[chunk], shape), atoms):
                cells *= mu.N
                np.add.outer(row, atom, out=part)
                part &= mu.N - 1
                cells += part
            products = np.multiply.outer(row_weights[chunk], mu.weights)
            # flat index arrays take np.add.at's fast path
            np.add.at(acc, cells.ravel(), products.ravel())
            del cells, part, products
        support = np.flatnonzero(acc)
        row_weights = acc[support]
        acc[support] = 0.0
    del acc
    return _finalize(mu.dim, mu.N, np.stack(np.unravel_index(support, shape), axis=1), row_weights,
                     constructor, seed=mu.seed)


def convolve_power(mu: DiscreteMeasure, n: int) -> DiscreteMeasure:
    """Circular n-fold self-convolution, summed over the atoms or via FFT of the dense grid.

    With m^n <= N^dim atom products the power is summed over the atoms
    (_atom_sums), which clips and drops nothing; otherwise it is the inverse
    real FFT of the n-th power of mu's half spectrum.  That grid route
    handles round-off in two declared steps: values below -CONV_CLIP_ERROR
    (-1e-8) raise ArithmeticError, signalling a precision failure, and
    smaller negative values are clipped to zero; then atoms below
    CONV_DROP_REL relative to the peak are dropped before the final
    renormalization.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return mu
    constructor = {"kind": "convolve_power", "n": n, "of": mu.constructor}
    if mu.num_atoms ** n <= mu.N ** mu.dim:
        return _atom_sums(mu, n, 1, constructor)

    def power(spec):
        spec **= n

    return _grid_measure(mu, power, constructor)


def density_norm(mu: DiscreteMeasure, r: Exponent) -> float:
    """Finite-resolution L^r norm of the measure viewed as a grid density.

    Atom weight W occupies one cell of volume N^-dim, so its density is
    W * N^dim.  Boundedness claims are only meaningful across resolutions,
    never from a single N.
    """
    vol = float(mu.N) ** mu.dim
    return lp_norm(mu.weights * vol, validate_exponent(r, "r"), volume=vol)


def self_correlation(mu: DiscreteMeasure) -> DiscreteMeasure:
    """mu convolved with its image under x -> -x: the autocorrelation measure, peaked at lag zero.

    Routed as convolve_power at n = 2: summed over the atoms when m^2 <=
    N^dim, with nothing clipped or dropped, and otherwise the inverse real
    FFT of |mu_hat|^2, whose round-off is clipped and dropped as there.
    """
    constructor = {"kind": "self_correlation", "of": mu.constructor}
    if mu.num_atoms ** 2 <= mu.N ** mu.dim:
        return _atom_sums(mu, 2, -1, constructor)

    def squared_modulus(spec):
        np.abs(spec, out=spec.real)
        np.square(spec.real, out=spec.real)
        spec.imag = 0.0

    return _grid_measure(mu, squared_modulus, constructor)

