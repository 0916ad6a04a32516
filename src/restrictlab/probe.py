"""Discrete restriction/extension operators and empirical norm estimation.

Functions f live on the truncated dual lattice [-X, X]^dim with counting
measure; their transform f_hat(xi) = sum_x f(x) exp(-2*pi*i <x, xi>) is
evaluated at the atoms of a measure.  The restriction norm

    sup { ||f_hat||_{L^q(mu)} : ||f||_{l^p} = 1 }

is estimated from below by alternating Holder-extremal alignment (Boyd's
power method for p -> q norms): push a witness forward, take the L^q(mu)
dual element of its image, pull that back through the adjoint, and replace
the witness by the l^p extremal vector of the pulled-back functional.  For
p = q = 2 the loop is exactly power iteration and converges to the top
singular value; elsewhere the problem is nonconvex and the result is a
certified lower bound with a stored witness.

All starts of one estimate run together as one block, one start per
column, so each operator application is one matrix-matrix product.  At one
BLAS thread a start's iterates do not depend on which starts share its
block.

The row-wise steps of an iteration take no modulus and no phase divide.
With s2 = |z|^2 over its row's largest entry, the l^p extremal vector of a
pulled-back row z is z s2^((p'-2)/2) times one scale per row, and the
L^q(mu) dual element of u = restrict(f) is u s2^((q-2)/2), whose powers
also make the norm's sum: one general power per entry for each.  Every
row is reduced on its own, by einsum, which takes no BLAS call.  Iterates
are new arrays that are never written, so each start's best iterate is
kept as a row of its block, and copied only when the loop moves past that
block without the start improving.

Atoms sit on the grid j/N and the lattice is integral, so restrict and
extend are exact DFTs on Z_N^dim.  A large operator (chosen from its shape
alone, see ExtensionOperator.grid_fft) applies them by FFTs of the N^dim
grid instead of the L x m matrix; FFTs transform each line on its own and
take no BLAS call.  The dense matrix is built only for the first dense
restrict or extend, that is for q != 2 on an operator off the FFT grid.
Its entries, and those of the witness re-evaluation, are read from a table
of the N-th roots of unity at the exact integer phase <x, j> mod N.  The
witness re-evaluation sums over the lattice one chunk of atoms at a time,
never reads the matrix and takes no BLAS call: a route independent of the
loop, whichever backend the loop used.

At q = 2 the square of the value is the quadratic form <T f, f> of the
Gram matrix T[x, y] = conj(mu_hat(x - y)) (the T T* identity behind the
Stein-Tomas argument), and the pulled-back functional is T f up to a
positive factor.  T is Toeplitz on [-X, X]^dim, so the q = 2 loop makes one
FFT convolution per iteration instead of the two L x m products; FFTs take
no BLAS call, so those iterates do not depend on the BLAS thread count.
Each probe makes one pair of FFT buffers for its starting block and every
convolution writes into them, so the loop allocates no transform arrays;
the buffers belong to the call, never to the operator, which sweep's
threads share.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .fitting import FitResult, loglog_fit
from .measures import DiscreteMeasure
from .rationals import INF, Exponent, conjugate, exp_float, exp_str, is_inf, validate_exponent
from .regularity import billingsley_gamma, theorem_range
from .spectral import DIRECT_CHUNK_ENTRIES, fourier, lp_norm

MAX_MATRIX_ENTRIES = 8_388_608
# restrict/extend run on the FFT grid when L * m exceeds this multiple of
# N^dim log2 N^dim (and 2X + 1 <= N), from the crossover table in CHANGES.md
GRID_FFT_CROSSOVER = 2.5
WITNESS_EVAL_TOL = 1e-10
SLOPE_BOUNDED_MAX = 0.05
SLOPE_GROWING_MIN = 0.10


@dataclass(frozen=True)
class ProbeOptions:
    restarts: int = 8
    max_iters: int = 500
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")


@dataclass(frozen=True)
class ExtensionOperator:
    """Pairing between dual-lattice points and measure atoms, built lazily.

    The dense matrix[x, j] = exp(2*pi*i <x, xi_j>) has unit modulus;
    restriction is its conjugate transpose applied to a lattice vector.  It
    is built on first use, and only a dense restrict or extend uses it: on a
    large operator (grid_fft) restrict and extend compute the same products
    by FFTs of the N^dim grid, gram applies extend(restrict(.)) from the
    Fourier data of mu, and _direct_restrict sums over the lattice in chunks
    of atoms.
    """

    mu: DiscreteMeasure
    X: int

    @property
    def dim(self) -> int:
        return self.mu.dim

    @property
    def weights(self) -> np.ndarray:
        return self.mu.weights

    @property
    def lattice_size(self) -> int:
        return (2 * self.X + 1) ** self.dim

    @property
    def num_atoms(self) -> int:
        return self.mu.num_atoms

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (L, m) dense operator, built on first use within MAX_MATRIX_ENTRIES and kept."""
        entries = self.lattice_size * self.num_atoms
        if entries > MAX_MATRIX_ENTRIES:
            raise MemoryError(
                f"operator would need {entries} entries > MAX_MATRIX_ENTRIES budget {MAX_MATRIX_ENTRIES}")
        # the exact phases <x, j> mod N of every lattice point and atom, then one gather
        axis = np.arange(-self.X, self.X + 1)
        k = np.multiply.outer(axis, self.mu.indices[:, 0])
        if self.dim == 2:
            k = k[:, None, :] + np.multiply.outer(axis, self.mu.indices[:, 1])
        return self._roots_at(k).reshape(-1, self.num_atoms)

    @cached_property
    def _roots(self) -> tuple[np.ndarray, np.ndarray, int]:
        """exp(2 pi i k / N) for 0 <= k < N as high[k >> shift] * low[k & (2^shift - 1)].

        Built once per operator.  high holds at most DIRECT_CHUNK_ENTRIES
        entries, as one of fourier's direct-sum chunks does, so a sparse
        measure on a fine grid never pays O(N) memory; up to that size shift
        is 0 and high is the whole table.
        """
        N = self.mu.N
        shift = max(0, N.bit_length() - DIRECT_CHUNK_ENTRIES.bit_length())
        low = np.exp(2j * np.pi * np.arange(1 << shift) / N)
        high = np.exp(2j * np.pi * np.arange(N >> shift) * (1 << shift) / N)
        return high, low, shift

    def _roots_at(self, k: np.ndarray) -> np.ndarray:
        """exp(2 pi i k / N) for an integer array k, read from the roots table; k is overwritten.

        The phase k mod N is exact (N is a power of two), so an entry's
        error is that of the table and does not grow with X.
        """
        high, low, shift = self._roots
        k &= self.mu.N - 1
        if not shift:
            return high[k]
        table = high[k >> shift]
        table *= low[np.bitwise_and(k, (1 << shift) - 1, out=k)]
        return table

    def _direct_restrict(self, f: np.ndarray) -> np.ndarray:
        """restrict of one vector f (L,) as the sum over the lattice, one chunk of atoms at a time.

        The lattice is summed as a 2-D array with a phase table per side,
        one einsum per chunk: in 2-D its two axes; in 1-D x = -X + a + S b
        with S = ceil(sqrt(2X + 1)), zero-padded to a (T, S) array, so each
        table holds about sqrt(L) entries per atom.  Chunks keep each table
        within DIRECT_CHUNK_ENTRIES.  Reads no matrix and takes no BLAS call.
        """
        side, X, idx = 2 * self.X + 1, self.X, self.mu.indices
        if self.dim == 2:
            lattice = np.conj(f).reshape(side, side)
            axis = np.arange(-X, X + 1)
            sides = ((axis, idx[:, 0]), (axis, idx[:, 1]))
        else:
            S = math.isqrt(side - 1) + 1
            T = -(-side // S)
            lattice = np.zeros(T * S, dtype=np.complex128)
            lattice[:side] = np.conj(f)
            lattice = lattice.reshape(T, S)
            sides = ((S * np.arange(T), idx[:, 0]), (np.arange(S) - X, idx[:, 0]))
        step = max(1, DIRECT_CHUNK_ENTRIES // max(lattice.shape))
        out = np.empty(self.num_atoms, dtype=np.complex128)
        for lo in range(0, self.num_atoms, step):
            atoms = slice(lo, lo + step)
            out[atoms] = np.einsum("kl,kj,lj->j", lattice, *(
                self._roots_at(np.multiply.outer(x, j[atoms])) for x, j in sides))
        return np.conj(out, out=out)

    @cached_property
    def grid_fft(self) -> bool:
        """Whether restrict and extend run on the FFT grid instead of the matrix.

        Chosen from (L, m, N, dim) alone, never from a block's width or the
        caller, so a row's bits do not depend on which rows share its block:
        the FFTs need the lattice window to fit the grid once, 2X + 1 <= N,
        and pay off when L * m exceeds GRID_FFT_CROSSOVER N^dim log2 N^dim.
        """
        grid = self.mu.N ** self.dim
        return (2 * self.X + 1 <= self.mu.N
                and self.lattice_size * self.num_atoms > GRID_FFT_CROSSOVER * grid * math.log2(grid))

    @cached_property
    def _grid_lines(self) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
        """Per axis, the distinct atom coordinates (the lines of the FFT grid
        that are read or hold input) and each atom's place among them."""
        lines = [np.unique(c, return_inverse=True) for c in self.mu.indices.T]
        return [u for u, _ in lines], tuple(inv for _, inv in lines)

    def _grid_restrict(self, rows: np.ndarray) -> np.ndarray:
        """restrict for a (k, L) block of rows by FFTs, as (k, m).

        f_hat(n/N) = sum_x f(x) exp(-2 pi i <x, n>/N) is the DFT of f placed
        at x mod N.  Each axis, last first, is placed, transformed and cut
        to the lines through atoms; the last step gathers at the atoms.
        """
        coords, atoms = self._grid_lines
        N, X = self.mu.N, self.X
        z = rows.reshape((len(rows),) + (2 * X + 1,) * self.dim)
        for axis in range(self.dim, 0, -1):
            at = (slice(None),) * axis
            grid = np.zeros(z.shape[:axis] + (N,) + z.shape[axis + 1:], dtype=np.complex128)
            grid[at + (slice(X + 1),)] = z[at + (slice(X, None),)]
            grid[at + (slice(N - X, None),)] = z[at + (slice(X),)]
            z = np.fft.fft(grid, axis=axis)[at + (coords[axis - 1],)]
        return z[(slice(None),) + atoms]

    def _grid_extend(self, rows: np.ndarray) -> np.ndarray:
        """extend for a (k, m) block of weighted rows by FFTs, as (k, L).

        The adjoint of _grid_restrict: scatter at the atoms, then per axis,
        first first, place the lines at their coordinates, run the inverse
        FFT without its 1/N factor and read the lattice window at x mod N.
        """
        coords, atoms = self._grid_lines
        N, X = self.mu.N, self.X
        z = np.zeros((len(rows),) + tuple(len(c) for c in coords), dtype=np.complex128)
        z[(slice(None),) + atoms] = rows
        for axis in range(1, self.dim + 1):
            at = (slice(None),) * axis
            grid = np.zeros(z.shape[:axis] + (N,) + z.shape[axis + 1:], dtype=np.complex128)
            grid[at + (coords[axis - 1],)] = z
            grid = np.fft.ifft(grid, axis=axis, norm="forward")
            z = np.concatenate((grid[at + (slice(N - X, None),)], grid[at + (slice(X + 1),)]), axis=axis)
        return z.reshape(len(rows), -1)

    def restrict(self, f: np.ndarray) -> np.ndarray:
        """f on the lattice -> f_hat at the atoms; f is one vector (L,) or a block (L, k).

        The adjoint product conj(matrix).T @ f, taken as conj(conj(f) @ matrix)
        so that no conjugated L x m copy of the operator is made.  A block is
        multiplied by rows, (k, L) @ (L, m), and comes back as (m, k).  With
        grid_fft the rows are transformed instead; a vector is taken as one row.
        """
        block = np.atleast_2d(f.T)
        if self.grid_fft:
            out = self._grid_restrict(block)
        else:
            rows = _gemm_rows(block)
            out = np.conj(rows, out=rows) @ self.matrix
            out = np.conj(out, out=out)[:len(block)]
        return out[0] if f.ndim == 1 else out.T

    def extend(self, g: np.ndarray) -> np.ndarray:
        """g at the atoms -> weighted exponential sums on the lattice; g is (m,) or (m, k).

        Multiplied by rows, (k, m) @ (m, L), or transformed by rows with
        grid_fft; a vector is taken as one row.
        """
        block = np.atleast_2d(g.T)
        if self.grid_fft:
            out = self._grid_extend(block * self.weights)
        else:
            rows = _gemm_rows(block)
            rows *= self.weights
            out = (rows @ self.matrix.T)[:len(block)]
        return out[0] if g.ndim == 1 else out.T

    @cached_property
    def _gram_kernel(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The Gram kernel conj(mu_hat) on [-2X, 2X]^dim, built on first use and kept.

        Returns its FFT, zero-padded to a fast size of at least 4X + 1 per
        axis; its [-X, X]^dim part, which is extend(1); and the round-off
        bound of Re <T f, f> / ||f||_2^2 by that FFT, eps log2(size) max|FFT|.

        The coefficients come from spectral.fourier, whose route rule sums
        over the atoms when the N^dim grid is larger than that sum, so a
        sparse measure on a fine grid costs a constant times the operator, as
        on the dense path.
        """
        X = self.X
        kernel = fourier(self.mu, 2 * X)
        np.conjugate(kernel, out=kernel)
        size = (_fast_fft_size(4 * X + 1),) * self.dim
        spectrum = np.fft.fftn(kernel, s=size, axes=tuple(range(self.dim)))
        noise = np.finfo(float).eps * math.log2(spectrum.size) * float(np.abs(spectrum).max())
        return spectrum, kernel[(slice(X, 3 * X + 1),) * self.dim].ravel(), noise

    def _gram_workspace(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Two flat complex buffers that hold gram's transforms of up to k rows.

        Made by the caller once per probe and never kept on the operator,
        which sweep's threads share.
        """
        entries = k * self._gram_kernel[0].shape[0] ** self.dim
        return np.empty(entries, dtype=np.complex128), np.empty(entries, dtype=np.complex128)

    def gram(self, f: np.ndarray, *, work: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """extend(restrict(f)) for the rows of a (k, L) block f, as (k, L).

        T[x, y] = conj(mu_hat(x - y)) depends on x - y alone, so T f is the
        linear convolution of f with the kernel on [-2X, 2X]^dim, read at
        offset 2X.  Each axis is transformed as its own 1-D lines, and only
        the lines that hold input or are read are transformed.  A row's
        result does not depend on the other rows of the block.

        Every transform writes into the two buffers of work, from
        _gram_workspace for at least k rows, by turns; the result is a view
        into one of them, so it lasts until the next call with the same work.
        Each forward transform reads its lines zero-padded to the FFT size in
        the workspace rather than through np.fft's n=, because numpy
        transforms several unpadded lines at a time and padded ones one by
        one; the bits are the same.
        """
        spectrum = self._gram_kernel[0]
        k, side, size, dim = len(f), 2 * self.X + 1, spectrum.shape[0], self.dim

        def into(turn: int, shape: tuple[int, ...]) -> np.ndarray:
            return work[turn % 2][:k * math.prod(shape)].reshape((k,) + shape)

        def padded(turn: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
            """A block of full size on axes 1..axis, zero past side on axis, and its part below side."""
            z = into(turn, (size,) * axis + (side,) * (dim - axis))
            at = (slice(None),) * axis
            z[at + (slice(side, None),)] = 0
            return z, z[at + (slice(side),)]

        z, head = padded(0, 1)
        np.copyto(head, f.reshape(head.shape))
        for axis in range(1, dim + 1):
            if axis < dim:  # the output lands zero-padded for the next axis
                nxt, out = padded(axis, axis + 1)
            else:
                nxt = out = into(axis, (size,) * dim)
            np.fft.fft(z, axis=axis, out=out)
            z = nxt
        z *= spectrum
        window = slice(2 * self.X, 4 * self.X + 1)
        for turn, axis in enumerate(range(1, dim + 1), start=dim + 1):
            z = np.fft.ifft(z, axis=axis, out=into(turn, z.shape[1:]))[(slice(None),) * axis + (window,)]
        out = into(2 * dim + 1, (side**dim,))
        np.copyto(out.reshape(z.shape), z)
        return out


def _fast_fft_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    fives = 1
    while fives < best:
        odd = fives
        while odd < best:  # odd runs over 3^b 5^c
            size = odd
            while size < n:
                size *= 2
            best = min(best, size)
            odd *= 3
        fives *= 5
    return best


def _gemm_rows(block: np.ndarray) -> np.ndarray:
    """C-ordered complex copy of a (k, n) block, padded with a zero row when k = 1.

    numpy hands a one-row product to GEMV, whose last bits differ from a GEMM
    row.  The padding keeps every row on the GEMM arithmetic, which at one
    BLAS thread gives each row the same result in any block.
    """
    rows = np.zeros((max(len(block), 2), block.shape[1]), dtype=np.complex128)
    rows[:len(block)] = block
    return rows


def assemble(mu: DiscreteMeasure, X: int) -> ExtensionOperator:
    """The operator on [-X, X]^dim; nothing is built until a product needs it."""
    if X < 1:
        raise ValueError("X must be >= 1")
    return ExtensionOperator(mu, X)


# ---------------------------------------------------------------------------
# Norm machinery
# ---------------------------------------------------------------------------

def _phase(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """z / |z| where a = |z| > 0, else 1."""
    return np.divide(z, a, out=np.ones_like(z), where=a > 0)


def _scaled_squares(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s2 = |z|^2 row by row over its row's largest entry, and those peaks, shape (k, 1).

    The peak is its entry's own square, so max s2 = 1 to round-off; a row
    that vanished keeps s2 = 0 and peak 0.  The rows are scaled by one
    reciprocal each, not a divide per entry.
    """
    s2 = np.square(z.real)
    s2 += np.square(z.imag)
    peak = s2.max(axis=1, keepdims=True)
    s2 *= 1.0 / np.where(peak > 0.0, peak, 1.0)
    return s2, peak


def _row_power(s2: np.ndarray, e: float) -> np.ndarray:
    """s2 ** e entry by entry, with 0 at an exact zero of s2 when e < 0.

    Every caller multiplies each entry of the result by its s2 or by an
    entry of modulus sqrt(s2), so the value at a zero is never seen; the
    guard only keeps 0 ** e finite.
    """
    if e < 0.0 and not s2.all():
        return np.power(s2, e, out=np.zeros_like(s2), where=s2 > 0.0)
    return s2 ** e


def _measure_step(u: np.ndarray, weights: np.ndarray, qf: float) -> tuple[np.ndarray, np.ndarray]:
    """The L^q(mu) norms of the rows of u, and their Holder-extremal elements (scale-free).

    For finite q, with s2 = |u|^2 / peak per row (_scaled_squares), the norm
    is sqrt(peak) (sum_j w_j s2_j^((q-2)/2) s2_j)^(1/q) and the dual element
    is u s2^((q-2)/2), written over u: one general power per entry, shared
    by both.  A row that vanished has norm 0 and dual element 1.  qf = float(q).
    """
    if qf == INF:
        a = np.abs(u)
        g = np.zeros_like(u)
        rows = np.arange(len(u))
        j = np.argmax(np.where(weights > 0, a, -1.0), axis=1)
        g[rows, j] = _phase(u[rows, j], a[rows, j]) / weights[j]
        return lp_norm(a, qf, weights, rows=True), g
    s2, peak = _scaled_squares(u)
    power = _row_power(s2, 0.5 * (qf - 2.0))
    val = np.sqrt(peak[:, 0]) * np.einsum("ij,ij,j->i", power, s2, weights) ** (1.0 / qf)
    u *= power
    if not peak.all():
        u[peak[:, 0] == 0.0] = 1.0
    return val, u


def _lattice_extremal(pulled: np.ndarray, pf: float, pprimef: float) -> np.ndarray:
    """Unit-l^p rows f maximizing Re sum_x f[r, x] conj(pulled[r, x]), one per row of pulled.

    pulled holds the pulled-back functionals; pf, pprimef = float(p), float(p').
    For 1 < p < inf, f = pulled |pulled|^(p'-2) / || |pulled|^(p'-1) ||_p,
    taken with s2 = |pulled|^2 / peak per row (_scaled_squares) as
    pulled s2^((p'-2)/2) / (sqrt(peak) (sum_x s2^((p'-2)/2) s2)^(1/p)):
    one general power per entry and no modulus or phase.  The result is a
    new array.
    """
    if pf == 1.0 or pf == INF:
        a = np.abs(pulled)
        if pf == 1.0:
            t = np.zeros_like(a)
            t[np.arange(len(a)), np.argmax(a, axis=1)] = 1.0
        else:
            t = np.ones_like(a)
        f = _phase(pulled, a)
        f *= t
        return f
    s2, peak = _scaled_squares(pulled)
    if not peak.all():
        raise ArithmeticError("pulled-back functional vanished")
    t = _row_power(s2, 0.5 * (pprimef - 2.0))
    t *= (1.0 / (np.sqrt(peak[:, 0]) * np.einsum("ij,ij->i", t, s2) ** (1.0 / pf)))[:, None]
    return pulled * t


def _gram_step(op: ExtensionOperator, f: np.ndarray,
               work: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """At q = 2: the values ||restrict(f)||_{L^2(mu)} of the rows of f, and their pulled-back functionals.

    A value's square is Re <T f, f>, one row-wise dot of the float64 views
    of f and T f.  The L^2(mu) dual element u / max|u| of u = restrict(f)
    pulls back to T f / max|u|, and the extremal vector is scale-free, so
    T f stands for it; it is a view into work.  A row whose square is within
    the FFT round-off of zero is taken as u = 0, as the dense path sees it:
    value 0, and the dual element 1, which pulls back to extend(1).
    """
    _, extend_one, noise = op._gram_kernel
    h = op.gram(f, work=work)
    fv = f.view(np.float64)
    square = np.einsum("ij,ij->i", fv, h.view(np.float64))
    nonzero = square > noise * np.einsum("ij,ij->i", fv, fv)
    h[~nonzero] = extend_one
    return np.sqrt(np.where(nonzero, square, 0.0)), h


@dataclass(frozen=True)
class ProbeResult:
    p: Exponent
    q: Exponent
    X: int
    norm_lower_bound: float
    witness: np.ndarray
    trace: list[float] = field(default_factory=list)
    # per start, random starts first and warm starts after them;
    # final_change is (v_last - v_prev) / |v_prev| of its last two values,
    # None when it ran fewer than 2 iterations or v_prev is 0; final_value
    # is its last value, None when it never ran
    iterations: list[int] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)
    final_change: list[float | None] = field(default_factory=list)
    final_value: list[float | None] = field(default_factory=list)
    best_start: int = -1

    @property
    def restarts_used(self) -> int:
        return len(self.iterations)

    def as_dict(self) -> dict:
        return {
            "p": exp_str(self.p),
            "q": exp_str(self.q),
            "X": self.X,
            "norm_lower_bound": self.norm_lower_bound,
            "restarts_used": self.restarts_used,
            "iterations": list(self.iterations),
            "converged": list(self.converged),
            "final_change": list(self.final_change),
            "final_value": list(self.final_value),
            "best_start": self.best_start,
            "trace": list(self.trace),
            "witness": [[float(z.real), float(z.imag)] for z in self.witness],
        }


def _rayleigh(op: ExtensionOperator, f: np.ndarray, p: Exponent, q: Exponent) -> float:
    """||restrict(f)||_{L^q(mu)} / ||f||_{l^p} by op._direct_restrict, a route independent of the loop.

    The sum reads neither the matrix, the FFT grid nor the Gram kernel, so a
    fault in the loop's products cannot certify itself, and its bits do not
    depend on the BLAS thread count.
    """
    nf = lp_norm(f, p)
    if nf == 0.0:
        return 0.0
    return lp_norm(op._direct_restrict(f), q, op.weights) / nf


def _embed_witness(w: np.ndarray, dim: int, target_size: int) -> np.ndarray:
    """Zero-pad a witness from a smaller centered lattice cube into a larger one."""
    if len(w) > target_size:
        raise ValueError("warm start longer than lattice")
    side_from = round(len(w) ** (1 / dim))
    side_to = round(target_size ** (1 / dim))
    if side_from**dim != len(w) or side_to**dim != target_size:
        raise ValueError("witness is not a flattened cube lattice")
    block = np.zeros((side_to,) * dim, dtype=np.complex128)
    off = (side_to - side_from) // 2
    block[(slice(off, off + side_from),) * dim] = w.reshape((side_from,) * dim)
    return block.ravel()


def probe_seed(seed: int, p: Exponent, q: Exponent, X: int, restart: int) -> np.random.Generator:
    """Deterministic per-cell generator, independent of scheduling order."""
    def enc(x: Exponent) -> tuple[int, int]:
        if is_inf(x):
            return (0, 0)
        fr = Fraction(x)
        return (fr.numerator, fr.denominator)

    entropy = [int(seed), *enc(p), *enc(q), int(X), int(restart)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def restriction_norm(op: ExtensionOperator, p: Exponent, q: Exponent,
                     options: ProbeOptions = ProbeOptions(),
                     warm_starts: list[np.ndarray] | None = None) -> ProbeResult:
    """Certified lower bound on the l^p -> L^q(mu) restriction norm.

    Every reported value is re-evaluated from the stored witness; nothing is
    trusted from the iteration itself.  Random restarts use complex Gaussian
    starts with seeds derived from (options.seed, p, q, X, restart); callers
    may add warm starts, e.g. zero-padded witnesses from a smaller lattice.

    All starts run as one (L, k) block, one start per column, and a start
    leaves the block when its own stopping test fires.  The trace is the
    running best in start order, as if the starts had run one after another.
    """
    p = validate_exponent(p, "p")
    q = validate_exponent(q, "q")
    # floats only inside the iteration; p and q stay exact everywhere else
    pf, qf, pprimef = exp_float(p), exp_float(q), exp_float(conjugate(p))
    L = op.lattice_size
    starts: list[np.ndarray] = []
    for i in range(options.restarts):
        rng = probe_seed(options.seed, p, q, op.X, i)
        starts.append(rng.standard_normal(L) + 1j * rng.standard_normal(L))
    for w in warm_starts or []:
        starts.append(_embed_witness(np.asarray(w, dtype=np.complex128), op.dim, L))
    f = np.array(starts, dtype=np.complex128)

    n = len(starts)
    history: list[list[float]] = [[] for _ in range(n)]  # each start's values
    converged = [False] * n
    best_val = [-1.0] * n
    # each start's best iterate, kept by reference: every iterate is a new
    # array that is never written, so a row of its block stands for it
    best: list[np.ndarray | None] = [None] * n
    in_block: set[int] = set()  # the starts whose best is a row of the current f
    nf = lp_norm(f, pf, rows=True)
    live = np.flatnonzero(nf > 0.0)  # a start that normalizes to zero is skipped
    if not len(live):
        raise ArithmeticError("all starts degenerate")
    f = f[live] / nf[live, None]
    # the per-start bookkeeping runs on Python floats, which round as float64
    live = live.tolist()
    last = [-1.0] * len(live)
    tol = options.tol
    gram = qf == 2.0
    if gram:
        work = op._gram_workspace(len(f))
    for it in range(options.max_iters):
        # g: the pulled-back functionals at q = 2, else the dual elements to pull back
        if gram:
            val, g = _gram_step(op, f, work)
        else:
            val, g = _measure_step(op.restrict(f.T).T, op.weights, qf)
        if not np.isfinite(val).all():
            raise ArithmeticError("non-finite value in norm iteration")
        values = val.tolist()
        improved: set[int] = set()
        keep: list[int] = []  # the rows whose start goes on
        for row, (start, v, prev) in enumerate(zip(live, values, last)):
            history[start].append(v)
            if v > best_val[start]:
                best_val[start] = v
                best[start] = f[row]
                improved.add(start)
            if prev > 0.0 and v - prev < tol * abs(prev):
                converged[start] = True
            else:
                keep.append(row)
        # a best row left in the previous block is copied, so that block is freed
        for start in in_block - improved:
            best[start] = best[start].copy()
        in_block = improved
        if not keep or it + 1 == options.max_iters:
            break
        if len(keep) < len(live):
            live, g = [live[row] for row in keep], g[keep]
        last = [values[row] for row in keep]
        f = _lattice_extremal(g if gram else op.extend(g.T).T, pf, pprimef)

    trace: list[float] = []
    top, best_start = -1.0, -1
    for start, vals in enumerate(history):
        for v in vals:
            if v > top:
                top, best_start = v, start
                trace.append(v)
    final_change = [(v[-1] - v[-2]) / abs(v[-2]) if len(v) >= 2 and v[-2] != 0.0 else None
                    for v in history]
    witness = best[best_start]
    certified = _rayleigh(op, witness, p, q)
    if abs(certified - top) > WITNESS_EVAL_TOL * max(1.0, abs(top)):
        raise AssertionError(
            f"witness re-evaluation {certified} disagrees with tracked value {top}")
    return ProbeResult(p, q, op.X, certified, witness / lp_norm(witness, p),
                       trace=trace, iterations=[len(v) for v in history],
                       converged=converged, final_change=final_change,
                       final_value=[v[-1] if v else None for v in history],
                       best_start=best_start)


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


def classify_slope(slope: float) -> str:
    if slope < SLOPE_BOUNDED_MAX:
        return "bounded"
    if slope > SLOPE_GROWING_MIN:
        return "growing"
    return "inconclusive"


def sweep(mu: DiscreteMeasure, p_grid, q_grid, X_list,
          n: int = 2, r: Exponent = None, options: ProbeOptions = ProbeOptions(),
          threads: int = 1, progress=None) -> SweepGrid:
    """Classify every (p, q) cell as bounded / growing / inconclusive.

    Overlay columns mark membership in the closed admissible region for the
    given (n, r) and in the necessary region q <= (gamma_hat/dim) p', with
    gamma_hat the Billingsley estimate of mu.  Cells
    are independent tasks with seeds fixed by (seed, p, q, X, restart), so
    the grid is reproducible under any scheduling.
    """
    from concurrent.futures import ThreadPoolExecutor

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    if r is None:
        r = float("inf")
    region = theorem_range(n, r)
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
                         classify_slope(g.slope),
                         region.contains(p, q), knapp_ok)

    results: list[SweepCell] = []
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        # consumed lazily, so progress fires as each cell finishes, in grid order
        for cell in (pool.map if pool else map)(run_cell, cells_in):
            results.append(cell)
            if progress:
                progress(cell)
    return SweepGrid(X_list, results)
