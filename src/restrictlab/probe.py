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

All starts of one estimate run as one (k, L) block, one start per row, so
each operator application is one block product: ExtensionOperator's
restrict, extend and gram take and return row blocks, and the loop calls
them with the probe's workspace as work.  At one BLAS thread a start's
iterates do not depend on which starts share its block.  The
row-wise steps take no modulus and no phase divide: with s2 = |z|^2 over
its row's largest entry, the l^p extremal vector of a pulled-back row z is
z s2^((p'-2)/2) times one scale per row, and the L^q(mu) dual element of
u = restrict(f) is u s2^((q-2)/2), whose powers also make the norm's sum.
Every row is reduced on its own, by einsum, which takes no BLAS call.
Iterates are new arrays that are never written, so each start's best
iterate is kept as a row of its block, copied only when the loop moves
past that block without the start improving.

Guards run only when a cheap test over the block says a row needs them: a
zero row peak (a vanished restriction or pulled-back functional), by one
test of the block's peaks; at q = 2 a vanished row, by one comparison of
the least square with the round-off noise times 2 L^max(0, 1 - 2/p), twice
the bound on ||f||_2^2 of a unit l^p row (Holder; L at p = inf); and a
non-finite value, from the sum of the values the loop reads anyway.

Atoms sit on the grid j/N and the lattice is integral, so restrict and
extend are exact DFTs on Z_N^dim: by FFTs of the N^dim grid on a large
operator (ExtensionOperator.grid_fft), on the lines that hold input or are
read, each line on its own and with no BLAS call; else by the two-level
split of the DFT (Cooley-Tukey), the lattice read as a (T, S) array, a
GEMM against an (S, m) phase table and an einsum against a (T, m) one,
never an L x m matrix.  Phases are read from a table of the N-th roots of
unity at the exact integer phase <x, j> mod N.  The witness re-evaluation
builds phase tables of its own, one chunk of atoms at a time, and takes no
BLAS call: a route independent of the loop.

At q = 2 the square of the value is the quadratic form <T f, f> of the
Gram matrix T[x, y] = conj(mu_hat(x - y)) (the T T* identity behind the
Stein-Tomas argument), and the pulled-back functional is T f up to a
positive factor, so the q = 2 loop makes one Gram product per iteration
instead of a restrict and an extend, on the cheaper of two grids
(ExtensionOperator.gram_grid): on the N^dim grid, where mu_hat is
N-periodic, the grid restrict, a multiply by the weights and the grid
extend; on Z_M^dim, where the Toeplitz T is a compressed circulant, a plain
circular convolution.  FFTs take no BLAS call.  Each probe makes one
workspace for its block, and every FFT of the loop writes into it through
np.fft's out=; it belongs to the call, never to the operator, which
sweep's threads share.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .fitting import FitResult, loglog_fit
from .measures import DiscreteMeasure
from .rationals import INF, Exponent, conjugate, exp_float, exp_str, is_inf, validate_exponent
from .spectral import DIRECT_CHUNK_ENTRIES, fourier, lp_norm, roots_at, unit_roots

MAX_DENSE_ENTRIES = 8_388_608
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


class _GridWork(NamedTuple):
    """The buffers of one probe's transforms on the N-grid (ExtensionOperator._grid_workspace)."""

    grids: list[np.ndarray]  # per axis, the zero-padded input of its transforms; zero between calls
    scratch: np.ndarray  # flat; the output of every transform
    atoms: np.ndarray  # (k, m): restrict's result, extend's weighted rows
    lattice: np.ndarray  # (k, L): extend's and gram's result


@dataclass(frozen=True)
class ExtensionOperator:
    """Pairing between dual-lattice points and measure atoms on [-X, X]^dim, built lazily.

    The operator E[x, j] = exp(2*pi*i <x, xi_j>) has unit modulus; restriction
    is its conjugate transpose.  It is never stored: restrict and extend take
    it as the product of two phase tables (_tables) or by FFTs of the N^dim grid
    (grid_fft); gram applies extend(restrict(.)) by FFTs of the N^dim grid or
    of Z_M^dim (gram_grid); _direct_restrict sums in chunks of atoms.  Each
    product maps a block of rows, one input per row: restrict (k, L) -> (k, m),
    extend (k, m) -> (k, L) and gram (k, L) -> (k, L).
    """

    mu: DiscreteMeasure
    X: int

    def __post_init__(self):
        if self.X < 1:
            raise ValueError("X must be >= 1")

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
    def _split(self) -> tuple[int, int]:
        """(T, S) of the lattice read as a 2-D array: the two axes in 2-D; in 1-D x = -X + a + S b,
        S the least power of two with S^2 >= 2X + 1 and T = ceil((2X + 1) / S) >= 2."""
        side = 2 * self.X + 1
        if self.dim == 2:
            return side, side
        S = 1 << -(-(side - 1).bit_length() // 2)
        return -(-side // S), S

    def _sides(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per side of the lattice array (_split), offsets x and atom coordinates j: x j sums to <x, j>."""
        X, idx, S = self.X, self.mu.indices, self._split[1]
        if self.dim == 2:
            return [(np.arange(-X, X + 1), idx[:, axis]) for axis in (0, 1)]
        return [(S * np.arange(self._split[0]), idx[:, 0]), (np.arange(S) - X, idx[:, 0])]

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense products' phase tables (outer, inner), (T, m) and (S, m), built once, read at exact
        phases: outer[t, j] inner[s, j] = exp(2 pi i <x, xi_j>) at row t, column s of the lattice array."""
        return tuple(roots_at(self._roots, np.multiply.outer(x, j), self.mu.N) for x, j in self._sides())

    def _dense_tables(self, k: int) -> tuple[np.ndarray, np.ndarray, int]:
        """_tables and c, the most of k rows whose (c, T, m) partial product fits MAX_DENSE_ENTRIES with them."""
        (T, S), m = self._split, self.num_atoms
        rows = min(k, (MAX_DENSE_ENTRIES - (T + S) * m) // (T * m))
        if rows < 1:
            raise MemoryError(f"{(2 * T + S) * m} dense entries > MAX_DENSE_ENTRIES budget {MAX_DENSE_ENTRIES}")
        return (*self._tables, rows)

    @cached_property
    def _roots(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The N-th roots of unity, _grid_roots(N): one table per grid, shared by its operators."""
        return _grid_roots(self.mu.N)

    def _direct_restrict(self, f: np.ndarray) -> np.ndarray:
        """restrict of one vector f (L,) as the sum over the lattice, one chunk of atoms at a time.

        The lattice is summed as the dense products' (T, S) array (_sides), one
        einsum per chunk against a phase table per side, each chunk's tables
        within DIRECT_CHUNK_ENTRIES.  Builds its own tables, never reads _tables,
        and takes no BLAS call.
        """
        sides, lattice = self._sides(), np.zeros(self._split, dtype=np.complex128)
        lattice.reshape(-1)[:self.lattice_size] = np.conj(f)
        step = max(1, DIRECT_CHUNK_ENTRIES // max(lattice.shape))
        out = np.empty(self.num_atoms, dtype=np.complex128)
        for lo in range(0, self.num_atoms, step):
            atoms = slice(lo, lo + step)
            out[atoms] = np.einsum("kl,kj,lj->j", lattice, *(
                roots_at(self._roots, np.multiply.outer(x, j[atoms]), self.mu.N) for x, j in sides))
        return np.conj(out, out=out)

    @cached_property
    def grid_fft(self) -> bool:
        """Whether restrict and extend run on the FFT grid instead of the phase tables.

        Chosen from (L, m, N, dim) alone, never from a block's width or the
        caller, so a row's bits do not depend on which rows share its block:
        the FFTs need the lattice window to fit the grid once, 2X + 1 <= N,
        and pay off when L * m exceeds GRID_FFT_CROSSOVER N^dim log2 N^dim.
        """
        grid = self.mu.N ** self.dim
        return (2 * self.X + 1 <= self.mu.N
                and self.lattice_size * self.num_atoms > GRID_FFT_CROSSOVER * grid * math.log2(grid))

    @cached_property
    def _grid_lines(self) -> tuple[list[np.ndarray], np.ndarray]:
        """Per axis, the distinct atom coordinates (the lines of the N-grid
        that are read or hold input), and each atom's flat place in a row of
        the last axis's transforms, the lines of the earlier axes by N."""
        lines = [np.unique(c, return_inverse=True) for c in self.mu.indices.T]
        coords = [u for u, _ in lines]
        places = tuple(inv for _, inv in lines[:-1]) + (coords[-1][lines[-1][1]],)
        return coords, np.ravel_multi_index(places, tuple(len(c) for c in coords[:-1]) + (self.mu.N,))

    def _stages(self, G: int, lines: list | None = None) -> list[tuple[int, ...]]:
        """Per axis a (0-based), a row's grid at the transforms along a on Z_G^dim: the earlier axes
        cut to lines[:a] (coordinates; all G lines when None), a of length G, the later axes the window."""
        counts = [G] * self.dim if lines is None else [len(c) for c in lines]
        return [(*counts[:a], G) + (2 * self.X + 1,) * (self.dim - 1 - a) for a in range(self.dim)]

    def _transform_work(self, G: int, lines: list | None = None) -> float:
        """lines x length x log2(length) of a forward and an inverse pass over _stages(G, lines)."""
        return 2 * sum(map(math.prod, self._stages(G, lines))) * math.log2(G)

    def _grid_workspace(self, k: int) -> _GridWork:
        """The buffers of the N-grid transforms, cut to the lines through atoms, for blocks of up to k rows.

        Per axis one zero grid, the input of the transforms along it both ways;
        a call writes its input there, transforms it into the one scratch
        buffer and zeroes what it wrote, so every pad stays in place.  k rows
        take the first k rows of every buffer.  Made by the caller once per
        probe, never kept on the operator, which sweep's threads share.
        """
        stages = [(k, *shape) for shape in self._stages(self.mu.N, self._grid_lines[0])]
        return _GridWork([np.zeros(shape, dtype=np.complex128) for shape in stages],
                         np.empty(max(math.prod(shape) for shape in stages), dtype=np.complex128),
                         np.empty((k, self.num_atoms), dtype=np.complex128),
                         np.empty((k, self.lattice_size), dtype=np.complex128))

    def _forward(self, rows: np.ndarray, work: _GridWork) -> np.ndarray:
        """The DFT on Z_N^dim of each row of a (k, L) block placed at x mod N, on the lines through atoms.

        Per axis, first first, the lattice window is placed at x mod N in its
        grid, the axis before it cut to its lines, and transformed into
        work.scratch, which holds the result.  Every cut and placement copies
        whole rows of the last axis.
        """
        G, lines, X, k, dim = self.mu.N, self._grid_lines[0], self.X, len(rows), self.dim
        z = rows.reshape((k,) + (2 * X + 1,) * dim)
        for axis in range(1, dim + 1):
            grid, at = work.grids[axis - 1][:k], (slice(None),) * axis
            cut = at if axis == 1 else at[:-1] + (lines[axis - 2],)
            ends = at + (slice(X + 1),), at + (slice(G - X, None),)
            grid[ends[0]] = z[cut + (slice(X, None),)]
            grid[ends[1]] = z[cut + (slice(X),)]
            z = np.fft.fft(grid, axis=axis, out=work.scratch[:grid.size].reshape(grid.shape))
            for end in ends:
                grid[end] = 0
        return z

    def _windows(self, z: np.ndarray, work: _GridWork) -> np.ndarray:
        """The adjoint of _forward after its inverse transform along the last axis, z; as (k, L) in work.lattice.

        Per axis, last first, the lattice window at x mod N of z is placed on
        the lines through atoms of the axis before it, whose inverse FFT
        without its 1/N factor goes into work.scratch, or into the result.
        """
        G, lines, X, k, dim = self.mu.N, self._grid_lines[0], self.X, len(z), self.dim
        for axis in range(dim, 0, -1):
            at = (slice(None),) * axis
            if axis > 1:
                held, written = work.grids[axis - 2][:k], at[:-1] + (lines[axis - 2],)
            else:
                held, written = work.lattice[:k].reshape((k,) + (2 * X + 1,) * dim), at
            held[written + (slice(X),)] = z[at + (slice(G - X, None),)]
            held[written + (slice(X, None),)] = z[at + (slice(X + 1),)]
            if axis > 1:
                z = np.fft.ifft(held, axis=axis - 1, norm="forward",
                                out=work.scratch[:held.size].reshape(held.shape))
                held[written] = 0
        return work.lattice[:k]

    def _grid_restrict(self, rows: np.ndarray, work: _GridWork) -> np.ndarray:
        """restrict for a (k, L) block of rows by FFTs of the N-grid, as (k, m), a view into work.

        f_hat(n/N) = sum_x f(x) exp(-2 pi i <x, n>/N) is the DFT of f placed
        at x mod N (_forward), gathered at the atoms.
        """
        k = len(rows)
        z = self._forward(rows, work).reshape(k, -1)
        return np.take(z, self._grid_lines[1], axis=1, out=work.atoms[:k], mode="clip")

    def _grid_extend(self, rows: np.ndarray, work: _GridWork) -> np.ndarray:
        """extend for a (k, m) block of weighted rows by FFTs of the N-grid, as (k, L), a view into work.

        The adjoint of _grid_restrict: scatter at the atoms, run the inverse
        FFT without its 1/N factor along the last axis, then _windows.
        """
        k, dim, places = len(rows), self.dim, self._grid_lines[1]
        grid = work.grids[dim - 1][:k]
        held = grid.reshape(k, -1)
        held[:, places] = rows
        z = np.fft.ifft(grid, axis=dim, norm="forward", out=work.scratch[:grid.size].reshape(grid.shape))
        held[:, places] = 0
        return self._windows(z, work)

    def restrict(self, block: np.ndarray, work: _GridWork | None = None) -> np.ndarray:
        """f on the lattice -> f_hat at the atoms, for the rows of a (k, L) block, as (k, m).

        Dense, in one pass, or c rows at a time when c < k (_dense_tables):
        conj(f) on the lattice array (_split), a GEMM (c T, S) @ (S, m) against
        inner, an einsum (no BLAS call) against outer, conjugated.  grid_fft: in
        work (a _grid_workspace for k rows, fresh when None), which holds the result.
        """
        k, L = block.shape
        if self.grid_fft:
            return self._grid_restrict(block, work or self._grid_workspace(k))
        (T, S), (outer, inner, c) = self._split, self._dense_tables(k)
        if c < k:
            return np.concatenate([self.restrict(block[lo:lo + c]) for lo in range(0, k, c)])
        rows = np.zeros((k, T * S), dtype=np.complex128)
        np.conjugate(block, out=rows[:, :L])
        out = np.einsum("ktj,tj->kj", (rows.reshape(k * T, S) @ inner).reshape(k, T, -1), outer)
        return np.conjugate(out, out=out)

    def extend(self, block: np.ndarray, work: _GridWork | None = None) -> np.ndarray:
        """g at the atoms -> weighted sums on the lattice, for the rows of a (k, m) block, as (k, L);
        as restrict, dense: (w g)[:, None, :] * outer, a GEMM (c T, m) @ (m, S) against inner.T, cut to L."""
        k = len(block)
        if self.grid_fft:
            work = work or self._grid_workspace(k)
            return self._grid_extend(np.multiply(block, self.weights, out=work.atoms[:k]), work)
        (T, S), (outer, inner, c) = self._split, self._dense_tables(k)
        if c < k:
            return np.concatenate([self.extend(block[lo:lo + c]) for lo in range(0, k, c)])
        weighted = np.multiply(outer, (block * self.weights)[:, None], order="C")
        return (weighted.reshape(k * T, -1) @ inner.T).reshape(k, -1)[:, :self.lattice_size]

    @cached_property
    def M(self) -> int:
        """The M-grid's length: the fast FFT size of 4X + 1 in 2-D and of 4X in 1-D (see gram)."""
        return _fast_fft_size(4 * self.X + (self.dim == 2))

    @cached_property
    def gram_grid(self) -> bool:
        """Whether gram runs on the N-grid as _grid_extend(w _grid_restrict(.)), not on the M-grid.

        Both are exact (see gram).  Chosen once per operator from (X, N, dim)
        and the number of distinct atom coordinates per axis, never from a
        block's width: the N-grid needs 2X + 1 <= N and is taken when its
        _transform_work, on the lines through atoms, is below the M-grid's.
        """
        N = self.mu.N
        return 2 * self.X + 1 <= N and self._transform_work(N, self._grid_lines[0]) < self._transform_work(self.M)

    @cached_property
    def _gram_kernel(self) -> tuple[np.ndarray | None, np.ndarray, float, complex | None]:
        """What gram and _gram_step read besides the block, built on first use and kept.

        On the M-grid: the DFT over M^dim (norm="forward") of K = conj(mu_hat)
        on [-2X, 2X]^dim at d mod M, the slot of +-2X holding K(2X) at M = 4X;
        K on [-X, X]^dim, which is extend(1); eps log2(M^dim) (M^dim max|spectrum|
        + |c|), the round-off bound of Re <T f, f> / ||f||_2^2; and the corner
        c = K(-2X) - K(2X) at M = 4X, else None.  spectral.fourier sums K over
        the atoms where the N^dim grid costs more, as for a sparse measure on a
        fine grid.  On the N-grid: None, extend(1) by _grid_extend,
        eps log2(N^dim) N^dim max(w) (the DFT F has F* F = N^dim), and None.
        """
        if self.gram_grid:
            grid = self.mu.N ** self.dim
            extend_one = self._grid_extend(self.weights[None], self._grid_workspace(1))[0].copy()
            return None, extend_one, np.finfo(float).eps * math.log2(grid) * grid * float(self.weights.max()), None
        X, M = self.X, self.M
        kernel = fourier(self.mu, 2 * X)
        np.conjugate(kernel, out=kernel)
        cut = int(M == 4 * X)  # drops -2X
        placed = np.zeros((M,) * self.dim, dtype=np.complex128)
        placed[np.ix_(*[np.arange(cut - 2 * X, 2 * X + 1) % M] * self.dim)] = kernel[(slice(cut, None),) * self.dim]
        spectrum = np.fft.fftn(placed, norm="forward")
        corner, size = kernel[0] - kernel[-1] if cut else None, spectrum.size
        noise = np.finfo(float).eps * math.log2(size) * (size * float(np.abs(spectrum).max()) + abs(corner or 0))
        return spectrum, kernel[(slice(X, 3 * X + 1),) * self.dim].ravel(), noise, corner

    def _gram_workspace(self, k: int) -> _GridWork | list[np.ndarray]:
        """gram's buffers for k rows: a _grid_workspace (gram_grid), or per axis the output of the M-grid's
        transforms along it (_stages).  The kernel is built first, so its transients go first."""
        if self._gram_kernel[0] is None:
            return self._grid_workspace(k)
        return [np.empty((k, *shape), dtype=np.complex128) for shape in self._stages(self.M)]

    def gram(self, f: np.ndarray, *, work: _GridWork | list[np.ndarray]) -> np.ndarray:
        """extend(restrict(f)) for the rows of a (k, L) block f, as (k, L), a view into work.

        work is a _gram_workspace for at least k rows; the result lasts until
        the next call with it.  A row's result does not depend on the other
        rows.  On the N-grid (gram_grid) this is _grid_extend(w _grid_restrict(f));
        on the M-grid, T being Toeplitz, the circular convolution of f at
        [0, 2X]^dim with K: per axis the DFT of length M (np.fft pads each
        line), times the spectrum, the inverse along the last axis in place and
        along the first on the 2X + 1 window columns only, read at [0, 2X]^dim.
        At M = 4X, x = -X took K(2X) for K(-2X) in the term of f(X): the
        corner term c f(X) mends it.
        """
        if self.gram_grid:
            u = self._grid_restrict(f, work)
            u *= self.weights
            return self._grid_extend(u, work)
        spectrum, _, _, corner = self._gram_kernel
        k, side = len(f), 2 * self.X + 1
        z = f.reshape((k,) + (side,) * self.dim)
        for axis, buffer in enumerate(work, start=1):
            z = np.fft.fft(z, n=self.M, axis=axis, out=buffer[:k])
        z = np.fft.ifft(np.multiply(z, spectrum, out=z), axis=self.dim, norm="forward", out=z)
        if self.dim == 2:
            z = np.fft.ifft(z[:, :, :side], axis=1, norm="forward", out=work[0][:k])
        out = z[(slice(None),) + (slice(side),) * self.dim].reshape(k, -1)
        if corner is not None:
            out[:, 0] += corner * f[:, -1]
        return out


@lru_cache(maxsize=1)
def _grid_roots(N: int) -> tuple[np.ndarray, np.ndarray, int]:
    """unit_roots of the N-th roots, read-only, kept for the last N: high holds at most DIRECT_CHUNK_ENTRIES
    entries (shift is 0 up to that size), so a sparse measure on a fine grid never pays O(N) memory."""
    roots = unit_roots(N, max(0, N.bit_length() - DIRECT_CHUNK_ENTRIES.bit_length()))
    for table in roots[:2]:
        table.setflags(write=False)
    return roots


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


# ---------------------------------------------------------------------------
# Norm machinery
# ---------------------------------------------------------------------------

def _phase(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """z / |z| where a = |z| > 0, else 1."""
    return np.divide(z, a, out=np.ones_like(z), where=a > 0)


def _scaled_squares(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """s2 = |z|^2 row by row over its row's largest entry (max 1 to round-off, one reciprocal a row), the
    peaks, shape (k, 1), and whether none is 0; only a vanished row (s2 = 0, peak 0) takes the guard."""
    s2 = np.square(z.real)
    s2 += np.square(z.imag)
    peak = s2.max(axis=1, keepdims=True)
    whole = bool(peak.all())
    s2 *= 1.0 / (peak if whole else np.where(peak > 0.0, peak, 1.0))
    return s2, peak, whole


def _row_power(s2: np.ndarray, e: float) -> np.ndarray:
    """s2 ** e entry by entry, with 0 at an exact zero of s2 when e < 0; s2 itself at e = 1 (p = 4/3, q = 4).

    Every caller multiplies each entry of the result by its s2 or by an
    entry of modulus sqrt(s2), so the value at a zero is never seen; the
    guard only keeps 0 ** e finite.  No caller writes s2 after the result.
    """
    if e == 1.0:
        return s2
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
        a, g, rows = np.abs(u), np.zeros_like(u), np.arange(len(u))
        j = np.argmax(np.where(weights > 0, a, -1.0), axis=1)
        g[rows, j] = _phase(u[rows, j], a[rows, j]) / weights[j]
        return lp_norm(a, qf, weights, rows=True), g
    s2, peak, whole = _scaled_squares(u)
    power = _row_power(s2, 0.5 * (qf - 2.0))
    val = np.sqrt(peak[:, 0]) * np.einsum("ij,ij,j->i", power, s2, weights) ** (1.0 / qf)
    u *= power
    if not whole:
        u[peak[:, 0] == 0.0] = 1.0
    return val, u


def _lattice_extremal(pulled: np.ndarray, pf: float, pprimef: float) -> np.ndarray:
    """Unit-l^p rows f maximizing Re sum_x f[r, x] conj(pulled[r, x]), one per row of pulled.

    pulled holds the pulled-back functionals; pf, pprimef = float(p), float(p').
    For 1 < p < inf, f = pulled |pulled|^(p'-2) / || |pulled|^(p'-1) ||_p,
    taken with s2 = |pulled|^2 / peak per row (_scaled_squares) as
    pulled s2^((p'-2)/2) / (sqrt(peak) (sum_x s2^((p'-2)/2) s2)^(1/p)):
    one general power per entry and no modulus or phase.  At p = inf f is
    the phase of pulled, and at p = 1 that phase at each row's largest
    entry and 0 elsewhere.  The result is a new array.
    """
    if pf == INF:
        return _phase(pulled, np.abs(pulled))
    if pf == 1.0:
        a, f = np.abs(pulled), np.zeros_like(pulled)
        rows, j = np.arange(len(a)), np.argmax(a, axis=1)
        f[rows, j] = _phase(pulled[rows, j], a[rows, j])
        return f
    s2, peak, whole = _scaled_squares(pulled)
    if not whole:
        raise ArithmeticError("pulled-back functional vanished")
    t = _row_power(s2, 0.5 * (pprimef - 2.0))
    t *= (1.0 / (np.sqrt(peak[:, 0]) * np.einsum("ij,ij->i", t, s2) ** (1.0 / pf)))[:, None]
    return pulled * t


def _gram_step(op: ExtensionOperator, f: np.ndarray, work: _GridWork | list[np.ndarray],
               bound: float) -> tuple[np.ndarray, np.ndarray]:
    """At q = 2: the values ||restrict(f)||_{L^2(mu)} of the rows of f, and their pulled-back functionals.

    A value's square is Re <T f, f>, one row-wise dot of the float64 views
    of f and T f.  The L^2(mu) dual element u / max|u| of u = restrict(f)
    pulls back to T f / max|u|, and the extremal vector is scale-free, so
    T f stands for it; it is a view into work.  A row whose square is within
    the FFT round-off of zero, noise ||f||_2^2, is taken as u = 0, as the
    dense path sees it: value 0, and the dual element 1, which pulls back to
    extend(1).  No row is tested when the least square exceeds noise bound,
    bound >= every ||f||_2^2; a non-finite square raises.
    """
    extend_one, noise = op._gram_kernel[1:3]
    h = op.gram(f, work=work)
    fv = f.view(np.float64)
    square = np.einsum("ij,ij->i", fv, h.view(np.float64))
    if square.min() > noise * bound:
        return np.sqrt(square), h
    if not np.isfinite(square).all():
        raise ArithmeticError("non-finite value in norm iteration")
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
    # the loop's products: route is "m-grid" or "n-grid" at q = 2 (gram_grid),
    # else "n-grid" or "dense" (grid_fft); products maps each product the
    # loop took ("gram" at q = 2, else "restrict" and "extend") to the rows
    # it took per start, in start order
    route: str = ""
    products: dict[str, list[int]] = field(default_factory=dict)

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
            "route": self.route,
            "products": {name: list(rows) for name, rows in self.products.items()},
            "trace": list(self.trace),
            "witness": [[float(z.real), float(z.imag)] for z in self.witness],
        }


def _rayleigh(op: ExtensionOperator, f: np.ndarray, p: Exponent, q: Exponent) -> float:
    """||restrict(f)||_{L^q(mu)} / ||f||_{l^p} by op._direct_restrict, a route independent of the loop.

    The sum reads neither the phase tables, the FFT grid nor the Gram kernel,
    so a fault in the loop's products cannot certify itself, and its bits do
    not depend on the BLAS thread count.
    """
    nf = lp_norm(f, p)
    if nf == 0.0:
        return 0.0
    return lp_norm(op._direct_restrict(f), q, op.weights) / nf


def _embed_witness(w: np.ndarray, dim: int, target_size: int) -> np.ndarray:
    """Zero-pad a witness from a smaller centered lattice cube into a larger one."""
    if len(w) > target_size:
        raise ValueError("warm start longer than lattice")
    side_from, side_to = round(len(w) ** (1 / dim)), round(target_size ** (1 / dim))
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

    All starts run as one (k, L) block, one start per row, and a start
    leaves the block when its own stopping test fires.  The trace is the
    running best in start order, as if the starts had run one after another.
    """
    p, q = validate_exponent(p, "p"), validate_exponent(q, "q")
    # floats only inside the iteration; p and q stay exact everywhere else
    pf, qf, pprimef = exp_float(p), exp_float(q), exp_float(conjugate(p))
    L = op.lattice_size
    warm_starts = warm_starts or []
    f = np.empty((options.restarts + len(warm_starts), L), dtype=np.complex128)
    for i in range(options.restarts):
        rng = probe_seed(options.seed, p, q, op.X, i)
        f[i] = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    for i, w in enumerate(warm_starts, start=options.restarts):
        f[i] = _embed_witness(np.asarray(w, dtype=np.complex128), op.dim, L)

    n = len(f)
    history: list[list[float]] = [[] for _ in range(n)]  # each start's values
    converged, best_val = [False] * n, [-1.0] * n
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
    # ||f||_2^2 <= L^max(0, 1 - 2/p) on a unit l^p row, doubled for round-off
    bound = 2.0 * L ** max(0.0, 1.0 - 2.0 / pf)
    # the products of every iteration write into one workspace, made here
    work = op._gram_workspace(len(f)) if gram else op._grid_workspace(len(f)) if op.grid_fft else None
    for it in range(options.max_iters):
        # g: the pulled-back functionals at q = 2, else the dual elements to pull back
        if gram:
            val, g = _gram_step(op, f, work, bound)
        else:
            val, g = _measure_step(op.restrict(f, work), op.weights, qf)
        values = val.tolist()
        if not math.isfinite(sum(values)):  # the values are >= 0
            raise ArithmeticError("non-finite value in norm iteration")
        improved, keep = set(), []  # keep: the rows whose start goes on
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
        f = _lattice_extremal(g if gram else op.extend(g, work), pf, pprimef)
    del work, g  # freed before the witness is re-evaluated

    trace: list[float] = []
    top, best_start = -1.0, -1
    for start, vals in enumerate(history):
        for v in vals:
            if v > top:
                top, best_start = v, start
                trace.append(v)
    final_change = [(v[-1] - v[-2]) / abs(v[-2]) if len(v) >= 2 and v[-2] != 0.0 else None
                    for v in history]
    # an iteration takes one row of its start through gram, or through
    # restrict and, unless it is the start's last, extend
    ran = [len(v) for v in history]
    if gram:
        route, products = "n-grid" if op.gram_grid else "m-grid", {"gram": ran}
    else:
        route = "n-grid" if op.grid_fft else "dense"
        products = {"restrict": ran, "extend": [max(n - 1, 0) for n in ran]}
    witness = best[best_start]
    certified = _rayleigh(op, witness, p, q)
    if abs(certified - top) > WITNESS_EVAL_TOL * max(1.0, abs(top)):
        raise AssertionError(f"witness re-evaluation {certified} disagrees with tracked value {top}")
    return ProbeResult(p, q, op.X, certified, witness / lp_norm(witness, p),
                       trace=trace, iterations=[len(v) for v in history],
                       converged=converged, final_change=final_change,
                       final_value=[v[-1] if v else None for v in history],
                       best_start=best_start, route=route, products=products)


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
        op = operators[X] if operators and X in operators else ExtensionOperator(mu, X)
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
          n: int = 2, r: Exponent = INF, options: ProbeOptions = ProbeOptions(),
          threads: int = 1, progress=None) -> SweepGrid:
    """Classify every (p, q) cell as bounded / growing / inconclusive.

    Overlay columns mark membership in the closed admissible region for the
    given (n, r) and in the necessary region q <= (gamma_hat/dim) p', with
    gamma_hat the Billingsley estimate of mu.  Cells
    are independent tasks with seeds fixed by (seed, p, q, X, restart), so
    the grid is reproducible under any scheduling.
    """
    from concurrent.futures import ThreadPoolExecutor

    from . import regularity  # for the overlay columns only, so a probe never loads it

    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    region = regularity.theorem_range(n, r)
    gamma_hat = regularity.billingsley_gamma(mu).estimate
    X_list = [int(x) for x in X_list]
    operators = {X: ExtensionOperator(mu, X) for X in X_list}
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
