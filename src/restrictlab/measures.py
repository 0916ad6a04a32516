"""Discretized Borel probability measures on the 1- or 2-dimensional torus.

A measure is a sparse list of atoms on a uniform dyadic grid: atom with index
vector j sits at the point j/N of [0,1)^dim.  All constructors renormalize
weights to total mass 1 and record a descriptor (kind + parameters + seed)
from which the measure can be rebuilt, possibly at a different resolution.

Convolution on the grid is circular.  Constructors that are meant to emulate
compactly supported measures on R^d accept a ``confine`` factor which embeds
the support into the left part [0, 1/confine) of a proportionally finer
torus, so that n-fold self-convolutions do not wrap as long as
confine >= 2*n.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

MEASURE_SCHEMA_VERSION = 1

WEIGHT_SUM_TOL = 1e-12
DENSITY_MASS_TOL = 1e-10
MAX_ATOMS = 4_194_304


class AtomBudgetError(ValueError):
    """Raised when a constructor would emit more atoms than allowed."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _flat_indices(indices: np.ndarray, N: int) -> np.ndarray:
    """Row-major flat index of each (m, dim) index row on the (N,)*dim grid."""
    return np.ravel_multi_index(tuple(indices.T), (N,) * indices.shape[1])


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative atoms on the dyadic torus grid, total mass 1.

    indices has shape (m, dim) with entries in [0, N); weights has shape (m,).
    """

    dim: int
    N: int
    indices: np.ndarray
    weights: np.ndarray
    constructor: dict = field(default_factory=dict)
    seed: int | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.N):
            raise ValueError(f"resolution N={self.N} is not a power of two")
        idx = np.asarray(self.indices, dtype=np.int64).reshape(-1, self.dim)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if idx.shape[0] != w.shape[0]:
            raise ValueError("indices and weights disagree in length")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", w)
        self.validate()

    def validate(self) -> None:
        if np.any(self.weights < 0):
            raise ValueError("negative atom weight")
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # also rejects a NaN weight
            raise ValueError(f"weights sum to {total!r}, not 1")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.N):
            raise ValueError("atom index outside [0, N)")
        # strictly increasing flat indices have no duplicate; sort only if not
        flat = _flat_indices(self.indices, self.N)
        if not np.all(flat[1:] > flat[:-1]):
            flat = np.sort(flat)
            if not np.all(flat[1:] > flat[:-1]):
                raise ValueError("duplicate atom indices")

    @property
    def num_atoms(self) -> int:
        return int(self.weights.shape[0])

    def positions(self) -> np.ndarray:
        """Atom positions in [0,1)^dim, shape (m, dim)."""
        return self.indices.astype(np.float64) / self.N

    def dense_weights(self) -> np.ndarray:
        """Dense weight grid of shape (N,)*dim."""
        grid = np.zeros((self.N,) * self.dim)
        grid[tuple(self.indices.T)] = self.weights
        return grid


def _finalize(dim, N, indices, weights, constructor, seed=None, info=None) -> DiscreteMeasure:
    """Sort atoms, merge duplicates, and renormalize to mass exactly 1."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, dim)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    flat = _flat_indices(idx, N)
    order = np.argsort(flat, kind="stable")
    flat, idx, w = flat[order], idx[order], w[order]
    # first position of each run of equal flat indices (they are >= 0)
    start = np.flatnonzero(np.diff(flat, prepend=-1))
    if len(start) != len(flat):
        w = np.add.reduceat(w, start)
        idx = idx[start]
    w = w / w.sum()
    return DiscreteMeasure(dim, N, idx, w, constructor=dict(constructor), seed=seed, info=dict(info or {}))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def dirac(dim: int, N: int, index) -> DiscreteMeasure:
    """Point mass at grid index ``index``: a length-dim sequence, or an int in dim 1."""
    idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
    if idx.shape != (dim,):
        raise ValueError(f"index {index!r} does not match dim={dim}")
    if np.any(idx < 0) or np.any(idx >= N):
        raise ValueError(f"index {index!r} outside [0, {N})")
    return _finalize(dim, N, idx.reshape(1, dim), [1.0],
                     {"kind": "dirac", "dim": dim, "N": N, "index": [int(v) for v in idx]})


def uniform(dim: int, N: int) -> DiscreteMeasure:
    """Uniform probability on the full grid (N^dim atoms)."""
    count = N**dim
    if count > MAX_ATOMS:
        raise AtomBudgetError(f"uniform measure needs {count} atoms > MAX_ATOMS budget {MAX_ATOMS}")
    idx = np.indices((N,) * dim).reshape(dim, -1).T
    return _finalize(dim, N, idx, np.full(count, 1.0 / count),
                     {"kind": "uniform", "dim": dim, "N": N})


def cantor(base: int, digits, stage: int, confine: int = 1) -> DiscreteMeasure:
    """Self-similar measure on base-``base`` expansions with restricted digits.

    Uniform weights on the |digits|^stage points whose first ``stage`` base-b
    digits all lie in ``digits``.  Resolution is base^stage (times ``confine``);
    the base must be a power of two so the grid stays dyadic.  The similarity
    dimension log|digits|/log(base) is recorded in the measure info.
    """
    digits = sorted(set(int(d) for d in digits))
    if not digits:
        raise ValueError("digit set is empty")
    if any(d < 0 or d >= base for d in digits):
        raise ValueError(f"digits {digits} not all in [0, {base})")
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if not _is_power_of_two(base) or base < 2:
        raise ValueError(f"base {base} must be a power of two >= 2 for a dyadic grid")
    if not _is_power_of_two(confine):
        raise ValueError(f"confine factor {confine} must be a power of two")
    count = len(digits) ** stage
    if count > MAX_ATOMS:
        raise AtomBudgetError(
            f"cantor({base},{digits},{stage}) needs {count} atoms > MAX_ATOMS budget {MAX_ATOMS}")
    N = base**stage * confine
    idx = np.zeros(1, dtype=np.int64)
    for _ in range(stage):
        idx = (idx[:, None] * base + np.asarray(digits, dtype=np.int64)[None, :]).ravel()
    return _finalize(
        1, N, idx.reshape(-1, 1), np.full(count, 1.0 / count),
        {"kind": "cantor", "base": base, "digits": digits, "stage": stage, "confine": confine},
        info={"similarity_dimension": math.log(len(digits)) / math.log(base)},
    )


def autocorrelation_counts(members: np.ndarray, N: int) -> np.ndarray:
    """r(t) = #{(a,b) in S x S : a - b = t mod N} for an index set S, via FFT."""
    ind = np.zeros(N)
    ind[np.asarray(members, dtype=np.int64)] = 1.0
    r = np.fft.irfft(np.abs(np.fft.rfft(ind)) ** 2, N)
    return np.rint(r).astype(np.int64)


def flatness_acceptance_bound(N: int, m: int, flatness_c: float) -> float:
    """Off-zero autocorrelation count bound C * max(1, m^2/N) * ln N."""
    return flatness_c * max(1.0, m * m / N) * math.log(N)


def random_flat(N: int, m: int, seed: int, flatness_c: float = 4.0,
                max_retries: int = 200, confine: int = 1) -> DiscreteMeasure:
    """Uniform weights on a random m-subset of Z_N with flat autocorrelation.

    Candidate subsets are resampled until the largest off-zero autocorrelation
    count is at most C * max(1, m^2/N) * ln N, a desk-scale stand-in for
    measures whose self-convolution is bounded.  The achieved statistics and
    retry count are recorded in the measure info.
    """
    if not (1 <= m <= N):
        raise ValueError(f"need 1 <= m <= N, got m={m}, N={N}")
    if not (0 < flatness_c < math.inf):  # nan too
        raise ValueError(f"flatness_c must be finite and > 0, got {flatness_c}")
    if not _is_power_of_two(confine):
        raise ValueError(f"confine factor {confine} must be a power of two")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    rng = np.random.default_rng(seed)
    bound = flatness_acceptance_bound(N, m, flatness_c)
    best = None
    for attempt in range(max_retries + 1):
        members = np.sort(rng.choice(N, size=m, replace=False))
        counts_off = autocorrelation_counts(members, N)[1:]
        max_off = int(counts_off.max()) if counts_off.size else 0
        mean_off = float(counts_off.mean()) if counts_off.size else 0.0
        if max_off <= bound:
            stats = {
                "max_offzero_count": max_off,
                "mean_offzero_count": mean_off,
                "ratio": (max_off / mean_off) if mean_off > 0 else 0.0,
                "bound": bound,
            }
            return _finalize(
                1, N * confine, members.reshape(-1, 1), np.full(m, 1.0 / m),
                {"kind": "random_flat", "N": N, "m": m, "seed": seed,
                 "flatness_c": flatness_c, "max_retries": max_retries, "confine": confine},
                seed=seed, info={"flatness": stats, "retries": attempt})
        best = max_off if best is None else min(best, max_off)
    raise ValueError(
        f"random_flat({N},{m}) exhausted {max_retries} retries; "
        f"best max off-zero count {best} vs bound {bound:.3f}")


def circle(N: int, radius: float) -> DiscreteMeasure:
    """Grid snap of the circle of given radius centered at (1/2, 1/2), dim 2."""
    if not (0 < radius < 0.5):
        raise ValueError(f"radius {radius} outside (0, 1/2)")
    M = int(math.ceil(2 * math.pi * radius * N))
    theta = 2 * np.pi * np.arange(M) / M
    pts = np.stack([0.5 + radius * np.cos(theta), 0.5 + radius * np.sin(theta)], axis=1)
    idx = np.rint(pts * N).astype(np.int64) % N
    return _finalize(2, N, idx, np.full(M, 1.0 / M),
                     {"kind": "circle", "N": N, "radius": radius, "points": M})


# ---------------------------------------------------------------------------
# Mollification
# ---------------------------------------------------------------------------

def triangular_kernel(epsilon: int) -> np.ndarray:
    """Unit-mass triangular weights t(j) ∝ max(0, 1 - |j|/epsilon), j in (-eps, eps).

    The kernel spectrum is a Fejer square, hence nonnegative; epsilon = 1
    degenerates to the identity kernel.
    """
    if epsilon < 1:
        raise ValueError("epsilon must be >= 1 cell")
    j = np.arange(-(epsilon - 1), epsilon)
    t = 1.0 - np.abs(j) / epsilon
    return t / t.sum()


def _half_spectrum(grid: np.ndarray, batch: int = 0) -> np.ndarray:
    """rfftn of a real grid over its axes after the first batch ones, every pass written into one array."""
    half = grid.shape[:-1] + (grid.shape[-1] // 2 + 1,)
    return np.fft.rfftn(grid, axes=tuple(range(batch, grid.ndim)),
                        out=np.empty(half, dtype=np.complex128))


def _from_half_spectrum(spec: np.ndarray, N: int) -> np.ndarray:
    """irfftn of a half spectrum onto the (N,)*dim grid, overwriting spec.

    The leading axes are inverted in place, in irfftn's order and with its
    bits, so no second spectrum is made; only the real output is new.
    """
    for axis in range(spec.ndim - 1):
        np.fft.ifft(spec, axis=axis, out=spec)
    return np.fft.irfft(spec, n=N, axis=-1)


def mollify(mu: DiscreteMeasure, epsilon: int) -> np.ndarray:
    """Circularly convolve atom weights with the triangular kernel.

    Returns the nonnegative density of shape (N,)*dim with respect to the
    normalized grid volume 1/N^dim, so its mean is the mass 1.  The dense
    kernel is dropped once transformed, the grid once transformed; its half
    spectrum is multiplied in place and inverted in place (_from_half_spectrum),
    and the clip and the N^dim scale work in place on the result, so at most
    three full grids are alive at once.
    """
    t = triangular_kernel(epsilon)
    offs = np.arange(-(epsilon - 1), epsilon) % mu.N
    k1 = np.zeros(mu.N)
    np.add.at(k1, offs, t)
    kernel = _half_spectrum(reduce(np.multiply.outer, [k1] * mu.dim))
    del k1
    spec = _half_spectrum(mu.dense_weights())
    np.multiply(spec, kernel, out=spec)
    del kernel
    conv = _from_half_spectrum(spec, mu.N)
    del spec
    if conv.min() < -1e-12:
        raise ArithmeticError(f"mollified density went negative: {conv.min()}")
    density = np.maximum(conv, 0.0, out=conv)
    density *= mu.N**mu.dim
    mass = float(density.sum()) / mu.N**mu.dim
    if abs(mass - 1.0) > DENSITY_MASS_TOL:
        raise ValueError(f"density mass {mass!r} is not 1")
    return density


# ---------------------------------------------------------------------------
# Rebuild and serialization
# ---------------------------------------------------------------------------

def rebuild(descriptor: dict, resolution: int | None = None) -> DiscreteMeasure:
    """Reconstruct a measure from its constructor descriptor.

    ``resolution`` overrides the total grid size N, ``confine`` included; a
    cantor measure is rebuilt at the stage that gives that N.  A resolution
    the constructor cannot build (a cantor N that is not base**stage *
    confine) raises ValueError instead of returning another N, and so does a
    descriptor that lacks a field its kind reads.
    """
    d = dict(descriptor)
    kind = d.get("kind")
    confine = d.get("confine", 1)
    try:
        if kind == "dirac":
            index = d["index"]
            if resolution and resolution != d["N"]:
                # the grid is a torus: an index rounded up to N wraps to 0
                scale = resolution / d["N"]
                index = [int(round(v * scale)) % resolution for v in index]
            mu = dirac(d["dim"], resolution or d["N"], index)
        elif kind == "uniform":
            mu = uniform(d["dim"], resolution or d["N"])
        elif kind == "cantor":
            stage = (round(math.log(resolution // confine) / math.log(d["base"]))
                     if resolution else d["stage"])
            mu = cantor(d["base"], d["digits"], stage, confine=confine)
        elif kind == "random_flat":
            mu = random_flat(resolution // confine if resolution else d["N"], d["m"], d["seed"],
                             d["flatness_c"], d["max_retries"], confine=confine)
        elif kind == "circle":
            mu = circle(resolution or d["N"], d["radius"])
        else:
            raise ValueError(f"cannot rebuild measure of kind {kind!r}")
    except KeyError as exc:
        raise ValueError(f"{kind} descriptor lacks the field {exc.args[0]!r}") from None
    if resolution is not None and mu.N != resolution:
        raise ValueError(f"cannot rebuild {kind} at resolution {resolution}; "
                         f"the nearest it builds is N={mu.N}")
    return mu


def atomic_write_text(path: str, text: str) -> None:
    """Write a file atomically (temp file in the same directory, then rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def measure_to_dict(mu: DiscreteMeasure) -> dict:
    atoms = [[*(int(v) for v in idx), float(w)] for idx, w in zip(mu.indices, mu.weights)]
    return {
        "schema_version": MEASURE_SCHEMA_VERSION,
        "dim": mu.dim,
        "N": mu.N,
        "constructor": mu.constructor,
        "seed": mu.seed,
        "info": mu.info,
        "atoms": atoms,
    }


def measure_from_dict(data: dict) -> DiscreteMeasure:
    """Inverse of measure_to_dict; a malformed payload raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"measure payload is a {type(data).__name__}, not an object")
    # type(x) is int: a JSON true is a Python int, and not a valid one here
    version = data.get("schema_version")
    if type(version) is not int or version != MEASURE_SCHEMA_VERSION:
        raise ValueError(f"unsupported measure schema {version!r}")
    missing = [key for key in ("dim", "N", "atoms") if key not in data]
    if missing:
        raise ValueError(f"measure payload lacks {', '.join(missing)}")
    dim, N, atoms = data["dim"], data["N"], data["atoms"]
    if type(dim) is not int or dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim!r}")
    if type(N) is not int:
        raise ValueError(f"N must be an integer, got {N!r}")
    constructor = data.get("constructor", {})
    if not isinstance(constructor, dict):
        raise ValueError(f"constructor must be an object, got {constructor!r}")
    if not isinstance(atoms, list) or not all(
            isinstance(a, list) and len(a) == dim + 1
            and all(type(v) is int for v in a[:dim])  # not float, not bool
            and type(a[dim]) in (int, float) for a in atoms):
        raise ValueError(f"every atom must be a list of {dim} integer indices and a weight")
    idx = np.asarray([a[:dim] for a in atoms], dtype=np.int64).reshape(-1, dim)
    w = np.asarray([a[dim] for a in atoms], dtype=np.float64)
    return DiscreteMeasure(dim, N, idx, w, constructor=constructor,
                           seed=data.get("seed"), info=data.get("info", {}))


def save_measure(mu: DiscreteMeasure, path: str) -> None:
    atomic_write_text(path, json.dumps(measure_to_dict(mu), indent=2, sort_keys=True) + "\n")


def load_measure(path: str) -> DiscreteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
