"""Discretized Borel probability measures on the 1- or 2-dimensional torus.

A measure is a sparse list of atoms on a uniform dyadic grid: atom with index
vector j sits at the point j/N of [0,1)^dim.  All constructors renormalize
weights to total mass 1 and record a descriptor (kind + parameters + seed)
from which the measure can be rebuilt, possibly at a different stage or
resolution.

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

import numpy as np

SCHEMA_VERSION = 1

WEIGHT_SUM_TOL = 1e-12
DENSITY_MASS_TOL = 1e-10
MAX_ATOMS_DEFAULT = 4_194_304


class AtomBudgetError(ValueError):
    """Raised when a constructor would emit more atoms than allowed."""


class FlatnessError(RuntimeError):
    """Raised when random_flat exhausts its retries.

    Carries the best candidate seen and its flatness statistics so callers
    can inspect how far from the acceptance bound the search ended.
    """

    def __init__(self, message: str, best_measure: "DiscreteMeasure", best_stats: dict):
        super().__init__(message)
        self.best_measure = best_measure
        self.best_stats = best_stats


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.N):
            raise ValueError("atom index outside [0, N)")
        flat = self._flat_indices()
        if len(np.unique(flat)) != len(flat):
            raise ValueError("duplicate atom indices")

    @property
    def num_atoms(self) -> int:
        return int(self.weights.shape[0])

    def _flat_indices(self) -> np.ndarray:
        if self.dim == 1:
            return self.indices[:, 0]
        return self.indices[:, 0] * self.N + self.indices[:, 1]

    def positions(self) -> np.ndarray:
        """Atom positions in [0,1)^dim, shape (m, dim)."""
        return self.indices.astype(np.float64) / self.N

    def dense_weights(self) -> np.ndarray:
        """Dense weight grid of shape (N,)*dim."""
        grid = np.zeros((self.N,) * self.dim)
        if self.dim == 1:
            grid[self.indices[:, 0]] = self.weights
        else:
            grid[self.indices[:, 0], self.indices[:, 1]] = self.weights
        return grid


@dataclass(frozen=True)
class MollifiedDensity:
    """Dense nonnegative density with respect to normalized grid volume 1/N^dim."""

    dim: int
    N: int
    values: np.ndarray
    epsilon: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (self.N,) * self.dim:
            raise ValueError(f"values shape {vals.shape} does not match N={self.N}, dim={self.dim}")
        if vals.min() < 0:
            raise ValueError("negative density value")
        object.__setattr__(self, "values", vals)
        mass = self.mass()
        if abs(mass - 1.0) > DENSITY_MASS_TOL:
            raise ValueError(f"density mass {mass!r} is not 1")

    def mass(self) -> float:
        return float(self.values.sum()) / self.N**self.dim


def _finalize(dim, N, indices, weights, constructor, seed=None, info=None) -> DiscreteMeasure:
    """Sort atoms, merge duplicates, and renormalize to mass exactly 1."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1, dim)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    flat = idx[:, 0] * (N if dim == 2 else 1) + (idx[:, 1] if dim == 2 else 0)
    order = np.argsort(flat, kind="stable")
    flat, idx, w = flat[order], idx[order], w[order]
    uniq, start = np.unique(flat, return_index=True)
    if len(uniq) != len(flat):
        w = np.add.reduceat(w, start)
        idx = idx[start]
    w = w / w.sum()
    return DiscreteMeasure(dim, N, idx, w, constructor=dict(constructor), seed=seed, info=dict(info or {}))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def dirac(dim: int, N: int, index) -> DiscreteMeasure:
    """Point mass at grid index ``index`` (an int for dim 1, a pair for dim 2)."""
    idx = np.atleast_1d(np.asarray(index, dtype=np.int64))
    if idx.shape != (dim,):
        raise ValueError(f"index {index!r} does not match dim={dim}")
    if np.any(idx < 0) or np.any(idx >= N):
        raise ValueError(f"index {index!r} outside [0, {N})")
    return _finalize(dim, N, idx.reshape(1, dim), [1.0],
                     {"kind": "dirac", "dim": dim, "N": N, "index": [int(v) for v in idx]})


def uniform(dim: int, N: int, max_atoms: int = MAX_ATOMS_DEFAULT) -> DiscreteMeasure:
    """Uniform probability on the full grid (N^dim atoms)."""
    count = N**dim
    if count > max_atoms:
        raise AtomBudgetError(f"uniform measure needs {count} atoms > max_atoms budget {max_atoms}")
    if dim == 1:
        idx = np.arange(N, dtype=np.int64).reshape(-1, 1)
    else:
        ii, jj = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
        idx = np.stack([ii.ravel(), jj.ravel()], axis=1)
    return _finalize(dim, N, idx, np.full(count, 1.0 / count),
                     {"kind": "uniform", "dim": dim, "N": N})


def cantor(base: int, digits, stage: int, confine: int = 1,
           max_atoms: int = MAX_ATOMS_DEFAULT) -> DiscreteMeasure:
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
    if count > max_atoms:
        raise AtomBudgetError(
            f"cantor({base},{digits},{stage}) needs {count} atoms > max_atoms budget {max_atoms}")
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
    if not _is_power_of_two(confine):
        raise ValueError(f"confine factor {confine} must be a power of two")
    rng = np.random.default_rng(seed)
    bound = flatness_acceptance_bound(N, m, flatness_c)
    N_total = N * confine

    def build(members, stats, retries):
        info = {"flatness": dict(stats), "retries": retries}
        return _finalize(
            1, N_total, np.asarray(members).reshape(-1, 1), np.full(m, 1.0 / m),
            {"kind": "random_flat", "N": N, "m": m, "seed": seed,
             "flatness_c": flatness_c, "max_retries": max_retries, "confine": confine},
            seed=seed, info=info)

    best = None
    for attempt in range(max_retries + 1):
        members = np.sort(rng.choice(N, size=m, replace=False))
        if m == N or m == 1:
            counts_off = np.zeros(1, dtype=np.int64) if m == 1 else np.full(N - 1, m, dtype=np.int64)
        else:
            counts_off = autocorrelation_counts(members, N)[1:]
        max_off = int(counts_off.max()) if counts_off.size else 0
        mean_off = float(counts_off.mean()) if counts_off.size else 0.0
        stats = {
            "max_offzero_count": max_off,
            "mean_offzero_count": mean_off,
            "ratio": (max_off / mean_off) if mean_off > 0 else 0.0,
            "bound": bound,
        }
        if best is None or max_off < best[1]["max_offzero_count"]:
            best = (members, stats, attempt)
        if max_off <= bound:
            return build(members, stats, attempt)
    measure = build(*best)
    raise FlatnessError(
        f"random_flat({N},{m}) exhausted {max_retries} retries; "
        f"best max off-zero count {best[1]['max_offzero_count']} vs bound {bound:.3f}",
        measure, best[1])


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


def reflect(mu: DiscreteMeasure) -> DiscreteMeasure:
    """Pushforward under x -> -x on the torus: atom j maps to -j mod N."""
    idx = (-mu.indices) % mu.N
    return _finalize(mu.dim, mu.N, idx, mu.weights,
                     {"kind": "reflect", "of": mu.constructor}, seed=mu.seed, info=mu.info)


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


def mollify(mu: DiscreteMeasure, epsilon: int) -> MollifiedDensity:
    """Circularly convolve atom weights with the triangular kernel; density view."""
    t = triangular_kernel(epsilon)
    grid = mu.dense_weights()
    offs = np.arange(-(epsilon - 1), epsilon) % mu.N
    k1 = np.zeros(mu.N)
    np.add.at(k1, offs, t)
    if mu.dim == 1:
        conv = np.fft.irfft(np.fft.rfft(grid) * np.fft.rfft(k1), mu.N)
    else:
        kernel = np.outer(k1, k1)
        conv = np.fft.irfft2(np.fft.rfft2(grid) * np.fft.rfft2(kernel), s=grid.shape)
    if conv.min() < -1e-12:
        raise ArithmeticError(f"mollified density went negative: {conv.min()}")
    conv = np.maximum(conv, 0.0)
    return MollifiedDensity(mu.dim, mu.N, conv * mu.N**mu.dim, epsilon)


# ---------------------------------------------------------------------------
# Rebuild and serialization
# ---------------------------------------------------------------------------

def rebuild(descriptor: dict, stage: int | None = None, resolution: int | None = None) -> DiscreteMeasure:
    """Reconstruct a measure from its constructor descriptor.

    For stage-parameterized kinds (cantor) ``stage`` overrides the recorded
    stage; ``resolution`` overrides N for kinds parameterized by resolution.
    """
    d = dict(descriptor)
    kind = d.get("kind")
    if kind == "dirac":
        N = resolution or d["N"]
        index = d["index"]
        if resolution and resolution != d["N"]:
            # the grid is a torus: an index rounded up to N wraps to 0
            scale = resolution / d["N"]
            index = [int(round(v * scale)) % resolution for v in index]
        return dirac(d["dim"], N, index if d["dim"] == 2 else index[0])
    if kind == "uniform":
        return uniform(d["dim"], resolution or d["N"])
    if kind == "cantor":
        if stage is None and resolution is not None:
            stage = round(math.log(resolution // d.get("confine", 1)) / math.log(d["base"]))
        return cantor(d["base"], d["digits"], stage or d["stage"], confine=d.get("confine", 1))
    if kind == "random_flat":
        return random_flat(resolution or d["N"], d["m"], d["seed"], d["flatness_c"],
                           d["max_retries"], confine=d.get("confine", 1))
    if kind == "circle":
        return circle(resolution or d["N"], d["radius"])
    raise ValueError(f"cannot rebuild measure of kind {kind!r}")


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
        "schema_version": SCHEMA_VERSION,
        "dim": mu.dim,
        "N": mu.N,
        "constructor": mu.constructor,
        "seed": mu.seed,
        "info": mu.info,
        "atoms": atoms,
    }


def measure_from_dict(data: dict) -> DiscreteMeasure:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported measure schema {data.get('schema_version')!r}")
    dim = data["dim"]
    atoms = data["atoms"]
    idx = np.asarray([a[:dim] for a in atoms], dtype=np.int64).reshape(-1, dim)
    w = np.asarray([a[dim] for a in atoms], dtype=np.float64)
    return DiscreteMeasure(dim, data["N"], idx, w,
                           constructor=data.get("constructor", {}),
                           seed=data.get("seed"), info=data.get("info", {}))


def save_measure(mu: DiscreteMeasure, path: str) -> None:
    atomic_write_text(path, json.dumps(measure_to_dict(mu), indent=2, sort_keys=True) + "\n")


def load_measure(path: str) -> DiscreteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))
