import json
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import restrictlab
from restrictlab import probe
from restrictlab.measures import DiscreteMeasure, cantor, circle, dirac, random_flat, uniform
from restrictlab.probe import (
    ExtensionOperator,
    ProbeOptions,
    classify_slope,
    growth_exponent,
    restriction_norm,
    sweep,
)
from restrictlab.rationals import INF, conjugate
from restrictlab.spectral import DIRECT_CHUNK_ENTRIES, lp_norm

from oracles import (
    gram_by_circulant_ffts,
    lattice_phase_matrix,
    phase_power_extremal,
    phase_power_measure,
    serial_restriction_norm,
)


def random_measure(seed, N=1024, max_atoms=64, dim=1):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, max_atoms + 1))
    flat = np.sort(rng.choice(N**dim, size=m, replace=False))
    w = rng.random(m)
    return DiscreteMeasure(dim, N, np.array(np.unravel_index(flat, (N,) * dim)).T, w / w.sum())


def _dense(op):
    """The operator's L x m matrix, from the oracle."""
    return lattice_phase_matrix(op.mu.indices, op.mu.N, op.X)


def svd_norm(op):
    scaled = np.sqrt(op.weights)[:, None] * _dense(op).conj().T
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def test_operator_shape_and_modulus():
    # side 17 is read as a (3, 8) array: S = 8 is the least power of two
    # with S^2 >= 17
    mu = random_measure(0, max_atoms=16)
    op = ExtensionOperator(mu, 8)
    assert op._split == (3, 8)
    outer, inner = op._tables
    assert outer.shape == (3, mu.num_atoms) and inner.shape == (8, mu.num_atoms)
    for table in (outer, inner):
        assert np.allclose(np.abs(table), 1.0, atol=1e-14)


def test_operator_budget(monkeypatch):
    # the budget bounds what a dense product holds at once: the two phase
    # tables, (17 + 64) x 32 entries at side 1025, and a (17, 32) partial
    # product for each row it takes at once; it takes as many rows as fit
    mu = cantor(4, {0, 3}, 5)
    op = ExtensionOperator(mu, 512)
    assert op._split == (17, 64)
    for budget, rows in ((3_136, 1), (3_679, 1), (3_680, 2), (8_388_608, 9)):
        monkeypatch.setattr(probe, "MAX_DENSE_ENTRIES", budget)
        assert op._dense_tables(9)[2] == rows
    # one row needs (17 + 64 + 17) x 32 = 3136 entries; the budget is
    # checked before the tables are built
    monkeypatch.setattr(probe, "MAX_DENSE_ENTRIES", 3_135)
    op = ExtensionOperator(mu, 512)
    with pytest.raises(MemoryError, match="MAX_DENSE_ENTRIES"):
        op.restrict(np.ones((1, op.lattice_size)))
    with pytest.raises(MemoryError, match="MAX_DENSE_ENTRIES"):
        op.extend(np.ones((1, op.num_atoms)))
    with pytest.raises(MemoryError, match="MAX_DENSE_ENTRIES"):
        restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2))
    # a q = 2 probe on the same operator runs without the tables; a lattice
    # delta certifies 1, and this sparse measure's norm is well above it
    # (1.66 after 20 iterations), so the bound is strict without resting on
    # the last bits of the iterates
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=2, max_iters=20))
    assert res.norm_lower_bound > 1.0
    assert "_tables" not in op.__dict__


@pytest.mark.parametrize("dim, N, X, per_atom", [(1, 4096, 1, 8), (1, 4096, 5, 11), (2, 64, 1, 9)],
                         ids=["1d-X1", "1d-X5", "2d-X1"])
def test_dense_probe_at_small_X_with_many_atoms_runs_in_row_chunks(monkeypatch, dim, N, X, per_atom):
    # at small X the tables outweigh what they factor, (T + S) m against
    # L m, so a product takes the rows the budget leaves room for: at L
    # entries per atom, the size of the matrix, one row at a time at X = 5
    # in 1-D, (3, 4), and X = 1 in 2-D, (3, 3); at 8, the 2^23 budget over
    # 2^20 atoms, two at a time at side 3, (2, 2); the probe's values are
    # those of the whole block
    op = ExtensionOperator(uniform(dim, N), X)
    assert not op.grid_fft
    options = ProbeOptions(max_iters=30)
    ref = restriction_norm(op, Fraction(4, 3), 4, options)
    monkeypatch.setattr(probe, "MAX_DENSE_ENTRIES", per_atom * op.num_atoms)
    assert op._dense_tables(8)[2] == (2 if per_atom == 8 else 1)
    res = restriction_norm(op, Fraction(4, 3), 4, options)
    assert res.norm_lower_bound == pytest.approx(ref.norm_lower_bound, rel=1e-12)


def test_operator_dim2():
    mu = dirac(2, 64, (3, 4))
    op = ExtensionOperator(mu, 4)
    assert op._split == (9, 9)
    assert [table.shape for table in op._tables] == [(9, 1), (9, 1)]
    f = np.zeros(81, dtype=complex)
    f[0] = 1.0  # lattice point (-4, -4)
    u = op.restrict(f[None])[0]
    expected = np.exp(-2j * np.pi * (-4 * 3 / 64 + -4 * 4 / 64))
    assert abs(u[0] - expected) < 1e-12
    rng = np.random.default_rng(3)
    idx = np.stack(np.unravel_index(rng.choice(64 * 64, 7, replace=False), (64, 64)), axis=1)
    mu = DiscreteMeasure(2, 64, idx, np.full(7, 1 / 7))
    op = ExtensionOperator(mu, 3)
    F = rng.standard_normal((49, 2)) + 1j * rng.standard_normal((49, 2))
    G = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    dense = lattice_phase_matrix(mu.indices, 64, 3)
    assert np.max(np.abs(op.restrict(F.T).T - dense.conj().T @ F)) < 1e-12
    assert np.max(np.abs(op.extend(G.T).T - dense @ (op.weights[:, None] * G))) < 1e-12


def _fine_2d_measure():
    # N = 2^19 in 2-D: the roots table is split, and no grid is ever built
    rng = np.random.default_rng(19)
    flat = np.sort(rng.choice(2**38, size=40, replace=False))
    return DiscreteMeasure(2, 2**19, np.array(np.unravel_index(flat, (2**19,) * 2)).T,
                           np.full(40, 1 / 40))


@pytest.mark.parametrize("mu, X", [(random_flat(4096, 185, seed=5), 512), (cantor(4, {0, 3}, 12), 8),
                                   (circle(128, 0.25), 16), (_fine_2d_measure(), 6)],
                         ids=["1d-X512", "1d-split", "2d", "2d-split"])
def test_entries_are_read_at_the_exact_phase(mu, X):
    # <x, j> mod N is an exact integer, so every table entry is within 8 eps
    # of exp(2 pi i (<x, j> mod N) / N) at any X (np.exp of the float phase
    # <x, j> / N was off by up to 3.5e-13 at X = 512), and the roots table
    # never takes O(N) memory on a fine grid
    op = ExtensionOperator(mu, X)
    (T, S), L, m, eps = op._split, op.lattice_size, mu.num_atoms, np.finfo(float).eps
    outer, inner = op._tables
    # the rows of each table: the two axes in 2-D, S b and a - X in 1-D
    if mu.dim == 2:
        rows = [(np.arange(-X, X + 1), mu.indices[:, axis]) for axis in (0, 1)]
    else:
        rows = [(S * np.arange(T), mu.indices[:, 0]), (np.arange(S) - X, mu.indices[:, 0])]
    for table, (x, j) in zip((outer, inner), rows):
        assert np.abs(table - np.exp(2j * np.pi * (np.multiply.outer(x, j) % mu.N) / mu.N)).max() <= 8 * eps
    # entry [t S + s] of the (T, S) array is outer[t] inner[s]
    exact = lattice_phase_matrix(mu.indices, mu.N, X)
    assert np.abs((outer[:, None] * inner).reshape(T * S, m)[:L] - exact).max() <= 17 * eps
    assert max(t.size for t in op._roots[:2]) <= DIRECT_CHUNK_ENTRIES
    # the witness sum against the exact product: L terms of unit modulus
    rng = np.random.default_rng(X)
    f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    assert np.abs(op._direct_restrict(f) - exact.conj().T @ f).max() <= L * eps * np.abs(f).sum()


def test_restriction_is_fourier_at_atoms():
    mu = random_measure(5, max_atoms=12)
    op = ExtensionOperator(mu, 6)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    u = op.restrict(f[None])[0]
    xs = np.arange(-6, 7)
    for j, (pos,) in enumerate(mu.positions()):
        direct = np.sum(f * np.exp(-2j * np.pi * xs * pos))
        assert abs(u[j] - direct) < 1e-12


def test_norm_p1_is_exactly_one():
    for seed in (1, 2):
        mu = random_measure(seed)
        op = ExtensionOperator(mu, 32)
        for q in (1, 2, INF):
            res = restriction_norm(op, 1, q, ProbeOptions(restarts=2, seed=seed))
            assert abs(res.norm_lower_bound - 1.0) <= 1e-12


def test_22_matches_svd():
    for seed in range(5):
        mu = random_measure(seed, max_atoms=48)
        op = ExtensionOperator(mu, 24)
        res = restriction_norm(op, 2, 2, ProbeOptions(restarts=6, max_iters=3000,
                                                      tol=1e-12, seed=seed))
        assert res.norm_lower_bound == pytest.approx(svd_norm(op), abs=1e-8, rel=1e-8)


def test_duality_at_22_shared_singular_values():
    # ||R||_{l2 -> L2(mu)} equals ||E||_{L2(mu) -> l2}
    mu = random_measure(7, max_atoms=32)
    op = ExtensionOperator(mu, 16)
    r_side = np.sqrt(op.weights)[:, None] * _dense(op).conj().T
    e_side = _dense(op) * (op.weights / np.sqrt(op.weights))[None, :]
    s1 = np.linalg.svd(r_side, compute_uv=False)[0]
    s2 = np.linalg.svd(e_side, compute_uv=False)[0]
    assert s1 == pytest.approx(s2, rel=1e-10)


def test_dirac_closed_form_norms():
    mu = dirac(1, 256, 3)
    for X in (8, 32):
        op = ExtensionOperator(mu, X)
        for p in (Fraction(4, 3), 2, Fraction(8, 5)):
            res = restriction_norm(op, p, 2, ProbeOptions(restarts=2, seed=0))
            pprime = float(p / (p - 1))
            assert res.norm_lower_bound == pytest.approx(
                (2 * X + 1) ** (1 / pprime), rel=1e-9)


def test_witness_certificate():
    mu = random_measure(3)
    op = ExtensionOperator(mu, 16)
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=3))
    ratio = lp_norm(op.restrict(res.witness[None])[0], 2, op.weights) / lp_norm(
        res.witness, Fraction(4, 3))
    assert ratio == pytest.approx(res.norm_lower_bound, abs=1e-10)


def test_out_of_range_settings_raise_value_error():
    # the CLI parser rejects these flags; library callers get the same ranges
    for kwargs, message in (({"seed": -1}, "seed must be >= 0"),
                            ({"restarts": 0}, "restarts must be >= 1"),
                            ({"max_iters": 0}, "max_iters must be >= 1"),
                            ({"tol": -1.0}, "tol must be finite and >= 0"),
                            ({"tol": float("nan")}, "tol must be finite and >= 0")):
        with pytest.raises(ValueError, match=message):
            ProbeOptions(**kwargs)
    with pytest.raises(ValueError, match="threads must be >= 1, got 0"):
        sweep(dirac(1, 64, 0), [2], [2], [2, 4, 8, 16], threads=0)
    # the operator checks X when it is built, before any product
    for X in (0, -1):
        with pytest.raises(ValueError, match="X must be >= 1"):
            ExtensionOperator(dirac(1, 64, 0), X)


def test_growth_requires_geometric_series():
    mu = dirac(1, 256, 0)
    with pytest.raises(ValueError):
        growth_exponent(mu, 2, 2, [8, 16, 32])
    with pytest.raises(ValueError):
        growth_exponent(mu, 2, 2, [8, 16, 24, 32])


def test_dirac_growth_slopes():
    mu = dirac(1, 4096, 17)
    X_list = [16, 32, 64, 128]
    for p, expected in ((1, 0.0), (Fraction(4, 3), 0.25), (2, 0.5)):
        g = growth_exponent(mu, p, 2, X_list, ProbeOptions(restarts=2, seed=0))
        assert g.slope == pytest.approx(expected, abs=0.02)
        assert all(g.norms[i] <= g.norms[i + 1] + 1e-12 for i in range(3))
        if p == 1:
            assert abs(g.slope) <= 1e-12  # norm is identically 1


def test_q_infinity_norms():
    mu = dirac(1, 256, 9)
    op = ExtensionOperator(mu, 16)
    res = restriction_norm(op, Fraction(4, 3), INF, ProbeOptions(restarts=2, seed=2))
    assert res.norm_lower_bound == pytest.approx(33.0**0.25, rel=1e-9)
    flat = random_flat(256, 16, seed=5)
    op2 = ExtensionOperator(flat, 8)
    res2 = restriction_norm(op2, 1, INF, ProbeOptions(restarts=2, seed=2))
    assert res2.norm_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_p_infinity_dirac():
    # phase-aligned unit-modulus witness saturates: norm = 2X+1
    mu = dirac(1, 256, 31)
    op = ExtensionOperator(mu, 10)
    res = restriction_norm(op, INF, 2, ProbeOptions(restarts=2, seed=4))
    assert res.norm_lower_bound == pytest.approx(21.0, rel=1e-9)


def test_uniform_22_is_flat():
    mu = uniform(1, 512)
    g = growth_exponent(mu, 2, 2, [8, 16, 32, 64], ProbeOptions(restarts=3, seed=1))
    assert abs(g.slope) <= 0.05


def test_classify_slope_thresholds():
    assert classify_slope(0.01) == "bounded"
    assert classify_slope(0.2) == "growing"
    assert classify_slope(0.07) == "inconclusive"


def test_sweep_p1_column_bounded_and_overlays():
    mu = random_flat(512, 24, seed=14)
    grid = sweep(mu, [Fraction(1)], [Fraction(2), Fraction(4)], [8, 16, 32, 64],
                 n=2, r=INF, options=ProbeOptions(restarts=2, seed=14))
    for cell in grid.cells:
        assert cell.classification == "bounded"
        assert abs(cell.slope) <= 1e-6
        assert cell.in_knapp_region  # p' = inf
    # overlays: q=2 is the endpoint at p=1 (q_max = inf), both inside theorem
    assert all(c.in_theorem_region for c in grid.cells)


def test_sweep_deterministic_across_threads():
    mu = random_flat(512, 24, seed=15)
    kwargs = dict(p_grid=[Fraction(4, 3), Fraction(3, 2)], q_grid=[Fraction(2)],
                  X_list=[8, 16, 32, 64], n=2, r=INF,
                  options=ProbeOptions(restarts=2, seed=15))
    rows1 = sweep(mu, threads=1, **kwargs).to_rows()
    rows2 = sweep(mu, threads=4, **kwargs).to_rows()
    assert rows1 == rows2


def test_threaded_sweep_reports_progress_per_cell(monkeypatch):
    # the second cell finishes only after progress for the first has fired;
    # the timeout makes a late report fail the test instead of hanging it
    first_reported = threading.Event()
    waited = []

    def stub_growth(mu, p, q, X_list, options, operators=None):
        if q == 3:
            waited.append(first_reported.wait(timeout=5.0))
        return SimpleNamespace(norms=[1.0] * len(X_list), slope=0.0,
                               fit=SimpleNamespace(residual=0.0))

    def progress(cell):
        if cell.q == 2:
            first_reported.set()

    monkeypatch.setattr(probe, "growth_exponent", stub_growth)
    grid = sweep(dirac(1, 64, 0), [2], [2, 3], [1, 2, 4, 8], threads=2, progress=progress)
    assert waited == [True]
    assert [c.q for c in grid.cells] == [2, 3]


def test_probe_seed_reproducibility():
    mu = random_measure(9)
    op = ExtensionOperator(mu, 16)
    a = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=42))
    b = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=42))
    assert a.norm_lower_bound == b.norm_lower_bound
    assert np.array_equal(a.witness, b.witness)


def test_restrict_is_the_adjoint_without_copying_the_operator():
    # 1-D 129 x 32 and 2-D 289 x 98; the products hold the phase tables and
    # a (k, T, m) partial product, never an L x m array
    for mu, X in ((random_flat(512, 32, seed=4), 64), (circle(64, 0.25), 8)):
        op = ExtensionOperator(mu, X)
        (T, S), L, m = op._split, op.lattice_size, op.num_atoms
        dense = _dense(op)
        rng = np.random.default_rng(X)
        f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        block = rng.standard_normal((L, 5)) + 1j * rng.standard_normal((L, 5))
        for F in (f[:, None], block[:, :1], block):
            # a block is a GEMM by rows, so its bits differ from this
            # product's; bound the difference by the dot-product round-off
            # of L terms against unit-modulus entries
            tol = L * np.finfo(float).eps * np.abs(F).sum(axis=0)
            assert (np.abs(op.restrict(F.T).T - dense.conj().T @ F) <= tol).all()
        for arg in (f[None], block[:, :1].T, block.T):
            tracemalloc.start()
            try:
                op.restrict(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # k rows, all at once, hold their padded (T, S) input, a (T, m)
            # partial product and m outputs each: 0.11 of L m at k = 1 and
            # 0.56 at k = 5 in 1-D (m = 32), so an L x m copy would not fit
            k = len(arg)
            held = 16 * k * (T * S + T * m + m)
            assert held * 3 / 2 < dense.nbytes and peak < held * 3 / 2, (arg.shape, peak, held)


@pytest.mark.parametrize("mu, X, split", [
    (random_flat(4096, 185, seed=5), 1, (2, 2)),     # side 3, the smallest lattice
    (random_flat(4096, 185, seed=5), 64, (9, 16)),   # side 129 = 8 S + 1
    (cantor(4, {0, 3}, 8), 512, (17, 64)),           # side 1025 = 16 S + 1, N = 65536
    (dirac(1, 4096, 17), 40, (6, 16)),               # one atom; side 81 = 5 S + 1
    (circle(64, 0.25), 8, (17, 17)),
    (dirac(2, 64, (3, 4)), 3, (7, 7))],
    ids=["side3", "flat-X64", "cantor8-X512", "dirac-1d", "circle64-X8", "dirac-2d"])
def test_dense_products_match_the_oracle_matrix(mu, X, split):
    # every entry is read within 17 eps of exact and each output sums L or m
    # terms: bound each column's difference by L eps times its input's l^1 norm
    op = ExtensionOperator(mu, X)
    assert not op.grid_fft and op._split == split
    L, m, eps = op.lattice_size, op.num_atoms, np.finfo(float).eps
    dense = _dense(op)
    rng = np.random.default_rng(X)
    for k in (1, 2, 9):
        F = rng.standard_normal((L, k)) + 1j * rng.standard_normal((L, k))
        G = op.weights[:, None] * (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k)))
        for got, want, inputs in ((op.restrict(F.T).T, dense.conj().T @ F, F),
                                  (op.extend((G / op.weights[:, None]).T).T, dense @ G, G)):
            assert got.shape == want.shape
            assert (np.abs(got - want) <= L * eps * np.abs(inputs).sum(axis=0)).all(), (k, np.abs(got - want).max())


def test_dense_products_hold_a_fraction_of_the_matrix(monkeypatch):
    # cantor(4, {0, 3}, 8) at X = 512 is 1025 x 256, read as a (17, 64)
    # array: a product takes c rows at a time, each with a (17, 256) partial
    # product and a padded (17, 64) input or output, and holds k rows of
    # input, output and weights besides; numpy's broadcast multiply in
    # extend adds one ufunc buffer of 8192 entries
    op = ExtensionOperator(cantor(4, {0, 3}, 8), 512)
    (T, S), L, m = op._split, op.lattice_size, op.num_atoms
    op._tables  # built once per operator, as the matrix was
    rng = np.random.default_rng(8)
    # the default budget takes all k rows at once, and below L m / 8 up to
    # k = 2; one row at a time, k = 9 rows stay below it too
    for budget, cases in ((probe.MAX_DENSE_ENTRIES, ((1, 1), (2, 1), (9, 2))),
                          ((2 * T + S) * m, ((9, 1),))):
        monkeypatch.setattr(probe, "MAX_DENSE_ENTRIES", budget)
        for k, eighths in cases:
            c = op._dense_tables(k)[2]
            held = 16 * (c * T * (S + m) + k * (m + T * S)) + 16 * 8192
            F = rng.standard_normal((k, L)) + 1j * rng.standard_normal((k, L))
            G = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
            for apply, arg in ((op.restrict, F), (op.extend, G)):
                tracemalloc.start()
                try:
                    apply(arg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < held * 5 / 4, (k, c, apply.__name__, peak, held)
                assert peak < L * m * 16 * eighths / 8, (k, c, apply.__name__, peak)


def test_extend_takes_a_vector_as_one_column():
    # the vector is the one row of a (1, m) block
    op = ExtensionOperator(random_measure(13), 16)
    rng = np.random.default_rng(13)
    g = rng.standard_normal(op.num_atoms) + 1j * rng.standard_normal(op.num_atoms)
    out = op.extend(g[None])[0]
    assert out.shape == (op.lattice_size,)
    assert np.allclose(out, _dense(op) @ (op.weights * g), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(restarts=-3), dict(max_iters=0),
                                    dict(tol=-1.0), dict(tol=float("nan")),
                                    dict(tol=float("inf")), dict(seed=-7)])
def test_probe_options_reject_out_of_range(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        ProbeOptions(**kwargs)


@pytest.mark.parametrize("threads", [0, -2])
def test_sweep_rejects_threads_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        sweep(dirac(1, 64, 0), [2], [2], [1, 2, 4, 8], threads=threads)


def test_per_start_diagnostics():
    mu = random_measure(11)
    op = ExtensionOperator(mu, 16)
    res = restriction_norm(op, 2, 2)
    assert len(res.iterations) == len(res.converged) == res.restarts_used == 8
    assert all(res.converged)
    assert all(1 <= n <= ProbeOptions().max_iters for n in res.iterations)
    assert 0 <= res.best_start < res.restarts_used
    d = res.as_dict()
    assert (d["iterations"], d["converged"], d["best_start"]) == (
        res.iterations, res.converged, res.best_start)

    warm = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=2, max_iters=1),
                            warm_starts=[res.witness])
    assert warm.restarts_used == 3  # two random starts, then the warm one
    assert warm.iterations == [1, 1, 1]
    assert not any(warm.converged)


def _at_blas_threads(code, threads):
    """Run code in a child process at the given OpenBLAS thread count; returns its stdout."""
    src = os.path.dirname(os.path.dirname(restrictlab.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _at_one_blas_thread(code):
    """Run code in a child process pinned to one OpenBLAS thread.

    At two OpenBLAS threads a GEMM row of a 129 x 185 operator can depend
    on the block width, so checks that need a start's bits to be the same in
    any block run here, whatever thread count the suite itself runs with.
    """
    _at_blas_threads(code, 1)


def test_best_start_is_the_start_that_reached_the_bound():
    # restarts=k reproduces the first k starts of a larger run bit for bit,
    # so the best start alone reaches the same bound
    _at_one_blas_thread("""
        from fractions import Fraction
        import numpy as np
        from restrictlab.measures import DiscreteMeasure
        from restrictlab.probe import ExtensionOperator, ProbeOptions, restriction_norm
        rng = np.random.default_rng(12)  # random_measure(12)
        m = int(rng.integers(8, 65))
        idx = rng.choice(1024, size=m, replace=False).reshape(-1, 1)
        w = rng.random(m)
        op = ExtensionOperator(DiscreteMeasure(1, 1024, np.sort(idx, axis=0), w / w.sum()), 16)
        p, q = Fraction(4, 3), 4
        full = restriction_norm(op, p, q, ProbeOptions(restarts=8, seed=12))
        for k in range(1, 9):
            res = restriction_norm(op, p, q, ProbeOptions(restarts=k, seed=12))
            assert res.iterations == full.iterations[:k], k
            assert res.converged == full.converged[:k], k
            assert res.final_change == full.final_change[:k], k
            assert res.trace == full.trace[:len(res.trace)], k
            if k == full.best_start + 1:
                assert res.norm_lower_bound == full.norm_lower_bound
                assert res.best_start == full.best_start
        """)


def test_per_start_final_change():
    mu = random_measure(11)
    op = ExtensionOperator(mu, 16)
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=11))
    assert len(res.final_change) == res.restarts_used
    tol = ProbeOptions().tol
    for n, ok, change in zip(res.iterations, res.converged, res.final_change):
        assert n >= 2 and change is not None
        # the stopping test fires exactly when the last change is below tol
        assert ok == (change < tol)
    assert res.as_dict()["final_change"] == res.final_change
    one = restriction_norm(op, 2, 2, ProbeOptions(restarts=2, max_iters=1))
    assert one.final_change == [None, None]


def test_per_start_final_value(monkeypatch):
    values = []
    real = probe._gram_step

    def recording(op, f, *args):
        val, h = real(op, f, *args)
        values.append(val.tolist())
        return val, h

    monkeypatch.setattr(probe, "_gram_step", recording)
    op = ExtensionOperator(random_measure(11), 16)
    # at tol = 0 a start stops only when round-off lowers its value, so its
    # final value lies below its best
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=3, seed=11, tol=0.0),
                           warm_starts=[np.zeros(op.lattice_size)])
    # a start runs its first iterations[s] steps and then leaves the block,
    # whose rows stay in start order, so each call's values split by start
    history = [[] for _ in res.iterations]
    for step, vals in enumerate(values):
        live = [s for s, n in enumerate(res.iterations) if n > step]
        assert len(live) == len(vals)
        for s, v in zip(live, vals):
            history[s].append(v)
    assert res.final_value == [h[-1] if h else None for h in history]
    assert any(h[-1] < max(h) for h in history if h)
    assert res.final_value[-1] is None  # the zero start never ran
    best = max(history[res.best_start])
    assert all(best >= v for v in res.final_value if v is not None)
    assert res.as_dict()["final_value"] == res.final_value


@pytest.mark.parametrize("mu, X, q", [
    (random_measure(31, max_atoms=24), 16, 2), (circle(64, 0.25), 8, 2),
    (circle(16, 0.25), 6, 2),
    (random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), 512, 4)],
    ids=["gram-1d", "gram-2d", "gram-grid", "fft-grid"])
def test_restarts_k_reproduces_the_first_k_starts(mu, X, q):
    # neither the Gram products (on either route) nor the FFT-grid products
    # take a BLAS call, and every row-wise step reduces each row on its own,
    # so a start's bits do not depend on the starts that share its block
    op = ExtensionOperator(mu, X)
    assert op.gram_grid == (X == 6) and (q == 2 or op.grid_fft)
    for p in (Fraction(4, 3), Fraction(8, 5), 4):
        full = restriction_norm(op, p, q, ProbeOptions(restarts=8, seed=12))
        for k in range(1, 8):
            res = restriction_norm(op, p, q, ProbeOptions(restarts=k, seed=12))
            case = (p, k)
            assert res.iterations == full.iterations[:k], case
            assert res.converged == full.converged[:k], case
            assert res.final_change == full.final_change[:k], case
            assert res.final_value == full.final_value[:k], case
            assert res.trace == full.trace[:len(res.trace)], case
            if k == full.best_start + 1:
                assert res.norm_lower_bound == full.norm_lower_bound, case
                assert res.best_start == full.best_start, case


def _with_exact_zeros(rng, shape):
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    z[rng.random(shape) < 0.2] = 0.0
    return z


def _unit_peak(g):
    """Rows scaled to largest modulus 1; dual elements are scale-free."""
    return g / np.abs(g).max(axis=1, keepdims=True)


@pytest.mark.parametrize("p", [Fraction(4, 3), Fraction(8, 5), 2, 3, 4])
def test_lattice_extremal_matches_phase_power_oracle(p):
    # past p = 2 the power (p' - 2)/2 is negative (p = 4 has p' = 4/3), so an
    # exact zero needs its guard: filterwarnings = error fails a 0 ** e warning
    pulled = _with_exact_zeros(np.random.default_rng(41), (5, 257))
    f = probe._lattice_extremal(pulled, float(p), float(conjugate(p)))
    np.testing.assert_allclose(f, phase_power_extremal(pulled, float(p)), rtol=1e-13, atol=0)
    assert not f[pulled == 0].any()


@pytest.mark.parametrize("q", [Fraction(3, 2), 2, 3, 4])
def test_measure_step_matches_phase_power_oracle(q):
    # q = 3/2 takes the negative power (q - 2)/2 = -1/4; row 1 vanished and
    # keeps the dual element 1
    rng = np.random.default_rng(43)
    u = _with_exact_zeros(rng, (4, 97))
    u[1] = 0.0
    weights = rng.random(97)
    weights /= weights.sum()
    norms, duals = phase_power_measure(u, weights, float(q))
    val, g = probe._measure_step(u.copy(), weights, float(q))
    np.testing.assert_allclose(val, norms, rtol=1e-13, atol=0)
    np.testing.assert_allclose(_unit_peak(g), _unit_peak(duals), rtol=1e-13, atol=0)
    assert val[1] == 0.0 and (g[1] == 1.0).all()


def test_gram_step_value_is_the_quadratic_form():
    # on the M-grid and on the N-grid
    for mu, X, gram_grid in ((random_measure(31, max_atoms=24), 16, False), (circle(16, 0.25), 6, True)):
        op = ExtensionOperator(mu, X)
        assert op.gram_grid == gram_grid
        f = _with_exact_zeros(np.random.default_rng(47), (3, op.lattice_size))
        h = op.gram(f, work=op._gram_workspace(3)).copy()
        # bound = 0 takes the path that tests no row, bound = inf the per-row noise test
        for bound in (0.0, np.inf):
            val, pulled = probe._gram_step(op, f, op._gram_workspace(3), bound)
            np.testing.assert_allclose(val, np.sqrt(np.sum((np.conj(f) * h).real, axis=1)), rtol=1e-13, atol=0)
            assert np.array_equal(pulled, h)


def _without_roundoff_steps(trace):
    """The trace without the values that the next one passes only by round-off."""
    return [v for v, nxt in zip(trace, trace[1:] + [np.inf]) if nxt > v * (1 + 1e-12)]


def _oracle_starts(op, p, q, options, warm):
    starts = []
    for i in range(options.restarts):
        rng = probe.probe_seed(options.seed, p, q, op.X, i)
        starts.append(rng.standard_normal(op.lattice_size)
                      + 1j * rng.standard_normal(op.lattice_size))
    return starts + warm


@pytest.mark.parametrize("mu, X, grid_fft", [
    (random_measure(21, max_atoms=24), 16, False), (circle(64, 0.25), 4, False),
    (random_measure(21, N=64, max_atoms=48), 31, True),
    (random_measure(21, N=16, max_atoms=64, dim=2), 7, True)],
    ids=["1d", "2d", "1d-fft", "2d-fft"])
def test_block_engine_matches_serial_oracle(mu, X, grid_fft):
    op = ExtensionOperator(mu, X)
    assert op.grid_fft == grid_fft
    rng = np.random.default_rng(21)
    warm = [rng.standard_normal(op.lattice_size), np.zeros(op.lattice_size)]
    options = ProbeOptions(restarts=3, seed=21)
    # p = 8/5 and q = 3/2 take fractional powers p' - 1 = 5/3 and q - 1 = 1/2
    for p in (1, Fraction(4, 3), Fraction(8, 5), 2, INF):
        for q in (Fraction(4, 3), Fraction(3, 2), 2, 4, INF):
            res = restriction_norm(op, p, q, options, warm_starts=warm)
            ref = serial_restriction_norm(_dense(op), op.weights, float(p), float(q),
                                          _oracle_starts(op, p, q, options, warm),
                                          options.max_iters, options.tol)
            case = (p, q)
            assert res.norm_lower_bound == pytest.approx(ref["norm"], rel=1e-12, abs=0), case
            assert res.iterations == ref["iterations"], case
            assert res.converged == ref["converged"], case
            assert res.iterations[-1] == 0 and not res.converged[-1]  # the zero start
            assert _without_roundoff_steps(res.trace) == pytest.approx(
                _without_roundoff_steps(ref["trace"]), rel=1e-12, abs=0), case
            if res.best_start != ref["best_start"]:
                # starts whose best values tie to round-off (at p = 1 every
                # start reaches the norm 1 at once); the chosen one must be
                # such a tie in the reference run
                top = ref["start_best"][ref["best_start"]]
                assert ref["start_best"][res.best_start] == pytest.approx(
                    top, rel=1e-12, abs=0), case


def test_block_columns_do_not_depend_on_the_block_at_one_blas_thread():
    _at_one_blas_thread("""
        import numpy as np
        from restrictlab.measures import DiscreteMeasure, cantor
        from restrictlab import probe
        from restrictlab.probe import ExtensionOperator
        rng = np.random.default_rng(5)
        idx = np.sort(rng.choice(4096, size=185, replace=False)).reshape(-1, 1)
        # the sweep's X = 64 operator and cantor(4, {0, 3}, 8) at X = 512,
        # whose one-row products are GEMMs of 17 rows
        for op in (ExtensionOperator(DiscreteMeasure(1, 4096, idx, np.full(185, 1 / 185)), 64),
                   ExtensionOperator(cantor(4, {0, 3}, 8), 512)):
            L, m = op.lattice_size, op.num_atoms
            F = rng.standard_normal((L, 9)) + 1j * rng.standard_normal((L, 9))
            G = rng.standard_normal((m, 9)) + 1j * rng.standard_normal((m, 9))
            for apply, block in ((op.restrict, F.T), (op.extend, G.T)):
                alone = [apply(block[j:j + 1]) for j in range(9)]
                for lo in range(9):
                    for hi in range(lo + 1, 10):
                        out = apply(block[lo:hi])
                        for j in range(lo, hi):
                            assert np.array_equal(out[j - lo:j - lo + 1], alone[j]), (L, lo, hi, j)
                # a budget that takes 2 rows at a time leaves every row's bits as they are
                (T, S), budget = op._split, probe.MAX_DENSE_ENTRIES
                probe.MAX_DENSE_ENTRIES = (3 * T + S) * m
                assert op._dense_tables(9)[2] == 2
                assert np.array_equal(apply(block), np.vstack(alone)), L
                probe.MAX_DENSE_ENTRIES = budget
        """)


def _gram_cases():
    # (measure, X, gram_grid).  M-grid: fourier's grid route (2X <= N/2 and
    # 2X > N/2), its direct route (N > (4X + 1) m, 1-D only), and a lattice
    # wider than the N-grid (2X + 1 > N), in 1-D and 2-D; in 1-D M = 4X, with
    # its corner term, at X = 8, 16 and 20, and M > 4X at X = 7 and 11.
    # N-grid: N below the fast size of 4X in 1-D, and in 2-D a small grid,
    # the benchmark's circle(128) at X = 32 and one atom
    return [(random_measure(31, max_atoms=24), 16, False), (random_measure(31, max_atoms=24), 8, False),
            (random_measure(31, max_atoms=24), 7, False), (random_flat(4096, 185, seed=5), 16, False),
            (random_flat(4096, 185, seed=5), 11, False),
            (random_flat(32, 9, seed=32), 20, False), (circle(64, 0.25), 8, False),
            (circle(16, 0.25), 10, False),
            (random_flat(64, 12, seed=31), 20, True), (circle(16, 0.25), 6, True),
            (circle(128, 0.25), 32, True), (dirac(2, 16, (0, 0)), 2, True)]


def test_gram_product_is_extend_of_restrict():
    for mu, X, gram_grid in _gram_cases():
        op = ExtensionOperator(mu, X)
        assert op.gram_grid == gram_grid, (mu.N, X)
        rng = np.random.default_rng(X)
        F = rng.standard_normal((op.lattice_size, 5)) + 1j * rng.standard_normal((op.lattice_size, 5))
        dense = op.extend(op.restrict(F.T)).T
        gram = op.gram(F.T, work=op._gram_workspace(5)).T
        assert gram.shape == dense.shape
        if gram_grid:
            # the grid round trip itself, each half in a fresh workspace
            u = op._grid_restrict(F.T, op._grid_workspace(5)) * op.weights
            assert np.array_equal(gram, op._grid_extend(u, op._grid_workspace(5)).T), (mu.N, X)
            assert op._gram_kernel[0] is None  # no kernel is built
        else:
            # np.fft's padding and the in-place transforms give the bits of fresh zero-padded arrays
            assert (op._gram_kernel[3] is not None) == (op.M == 4 * X), (mu.N, X)
            oracle = gram_by_circulant_ffts(op._gram_kernel[0], op._gram_kernel[3], F.T, X, mu.dim)
            assert np.array_equal(gram, oracle.T), (mu.N, X)
        assert np.abs(gram - dense).max() <= 1e-12 * np.abs(dense).max(), (mu.N, X)
        # extend(1), the pull-back of a vanished start, is the kernel on [-X, X]^dim
        extend_one = op._gram_kernel[1]
        assert np.abs(extend_one - op.extend(np.ones((1, op.num_atoms)))[0]).max() <= 1e-12, (mu.N, X)


@pytest.mark.parametrize("mu, X", [(random_measure(31, max_atoms=24), 16), (random_flat(32, 9, seed=32), 20)],
                         ids=["1d", "wide-1d"])
def test_gram_corner_term_mends_the_shared_slot(mu, X):
    # at M = 4X the differences -2X and 2X share one slot, which holds
    # K(2X); f at x = X alone reads K(-2X) at x = -X, and f at x = -X alone
    # reads K(2X) at x = X, so a dropped, misplaced or sign-flipped corner
    # term fails the first row or the second
    op = ExtensionOperator(mu, X)
    assert not op.gram_grid and op.M == 4 * X
    corner = op._gram_kernel[3]
    assert abs(corner) > 0.01  # and every |K| <= 1, so the tolerance below is far under it
    F = np.zeros((2, op.lattice_size), dtype=np.complex128)
    F[0, -1], F[1, 0] = 0.6 - 0.8j, 1.0
    dense = op.extend(op.restrict(F))
    gram = op.gram(F, work=op._gram_workspace(2))
    assert np.abs(gram - dense).max() <= 1e-12 * np.abs(dense).max()


def test_one_roots_table_per_grid():
    # two operators of one measure read the same table, which no product
    # may write; a different N gets its own
    mu = random_flat(4096, 185, seed=5)
    first, second = ExtensionOperator(mu, 16)._roots, ExtensionOperator(mu, 64)._roots
    assert first is second
    assert all(not table.flags.writeable for table in first[:2])
    with pytest.raises(ValueError):
        first[0][0] = 0
    other = ExtensionOperator(random_flat(64, 12, seed=31), 4)._roots
    assert other is not first and len(other[0]) == 64


def test_gram_rows_do_not_depend_on_the_block():
    # FFTs transform each line on its own, with no BLAS call, so this holds
    # at any BLAS thread count, on either route
    for mu, X, gram_grid in ((random_flat(4096, 185, seed=5), 64, False), (circle(64, 0.25), 8, False),
                             (circle(128, 0.25), 32, True)):
        op = ExtensionOperator(mu, X)
        assert op.gram_grid == gram_grid, X
        rng = np.random.default_rng(5)
        F = rng.standard_normal((9, op.lattice_size)) + 1j * rng.standard_normal((9, op.lattice_size))
        work = op._gram_workspace(9)
        alone = [op.gram(F[j:j + 1], work=work).copy() for j in range(9)]
        for lo in range(9):
            for hi in range(lo + 1, 10):
                out = op.gram(F[lo:hi], work=work)
                for j in range(lo, hi):
                    assert np.array_equal(out[j - lo], alone[j][0]), (X, lo, hi, j)


def _nan_empty(shape, dtype=float):
    return np.full(shape, np.nan, dtype=dtype)


@pytest.mark.parametrize("mu, X, q", [(circle(64, 0.25), 8, 2), (random_flat(4096, 185, seed=5), 64, 2),
                                      (circle(128, 0.25), 32, 2), (random_flat(4096, 185, seed=5), 512, 4)],
                         ids=["2d", "1d", "2d-grid", "fft-1d"])
def test_q2_probe_runs_its_gram_ffts_in_one_per_call_workspace(monkeypatch, mu, X, q):
    # named for q = 2, whose gram runs on the M-grid ("2d", "1d") or the
    # N-grid ("2d-grid"); a q != 2 probe on the FFT grid ("fft-1d")
    # runs restrict and extend in the same kind of workspace
    op = ExtensionOperator(mu, X)
    assert op.gram_grid == (X == 32) and (q == 2 or op.grid_fft)
    if q == 2:
        op._gram_kernel  # built before the loop, by its own transforms
    outs = []

    def recording(transform):
        def wrapped(*args, **kwargs):
            outs.append(kwargs.get("out"))
            return transform(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", recording(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", recording(np.fft.ifft))
    res = restriction_norm(op, Fraction(4, 3), q, ProbeOptions(restarts=4, seed=9))
    monkeypatch.undo()
    per_iteration = 2 * op.dim
    # at q != 2 the last iteration restricts and stops before its extend
    assert len(outs) == per_iteration * max(res.iterations) - (q != 2) * op.dim > per_iteration
    assert len(set(res.iterations)) > 1  # starts left the block on the way
    assert all(out is not None for out in outs)
    first = [out.base for out in outs[:per_iteration]]
    assert all(any(out.base is buf for buf in first) for out in outs[per_iteration:])
    # sweep's threads share the operator, so the workspace is never kept on it
    kept = [v for value in op.__dict__.values()
            for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
    assert ("_gram_kernel" in op.__dict__) == (q == 2)
    assert not any(np.shares_memory(v, buf) for v in kept for buf in first)

    # starts leave the block, so the workspace serves every smaller height;
    # stale entries from a taller block must never be read: every entry the
    # workspace does not lay out as a zero pad starts as NaN (on the M-grid,
    # where np.fft pads each line, that is every entry)
    rng = np.random.default_rng(X)
    F = rng.standard_normal((9, op.lattice_size)) + 1j * rng.standard_normal((9, op.lattice_size))
    make = op._gram_workspace if q == 2 else op._grid_workspace
    monkeypatch.setattr(np, "empty", _nan_empty)
    work = make(9)
    monkeypatch.undo()
    if q == 2:
        def apply(F, work):
            return op.gram(F, work=work)
    else:
        def apply(F, work):
            return op.extend(op.restrict(F, work), work)
    for k in range(9, 0, -1):
        assert np.array_equal(apply(F[:k], work), apply(F[:k], make(k))), k


def test_gram_kernel_is_built_once_and_only_at_q_2(monkeypatch):
    # the M-grid reads mu_hat on [-2X, 2X] once; the N-grid builds no
    # kernel and reads no Fourier coefficients
    calls = []
    real = probe.fourier

    def counting(mu, K):
        calls.append(K)
        return real(mu, K)

    monkeypatch.setattr(probe, "fourier", counting)
    op = ExtensionOperator(random_measure(17), 8)
    assert not op.gram_grid
    restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2))
    assert calls == []
    for p in (Fraction(4, 3), 2):
        restriction_norm(op, p, 2, ProbeOptions(restarts=2))
    assert calls == [16]
    op = ExtensionOperator(circle(16, 0.25), 6)
    assert op.gram_grid
    for p in (Fraction(4, 3), 2):
        restriction_norm(op, p, 2, ProbeOptions(restarts=2))
    assert calls == [16] and op._gram_kernel[0] is None


@pytest.mark.parametrize("mu, X", [(cantor(4, {0, 3}, 12), 8), (circle(4096, 0.01), 4)],
                         ids=["1d", "2d"])
def test_q2_probe_on_a_fine_grid_builds_no_dense_grid(monkeypatch, mu, X):
    # N^dim = 2^24 is far above the (4X + 1)^dim x num_atoms direct sum, so
    # the Gram kernel must come from the atoms, as the dense path's operator
    # does, and not from an FFT of the whole grid
    def no_grid(self):
        raise AssertionError("dense N^dim grid built")

    monkeypatch.setattr(DiscreteMeasure, "dense_weights", no_grid)
    op = ExtensionOperator(mu, X)
    assert not op.gram_grid
    options = ProbeOptions(restarts=2, seed=11)
    for p in (Fraction(4, 3), 2):
        res = restriction_norm(op, p, 2, options)
        ref = serial_restriction_norm(_dense(op), op.weights, float(p), 2.0,
                                      _oracle_starts(op, p, 2, options, []),
                                      options.max_iters, options.tol)
        assert res.iterations == ref["iterations"], p
        assert res.norm_lower_bound == pytest.approx(ref["norm"], rel=1e-12, abs=0), p
    F = _dense(op)[:, :3]
    gram = op.gram(F.T, work=op._gram_workspace(3)).T
    assert np.abs(gram - op.extend(op.restrict(F.T)).T).max() <= 1e-12


@pytest.mark.parametrize("mu, X", [(dirac(1, 64, 0), 4), (dirac(1, 4096, 0), 16),
                                   (dirac(2, 16, (0, 0)), 2)], ids=["1d", "1d-wide", "2d"])
def test_start_with_vanishing_restriction_runs_as_on_the_dense_path(mu, X):
    # with one atom at the origin every operator entry is exactly 1, so two
    # opposite lattice values cancel exactly: the dense path sees
    # restrict(f) = 0, takes the dual element 1 and pulls back extend(1); the
    # Gram path must do the same, not follow the round-off of its FFTs, on
    # the M-grid (1-D) and the N-grid (2-D)
    op = ExtensionOperator(mu, X)
    assert op.gram_grid == (mu.dim == 2)
    options = ProbeOptions(restarts=1, seed=7)
    for i, j in ((0, 1), (1, op.lattice_size - 1), (X, X + 3)):
        w = np.zeros(op.lattice_size, dtype=complex)
        w[i], w[j] = 0.6 + 0.8j, -0.6 - 0.8j
        assert not op.restrict(w[None]).any()
        # p = 4 takes the negative power (p' - 2)/2 = -1/3 of the extremal vector
        for p in (1, Fraction(4, 3), 2, 4, INF):
            res = restriction_norm(op, p, 2, options, warm_starts=[w])
            ref = serial_restriction_norm(_dense(op), op.weights, float(p), 2.0,
                                          _oracle_starts(op, p, 2, options, [w]),
                                          options.max_iters, options.tol)
            case = (i, j, p)
            assert res.iterations == ref["iterations"], case
            assert res.converged == ref["converged"], case
            assert res.norm_lower_bound == pytest.approx(ref["norm"], rel=1e-12, abs=0), case


def test_a_vanishing_start_leaves_the_rows_it_shares_a_block_with_as_they_are():
    # a warm start whose restriction vanishes exactly takes the guards of a
    # vanished row, at q = 2 the round-off test of _gram_step and at q = 4 the
    # zero peak of _measure_step; the random starts in its block keep the bits
    # they have without it.  At q = 2 the loop passes _gram_step twice the
    # bound L^max(0, 1 - 2/p) on ||f||_2^2 of a unit l^p row, and every row
    # stays within the bound
    _at_one_blas_thread("""
        from fractions import Fraction
        import numpy as np
        from restrictlab import probe
        from restrictlab.measures import dirac
        from restrictlab.probe import ExtensionOperator, ProbeOptions, restriction_norm
        squares = []
        real = probe._gram_step
        def recording(op, f, work, bound):
            fv = f.view(np.float64)
            squares.append((np.einsum("ij,ij->i", fv, fv).max(), bound, op.lattice_size, p))
            return real(op, f, work, bound)
        probe._gram_step = recording
        for mu, X in ((dirac(1, 64, 0), 4), (dirac(1, 4096, 0), 16), (dirac(2, 16, (0, 0)), 2)):
            op = ExtensionOperator(mu, X)
            w = np.zeros(op.lattice_size, dtype=complex)
            w[1], w[X + 3] = 0.6 + 0.8j, -0.6 - 0.8j
            assert not op.restrict(w[None]).any()
            for p in (1, Fraction(4, 3), 2, 4, float("inf")):
                for q in (2, 4):
                    options = ProbeOptions(restarts=3, seed=7)
                    mixed = restriction_norm(op, p, q, options, warm_starts=[w])
                    alone = restriction_norm(op, p, q, options)
                    case = (op.lattice_size, p, q)
                    assert mixed.iterations[:3] == alone.iterations and mixed.iterations[3] > 0, case
                    assert mixed.converged[:3] == alone.converged, case
                    assert mixed.final_value[:3] == alone.final_value, case
                    assert mixed.final_change[:3] == alone.final_change, case
                    assert mixed.trace[:len(alone.trace)] == alone.trace, case
                    if mixed.best_start < 3:
                        assert (mixed.best_start, mixed.norm_lower_bound) == (alone.best_start,
                                                                              alone.norm_lower_bound), case
        assert squares
        for square, bound, L, p in squares:
            assert bound == 2.0 * L ** max(0.0, 1.0 - 2.0 / float(p)), (bound, L, p)
            assert square <= bound / 2 * (1 + 1e-12), (square, bound, L, p)
        """)


@given(st.sampled_from([1, Fraction(5, 4), Fraction(4, 3), 2, 4, INF]), st.sampled_from([1, 2]),
       st.integers(1, 40), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 0.95]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_unit_lp_rows_keep_their_l2_square_within_the_gram_step_bound(p, dim, X, seed, zeros, spike):
    # Holder: ||f||_2^2 <= L^max(0, 1 - 2/p) ||f||_p^2, L at p = inf; the
    # loop's rows are unit l^p up to round-off: starts divided by their l^p
    # norm and l^p extremal vectors of pulled-back rows, here with exact zeros
    # or one dominant entry.  _gram_step skips its per-row test when the least
    # square clears noise times twice this bound
    X = X if dim == 1 else 1 + X // 4
    L = (2 * X + 1) ** dim
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, L)) + 1j * rng.standard_normal((3, L))
    dropped = rng.random((3, L)) < zeros
    dropped[:, 0] = False
    z[dropped] = 0.0
    if spike:
        z[:, rng.integers(L)] *= 1e6
    pf = float(p)
    bound = L ** max(0.0, 1.0 - 2.0 / pf)
    for f in (z / lp_norm(z, pf, rows=True)[:, None], probe._lattice_extremal(z, pf, float(conjugate(p)))):
        fv = f.view(np.float64)
        assert np.einsum("ij,ij->i", fv, fv).max() <= bound * (1 + 1e-12), (L, p)


# the loop's values on every product route: q = 2 through gram on the M-grid
# and the N-grid, q = 4 through restrict on the dense tables and the FFT grid
_GUARD_ROUTES = {"gram-M-grid": (random_measure(31, max_atoms=24), 16, 2), "gram-N-grid": (circle(16, 0.25), 6, 2),
                 "dense": (random_measure(21, max_atoms=24), 16, 4),
                 "fft-grid": (random_measure(21, N=64, max_atoms=48), 31, 4)}


def _spoiled_probe(monkeypatch, route, bad):
    """The route's probe with bad in every product: at q = 2 gram returns bad f in
    row 0, whose square is bad ||f||_2^2 (nan at bad = nan); at q = 4 a dense restrict
    reads a phase table with bad in it, and an FFT-grid one returns bad at one atom."""
    mu, X, q = _GUARD_ROUTES[route]
    op = ExtensionOperator(mu, X)
    assert (op.gram_grid if q == 2 else op.grid_fft) == (route in ("gram-N-grid", "fft-grid"))
    cls = probe.ExtensionOperator
    if q == 2:
        real_gram = cls.gram

        def gram(self, f, *, work):
            out = real_gram(self, f, work=work)
            out[0] = f[0] * bad
            return out
        monkeypatch.setattr(cls, "gram", gram)
    elif op.grid_fft:
        real_restrict = cls._grid_restrict

        def grid_restrict(self, rows, work):
            out = real_restrict(self, rows, work)
            out[0, 0] = bad
            return out
        monkeypatch.setattr(cls, "_grid_restrict", grid_restrict)
    else:
        real_tables = cls._dense_tables

        def dense_tables(self, k):
            outer, inner, c = real_tables(self, k)
            inner = inner.copy()
            inner[0, 0] = bad
            return outer, inner, c
        monkeypatch.setattr(cls, "_dense_tables", dense_tables)
    with np.errstate(all="ignore"):
        return restriction_norm(op, Fraction(4, 3), q, ProbeOptions(restarts=3, seed=1))


@pytest.mark.parametrize("route, bad", [("gram-M-grid", np.inf), ("gram-N-grid", np.inf), ("dense", np.nan),
                                        ("dense", np.inf), ("fft-grid", np.nan), ("fft-grid", np.inf)])
def test_non_finite_value_stops_the_probe(monkeypatch, route, bad):
    with pytest.raises(ArithmeticError, match="non-finite value in norm iteration"):
        _spoiled_probe(monkeypatch, route, bad)


@pytest.mark.parametrize("route", ["gram-M-grid", "gram-N-grid"])
@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_gram_square_is_not_taken_for_a_vanished_row(monkeypatch, route, bad):
    # a nan or -inf square fails the test "square > noise ||f||_2^2" as a
    # vanished row does; it must stop the probe, not go on as value 0 from extend(1)
    with pytest.raises(ArithmeticError, match="non-finite value in norm iteration"):
        _spoiled_probe(monkeypatch, route, bad)


def test_q2_iterates_do_not_depend_on_the_blas_thread_count():
    # at q = 2 neither the loop's FFT convolutions nor the witness
    # re-evaluation's einsum sums take a BLAS call, so iterates, traces and
    # certified norms all agree
    code = """
        import json
        from fractions import Fraction
        import numpy as np
        from restrictlab.measures import random_flat
        from restrictlab.probe import ExtensionOperator, ProbeOptions, restriction_norm
        op = ExtensionOperator(random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), 64)
        out = []
        for p in (Fraction(5, 4), Fraction(4, 3), Fraction(8, 5), Fraction(2)):
            res = restriction_norm(op, p, 2, ProbeOptions(restarts=5, seed=20240613))
            out.append([res.iterations, res.converged, res.best_start,
                        [v.hex() for v in res.trace], res.norm_lower_bound.hex(),
                        res.witness.tobytes().hex()])
        print(json.dumps(out))
        """
    one, two = (json.loads(_at_blas_threads(code, threads)) for threads in (1, 2))
    assert one == two


def _fft_cases():
    # operators on which the backend rule picks the FFT grid, 1-D and 2-D
    return [(random_flat(4096, 185, seed=5), 512), (circle(128, 0.25), 32)]


@pytest.mark.parametrize("mu, X, grid_fft", [
    (random_flat(4096, 185, seed=5), 64, False),
    (cantor(4, {0, 3}, 8), 512, False),
    (random_flat(64, 32, seed=1), 40, False),  # 2X + 1 > N, though L m is above the crossover
    (circle(16, 0.25), 10, False),             # the same in 2-D
    (dirac(1, 4096, 0), 2047, False),          # one atom: L m = L never reaches N log2 N
    (random_flat(4096, 185, seed=5), 512, True),
    (circle(128, 0.25), 32, True)],
    ids=["flat-X64", "cantor8-X512", "wide-1d", "wide-2d", "one-atom", "flat-X512", "circle128-X32"])
def test_backend_rule_reads_only_the_operator_shape(mu, X, grid_fft):
    op = ExtensionOperator(mu, X)
    grid = mu.N ** mu.dim
    ratio = op.lattice_size * op.num_atoms / (grid * np.log2(grid))
    assert op.grid_fft == grid_fft, ratio
    if 2 * X + 1 <= mu.N:
        assert grid_fft == (ratio > probe.GRID_FFT_CROSSOVER)


@pytest.mark.parametrize("mu, X_list, gram_grid", [
    (circle(128, 0.25), (4, 8, 16, 32), (False, False, False, True)),
    (circle(256, 0.25), (16, 32, 64), (False, False, True)),
    (random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), (64, 128, 256, 512), (False,) * 4),
    (cantor(4, {0, 3}, 8), (64, 128, 256, 512), (False,) * 4),
    (random_flat(32, 9, seed=32), (20,), (False,)),  # 2X + 1 > N
    (random_flat(64, 12, seed=31), (20,), (True,))],  # N below M, the fast size of 4X
    ids=["circle128", "circle256", "sweep", "cantor8", "wide-1d", "narrow-1d"])
def test_gram_route_rule_counts_each_route_s_transforms(mu, X_list, gram_grid):
    # the benchmark's operators and the Stein-Tomas circle: the grid round
    # trip takes over once 4X + 1 outgrows N in 2-D, never on the sweep's or
    # the Cantor measure's 1-D grids; the work of each route is its lines
    # times length times log2(length), as each route transforms them
    for X, want in zip(X_list, gram_grid):
        op = ExtensionOperator(mu, X)
        assert op.gram_grid == want, X
        side, N, M = 2 * X + 1, mu.N, op.M
        if mu.dim == 2:
            n_first = len(np.unique(mu.indices[:, 0]))
            grid, toeplitz = 2 * (side + n_first) * N * np.log2(N), 2 * (side + M) * M * np.log2(M)
        else:
            grid, toeplitz = 2 * N * np.log2(N), 2 * M * np.log2(M)
        assert want == (side <= N and grid < toeplitz), X


def test_fft_products_match_the_dense_matrix():
    for mu, X in _fft_cases():
        op = ExtensionOperator(mu, X)
        assert op.grid_fft
        L, m = op.lattice_size, op.num_atoms
        rng = np.random.default_rng(X)
        F = rng.standard_normal((L, 9)) + 1j * rng.standard_normal((L, 9))
        G = rng.standard_normal((m, 9)) + 1j * rng.standard_normal((m, 9))
        # the dense entries carry the round-off of exp(2 pi i <x, xi>), at
        # most about 2 pi X dim eps, and each side sums L or m terms or runs
        # log2 N^dim FFT stages: bound each column's difference by that many
        # eps times the l^1 norm of its input
        grid = mu.N ** mu.dim
        terms = 2 * np.pi * X * mu.dim + L + m + 4 * np.log2(grid)
        dense = _dense(op)
        for got, want, inputs in ((op.restrict(F.T).T, dense.conj().T @ F, F),
                                  (op.extend(G.T).T, dense @ (op.weights[:, None] * G),
                                   op.weights[:, None] * G)):
            tol = terms * np.finfo(float).eps * np.abs(inputs).sum(axis=0)
            assert got.shape == want.shape
            assert (np.abs(got - want) <= tol).all(), (mu.N, X, np.abs(got - want).max())
        # each row's result does not depend on the others in its block;
        # FFTs take no BLAS call, so at any BLAS thread count
        for apply, block in ((op.restrict, F.T), (op.extend, G.T)):
            alone = [apply(block[j:j + 1]) for j in range(9)]
            for lo in range(9):
                for hi in range(lo + 1, 10):
                    out = apply(block[lo:hi])
                    for j in range(lo, hi):
                        assert np.array_equal(out[j - lo:j - lo + 1], alone[j]), (X, lo, hi, j)


def test_fft_backed_probes_do_not_depend_on_the_blas_thread_count():
    # the loop's products are FFTs and its other steps row-wise sums, and
    # the witness re-evaluation sums by einsum: none takes a BLAS call, so
    # iterates, traces and certified norms all agree
    code = """
        import json
        from fractions import Fraction
        from restrictlab.measures import circle, random_flat
        from restrictlab.probe import ExtensionOperator, ProbeOptions, restriction_norm
        out = []
        for mu, X in ((random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), 512),
                      (circle(128, 0.25), 32)):
            op = ExtensionOperator(mu, X)
            assert op.grid_fft
            for p, q in ((Fraction(5, 4), Fraction(4)), (Fraction(8, 5), Fraction(3, 2))):
                res = restriction_norm(op, p, q, ProbeOptions(restarts=4, max_iters=60, seed=5))
                out.append([res.iterations, res.converged, res.best_start,
                            [v.hex() for v in res.trace], res.norm_lower_bound.hex(),
                            res.witness.tobytes().hex()])
        print(json.dumps(out))
        """
    one, two = (json.loads(_at_blas_threads(code, threads)) for threads in (1, 2))
    assert one == two


def test_witness_re_evaluation_is_independent_of_the_fft_products(monkeypatch):
    # the certified norm is summed from the phase table, so a fault in the
    # loop's FFT products is caught instead of certifying itself
    op = ExtensionOperator(random_measure(21, N=64, max_atoms=48), 31)
    assert op.grid_fft
    real = probe.ExtensionOperator._grid_restrict
    monkeypatch.setattr(probe.ExtensionOperator, "_grid_restrict",
                        lambda self, rows, work: real(self, rows, work) * (1 + 1e-6))
    with pytest.raises(AssertionError, match="witness re-evaluation"):
        restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2, seed=1))


def test_witness_re_evaluation_is_independent_of_the_dense_matrix():
    # the certified norm is summed from tables of its own, never from the
    # dense products' cached tables, so corrupted tables are caught instead
    # of certifying themselves
    op = ExtensionOperator(random_measure(21, N=64, max_atoms=48), 8)
    assert not op.grid_fft
    outer, inner = op._tables
    outer *= 1 + 1e-6
    with pytest.raises(AssertionError, match="witness re-evaluation"):
        restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2, seed=1))


@pytest.mark.parametrize("q, mu, X", [(2, random_measure(23), 16), (2, circle(64, 0.25), 8),
                                      (4, random_flat(4096, 185, seed=5), 512),
                                      (Fraction(3, 2), circle(128, 0.25), 32)],
                         ids=["q2-1d", "q2-2d", "fft-1d", "fft-2d"])
def test_probes_that_need_no_dense_product_build_no_matrix(q, mu, X):
    op = ExtensionOperator(mu, X)
    assert "_tables" not in op.__dict__
    assert q == 2 or op.grid_fft
    restriction_norm(op, Fraction(4, 3), q, ProbeOptions(restarts=2, max_iters=20, seed=3))
    assert "_tables" not in op.__dict__


def test_q2_probe_memory_stays_below_the_matrix():
    # circle(256, 1/4) at X = 64 is 16641 x 384: the matrix alone would take
    # L m 16 bytes, and a q = 2 probe with its witness re-evaluation stays
    # below an eighth of that
    op = ExtensionOperator(circle(256, 0.25), 64)
    budget = op.lattice_size * op.num_atoms * 16 // 8
    tracemalloc.start()
    try:
        restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=2, max_iters=5, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)
    assert "_tables" not in op.__dict__


@pytest.mark.parametrize("mu, X, p, q, max_iters, route, products", [
    (cantor(4, {0, 3}, 5), 8, 2, 2, 25, "m-grid", {"gram": [25, 23, 25, 0]}),
    (circle(16, 0.25), 6, 2, 2, 100, "n-grid", {"gram": [66, 53, 67, 0]}),
    (cantor(4, {0, 3}, 5), 8, Fraction(4, 3), 4, 100, "dense",
     {"restrict": [11, 12, 30, 0], "extend": [10, 11, 29, 0]}),
    (circle(16, 0.25), 7, Fraction(4, 3), 4, 100, "n-grid",
     {"restrict": [10, 13, 19, 0], "extend": [9, 12, 18, 0]}),
], ids=["gram-M-grid", "gram-N-grid", "dense", "restrict-extend-N-grid"])
def test_probe_counts_the_rows_its_products_took(monkeypatch, mu, X, p, q, max_iters, route, products):
    # the counts are derived from each start's history after the loop; the
    # spies count the rows the products were actually handed, at the public
    # names, which bench/tracing.py wraps too (restrict and extend), so a loop
    # that takes its products through another name fails here
    taken = {name: 0 for name in products}
    cls = probe.ExtensionOperator
    for name in ("gram", "restrict", "extend"):
        def counting(self, block, *args, _name=name, _real=getattr(cls, name), **kwargs):
            taken[_name] = taken.get(_name, 0) + len(block)
            return _real(self, block, *args, **kwargs)
        monkeypatch.setattr(cls, name, counting)
    op = ExtensionOperator(mu, X)
    # the zero warm start is skipped, so it takes no row
    res = restriction_norm(op, p, q, ProbeOptions(restarts=3, max_iters=max_iters, seed=1),
                           warm_starts=[np.zeros(op.lattice_size)])
    assert (res.route, res.products) == (route, products)
    assert taken == {name: sum(rows) for name, rows in products.items()}
    assert res.products[next(iter(products))] == res.iterations
    d = res.as_dict()
    assert (d["route"], d["products"]) == (route, products)
