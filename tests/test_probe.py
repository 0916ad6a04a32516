import threading
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from restrictlab import probe
from restrictlab.measures import DiscreteMeasure, dirac, random_flat, uniform
from restrictlab.probe import (
    ProbeOptions,
    assemble,
    classify_slope,
    growth_exponent,
    restriction_norm,
    sweep,
)
from restrictlab.rationals import INF
from restrictlab.spectral import lp_norm


def random_measure(seed, N=1024, max_atoms=64):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(8, max_atoms + 1))
    idx = rng.choice(N, size=m, replace=False).reshape(-1, 1)
    w = rng.random(m)
    return DiscreteMeasure(1, N, np.sort(idx, axis=0), w / w.sum())


def svd_norm(op):
    scaled = np.sqrt(op.weights)[:, None] * op.matrix.conj().T
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def test_assemble_shape_and_modulus():
    mu = random_measure(0, max_atoms=16)
    op = assemble(mu, 8)
    assert op.matrix.shape == (17, mu.num_atoms)
    assert np.allclose(np.abs(op.matrix), 1.0, atol=1e-14)


def test_assemble_budget():
    mu = uniform(1, 1024)
    with pytest.raises(MemoryError):
        assemble(mu, 512, max_matrix_entries=10_000)


def test_assemble_dim2():
    mu = dirac(2, 64, (3, 4))
    op = assemble(mu, 4)
    assert op.matrix.shape == (81, 1)
    f = np.zeros(81, dtype=complex)
    f[0] = 1.0  # lattice point (-4, -4)
    u = op.restrict(f)
    expected = np.exp(-2j * np.pi * (-4 * 3 / 64 + -4 * 4 / 64))
    assert abs(u[0] - expected) < 1e-12


def test_restriction_is_fourier_at_atoms():
    mu = random_measure(5, max_atoms=12)
    op = assemble(mu, 6)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    u = op.restrict(f)
    xs = np.arange(-6, 7)
    for j, (pos,) in enumerate(mu.positions()):
        direct = np.sum(f * np.exp(-2j * np.pi * xs * pos))
        assert abs(u[j] - direct) < 1e-12


def test_norm_p1_is_exactly_one():
    for seed in (1, 2):
        mu = random_measure(seed)
        op = assemble(mu, 32)
        for q in (1, 2, INF):
            res = restriction_norm(op, 1, q, ProbeOptions(restarts=2, seed=seed))
            assert abs(res.norm_lower_bound - 1.0) <= 1e-12


def test_22_matches_svd():
    for seed in range(5):
        mu = random_measure(seed, max_atoms=48)
        op = assemble(mu, 24)
        res = restriction_norm(op, 2, 2, ProbeOptions(restarts=6, max_iters=3000,
                                                      tol=1e-12, seed=seed))
        assert res.norm_lower_bound == pytest.approx(svd_norm(op), abs=1e-8, rel=1e-8)


def test_duality_at_22_shared_singular_values():
    # ||R||_{l2 -> L2(mu)} equals ||E||_{L2(mu) -> l2}
    mu = random_measure(7, max_atoms=32)
    op = assemble(mu, 16)
    r_side = np.sqrt(op.weights)[:, None] * op.matrix.conj().T
    e_side = op.matrix * (op.weights / np.sqrt(op.weights))[None, :]
    s1 = np.linalg.svd(r_side, compute_uv=False)[0]
    s2 = np.linalg.svd(e_side, compute_uv=False)[0]
    assert s1 == pytest.approx(s2, rel=1e-10)


def test_dirac_closed_form_norms():
    mu = dirac(1, 256, 3)
    for X in (8, 32):
        op = assemble(mu, X)
        for p in (Fraction(4, 3), 2, Fraction(8, 5)):
            res = restriction_norm(op, p, 2, ProbeOptions(restarts=2, seed=0))
            pprime = float(p / (p - 1))
            assert res.norm_lower_bound == pytest.approx(
                (2 * X + 1) ** (1 / pprime), rel=1e-9)


def test_witness_certificate():
    mu = random_measure(3)
    op = assemble(mu, 16)
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=3))
    ratio = lp_norm(op.restrict(res.witness), 2, op.weights) / lp_norm(
        res.witness, Fraction(4, 3))
    assert ratio == pytest.approx(res.norm_lower_bound, abs=1e-10)


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
    op = assemble(mu, 16)
    res = restriction_norm(op, Fraction(4, 3), INF, ProbeOptions(restarts=2, seed=2))
    assert res.norm_lower_bound == pytest.approx(33.0**0.25, rel=1e-9)
    flat = random_flat(256, 16, seed=5)
    op2 = assemble(flat, 8)
    res2 = restriction_norm(op2, 1, INF, ProbeOptions(restarts=2, seed=2))
    assert res2.norm_lower_bound == pytest.approx(1.0, abs=1e-12)


def test_p_infinity_dirac():
    # phase-aligned unit-modulus witness saturates: norm = 2X+1
    mu = dirac(1, 256, 31)
    op = assemble(mu, 10)
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
    with pytest.raises(ValueError):
        classify_slope(0.0, tau_bounded=0.2, tau_growing=0.1)


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
    grid = sweep(dirac(1, 64, 0), [2], [2, 3], [1, 2, 4, 8], gamma_hat=0.0,
                 threads=2, progress=progress)
    assert waited == [True]
    assert [c.q for c in grid.cells] == [2, 3]


def test_probe_seed_reproducibility():
    mu = random_measure(9)
    op = assemble(mu, 16)
    a = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=42))
    b = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=42))
    assert a.norm_lower_bound == b.norm_lower_bound
    assert np.array_equal(a.witness, b.witness)
