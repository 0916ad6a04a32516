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

import restrictlab
from restrictlab import probe
from restrictlab.measures import DiscreteMeasure, cantor, circle, dirac, random_flat, uniform
from restrictlab.probe import (
    ProbeOptions,
    assemble,
    classify_slope,
    growth_exponent,
    restriction_norm,
    sweep,
)
from restrictlab.rationals import INF, conjugate
from restrictlab.spectral import DIRECT_CHUNK_ENTRIES, lp_norm

from oracles import (
    gram_by_padded_ffts,
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


def svd_norm(op):
    scaled = np.sqrt(op.weights)[:, None] * op.matrix.conj().T
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def test_assemble_shape_and_modulus():
    mu = random_measure(0, max_atoms=16)
    op = assemble(mu, 8)
    assert op.matrix.shape == (17, mu.num_atoms)
    assert np.allclose(np.abs(op.matrix), 1.0, atol=1e-14)


def test_assemble_budget(monkeypatch):
    # the budget bounds the dense matrix, which only a q != 2 probe off the
    # FFT grid reads; a q = 2 probe on the same operator runs without it
    monkeypatch.setattr(probe, "MAX_MATRIX_ENTRIES", 10_000)
    # 1025 x 32 entries; a lattice delta certifies 1, and this sparse
    # measure's norm is well above it (1.66 after 20 iterations), so the
    # bound is strict without resting on the last bits of the iterates
    mu = cantor(4, {0, 3}, 5)
    op = assemble(mu, 512)
    with pytest.raises(MemoryError, match="MAX_MATRIX_ENTRIES"):
        op.matrix
    with pytest.raises(MemoryError, match="MAX_MATRIX_ENTRIES"):
        restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2))
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=2, max_iters=20))
    assert res.norm_lower_bound > 1.0
    assert "matrix" not in op.__dict__


def test_assemble_dim2():
    mu = dirac(2, 64, (3, 4))
    op = assemble(mu, 4)
    assert op.matrix.shape == (81, 1)
    f = np.zeros(81, dtype=complex)
    f[0] = 1.0  # lattice point (-4, -4)
    u = op.restrict(f)
    expected = np.exp(-2j * np.pi * (-4 * 3 / 64 + -4 * 4 / 64))
    assert abs(u[0] - expected) < 1e-12
    rng = np.random.default_rng(3)
    idx = np.stack(np.unravel_index(rng.choice(64 * 64, 7, replace=False), (64, 64)), axis=1)
    mu = DiscreteMeasure(2, 64, idx, np.full(7, 1 / 7))
    op = assemble(mu, 3)
    assert np.max(np.abs(op.matrix - lattice_phase_matrix(mu.indices, 64, 3))) < 1e-12


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
    # <x, j> mod N is an exact integer, so every entry is within 8 eps of
    # exp(2 pi i (<x, j> mod N) / N) at any X (np.exp of the float phase
    # <x, j> / N was off by up to 3.5e-13 at X = 512), and the roots table
    # never takes O(N) memory on a fine grid
    op = assemble(mu, X)
    L, eps = op.lattice_size, np.finfo(float).eps
    lattice = np.indices((2 * X + 1,) * mu.dim).reshape(mu.dim, -1) - X
    exact = np.exp(2j * np.pi * ((lattice.T @ mu.indices.T) % mu.N) / mu.N)
    assert np.abs(op.matrix - exact).max() <= 8 * eps
    assert max(t.size for t in op._roots[:2]) <= DIRECT_CHUNK_ENTRIES
    # the witness sum against the exact product: L terms of unit modulus
    rng = np.random.default_rng(X)
    f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    assert np.abs(op._direct_restrict(f) - exact.conj().T @ f).max() <= L * eps * np.abs(f).sum()


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
    op = assemble(mu, 16)
    a = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=42))
    b = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(seed=42))
    assert a.norm_lower_bound == b.norm_lower_bound
    assert np.array_equal(a.witness, b.witness)


def test_restrict_is_the_adjoint_without_copying_the_operator():
    # 1-D 129 x 32 and 2-D 289 x 56; a conjugated copy of the operator
    # would make the peak about matrix.nbytes
    for mu, X in ((random_flat(512, 32, seed=4), 64), (circle(64, 0.25), 8)):
        op = assemble(mu, X)
        L = op.lattice_size
        rng = np.random.default_rng(X)
        f = rng.standard_normal(L) + 1j * rng.standard_normal(L)
        block = rng.standard_normal((L, 5)) + 1j * rng.standard_normal((L, 5))
        # a vector is one column of a block, so it takes the block's GEMM bits
        assert np.array_equal(op.restrict(f), op.restrict(f[:, None])[:, 0])
        for F in (f[:, None], block[:, :1], block):
            # a block is a GEMM by rows, so its bits differ from this
            # product's; bound the difference by the dot-product round-off
            # of L terms against unit-modulus entries
            tol = L * np.finfo(float).eps * np.abs(F).sum(axis=0)
            assert (np.abs(op.restrict(F) - op.matrix.conj().T @ F) <= tol).all()
        for arg in (f, block[:, :1], block):
            tracemalloc.start()
            try:
                op.restrict(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < op.matrix.nbytes / 4, (arg.shape, peak, op.matrix.nbytes)


def test_extend_takes_a_vector_as_one_column():
    op = assemble(random_measure(13), 16)
    rng = np.random.default_rng(13)
    g = rng.standard_normal(op.num_atoms) + 1j * rng.standard_normal(op.num_atoms)
    out = op.extend(g)
    assert out.shape == (op.lattice_size,)
    assert np.array_equal(out, op.extend(g[:, None])[:, 0])
    assert np.allclose(out, op.matrix @ (op.weights * g), rtol=1e-13, atol=1e-13)


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
    op = assemble(mu, 16)
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

    At two OpenBLAS threads a GEMM column of a 129 x 185 operator can depend
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
        from restrictlab.probe import ProbeOptions, assemble, restriction_norm
        rng = np.random.default_rng(12)  # random_measure(12)
        m = int(rng.integers(8, 65))
        idx = rng.choice(1024, size=m, replace=False).reshape(-1, 1)
        w = rng.random(m)
        op = assemble(DiscreteMeasure(1, 1024, np.sort(idx, axis=0), w / w.sum()), 16)
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
    op = assemble(mu, 16)
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

    def recording(op, f, work):
        val, h = real(op, f, work)
        values.append(val.tolist())
        return val, h

    monkeypatch.setattr(probe, "_gram_step", recording)
    op = assemble(random_measure(11), 16)
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
    (random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), 512, 4)],
    ids=["gram-1d", "gram-2d", "fft-grid"])
def test_restarts_k_reproduces_the_first_k_starts(mu, X, q):
    # neither the Gram convolutions nor the FFT-grid products take a BLAS
    # call, and every row-wise step reduces each row on its own, so a start's
    # bits do not depend on the starts that share its block
    op = assemble(mu, X)
    assert q == 2 or op.grid_fft
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
    op = assemble(random_measure(31, max_atoms=24), 16)
    f = _with_exact_zeros(np.random.default_rng(47), (3, op.lattice_size))
    h = op.gram(f, work=op._gram_workspace(3)).copy()
    val, pulled = probe._gram_step(op, f, op._gram_workspace(3))
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
    op = assemble(mu, X)
    assert op.grid_fft == grid_fft
    rng = np.random.default_rng(21)
    warm = [rng.standard_normal(op.lattice_size), np.zeros(op.lattice_size)]
    options = ProbeOptions(restarts=3, seed=21)
    # p = 8/5 and q = 3/2 take fractional powers p' - 1 = 5/3 and q - 1 = 1/2
    for p in (1, Fraction(4, 3), Fraction(8, 5), 2, INF):
        for q in (Fraction(4, 3), Fraction(3, 2), 2, 4, INF):
            res = restriction_norm(op, p, q, options, warm_starts=warm)
            ref = serial_restriction_norm(op.matrix, op.weights, float(p), float(q),
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
        from restrictlab.measures import DiscreteMeasure
        from restrictlab.probe import assemble
        rng = np.random.default_rng(5)
        idx = np.sort(rng.choice(4096, size=185, replace=False)).reshape(-1, 1)
        op = assemble(DiscreteMeasure(1, 4096, idx, np.full(185, 1 / 185)), 64)
        F = rng.standard_normal((op.lattice_size, 9)) + 1j * rng.standard_normal((op.lattice_size, 9))
        G = rng.standard_normal((185, 9)) + 1j * rng.standard_normal((185, 9))
        for apply, block in ((op.restrict, F), (op.extend, G)):
            alone = [apply(block[:, j:j + 1]) for j in range(9)]
            for lo in range(9):
                for hi in range(lo + 1, 10):
                    out = apply(block[:, lo:hi])
                    for j in range(lo, hi):
                        assert np.array_equal(out[:, j - lo:j - lo + 1], alone[j]), (lo, hi, j)
        """)


def _gram_cases():
    # (measure, X): fourier's grid route (2X <= N/2 and 2X > N/2), its direct
    # route (N > (4X + 1) m, 1-D only), and a lattice wider than the grid
    # (2X + 1 > N), in 1-D and 2-D
    return [(random_measure(31, max_atoms=24), 16), (random_measure(31, max_atoms=24), 8),
            (random_flat(64, 12, seed=31), 20),
            (random_flat(32, 9, seed=32), 20), (circle(64, 0.25), 8),
            (circle(16, 0.25), 6), (circle(16, 0.25), 10)]


def test_gram_product_is_extend_of_restrict():
    for mu, X in _gram_cases():
        op = assemble(mu, X)
        rng = np.random.default_rng(X)
        F = rng.standard_normal((op.lattice_size, 5)) + 1j * rng.standard_normal((op.lattice_size, 5))
        dense = op.extend(op.restrict(F))
        gram = op.gram(F.T, work=op._gram_workspace(5)).T
        assert gram.shape == dense.shape
        # the workspace's zero-padded lines give the bits of np.fft's own padding
        assert np.array_equal(gram, gram_by_padded_ffts(op._gram_kernel[0], F.T, X, mu.dim).T), (mu.N, X)
        assert np.abs(gram - dense).max() <= 1e-12 * np.abs(dense).max(), (mu.N, X)
        # extend(1), the pull-back of a vanished start, is the kernel on [-X, X]^dim
        extend_one = op._gram_kernel[1]
        assert np.abs(extend_one - op.extend(np.ones(op.num_atoms))).max() <= 1e-12, (mu.N, X)


def test_gram_rows_do_not_depend_on_the_block():
    # FFTs transform each line on its own, with no BLAS call, so this holds
    # at any BLAS thread count
    for mu, X in ((random_flat(4096, 185, seed=5), 64), (circle(64, 0.25), 8)):
        op = assemble(mu, X)
        rng = np.random.default_rng(5)
        F = rng.standard_normal((9, op.lattice_size)) + 1j * rng.standard_normal((9, op.lattice_size))
        work = op._gram_workspace(9)
        alone = [op.gram(F[j:j + 1], work=work).copy() for j in range(9)]
        for lo in range(9):
            for hi in range(lo + 1, 10):
                out = op.gram(F[lo:hi], work=work)
                for j in range(lo, hi):
                    assert np.array_equal(out[j - lo], alone[j][0]), (X, lo, hi, j)


@pytest.mark.parametrize("mu, X", [(circle(64, 0.25), 8), (random_flat(4096, 185, seed=5), 64)],
                         ids=["2d", "1d"])
def test_q2_probe_runs_its_gram_ffts_in_one_per_call_workspace(monkeypatch, mu, X):
    op = assemble(mu, X)
    outs = []

    def recording(transform):
        def wrapped(*args, **kwargs):
            outs.append(kwargs.get("out"))
            return transform(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "fft", recording(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", recording(np.fft.ifft))
    res = restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=4, seed=9))
    monkeypatch.undo()
    per_iteration = 2 * op.dim
    assert len(outs) == per_iteration * max(res.iterations) > per_iteration
    assert len(set(res.iterations)) > 1  # starts left the block on the way
    assert all(out is not None for out in outs)
    first = [out.base for out in outs[:per_iteration]]
    assert all(any(out.base is buf for buf in first) for out in outs[per_iteration:])
    # sweep's threads share the operator, so the workspace is never kept on it
    kept = [v for value in op.__dict__.values()
            for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
    assert "_gram_kernel" in op.__dict__
    assert not any(np.shares_memory(v, buf) for v in kept for buf in first)

    # starts leave the block, so the workspace serves every smaller height;
    # stale entries from a taller block must never be read
    rng = np.random.default_rng(X)
    F = rng.standard_normal((9, op.lattice_size)) + 1j * rng.standard_normal((9, op.lattice_size))
    work = op._gram_workspace(9)
    for buf in work:
        buf.fill(np.nan)
    for k in range(9, 0, -1):
        assert np.array_equal(op.gram(F[:k], work=work), op.gram(F[:k], work=op._gram_workspace(k))), k


def test_gram_kernel_is_built_once_and_only_at_q_2(monkeypatch):
    calls = []
    real = probe.fourier

    def counting(mu, K):
        calls.append(K)
        return real(mu, K)

    monkeypatch.setattr(probe, "fourier", counting)
    op = assemble(random_measure(17), 8)
    restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2))
    assert calls == []
    for p in (Fraction(4, 3), 2):
        restriction_norm(op, p, 2, ProbeOptions(restarts=2))
    assert calls == [16]


@pytest.mark.parametrize("mu, X", [(cantor(4, {0, 3}, 12), 8), (circle(4096, 0.01), 4)],
                         ids=["1d", "2d"])
def test_q2_probe_on_a_fine_grid_builds_no_dense_grid(monkeypatch, mu, X):
    # N^dim = 2^24 is far above the (4X + 1)^dim x num_atoms direct sum, so
    # the Gram kernel must come from the atoms, as the dense path's operator
    # does, and not from an FFT of the whole grid
    def no_grid(self):
        raise AssertionError("dense N^dim grid built")

    monkeypatch.setattr(DiscreteMeasure, "dense_weights", no_grid)
    op = assemble(mu, X)
    options = ProbeOptions(restarts=2, seed=11)
    for p in (Fraction(4, 3), 2):
        res = restriction_norm(op, p, 2, options)
        ref = serial_restriction_norm(op.matrix, op.weights, float(p), 2.0,
                                      _oracle_starts(op, p, 2, options, []),
                                      options.max_iters, options.tol)
        assert res.iterations == ref["iterations"], p
        assert res.norm_lower_bound == pytest.approx(ref["norm"], rel=1e-12, abs=0), p
    gram = op.gram(op.matrix[:, :3].T, work=op._gram_workspace(3)).T
    assert np.abs(gram - op.extend(op.restrict(op.matrix[:, :3]))).max() <= 1e-12


@pytest.mark.parametrize("mu, X", [(dirac(1, 64, 0), 4), (dirac(1, 4096, 0), 16),
                                   (dirac(2, 16, (0, 0)), 2)], ids=["1d", "1d-wide", "2d"])
def test_start_with_vanishing_restriction_runs_as_on_the_dense_path(mu, X):
    # with one atom at the origin every operator entry is exactly 1, so two
    # opposite lattice values cancel exactly: the dense path sees
    # restrict(f) = 0, takes the dual element 1 and pulls back extend(1); the
    # Gram path must do the same, not follow the round-off of its FFTs
    op = assemble(mu, X)
    options = ProbeOptions(restarts=1, seed=7)
    for i, j in ((0, 1), (1, op.lattice_size - 1), (X, X + 3)):
        w = np.zeros(op.lattice_size, dtype=complex)
        w[i], w[j] = 0.6 + 0.8j, -0.6 - 0.8j
        assert not op.restrict(w).any()
        # p = 4 takes the negative power (p' - 2)/2 = -1/3 of the extremal vector
        for p in (1, Fraction(4, 3), 2, 4, INF):
            res = restriction_norm(op, p, 2, options, warm_starts=[w])
            ref = serial_restriction_norm(op.matrix, op.weights, float(p), 2.0,
                                          _oracle_starts(op, p, 2, options, [w]),
                                          options.max_iters, options.tol)
            case = (i, j, p)
            assert res.iterations == ref["iterations"], case
            assert res.converged == ref["converged"], case
            assert res.norm_lower_bound == pytest.approx(ref["norm"], rel=1e-12, abs=0), case


def test_q2_iterates_do_not_depend_on_the_blas_thread_count():
    # at q = 2 neither the loop's FFT convolutions nor the witness
    # re-evaluation's einsum sums take a BLAS call, so iterates, traces and
    # certified norms all agree
    code = """
        import json
        from fractions import Fraction
        import numpy as np
        from restrictlab.measures import random_flat
        from restrictlab.probe import ProbeOptions, assemble, restriction_norm
        op = assemble(random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), 64)
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
    op = assemble(mu, X)
    grid = mu.N ** mu.dim
    ratio = op.lattice_size * op.num_atoms / (grid * np.log2(grid))
    assert op.grid_fft == grid_fft, ratio
    if 2 * X + 1 <= mu.N:
        assert grid_fft == (ratio > probe.GRID_FFT_CROSSOVER)


def test_fft_products_match_the_dense_matrix():
    for mu, X in _fft_cases():
        op = assemble(mu, X)
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
        for got, want, inputs in ((op.restrict(F), op.matrix.conj().T @ F, F),
                                  (op.extend(G), op.matrix @ (op.weights[:, None] * G),
                                   op.weights[:, None] * G)):
            tol = terms * np.finfo(float).eps * np.abs(inputs).sum(axis=0)
            assert got.shape == want.shape
            assert (np.abs(got - want) <= tol).all(), (mu.N, X, np.abs(got - want).max())
        # a vector is one row of the same transforms
        assert np.array_equal(op.restrict(F[:, 0]), op.restrict(F[:, :1])[:, 0])
        assert np.array_equal(op.extend(G[:, 0]), op.extend(G[:, :1])[:, 0])
        # each column's result does not depend on the others in its block;
        # FFTs take no BLAS call, so at any BLAS thread count
        for apply, block in ((op.restrict, F), (op.extend, G)):
            alone = [apply(block[:, j:j + 1]) for j in range(9)]
            for lo in range(9):
                for hi in range(lo + 1, 10):
                    out = apply(block[:, lo:hi])
                    for j in range(lo, hi):
                        assert np.array_equal(out[:, j - lo:j - lo + 1], alone[j]), (X, lo, hi, j)


def test_fft_backed_probes_do_not_depend_on_the_blas_thread_count():
    # the loop's products are FFTs and its other steps row-wise sums, and
    # the witness re-evaluation sums by einsum: none takes a BLAS call, so
    # iterates, traces and certified norms all agree
    code = """
        import json
        from fractions import Fraction
        from restrictlab.measures import circle, random_flat
        from restrictlab.probe import ProbeOptions, assemble, restriction_norm
        out = []
        for mu, X in ((random_flat(4096, 185, seed=20240613, flatness_c=4.0, max_retries=200), 512),
                      (circle(128, 0.25), 32)):
            op = assemble(mu, X)
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
    op = assemble(random_measure(21, N=64, max_atoms=48), 31)
    assert op.grid_fft
    real = probe.ExtensionOperator._grid_restrict
    monkeypatch.setattr(probe.ExtensionOperator, "_grid_restrict",
                        lambda self, rows: real(self, rows) * (1 + 1e-6))
    with pytest.raises(AssertionError, match="witness re-evaluation"):
        restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2, seed=1))


def test_witness_re_evaluation_is_independent_of_the_dense_matrix():
    # the certified norm is summed from the phase table, never read from the
    # cached matrix, so a corrupted matrix is caught instead of certifying itself
    op = assemble(random_measure(21, N=64, max_atoms=48), 8)
    assert not op.grid_fft
    op.matrix[...] *= 1 + 1e-6
    with pytest.raises(AssertionError, match="witness re-evaluation"):
        restriction_norm(op, Fraction(4, 3), 4, ProbeOptions(restarts=2, seed=1))


@pytest.mark.parametrize("q, mu, X", [(2, random_measure(23), 16), (2, circle(64, 0.25), 8),
                                      (4, random_flat(4096, 185, seed=5), 512),
                                      (Fraction(3, 2), circle(128, 0.25), 32)],
                         ids=["q2-1d", "q2-2d", "fft-1d", "fft-2d"])
def test_probes_that_need_no_dense_product_build_no_matrix(q, mu, X):
    op = assemble(mu, X)
    assert "matrix" not in op.__dict__
    assert q == 2 or op.grid_fft
    restriction_norm(op, Fraction(4, 3), q, ProbeOptions(restarts=2, max_iters=20, seed=3))
    assert "matrix" not in op.__dict__


def test_q2_probe_memory_stays_below_the_matrix():
    # circle(256, 1/4) at X = 64 is 16641 x 384: the matrix alone would take
    # L m 16 bytes, and a q = 2 probe with its witness re-evaluation stays
    # below an eighth of that
    op = assemble(circle(256, 0.25), 64)
    budget = op.lattice_size * op.num_atoms * 16 // 8
    tracemalloc.start()
    try:
        restriction_norm(op, Fraction(4, 3), 2, ProbeOptions(restarts=2, max_iters=5, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < budget, (peak, budget)
    assert "matrix" not in op.__dict__
