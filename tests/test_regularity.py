import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictlab import regularity
from restrictlab.measures import DiscreteMeasure, cantor, circle, dirac, random_flat, uniform
from restrictlab.rationals import INF, conjugate, exp_str, is_inf
from restrictlab.regularity import (
    _windowed_sums,
    ahlfors_alpha,
    ball_masses,
    ball_masses_at,
    billingsley_gamma,
    default_scales,
    endpoint_q,
    fourier_beta,
    knapp_bound,
    mockenhaupt_p0,
    stein_tomas_p,
    theorem_range,
)
from restrictlab.spectral import fourier
from restrictlab.verifiers import exponent_identity

from oracles import (
    concat_roll_windowed_sums,
    dense_ball_masses,
    dense_grid_billingsley_center,
    dirichlet_interval_spectrum_sq,
)


# ---------------------------------------------------------------------------
# Ball scans
# ---------------------------------------------------------------------------

def test_window_sums_match_dense_oracle():
    rng = np.random.default_rng(21)
    flat2 = rng.choice(32 * 32, size=19, replace=False)
    w2 = rng.random(19)
    mu2 = DiscreteMeasure(2, 32, np.stack(np.unravel_index(flat2, (32, 32)), axis=1),
                          w2 / w2.sum())
    for mu in (random_flat(128, 11, seed=21), mu2):
        for r in (0.25, 0.1, 0.03):
            fast = ball_masses(mu, r)
            slow = dense_ball_masses(mu.indices, mu.weights, mu.N, r)
            assert fast.shape == slow.shape
            assert np.max(np.abs(fast - slow)) <= 1e-12


def test_window_sums_dim2():
    mu = dirac(2, 32, (5, 7))
    masses = ball_masses(mu, 3.5 / 32)
    assert masses[5, 7] == pytest.approx(1.0)
    assert masses[5, 10] == pytest.approx(1.0)   # still within sup-ball (h=3)
    assert masses[5, 11] == pytest.approx(0.0)
    assert masses[2, 4] == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(1 << 16,), (256, 256)])
@pytest.mark.parametrize("halfwidth", [0, 2, 64, 1 << 20])
def test_window_sums_bit_identical_to_concat_roll(shape, halfwidth):
    # the largest half-width covers the whole axis
    values = np.random.default_rng(len(shape) * 1000 + halfwidth % 997).random(shape)
    for axis in range(len(shape)):
        sums = values.copy()
        _windowed_sums(sums, halfwidth, axis)
        assert np.array_equal(sums, concat_roll_windowed_sums(values, halfwidth, axis))


def _oracle_ball_masses(mu, halfwidth):
    """ball_masses' grid from the concat-and-roll oracle, last axis first."""
    grid = mu.dense_weights()
    for axis in reversed(range(mu.dim)):
        grid = concat_roll_windowed_sums(grid, halfwidth, axis)
    return grid


def _random_measure(dim, N, m, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(N**dim, size=m, replace=False)
    w = rng.random(m)
    return DiscreteMeasure(dim, N, np.stack(np.unravel_index(flat, (N,) * dim), axis=1),
                           w / w.sum())


@pytest.mark.parametrize("dim, N, m", [(1, 4096, 700), (2, 128, 900)])
def test_ball_mass_scans_bit_identical_to_concat_roll(dim, N, m):
    mu = _random_measure(dim, N, m, seed=dim)
    scales = default_scales(N)
    # odd half-widths 3, 5, 7, 9, ...: radius (h + 1/2)/N has half-width h
    odd_scales = [(h + 0.5) / N for h in range(3, 3 + 2 * len(scales), 2)]
    for window in (scales, odd_scales):
        halfwidths = [int(np.floor(r * N)) for r in sorted(window)]
        grids = [_oracle_ball_masses(mu, h) for h in halfwidths]
        assert ahlfors_alpha(mu, window).values == [float(g.max()) for g in grids]
        for r, grid in zip(sorted(window), grids):
            assert np.array_equal(ball_masses(mu, r), grid)
    # the widest window short of the axis (2h + 1 = N - 1), and the whole axis (2h + 1 > N)
    for r in ((N // 2 - 0.5) / N, 0.5):
        assert np.array_equal(ball_masses(mu, r), _oracle_ball_masses(mu, int(np.floor(r * N))))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_alpha_in_1d_allocates_one_prefix_buffer():
    mu = cantor(4, {0, 3}, 10)  # N = 2^20, no grid is built
    H = int(np.floor(max(default_scales(mu.N)) * mu.N))
    prefix = (mu.N + 2 * H + 1) * 8
    assert _traced_peak(ahlfors_alpha, mu) <= prefix + 2**20


def test_alpha_in_2d_allocates_one_grid_and_one_prefix_buffer():
    mu = circle(1024, 0.25)
    N = mu.N
    H = int(np.floor(max(default_scales(N)) * N))
    grid, prefix = N * N * 8, (N + 2 * H + 1) * N * 8
    # the strided subtraction of the axis-1 pass runs through numpy's
    # buffered iterator, one np.getbufsize() of float64 per operand
    iterator_buffers = 4 * np.getbufsize() * 8
    assert _traced_peak(ahlfors_alpha, mu) <= grid + prefix + iterator_buffers


def test_ball_of_radius_one_half_is_the_whole_torus():
    # the antipodal atom at distance N/2 lies in the closed ball of radius 1/2
    mu = DiscreteMeasure(1, 8, [[0], [4]], [0.5, 0.5])
    assert np.array_equal(ball_masses(mu, 0.5), np.ones(8))
    assert ball_masses_at(mu, [0], [0.5, 0.25]) == [1.0, 0.5]


@st.composite
def _measure_and_halfwidths(draw):
    dim = draw(st.sampled_from([1, 2]))
    N = 2 ** draw(st.integers(1, 6 if dim == 1 else 4))
    m = draw(st.integers(1, min(N**dim, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.choice(N**dim, size=m, replace=False)
    idx = np.stack(np.unravel_index(flat, (N,) * dim), axis=1)
    w = rng.random(m) + 0.01
    # half-widths up to N/2, where the window is the whole axis
    halfwidths = draw(st.lists(st.integers(0, N // 2), min_size=1, max_size=4))
    return DiscreteMeasure(dim, N, idx, w / w.sum()), halfwidths


@given(_measure_and_halfwidths())
@settings(max_examples=60, deadline=None)
def test_ball_masses_at_matches_dense_oracle_at_every_center(case):
    mu, halfwidths = case
    N = mu.N
    # radius (k + 1/2)/N has half-width k; 1/2 is the largest radius allowed
    for r in (min((k + 0.5) / N, 0.5) for k in halfwidths):
        grid = ball_masses(mu, r)
        dense = dense_ball_masses(mu.indices, mu.weights, N, r)
        for center in np.ndindex(grid.shape):
            (value,) = ball_masses_at(mu, center, [r])
            assert abs(value - grid[center]) <= 1e-13
            assert abs(value - dense[center]) <= 1e-13


def test_billingsley_builds_one_grid(monkeypatch):
    radii = []
    real = regularity.ball_masses

    def counting(mu, radius):
        radii.append(radius)
        return real(mu, radius)

    monkeypatch.setattr(regularity, "ball_masses", counting)
    mu = circle(64, 0.25)
    rep = billingsley_gamma(mu, [0.25, 0.125, 0.0625, 0.03125])
    assert radii == [0.03125]
    assert rep.values == ball_masses_at(mu, rep.center, rep.scales)


@pytest.mark.parametrize("dim, N", [(1, 256), (2, 32)])
def test_billingsley_center_matches_the_dense_grid_rule(dim, N):
    # few atoms give wide plateaus of the finest-scale argmax, with cells
    # that carry atoms and cells that do not; the atoms are given unsorted,
    # and every other measure has equal weights, so cell masses tie as well
    scales = [0.25, 0.125, 0.0625]
    for seed in range(40):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        flat = rng.choice(N**dim, size=m, replace=False)
        w = rng.random(m) if seed % 2 else np.ones(m)
        mu = DiscreteMeasure(dim, N, np.stack(np.unravel_index(flat, (N,) * dim), axis=1), w / w.sum())
        center = billingsley_gamma(mu, scales).center
        assert center == dense_grid_billingsley_center(mu, ball_masses(mu, min(scales))), seed


def test_billingsley_tie_break_builds_no_second_grid(monkeypatch):
    mu = cantor(4, {0, 3}, 10)  # N = 2^20
    h = int(np.floor(min(default_scales(mu.N)) * mu.N))
    grid, prefix = mu.N * 8, (mu.N + 2 * h + 1) * 8
    scan = []
    real = regularity.ball_masses

    def scanned(mu, radius):
        out = real(mu, radius)
        scan.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(regularity, "ball_masses", scanned)
    after = _traced_peak(billingsley_gamma, mu)
    assert max(scan[0], after) <= grid + prefix + 2**20
    # once the scan is done the tie-break holds the grid and under 2 MiB more
    # (a plateau mask of N bytes and the plateau's cells), no dense weight grid
    assert after <= grid + 2 * 2**20


def test_alpha_uniform_is_one():
    rep = ahlfors_alpha(uniform(1, 4096))
    assert rep.estimate == pytest.approx(1.0, abs=0.02)
    assert rep.fit.reliable


def test_alpha_dirac_is_zero():
    rep = ahlfors_alpha(dirac(1, 4096, 123))
    assert rep.estimate == pytest.approx(0.0, abs=0.02)


def test_alpha_cantor_half():
    mu = cantor(4, {0, 3}, 8)
    scales = [4.0**-i for i in range(1, 7)]
    rep = ahlfors_alpha(mu, scales)
    assert rep.estimate == pytest.approx(0.5, abs=0.05)
    # self-similar mass oracle: the max ball mass at radius 4^-i is exactly
    # 2 * 2^-i (a dyadic-cell pair at the wrap point), so mu(B) <= 2 r^(1/2)
    for r, value in zip(rep.scales, rep.values):
        i = round(-np.log(r) / np.log(4))
        assert value == pytest.approx(2.0 * 2.0**-i, rel=1e-12)
        assert value <= 2.0 * r**0.5 + 1e-12


def test_alpha_needs_three_scales():
    with pytest.raises(ValueError):
        ahlfors_alpha(uniform(1, 256), [0.25, 0.125])


def test_scales_validated():
    with pytest.raises(ValueError):
        ahlfors_alpha(uniform(1, 64), [0.5, 0.25, 0.125])


def test_billingsley_dirac():
    mu = dirac(1, 1024, 77)
    rep = billingsley_gamma(mu)
    assert rep.center == (77,)
    assert rep.estimate == pytest.approx(0.0, abs=0.02)


def test_billingsley_cantor():
    mu = cantor(4, {0, 3}, 8)
    rep = billingsley_gamma(mu, [4.0**-i for i in range(1, 7)])
    assert rep.estimate == pytest.approx(0.5, abs=0.05)
    # the located center carries nontrivial mass at the finest scale
    finest = ball_masses(mu, 4.0**-6)
    assert finest[rep.center[0]] == finest.max()


def test_billingsley_uniform():
    rep = billingsley_gamma(uniform(1, 4096))
    assert rep.estimate == pytest.approx(1.0, abs=0.05)


def test_alpha_gamma_agree_on_cantor():
    mu = cantor(4, {0, 3}, 8)
    scales = [4.0**-i for i in range(1, 7)]
    a = ahlfors_alpha(mu, scales).estimate
    g = billingsley_gamma(mu, scales).estimate
    assert abs(a - g) <= 0.05


def test_default_scales_window():
    scales = default_scales(4096)
    assert max(scales) == 0.25
    assert min(scales) > 1 / 4096
    assert len(scales) == 6


# ---------------------------------------------------------------------------
# Fourier decay
# ---------------------------------------------------------------------------

def test_beta_half_interval():
    N = 4096
    idx = np.arange(N // 2).reshape(-1, 1)
    mu = uniform(1, N)
    half = type(mu)(1, N, idx, np.full(N // 2, 2.0 / N))
    spec = fourier(half, 512)
    # closed-form Dirichlet oracle at a few frequencies
    for k in (3, 17, 101):
        assert abs(spec[k + 512]) ** 2 == pytest.approx(
            dirichlet_interval_spectrum_sq(N, k), rel=1e-9)
    rep = fourier_beta(spec)
    assert rep.beta_sup == pytest.approx(2.0, abs=0.1)


def test_beta_dirac_zero():
    rep = fourier_beta(fourier(dirac(1, 1024, 0), 256))
    assert rep.beta_sup == pytest.approx(0.0, abs=0.01)
    assert rep.beta_avg == pytest.approx(0.0, abs=0.01)


def test_beta_circle():
    spec = fourier(circle(1024, 0.25), 128)
    rep = fourier_beta(spec)
    assert rep.beta_sup == pytest.approx(1.0, abs=0.15)


def test_alpha_circle():
    rep = ahlfors_alpha(circle(1024, 0.25))
    assert rep.estimate == pytest.approx(1.0, abs=0.1)


def test_beta_requires_K():
    with pytest.raises(ValueError):
        fourier_beta(fourier(dirac(1, 64, 0), 8))


# ---------------------------------------------------------------------------
# Exact exponent calculators
# ---------------------------------------------------------------------------

def test_theorem_range_bounded_selfconvolution_case():
    rng = theorem_range(2, INF)
    assert rng.p_max == Fraction(4, 3)
    assert rng.q_max(Fraction(4, 3)) == Fraction(2)
    assert rng.feasible


def test_theorem_range_r2_branches_agree():
    rng = theorem_range(2, 2)
    assert rng.p_max == Fraction(4, 3)
    # r <= 2 branch formula evaluated by hand: n r' = 4 -> 4/3
    assert Fraction(4, 4 - 1) == rng.p_max
    assert rng.q_max(Fraction(4, 3)) == Fraction(1)


def test_theorem_range_n1():
    rng = theorem_range(1, INF)
    assert rng.p_max == Fraction(2)
    for p in (Fraction(4, 3), Fraction(3, 2), 2):
        assert rng.q_max(p) == conjugate(p)


def test_theorem_range_r1_infeasible():
    rng = theorem_range(2, 1)
    assert not rng.feasible


def test_region_membership():
    rng = theorem_range(2, INF)
    assert rng.contains(Fraction(4, 3), 2)
    assert rng.contains(Fraction(5, 4), Fraction(3, 2))
    assert not rng.contains(Fraction(8, 5), 2)
    assert not rng.contains(Fraction(4, 3), 4)
    assert rng.contains(1, 1)


def test_mockenhaupt_values():
    assert mockenhaupt_p0(1, Fraction(1, 2), Fraction(1, 2)) == Fraction(6, 5)
    for d in (1, 2, 3):
        assert mockenhaupt_p0(d, d - 1, d - 1) == Fraction(2 * (d + 1), d + 3)
        assert mockenhaupt_p0(d, d - 1, d - 1) == stein_tomas_p(d)


@given(st.fractions(min_value=0, max_value=Fraction(1, 3)))
@settings(max_examples=60)
def test_mockenhaupt_epsilon_family(eps):
    # gamma = 1/2 + eps with alpha = beta = gamma
    p0 = mockenhaupt_p0(1, Fraction(1, 2) + eps, Fraction(1, 2) + eps)
    assert p0 == Fraction(6 - 4 * eps, 5 - 6 * eps)


@given(st.fractions(min_value=0, max_value=Fraction(49, 100)))
@settings(max_examples=60)
def test_flat_range_beats_decay_range_iff_gamma_small(eps):
    p0 = Fraction(6 - 4 * eps, 5 - 6 * eps)
    assert (Fraction(4, 3) > p0) == (eps < Fraction(1, 6))


def test_knapp_values():
    assert knapp_bound(1, Fraction(1, 2), Fraction(4, 3)) == Fraction(2)
    assert knapp_bound(1, Fraction(1, 2), 2) == Fraction(1)
    for d, p in ((1, Fraction(4, 3)), (2, Fraction(3, 2))):
        assert knapp_bound(d, d, p) == conjugate(p)
    assert is_inf(knapp_bound(1, Fraction(1, 2), 1))


def test_theorem_and_knapp_boundaries_coincide_at_half_dimension():
    # d=1, gamma=1/2: the admissible boundary q = p'/2 at (n=2, r=inf) is
    # exactly the necessary Knapp bound for every p in the range
    rng = theorem_range(2, INF)
    p = Fraction(1)
    while p <= rng.p_max:
        assert rng.q_max(p) == knapp_bound(1, Fraction(1, 2), p)
        p += Fraction(1, 30)


def test_exponent_params_derived_values():
    q = endpoint_q(2, INF, Fraction(4, 3))
    assert q == 2 and conjugate(q) == 2
    rec = exponent_identity(2, INF, Fraction(4, 3))
    assert rec["q"] == "2" and rec["s"] == "2"
    assert rec["p"] == "4/3" and rec["r"] == "inf"
    # 1/s' = 1/2 with s = p'/n = 4/2, so s' = 2
    assert rec["lhs"] == "1/2" and rec["holds"]
    assert exp_str(conjugate(Fraction(4, 3))) == "4"


def test_endpoint_q_edge_cases():
    assert endpoint_q(2, INF, Fraction(4, 3)) == 2
    assert endpoint_q(2, 2, Fraction(4, 3)) == 1
    assert endpoint_q(2, 1, Fraction(4, 3)) == 0
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            endpoint_q(n, INF, Fraction(4, 3))


def test_exponent_params_rejects_infeasible():
    # r = 1 puts the endpoint q at 0, below 1
    with pytest.raises(ValueError, match="q = 0 is outside"):
        exponent_identity(2, 1, Fraction(4, 3))
