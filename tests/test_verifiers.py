import json

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictlab import regularity, verifiers
from restrictlab.measures import cantor, circle, dirac, random_flat, uniform
from restrictlab.rationals import INF
from restrictlab.verifiers import (
    check_bilinear,
    check_dual_chain,
    check_hausdorff_young,
    check_prop1,
    check_prop2,
    check_prop3,
    exponent_identity,
    feasible_triples,
    grid_transform,
    greedy_disjoint_balls,
    knapp_test,
    materialized_pair_sum,
    prepare_chain,
    random_bounded_g,
    torus_convolve,
    torus_convolve_power,
)
from restrictlab.spectral import lp_norm


# ---------------------------------------------------------------------------
# Hausdorff-Young
# ---------------------------------------------------------------------------

def test_hy_parseval_equality():
    rng = np.random.default_rng(0)
    h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    rec = check_hausdorff_young(h, 2)
    assert abs(rec.slack) <= 1e-10 * max(rec.lhs, 1.0)


def test_hy_sup_equality_for_nonnegative():
    rng = np.random.default_rng(1)
    h = rng.random(128)
    rec = check_hausdorff_young(h, INF)
    # ||h_hat||_inf = h_hat(0) = mean(h) = ||h||_1 for h >= 0
    assert abs(rec.slack) <= 1e-12 * max(rec.lhs, 1.0)


def test_hy_rejects_s_below_two():
    with pytest.raises(ValueError):
        check_hausdorff_young(np.ones(16), Fraction(3, 2))


@pytest.mark.parametrize("s", [2, 4, 8, INF])
def test_hy_random_batch(s):
    rng = np.random.default_rng(123)
    for _ in range(100):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert check_hausdorff_young(h, s).holds(1e-10)


@given(st.lists(st.complex_numbers(max_magnitude=50, allow_nan=False,
                                   allow_infinity=False), min_size=4, max_size=32))
@settings(max_examples=200, deadline=None)
def test_hy_property(values):
    h = np.zeros(32, dtype=complex)
    h[: len(values)] = values
    for s in (2, 4, INF):
        assert check_hausdorff_young(h, s).holds(1e-9)


# ---------------------------------------------------------------------------
# Dual chain
# ---------------------------------------------------------------------------

def test_chain_uniform_constant_g():
    mu = uniform(1, 128)
    g = np.ones(128, dtype=complex)
    report = check_dual_chain(prepare_chain(mu, 2, INF, Fraction(4, 3)), g)
    assert report.all_hold()
    assert report.end_to_end.slack >= -1e-10
    names = [s.name for s in report.steps]
    assert names == ["power_identity", "hausdorff_young", "inner_holder",
                     "outer_holder", "inner_mass_identity", "young_mollifier"]


def test_chain_r2_branch_q_one():
    mu = random_flat(128, 16, seed=3)
    g = random_bounded_g(128, 1, seed=4)
    report = check_dual_chain(prepare_chain(mu, 2, 2, Fraction(4, 3)), g)
    assert report.instance["q"] == "1"
    assert report.all_hold()


def test_chain_materialized_oracle_small_grid():
    mu = random_flat(64, 10, seed=5)
    g = random_bounded_g(64, 1, seed=6)
    report = check_dual_chain(prepare_chain(mu, 2, INF, Fraction(4, 3)), g)
    assert report.oracle_match is not None
    assert report.oracle_match <= 1e-10


def test_materialized_sum_equals_fft_convolution():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    brute = materialized_pair_sum(h)
    fast = torus_convolve(h, h)
    assert np.max(np.abs(brute - fast)) <= 1e-12


@pytest.mark.parametrize("shape", [(64,), (63,), (16, 16), (15, 15)])
def test_real_convolution_power_matches_repeated_complex_convolution(shape):
    a = np.random.default_rng(3).random(shape)
    expected = a.astype(np.complex128)
    for n in (1, 2, 3):
        power = torus_convolve_power(a, n)
        assert power.dtype == np.float64 and power.shape == shape
        assert np.max(np.abs(power - expected)) <= 1e-12 * np.max(np.abs(expected))
        expected = torus_convolve(expected, a)


def test_convolution_power_of_a_signed_density_raises():
    # the clip is meant for round-off only, so a signed input must not be
    # clipped into a density
    a = np.zeros(64)
    a[0], a[1] = 1.0, -1.0
    for n in (1, 2, 3):
        with pytest.raises(ArithmeticError, match="negative value"):
            torus_convolve_power(a, n)


def test_chain_random_instances_no_negative_slack():
    chain = prepare_chain(random_flat(256, 24, seed=8), 2, INF, Fraction(4, 3), epsilon=2)
    for trial in range(25):
        g = random_bounded_g(256, 1, seed=100 + trial)
        report = check_dual_chain(chain, g)
        assert report.all_hold(1e-8), report.as_dict()


def test_chain_compositionality():
    # if every step holds, the assembled dual estimate cannot fail
    chain = prepare_chain(random_flat(256, 30, seed=9), 2, INF, Fraction(4, 3))
    for trial in range(10):
        g = random_bounded_g(256, 1, seed=200 + trial)
        rep = check_dual_chain(chain, g)
        by_name = {s.name: s for s in rep.steps}
        # adjacent steps share their boundary values
        assert by_name["hausdorff_young"].lhs == pytest.approx(
            by_name["power_identity"].rhs, rel=1e-12)
        assert by_name["inner_holder"].lhs == pytest.approx(
            by_name["hausdorff_young"].rhs, rel=1e-12)
        assert by_name["outer_holder"].lhs == pytest.approx(
            by_name["inner_holder"].rhs, rel=1e-12)
        assert rep.end_to_end.lhs**2 == pytest.approx(
            by_name["power_identity"].lhs, rel=1e-9)
        assert rep.end_to_end.rhs**2 >= by_name["outer_holder"].rhs * (1 - 1e-9)
        assert rep.end_to_end.holds()


def test_chain_epsilon_variants():
    mu = random_flat(256, 24, seed=10)
    g = random_bounded_g(256, 1, seed=11)
    for eps in (1, 2, 8, 16):
        chain = prepare_chain(mu, 2, INF, Fraction(4, 3), epsilon=eps)
        assert check_dual_chain(chain, g).all_hold()


def test_chain_n3():
    mu = random_flat(128, 10, seed=12)
    g = random_bounded_g(128, 1, seed=13)
    report = check_dual_chain(prepare_chain(mu, 3, INF, Fraction(6, 5)), g)
    assert report.instance["s"] == "2"
    assert report.all_hold()


def test_chain_intermediate_r():
    # r = 4: endpoint q = p'/(n r') = 3 at p = 8/7, generic Holder branch
    mu = random_flat(128, 14, seed=14)
    g = random_bounded_g(128, 1, seed=15)
    report = check_dual_chain(prepare_chain(mu, 2, 4, Fraction(8, 7)), g)
    assert report.instance["q"] == "3"
    assert report.instance["s"] == "4"
    assert report.all_hold()


def test_chain_rejects_infeasible():
    mu = uniform(1, 64)
    with pytest.raises(ValueError):
        prepare_chain(mu, 2, INF, Fraction(3, 2))  # p beyond 4/3: s < 2
    with pytest.raises(ValueError):
        prepare_chain(mu, 2, 1, Fraction(4, 3))  # r = 1: q = 0


def test_chain_dim2():
    mu = dirac(2, 16, (3, 5))
    rng = np.random.default_rng(30)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    report = check_dual_chain(prepare_chain(mu, 2, INF, Fraction(4, 3), epsilon=2), g)
    assert report.all_hold()
    assert report.instance["dim"] == 2


def test_chain_rejects_g_off_the_grid():
    chain = prepare_chain(uniform(1, 64), 2, INF, Fraction(4, 3))
    with pytest.raises(ValueError, match="full grid"):
        check_dual_chain(chain, np.ones(32, dtype=complex))


@pytest.mark.parametrize("r", [INF, 2])
def test_prepared_chain_is_read_only_and_trials_independent(r):
    mu = random_flat(128, 16, seed=40)
    chain = prepare_chain(mu, 2, r, Fraction(4, 3))
    # q' = 2 at r = inf keeps M_n^{1/q}; q' = inf at r = 2 keeps none
    assert (chain.M_n_root is None) == (r == 2)
    for array in (a for a in (chain.mu_eps, chain.M_n, chain.M_n_root) if a is not None):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    g1, g2 = random_bounded_g(128, 1, seed=41), random_bounded_g(128, 1, seed=42)
    check_dual_chain(chain, g1)
    after_g1 = check_dual_chain(chain, g2).as_dict()
    fresh = check_dual_chain(prepare_chain(mu, 2, r, Fraction(4, 3)), g2).as_dict()
    assert json.dumps(after_g1, sort_keys=True) == json.dumps(fresh, sort_keys=True)


def test_knapp_dim2_uniform():
    mu = uniform(2, 64)
    rep = knapp_test(mu, 2, 2, [2.0**-j for j in range(2, 6)], regularity.billingsley_gamma(mu))
    # gamma_hat ~ 2, so predicted exponent = 2/2 - 2/2 = 0
    assert abs(rep.predicted_exponent) <= 0.1
    assert not rep.violated


# ---------------------------------------------------------------------------
# Propositions
# ---------------------------------------------------------------------------

def test_prop1_uniform():
    rep = check_prop1(uniform(1, 2048), 2)
    assert rep.alpha_conv == pytest.approx(1.0, abs=0.05)
    assert rep.alpha_mu == pytest.approx(1.0, abs=0.05)
    assert rep.passed


def test_prop1_dirac():
    rep = check_prop1(dirac(1, 2048, 9), 2)
    assert rep.alpha_conv == pytest.approx(0.0, abs=0.02)
    assert rep.alpha_mu == pytest.approx(0.0, abs=0.02)
    assert rep.passed


def test_prop1_random_flat():
    rep = check_prop1(random_flat(4096, 185, seed=20240613), 2)
    assert rep.alpha_conv == pytest.approx(1.0, abs=0.15)
    assert rep.alpha_mu >= 0.4
    assert rep.passed


def test_prop2_cantor_classifications():
    mu = cantor(4, {0, 3}, 8)
    K_list = [2**j for j in range(4, 13)]
    diverging, leveling = check_prop2(mu, Fraction(1, 2), (2, 8), K_list)
    assert diverging.classification == "diverging" == diverging.expected
    assert diverging.agrees
    assert leveling.classification == "leveling" == leveling.expected
    assert leveling.agrees
    assert diverging.critical == 4


def test_prop2_dirac_edge():
    mu = dirac(1, 1024, 0)
    reports = check_prop2(mu, Fraction(1, 100), (2, 8), [16, 32, 64, 128, 256])
    assert [rep.s for rep in reports] == [2, 8]
    for rep in reports:
        assert rep.classification == "diverging"
        assert rep.agrees


@pytest.mark.parametrize("mu", [random_flat(256, 20, seed=9), circle(32, 0.25)], ids=["1d", "2d"])
def test_prop2_sums_each_grid_frequency_once(mu):
    # Parseval: sum over Z_N^dim of |mu_hat|^2 = N^dim sum_j w_j^2.  The
    # frequencies +-N/2 are one frequency, which the sum at K = N/2 holds
    # once in 1-D; in 2-D the full grid needs K = N/sqrt(2), above the cap,
    # so compare with the direct sum over the same disc instead
    K = mu.N // 2
    (rep,) = check_prop2(mu, Fraction(1, 2), (2,), [K // 8, K // 4, K // 2, K])
    if mu.dim == 1:
        assert rep.partial_sums[-1] == pytest.approx(mu.N * float(np.sum(mu.weights**2)), rel=1e-12)
    ks = np.arange(-K, K)  # one representative of each frequency mod N per axis
    grid = np.meshgrid(*[ks] * mu.dim, indexing="ij")
    disc = sum(k**2 for k in grid) <= K**2
    pos = mu.positions()
    phase = sum(np.multiply.outer(k[disc], pos[:, a]) for a, k in enumerate(grid))
    direct = np.abs(np.exp(-2j * np.pi * phase) @ mu.weights) ** 2
    assert rep.partial_sums[-1] == pytest.approx(float(direct.sum()), rel=1e-12)


def test_prop3_uniform():
    rep = check_prop3(uniform(1, 2048), 1)
    assert rep.fitted_exponent == pytest.approx(1.0, abs=0.05)
    assert rep.passed


def test_prop3_dirac_constant_mass():
    rep = check_prop3(dirac(1, 1024, 3), Fraction(1, 2))
    assert rep.fitted_exponent == pytest.approx(0.0, abs=0.01)
    assert rep.passed
    assert all(m == 1.0 for m in rep.masses)


def test_prop3_cantor():
    rep = check_prop3(cantor(4, {0, 3}, 8), Fraction(1, 2))
    assert rep.fitted_exponent <= 0.6
    assert rep.passed


def test_prop3_builds_no_ball_mass_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("check_prop3 built a ball-mass grid")

    monkeypatch.setattr(regularity, "ball_masses", no_grid)
    monkeypatch.setattr(verifiers, "ball_masses", no_grid, raising=False)
    assert check_prop3(cantor(4, {0, 3}, 6), Fraction(1, 2)).passed


def test_greedy_packing_counts():
    mu = cantor(4, {0, 3}, 4)
    # at separation 4^-1 the four stage-1 branch pairs collapse to 2 balls
    assert greedy_disjoint_balls(mu, 0.25) == 2
    assert greedy_disjoint_balls(mu, 1.0 / 256) == 16


def test_prop3_packing_reported():
    rep = check_prop3(cantor(4, {0, 3}, 6), Fraction(1, 2))
    assert all(c >= 1 for c in rep.packing_counts)
    # finer scales pack at least as many disjoint balls
    assert all(rep.packing_counts[i] >= rep.packing_counts[i + 1]
               for i in range(len(rep.packing_counts) - 1))


# ---------------------------------------------------------------------------
# Knapp test
# ---------------------------------------------------------------------------

def test_knapp_uniform_22():
    mu = uniform(1, 4096)
    rep = knapp_test(mu, 2, 2, [2.0**-j for j in range(2, 8)], regularity.billingsley_gamma(mu))
    assert abs(rep.predicted_exponent) <= 0.05
    assert abs(rep.fitted_exponent) <= 0.05
    assert not rep.violated


def test_knapp_cantor_sharp_corner_clears():
    mu = cantor(4, {0, 3}, 8)
    rep = knapp_test(mu, Fraction(4, 3), 2, [4.0**-j for j in range(1, 6)],
                     regularity.billingsley_gamma(mu))
    assert abs(rep.predicted_exponent) <= 0.05
    assert not rep.violated


def test_knapp_cantor_beyond_region_flags():
    mu = cantor(4, {0, 3}, 8)
    rep = knapp_test(mu, Fraction(4, 3), 4, [4.0**-j for j in range(1, 6)],
                     regularity.billingsley_gamma(mu))
    assert rep.predicted_exponent < -0.05
    assert rep.violated


def test_knapp_ratio_scale_invariance():
    # the ratio knapp_test fits is invariant under rescaling the bump
    mu = cantor(4, {0, 3}, 6)
    taps = (1.0 - np.abs(np.arange(-16, 17)) / 17).astype(complex)
    fhat = np.ones(mu.num_atoms)  # any fixed transform values
    base = lp_norm(fhat, 2, mu.weights) / lp_norm(taps, Fraction(4, 3))
    scaled = lp_norm(7.3 * fhat, 2, mu.weights) / lp_norm(7.3 * taps, Fraction(4, 3))
    assert scaled == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# Bilinear estimate
# ---------------------------------------------------------------------------

def test_bilinear_p1_equality_for_nonnegative():
    mu = random_flat(128, 12, seed=20)
    rng = np.random.default_rng(21)
    f, g = rng.random(128), rng.random(128)
    rec = check_bilinear(mu, f, g, 1)
    assert abs(rec.slack) <= 1e-10 * max(rec.lhs, 1.0)


@pytest.mark.parametrize("p", [INF, Fraction(4, 3)])
def test_bilinear_random_instances(p):
    mu = random_flat(128, 12, seed=22)
    rng = np.random.default_rng(23)
    for _ in range(100):
        f = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        g = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert check_bilinear(mu, f, g, p).holds(1e-8)


# ---------------------------------------------------------------------------
# Exponent identity
# ---------------------------------------------------------------------------

def test_exponent_identity_examples():
    a = exponent_identity(2, INF, Fraction(4, 3))
    assert a["holds"] and a["q"] == "2" and a["s"] == "2"
    b = exponent_identity(2, 2, Fraction(4, 3))
    assert b["holds"] and b["q"] == "1"
    c = exponent_identity(1, INF, 2)
    assert c["holds"] and c["q"] == "2"


def test_exponent_identity_grid():
    triples = feasible_triples()
    assert len(triples) >= 50
    for n, r, p in triples:
        assert exponent_identity(n, r, p)["holds"], (n, r, p)


def test_grid_transform_normalization():
    h = np.ones(16)
    hat = grid_transform(h)
    assert hat[0] == pytest.approx(1.0)
    assert np.max(np.abs(hat[1:])) <= 1e-12
    assert lp_norm(h, 2, volume=h.size) == pytest.approx(1.0)
