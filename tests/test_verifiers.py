import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictlab.measures import cantor, dirac, random_flat, uniform
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
    random_bounded_g,
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
    rec = check_hausdorff_young(h, 2, direction="lattice")
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
        assert check_hausdorff_young(h, s, direction="lattice").holds(1e-9)


# ---------------------------------------------------------------------------
# Dual chain
# ---------------------------------------------------------------------------

def test_chain_uniform_constant_g():
    mu = uniform(1, 128)
    g = np.ones(128, dtype=complex)
    report = check_dual_chain(mu, g, 2, INF, Fraction(4, 3))
    assert report.all_hold()
    assert report.end_to_end.slack >= -1e-10
    names = [s.name for s in report.steps]
    assert names == ["power_identity", "hausdorff_young", "inner_holder",
                     "outer_holder", "inner_mass_identity", "young_mollifier"]


def test_chain_r2_branch_q_one():
    mu = random_flat(128, 16, seed=3)
    g = random_bounded_g(128, 1, seed=4)
    report = check_dual_chain(mu, g, 2, 2, Fraction(4, 3))
    assert report.instance["q"] == "1"
    assert report.all_hold()


def test_chain_materialized_oracle_small_grid():
    mu = random_flat(64, 10, seed=5)
    g = random_bounded_g(64, 1, seed=6)
    report = check_dual_chain(mu, g, 2, INF, Fraction(4, 3))
    assert report.oracle_match is not None
    assert report.oracle_match <= 1e-10


def test_materialized_sum_equals_fft_convolution():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    brute = materialized_pair_sum(h)
    fast = torus_convolve_power(h, 2)
    assert np.max(np.abs(brute - fast)) <= 1e-12


def test_chain_random_instances_no_negative_slack():
    mu = random_flat(256, 24, seed=8)
    for trial in range(25):
        g = random_bounded_g(256, 1, seed=100 + trial)
        report = check_dual_chain(mu, g, 2, INF, Fraction(4, 3), epsilon=2)
        assert report.all_hold(1e-8), report.as_dict()


def test_chain_compositionality():
    # if every step holds, the assembled dual estimate cannot fail
    mu = random_flat(256, 30, seed=9)
    for trial in range(10):
        g = random_bounded_g(256, 1, seed=200 + trial)
        rep = check_dual_chain(mu, g, 2, INF, Fraction(4, 3))
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
        assert check_dual_chain(mu, g, 2, INF, Fraction(4, 3), epsilon=eps).all_hold()


def test_chain_n3():
    mu = random_flat(128, 10, seed=12)
    g = random_bounded_g(128, 1, seed=13)
    report = check_dual_chain(mu, g, 3, INF, Fraction(6, 5))
    assert report.instance["s"] == "2"
    assert report.all_hold()


def test_chain_intermediate_r():
    # r = 4: endpoint q = p'/(n r') = 3 at p = 8/7, generic Holder branch
    mu = random_flat(128, 14, seed=14)
    g = random_bounded_g(128, 1, seed=15)
    report = check_dual_chain(mu, g, 2, 4, Fraction(8, 7))
    assert report.instance["q"] == "3"
    assert report.instance["s"] == "4"
    assert report.all_hold()


def test_chain_rejects_infeasible():
    mu = uniform(1, 64)
    g = np.ones(64, dtype=complex)
    with pytest.raises(ValueError):
        check_dual_chain(mu, g, 2, INF, Fraction(3, 2))  # p beyond 4/3: s < 2
    with pytest.raises(ValueError):
        check_dual_chain(mu, g, 2, 1, Fraction(4, 3))  # r = 1: q = 0


def test_chain_dim2():
    mu = dirac(2, 16, (3, 5))
    rng = np.random.default_rng(30)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    report = check_dual_chain(mu, g, 2, INF, Fraction(4, 3), epsilon=2)
    assert report.all_hold()
    assert report.instance["dim"] == 2


def test_knapp_dim2_uniform():
    mu = uniform(2, 64)
    rep = knapp_test(mu, 2, 2, [2.0**-j for j in range(2, 6)])
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
    diverging = check_prop2(mu, Fraction(1, 2), 2, K_list)
    assert diverging.classification == "diverging" == diverging.expected
    assert diverging.agrees
    leveling = check_prop2(mu, Fraction(1, 2), 8, K_list)
    assert leveling.classification == "leveling" == leveling.expected
    assert leveling.agrees
    assert diverging.critical == 4


def test_prop2_dirac_edge():
    mu = dirac(1, 1024, 0)
    for s in (2, 8):
        rep = check_prop2(mu, Fraction(1, 100), s, [16, 32, 64, 128, 256])
        assert rep.classification == "diverging"
        assert rep.agrees


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
    rep = knapp_test(uniform(1, 4096), 2, 2, [2.0**-j for j in range(2, 8)])
    assert abs(rep.predicted_exponent) <= 0.05
    assert abs(rep.fitted_exponent) <= 0.05
    assert not rep.violated


def test_knapp_cantor_sharp_corner_clears():
    mu = cantor(4, {0, 3}, 8)
    rep = knapp_test(mu, Fraction(4, 3), 2, [4.0**-j for j in range(1, 6)])
    assert abs(rep.predicted_exponent) <= 0.05
    assert not rep.violated


def test_knapp_cantor_beyond_region_flags():
    mu = cantor(4, {0, 3}, 8)
    rep = knapp_test(mu, Fraction(4, 3), 4, [4.0**-j for j in range(1, 6)])
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
