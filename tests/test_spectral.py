import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictlab.measures import DiscreteMeasure, cantor, circle, dirac, random_flat, reflect, uniform
from restrictlab.rationals import INF
from restrictlab.spectral import (
    Spectrum,
    convolve_power,
    density_norm,
    flatness,
    fourier,
    lp_norm,
    self_correlation,
)

from oracles import (
    cantor_product_spectrum,
    digit_multiplicity_peak,
    direct_fourier_1d,
    pairwise_difference_counts,
    pairwise_sum_weights,
    weighted_lp_norm,
)


def test_fourier_of_dirac_is_one():
    spec = fourier(dirac(1, 128, 0), 16)
    assert np.allclose(spec.coefficients, 1.0, atol=1e-12)
    spec.validate()


def test_fourier_two_atoms_closed_form():
    N = 64
    mu = dirac(1, N, 0)
    two = type(mu)(1, N, np.array([[0], [N // 2]]), np.array([0.5, 0.5]))
    spec = fourier(two, 16)
    ks = spec.frequencies()
    expected = (1 + (-1.0) ** ks) / 2
    assert np.allclose(spec.coefficients, expected, atol=1e-12)


def test_fft_and_direct_paths_agree():
    mu = random_flat(256, 24, seed=4)
    a = fourier(mu, 100, method="fft").coefficients
    b = fourier(mu, 100, method="direct").coefficients
    assert np.max(np.abs(a - b)) <= 1e-10


def test_fft_path_requires_small_K():
    mu = dirac(1, 32, 3)
    with pytest.raises(ValueError):
        fourier(mu, 20, method="fft")
    # direct path accepts any K
    spec = fourier(mu, 40, method="direct")
    assert spec.K == 40


def test_fourier_dim2_agreement():
    mu = circle(64, 0.25)
    a = fourier(mu, 8, method="fft").coefficients
    b = fourier(mu, 8, method="direct").coefficients
    assert np.max(np.abs(a - b)) <= 1e-10


def test_cantor_self_similarity_product():
    mu = cantor(4, {0, 3}, 5)
    ks = np.arange(-64, 65)
    spec = fourier(mu, 64)
    prod = cantor_product_spectrum(4, (0, 3), 5, ks)
    direct = direct_fourier_1d(mu.indices[:, 0], mu.weights, mu.N, ks)
    assert np.max(np.abs(spec.coefficients - prod)) <= 1e-10
    assert np.max(np.abs(spec.coefficients - direct)) <= 1e-10


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(1, 4, np.ones(7))
    bad = Spectrum(1, 1, np.array([0.5, 0.7, 0.5]))
    with pytest.raises(ValueError):
        bad.validate()


def test_convolve_bernoulli_three_sites():
    mu = dirac(1, 16, 0)
    two = type(mu)(1, 16, np.array([[0], [4]]), np.array([0.5, 0.5]))
    nu = convolve_power(two, 2)
    assert nu.indices.ravel().tolist() == [0, 4, 8]
    assert nu.weights.tolist() == [0.25, 0.5, 0.25]


def test_convolve_dirac_translation():
    a = dirac(1, 32, 5)
    nu = convolve_power(a, 2)
    assert nu.indices.ravel().tolist() == [10]
    assert nu.weights[0] == 1.0


def test_convolve_power_identity_at_one():
    mu = random_flat(128, 10, seed=6)
    assert convolve_power(mu, 1) is mu


def test_self_correlation_matches_pairwise_oracle():
    mu = random_flat(512, 23, seed=8)
    corr = self_correlation(mu)
    counts = pairwise_difference_counts(mu.indices.ravel(), 512)
    expected = counts / 23**2
    grid = corr.dense_weights()
    assert np.max(np.abs(grid - expected)) <= 1e-10


def test_convolution_matches_pairwise_sum_oracle():
    mu = random_flat(256, 15, seed=12)
    nu = convolve_power(mu, 2)
    expected = pairwise_sum_weights(mu.indices.ravel(), mu.weights, 256)
    assert np.max(np.abs(nu.dense_weights() - expected)) <= 1e-10


def test_fourier_convolution_duality():
    for seed in (1, 2, 3):
        mu = random_flat(256, 20, seed=seed)
        for n in (2, 3):
            nu = convolve_power(mu, n)
            lhs = fourier(nu, 32).coefficients
            rhs = fourier(mu, 32).coefficients ** n
            assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_parseval_on_grid():
    mu = random_flat(512, 31, seed=13)
    lhs = float(np.sum(np.abs(mu.weights * 512) ** 2) / 512)
    full = np.fft.fftn(mu.dense_weights())
    rhs = float(np.sum(np.abs(full) ** 2))
    assert abs(lhs - rhs) <= 1e-8 * max(lhs, 1.0)


def test_density_norm_uniform_is_one():
    mu = uniform(1, 256)
    for r in (1, Fraction(3, 2), 2, 7, INF):
        assert density_norm(mu, r) == pytest.approx(1.0, abs=1e-12)


def test_density_norm_dirac_sup():
    assert density_norm(dirac(1, 256, 7), INF) == pytest.approx(256.0)
    assert density_norm(dirac(2, 64, (1, 2)), INF) == pytest.approx(64.0**2)


@pytest.mark.parametrize("stage", [2, 3, 4, 5, 6])
def test_cantor_convolution_sup_density(stage):
    mu = cantor(4, {0, 3}, stage)
    nu = convolve_power(mu, 2)
    peak = digit_multiplicity_peak(stage)
    expected = 4.0**stage * peak * (0.5**stage) ** 2
    assert expected == 2.0**stage
    assert density_norm(nu, INF) == pytest.approx(2.0**stage, rel=1e-9)


def test_density_norm_monotone_in_r():
    for mu in (cantor(4, {0, 3}, 4), random_flat(256, 12, seed=3), dirac(1, 64, 0)):
        values = [density_norm(mu, r) for r in (1, Fraction(3, 2), 2, 4, 16, INF)]
        assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))


@st.composite
def lp_instances(draw):
    size = draw(st.integers(1, 24))
    # magnitudes in [1e-3, 1e2] or exactly 0, so the unscaled oracle neither
    # overflows nor underflows at s <= 16
    mags = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e2)),
                         min_size=size, max_size=size))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=size, max_size=size))
    values = np.array(mags) * np.exp(1j * np.array(phases))
    s = draw(st.one_of(st.just(Fraction(1)), st.just(INF),
                       st.fractions(min_value=1, max_value=16)))
    weights = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=size, max_size=size)
        .filter(lambda w: max(w) > 0).map(np.array)))
    volume = draw(st.sampled_from([1.0, 3.0, 64.0, 0.25]))
    return values, s, weights, volume


@given(lp_instances())
@settings(max_examples=300, deadline=None)
def test_lp_norm_matches_unscaled_oracle(instance):
    values, s, weights, volume = instance
    expected = weighted_lp_norm(values, s, weights, volume)
    assert lp_norm(values, s, weights, volume) == pytest.approx(expected, rel=1e-12, abs=0)
    # a 2-D grid is read as its flattened atoms
    values = np.stack([values, values[::-1]])
    weights = None if weights is None else np.stack([weights, weights])
    expected = weighted_lp_norm(values, s, weights, volume)
    assert lp_norm(values, s, weights, volume) == pytest.approx(expected, rel=1e-12, abs=0)


def test_convolution_error_on_unnormalizable():
    with pytest.raises(ValueError):
        convolve_power(dirac(1, 64, 0), 0)


def test_flatness_examples():
    assert flatness(uniform(1, 128))["ratio"] == pytest.approx(1.0)
    assert flatness(dirac(1, 128, 5))["ratio"] == 0.0
    mu = random_flat(4096, 185, seed=20240613)
    stats = flatness(mu)
    assert stats["ratio"] <= 4.0
    assert stats["ratio"] == pytest.approx(mu.info["flatness"]["ratio"], rel=1e-9)


def test_reflect_and_correlation_consistency():
    # mu * reflect(mu) should equal the correlation route exactly
    mu = random_flat(128, 9, seed=10)
    tilde = reflect(mu)
    grid = np.zeros(128)
    for (j,), w in zip(mu.indices, mu.weights):
        for (i,), v in zip(tilde.indices, tilde.weights):
            grid[(j + i) % 128] += w * v
    corr = self_correlation(mu).dense_weights()
    assert np.max(np.abs(corr - grid)) <= 1e-10


def test_convolve_dim2_matches_pairwise():
    rng = np.random.default_rng(17)
    N, m = 16, 6
    flat = rng.choice(N * N, size=m, replace=False)
    idx = np.stack([flat // N, flat % N], axis=1)
    w = rng.random(m)
    mu = DiscreteMeasure(2, N, idx, w / w.sum())
    nu = convolve_power(mu, 2)
    brute = np.zeros((N, N))
    for (a1, a2), wa in zip(mu.indices, mu.weights):
        for (b1, b2), wb in zip(mu.indices, mu.weights):
            brute[(a1 + b1) % N, (a2 + b2) % N] += wa * wb
    assert np.max(np.abs(nu.dense_weights() - brute)) <= 1e-12


def test_confined_convolution_never_wraps():
    # confine=4 squeezes support into [0, 1/4): a two-fold convolution stays
    # inside [0, 1/2) and so matches line convolution, no wrap-around
    mu = cantor(4, {0, 3}, 3, confine=4)
    nu = convolve_power(mu, 2)
    assert nu.indices.max() < mu.N // 2
    line = np.zeros(2 * mu.N)
    for (a,), wa in zip(mu.indices, mu.weights):
        for (b,), wb in zip(mu.indices, mu.weights):
            line[a + b] += wa * wb
    assert np.max(np.abs(nu.dense_weights() - line[: mu.N])) <= 1e-12


def test_cantor_conv_growth_slope_log4():
    # sup density doubles per stage: slope 1/2 on the log-4 scale
    logs = []
    for k in range(2, 7):
        nu = convolve_power(cantor(4, {0, 3}, k), 2)
        logs.append(np.log(density_norm(nu, INF)) / np.log(4.0))
    slopes = np.diff(logs)
    assert np.allclose(slopes, 0.5, atol=1e-9)
