import tracemalloc

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from restrictlab.measures import DiscreteMeasure, cantor, circle, dirac, random_flat, uniform
from restrictlab.rationals import INF
from restrictlab.regularity import fourier_beta
from restrictlab import spectral
from restrictlab.spectral import (
    convolve_power,
    density_norm,
    fourier,
    lp_norm,
    self_correlation,
)

from oracles import (
    cantor_product_spectrum,
    dense_half_spectrum_read,
    digit_multiplicity_peak,
    digit_sum_weights,
    direct_fourier_1d,
    pairwise_difference_counts,
    pairwise_sum_weights,
    reflect,
    self_similar_density_norm,
    validate_spectrum,
    weighted_lp_norm,
    whole_table_fourier,
)


def test_fourier_of_dirac_is_one():
    spec = fourier(dirac(1, 128, 0), 16)
    assert np.allclose(spec, 1.0, atol=1e-12)
    validate_spectrum(spec)


def test_fourier_two_atoms_closed_form():
    N = 64
    mu = dirac(1, N, 0)
    two = type(mu)(1, N, np.array([[0], [N // 2]]), np.array([0.5, 0.5]))
    spec = fourier(two, 16)
    ks = np.arange(-16, 17)
    expected = (1 + (-1.0) ** ks) / 2
    assert np.allclose(spec, expected, atol=1e-12)


@pytest.mark.parametrize("mu, K", [(random_flat(256, 24, seed=4), 100),
                                   (random_flat(256, 24, seed=4), 300),
                                   (circle(64, 0.25), 8),
                                   (circle(64, 0.25), 70)],
                         ids=["1d", "1d-K-above-N/2", "2d", "2d-K-above-N/2"])
def test_fft_and_direct_paths_agree(mu, K):
    # atoms sit on the grid, so mu_hat is N-periodic and the FFT read at
    # k mod N is exact for every K, also past N/2
    a = spectral._grid_read(mu, K)
    b = spectral._direct_sum(mu, K)
    assert a.shape == b.shape == (2 * K + 1,) * mu.dim
    assert np.max(np.abs(a - b)) <= 1e-10


TWO_ATOMS = DiscreteMeasure(1, 64, np.array([[0], [32]]), np.array([0.5, 0.5]))


@pytest.mark.parametrize("mu, K, reads_grid", [(cantor(4, {0, 3}, 14), 64, False),
                                               (TWO_ATOMS, 16, True),  # 64 <= 33 x 2
                                               (TWO_ATOMS, 15, False),  # 64 > 31 x 2
                                               (TWO_ATOMS, 40, True),
                                               (circle(64, 0.25), 40, True)],
                         ids=["fine-grid", "grid", "direct", "K-above-N/2", "2d-K-above-N/2"])
def test_fourier_reads_the_grid_only_when_it_is_no_larger_than_the_direct_sum(
        monkeypatch, mu, K, reads_grid):
    # the grid is read when N^dim <= (2K + 1)^dim x num_atoms; for
    # cantor(4, {0, 3}, 14) that grid is 2^28 points against 129 x 16384
    reads = []
    real = spectral._grid_read
    monkeypatch.setattr(spectral, "_grid_read", lambda mu, K: reads.append(mu.N) or real(mu, K))
    spec = fourier(mu, K)
    assert reads == ([mu.N] if reads_grid else [])
    assert spec.shape == (2 * K + 1,) * mu.dim
    validate_spectrum(spec)


@pytest.mark.parametrize("mu, K, entries", [(cantor(4, {0, 3}, 12), 256, None),
                                             (random_flat(4096, 185, seed=3), 300, 2048),
                                             (circle(256, 0.25), 64, 4096),
                                             (cantor(16, {0, 15}, 7), 2**14, None)],
                         ids=["1d", "1d-small-chunks", "2d-small-chunks", "1d-wide-K"])
def test_direct_sum_runs_in_chunks_of_frequencies(monkeypatch, mu, K, entries):
    # the whole-table sum holds dim (2K+1) x m complex tables (34 MB for
    # cantor(4, {0, 3}, 12) at K = 256); the chunked one holds a few
    # (chunk, m) tables per axis, each at most DIRECT_CHUNK_ENTRIES entries
    if entries:
        monkeypatch.setattr(spectral, "DIRECT_CHUNK_ENTRIES", entries)
    chunk_bytes = 16 * spectral.DIRECT_CHUNK_ENTRIES
    whole_bytes = 16 * (2 * K + 1) * mu.num_atoms * mu.dim
    tracemalloc.start()
    try:
        spec = spectral._direct_sum(mu, K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 4 * mu.dim * chunk_bytes + spec.nbytes
    assert bound < whole_bytes
    assert peak <= bound, (peak, bound)
    ref = whole_table_fourier(mu.indices, mu.weights, mu.N, K)
    # both take every phase at the exact integer phase k j mod N, the sum
    # from a table of roots and the oracle by exp, so the error does not
    # grow with K: a phase taken from the float k (j / N) is off by about
    # K eps, and put the sum 9.3e-12 off on cantor(16, {0, 15}, 7) at K = 2^16
    assert np.abs(spec - ref).max() <= 1e-14, np.abs(spec - ref).max()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def _real_grid_bytes(mu):
    # the real N^dim grid plus its rfftn half spectrum, last axis N/2 + 1 long
    points = mu.N ** mu.dim
    return 8 * points + 16 * (points // mu.N) * (mu.N // 2 + 1)


TRACE_SLACK = 64 * 1024


def _lattice(N, steps):
    """Uniform measure on the subgroup of the (N,)*dim grid with the given step per axis."""
    idx = np.indices([N // step for step in steps]).reshape(len(steps), -1).T * steps
    return DiscreteMeasure(len(steps), N, idx, np.full(len(idx), 1.0 / len(idx)))


@pytest.mark.parametrize("mu, K", [(random_flat(2**14, 724, seed=5), 256), (circle(256, 0.25), 8)],
                         ids=["1d", "2d"])
def test_fourier_grid_route_holds_the_real_grid_and_one_half_spectrum(mu, K):
    # the occupied residue classes mod P fill more than half the grid (all
    # of them in 1-D, 63 of 64 in 2-D), so the read takes the dense grid
    # (P = 1); a complex fftn holds a complex copy of the grid and a full
    # complex spectrum besides the real grid: 40 bytes per point, against
    # about 16
    points = mu.N ** mu.dim
    assert points <= (2 * K + 1) ** mu.dim * mu.num_atoms  # fourier's grid route
    assert spectral._residue_classes(mu, K)[0] == 1
    coeffs, peak = _traced_peak(fourier, mu, K)
    bound = _real_grid_bytes(mu) + 2 * coeffs.nbytes + TRACE_SLACK
    assert bound < 40 * points
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("mu, K", [(cantor(4, {0, 3}, 10), 4096), (cantor(4, {0, 3}, 8), 256),
                                   (_lattice(256, (4, 4)), 8)],
                         ids=["1d-stage-10", "1d-stage-8", "2d"])
def test_fourier_folding_read_holds_its_occupied_classes_not_the_grid(mu, K):
    # C occupied classes of Q^dim points: the real stack (8 bytes a point)
    # and its half spectrum (about 8), with room for rfftn's line buffers,
    # and three (2K + 1)^dim complex arrays (the sum, one class's read and
    # its mirror); each bound is below the 8 N^dim bytes of the real grid
    # alone, so no N^dim grid fits in it;
    # 8 of 64 classes of 16384 points on the 2^20-point stage-10 grid, where
    # the dense read held 16.8 MB
    P, Q, classes, _ = spectral._residue_classes(mu, K)
    assert 1 < P and 2 * len(classes) <= P ** mu.dim
    assert mu.N ** mu.dim <= (2 * K + 1) ** mu.dim * mu.num_atoms  # fourier's grid route
    coeffs, peak = _traced_peak(fourier, mu, K)
    bound = len(classes) * Q ** mu.dim * 24 + 3 * coeffs.nbytes + TRACE_SLACK
    assert bound < 8 * mu.N ** mu.dim
    assert peak <= bound, (peak, bound)
    validate_spectrum(coeffs)


@pytest.mark.parametrize("dim, N, K", [(1, 2**12, 1), (2, 64, 2)], ids=["1d", "2d"])
def test_grid_read_folds_only_where_the_occupied_classes_fill_at_most_half_the_grid(dim, N, K):
    # a near-dense measure at small K leaves a few of its P^dim classes
    # empty; folding it would take a pass per class where one FFT serves
    Q = 1 << (2 * K).bit_length()
    P = N // Q
    sites = np.indices((N,) * dim).reshape(dim, -1).T
    code = np.ravel_multi_index(tuple((sites % P).T), (P,) * dim)
    for occupied in (P**dim // 2, P**dim // 2 + 1, P**dim - 1):
        idx = sites[code < occupied]
        mu = DiscreteMeasure(dim, N, idx, np.full(len(idx), 1.0 / len(idx)))
        assert mu.N ** mu.dim <= (2 * K + 1) ** dim * mu.num_atoms  # fourier's grid route
        folds = 2 * occupied <= P**dim
        assert spectral._residue_classes(mu, K)[0] == (P if folds else 1)
        coeffs = spectral._grid_read(mu, K)
        dense = dense_half_spectrum_read(mu.dense_weights(), K)
        if folds:
            assert np.abs(coeffs - dense).max() <= 4 * np.finfo(float).eps * np.log2(N**dim)
        else:
            assert np.array_equal(coeffs, dense)


# 512 atoms on 2^16-point grids: m^2 > N^dim, so both grid measures take the
# FFT route, and their sums and differences stay on the same 512 cells
LATTICE_1D = _lattice(2**16, (128,))
LATTICE_2D = _lattice(256, (8, 16))


@pytest.mark.parametrize("grid_measure", [lambda mu: convolve_power(mu, 3), self_correlation],
                         ids=["convolve_power", "self_correlation"])
@pytest.mark.parametrize("mu", [LATTICE_1D, LATTICE_2D], ids=["1d", "2d"])
def test_grid_measures_keep_one_spectrum(mu, grid_measure):
    # the spectrum is mapped and inverted in place; a second one (an
    # out-of-place map, or irfftn's intermediate in 2-D) adds 8 bytes per
    # point, 512 KB on these 2^16-point grids
    assert mu.num_atoms ** 2 > mu.N ** mu.dim
    nu, peak = _traced_peak(grid_measure, mu)
    bound = _real_grid_bytes(mu) + TRACE_SLACK
    assert peak <= bound, (peak, bound)
    assert nu.num_atoms == mu.num_atoms


def _spy_atom_sums(monkeypatch):
    """Record the n of every spectral._atom_sums call in the returned list."""
    calls = []
    real = spectral._atom_sums
    monkeypatch.setattr(spectral, "_atom_sums", lambda *a: calls.append(a[1]) or real(*a))
    return calls


@pytest.mark.parametrize("grid_measure", [lambda mu: convolve_power(mu, 2), self_correlation],
                         ids=["convolve_power", "self_correlation"])
def test_atom_sums_hold_less_than_the_grid_route(monkeypatch, grid_measure):
    # m^2 = N = 2^20: the sums hold one 8 MB accumulator and chunks of at most
    # DIRECT_CHUNK_ENTRIES cells and products, under the grid route's real
    # grid and half spectrum (16.8 MB)
    mu = cantor(4, {0, 3}, 10)
    calls = _spy_atom_sums(monkeypatch)
    nu, peak = _traced_peak(grid_measure, mu)
    assert calls == [2]
    assert peak < _real_grid_bytes(mu), (peak, _real_grid_bytes(mu))
    assert nu.num_atoms == 3**10


def _random_measure(dim, N, m, seed):
    rng = np.random.default_rng(seed)
    flat = rng.choice(N**dim, size=m, replace=False)
    w = rng.random(m) + 0.5
    return DiscreteMeasure(dim, N, np.stack(np.unravel_index(flat, (N,) * dim), axis=1), w / w.sum())


def _power_map(n):
    def power(spec):
        spec **= n
    return power


def _squared_modulus(spec):
    spec *= spec.conj()


# (dim, N, n) with 16^n = N^dim, so 16 atoms sit at the boundary of the rule
@pytest.mark.parametrize("dim, N, n", [(1, 256, 2), (1, 4096, 3), (2, 16, 2), (2, 64, 3)])
@pytest.mark.parametrize("m", [16, 17], ids=["m^n=N^dim", "m^n>N^dim"])
def test_atom_sums_and_grid_route_agree(monkeypatch, dim, N, n, m):
    mu = _random_measure(dim, N, m, seed=31 * N + m)
    calls = _spy_atom_sums(monkeypatch)
    cases = [(lambda: convolve_power(mu, n), 1, _power_map(n))]
    if n == 2:
        cases.append((lambda: self_correlation(mu), -1, _squared_modulus))
    for public, sign, spectral_map in cases:
        sums = spectral._atom_sums(mu, n, sign, {})
        calls.clear()
        grid = spectral._grid_measure(mu, spectral_map, {})
        assert np.max(np.abs(sums.dense_weights() - grid.dense_weights())) <= 1e-12
        # the public functions sum over the atoms exactly when m^n <= N^dim
        nu = public()
        assert calls == ([n] if m**n <= N**dim else [])
        if calls:
            assert np.array_equal(nu.indices, sums.indices)
            assert np.array_equal(nu.weights, sums.weights)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("digits", [(0, 3), (0, 1)])
def test_cantor_convolution_power_density_norm_closed_form(monkeypatch, digits, n):
    # the n-fold digit sums are distinct mod 4, so mu^{*n} is self-similar
    # with the law of the digit sums as its digit weights; at n = 2 every
    # stage sums the atoms (2^{2s} = 4^s products), at n = 3 none does
    law = digit_sum_weights(digits, n)
    assert len({value % 4 for value in law}) == len(law)
    calls = _spy_atom_sums(monkeypatch)
    for stage in range(1, 11):
        nu = convolve_power(cantor(4, digits, stage), n)
        for r in (Fraction(3, 2), 2, 4, INF):
            expected = self_similar_density_norm(4, list(law.values()), stage, r)
            assert density_norm(nu, r) == pytest.approx(expected, rel=1e-10), (stage, r)
    assert calls == ([2] * 10 if n == 2 else [])


@pytest.mark.parametrize("mu", [random_flat(256, 24, seed=4), circle(64, 0.25)],
                         ids=["1d", "2d"])
def test_grid_read_matches_the_complex_fft_read(mu):
    # K = N/2 reads k = +-N/2, where the half spectrum ends; K = N + 3 reads
    # every frequency, some twice over
    tol = 4 * np.finfo(float).eps * np.log2(mu.N ** mu.dim)
    full = np.fft.fftn(mu.dense_weights())
    for K in (mu.N // 2, mu.N + 3):
        ks = np.arange(-K, K + 1) % mu.N
        coeffs = spectral._grid_read(mu, K)
        assert np.abs(coeffs - full[np.ix_(*[ks] * mu.dim)]).max() <= tol
        # off the self-conjugate last-axis frequencies 0 and N/2 (mod N),
        # one of k and -k is read as the exact conjugate of the other
        mirrored = ks % (mu.N // 2) != 0
        reflected = coeffs[(slice(None, None, -1),) * mu.dim]
        assert np.array_equal(coeffs[..., mirrored], np.conj(reflected[..., mirrored]))


@st.composite
def _sparse_measures(draw):
    """Sparse 1-D and 2-D measures that leave residue classes empty, with a K in [1, N]."""
    kind = draw(st.sampled_from(["lattice", "cantor", "coarse"]))
    dim = 1 if kind == "cantor" else draw(st.sampled_from([1, 2]))
    if kind == "cantor":
        digits = draw(st.sampled_from([(0, 3), (0, 1), (1, 2), (0, 2, 3)]))
        mu = cantor(4, digits, draw(st.integers(2, 6)))
    else:
        n = draw(st.integers(3, 10 if dim == 1 else 6))
        steps = [2 ** draw(st.integers(0, n - 1)) for _ in range(dim)]
        if kind == "lattice":
            mu = _lattice(2**n, steps)
        else:
            # a random subset of the coarse sub-grid steps Z^dim, shifted off
            # the origin; in 2-D one axis is full (step 1) and the other not
            if dim == 2:
                full = draw(st.integers(0, 1))
                steps[full], steps[1 - full] = 1, 2 ** draw(st.integers(1, n - 1))
            coarse = np.indices([2**n // s for s in steps]).reshape(dim, -1).T * steps
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            keep = rng.random(len(coarse)) < draw(st.floats(0.1, 1.0))
            keep[rng.integers(len(coarse))] = True
            shift = [draw(st.integers(0, s - 1)) for s in steps]
            w = rng.random(int(keep.sum())) + 0.5
            mu = DiscreteMeasure(dim, 2**n, (coarse[keep] + shift) % 2**n, w / w.sum())
    # K < N/4 folds where at most half the classes hold atoms; K >= N/2
    # reads the dense grid
    return mu, draw(st.one_of(st.integers(1, max(1, mu.N // 4 - 1)), st.integers(1, mu.N)))


@given(_sparse_measures())
@settings(max_examples=200, deadline=None)
def test_folding_read_matches_the_complex_fft_read(instance):
    # the classes' DFTs at k mod Q, twiddled and added, are the DFT of the
    # grid at k mod N, for K up to N/2 and past it (where P = 1)
    mu, K = instance
    tol = 4 * np.finfo(float).eps * np.log2(mu.N ** mu.dim)
    ks = np.arange(-K, K + 1) % mu.N
    full = np.fft.fftn(mu.dense_weights())[np.ix_(*[ks] * mu.dim)]
    assert np.abs(spectral._grid_read(mu, K) - full).max() <= tol


FLAT_4096 = random_flat(4096, 185, seed=20240613)


@pytest.mark.parametrize("mu, K", [(FLAT_4096, 128), (FLAT_4096, 256), (FLAT_4096, 512),
                                   (FLAT_4096, 1024), (circle(128, 0.25), 8), (circle(128, 0.25), 16)],
                         ids=["1d-128", "1d-256", "1d-512", "1d-1024", "2d-8", "2d-16"])
def test_grid_read_is_the_dense_read_bit_for_bit_where_every_class_is_occupied(mu, K):
    assert spectral._residue_classes(mu, K)[0] == 1
    assert np.array_equal(spectral._grid_read(mu, K), dense_half_spectrum_read(mu.dense_weights(), K))


def test_cantor_self_similarity_product():
    mu = cantor(4, {0, 3}, 5)
    ks = np.arange(-64, 65)
    spec = fourier(mu, 64)
    prod = cantor_product_spectrum(4, (0, 3), 5, ks)
    direct = direct_fourier_1d(mu.indices[:, 0], mu.weights, mu.N, ks)
    assert np.max(np.abs(spec - prod)) <= 1e-10
    assert np.max(np.abs(spec - direct)) <= 1e-10


def test_spectrum_validation():
    # fourier_beta reads K and dim from the shape, so it takes only (2K+1,)*dim
    for shape in [(), (64,), (65, 63)]:
        with pytest.raises(ValueError, match="is not"):
            fourier_beta(np.ones(shape))
    with pytest.raises(ValueError, match="total mass"):
        validate_spectrum(np.array([0.5, 0.7, 0.5]))
    with pytest.raises(ValueError, match="conjugate symmetry"):
        validate_spectrum(np.array([0.5, 1.0, 0.7]))


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
            lhs = fourier(nu, 32)
            rhs = fourier(mu, 32) ** n
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


def test_lp_norm_reads_integer_values_as_floats():
    # the scalar path scales |values| in place, so it must not keep an integer dtype
    for s in (Fraction(3, 2), 2, INF):
        assert lp_norm(np.array([1, -2, 3]), s) == lp_norm(np.array([1.0, -2.0, 3.0]), s)


def test_convolution_error_on_unnormalizable():
    with pytest.raises(ValueError):
        convolve_power(dirac(1, 64, 0), 0)


def test_reflect_and_correlation_consistency():
    # mu * reflect(mu) should equal the correlation route exactly
    mu = random_flat(128, 9, seed=10)
    tilde_indices, tilde_weights = reflect(mu)
    grid = np.zeros(128)
    for (j,), w in zip(mu.indices, mu.weights):
        for (i,), v in zip(tilde_indices, tilde_weights):
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
