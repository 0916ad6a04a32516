import json
import math
import tracemalloc

import numpy as np
import pytest

from restrictlab import measures
from restrictlab.measures import (
    AtomBudgetError,
    DiscreteMeasure,
    cantor,
    circle,
    dirac,
    load_measure,
    mollify,
    random_flat,
    save_measure,
    uniform,
)

from oracles import pairwise_difference_counts


def test_dirac_basic():
    mu = dirac(1, 256, 0)
    assert mu.num_atoms == 1
    assert mu.weights[0] == 1.0
    mu = dirac(1, 256, 128)
    assert mu.indices[0, 0] == 128


def test_dirac_out_of_range():
    with pytest.raises(ValueError):
        dirac(1, 256, 256)
    with pytest.raises(ValueError):
        dirac(2, 64, (0, 64))


def test_dirac_dim2():
    mu = dirac(2, 64, (3, 5))
    assert mu.dim == 2
    assert tuple(mu.indices[0]) == (3, 5)


def test_cantor_stage2_atoms():
    mu = cantor(4, {0, 3}, 2)
    assert mu.N == 16
    assert mu.indices.ravel().tolist() == [0, 3, 12, 15]
    assert np.allclose(mu.weights, 0.25)
    assert mu.info["similarity_dimension"] == pytest.approx(0.5)


def test_cantor_full_grid_is_uniform():
    mu = cantor(2, {0, 1}, 5)
    assert mu.num_atoms == 32 == mu.N
    assert np.allclose(mu.weights, 1 / 32)
    assert mu.info["similarity_dimension"] == pytest.approx(1.0)
    full = uniform(1, 32)
    assert np.array_equal(full.indices, mu.indices)
    assert np.allclose(full.weights, mu.weights)


def test_uniform_dim2(monkeypatch):
    mu = uniform(2, 8)
    assert mu.num_atoms == 64
    assert np.allclose(mu.weights, 1 / 64)
    monkeypatch.setattr(measures, "MAX_ATOMS", 1000)
    with pytest.raises(AtomBudgetError):
        uniform(2, 64)


@pytest.mark.parametrize("stage", [1, 3, 5])
def test_cantor_atom_count(stage):
    assert cantor(4, {0, 3}, stage).num_atoms == 2**stage


def test_cantor_budget(monkeypatch):
    monkeypatch.setattr(measures, "MAX_ATOMS", 100)
    with pytest.raises(AtomBudgetError):
        cantor(4, {0, 3}, 8)


def test_cantor_rejects_non_dyadic_base():
    with pytest.raises(ValueError):
        cantor(3, {0, 2}, 3)


def test_cantor_confine():
    mu = cantor(4, {0, 3}, 2, confine=4)
    assert mu.N == 64
    assert mu.indices.max() < 16


def test_random_flat_counts_and_certificate():
    mu = random_flat(4096, 185, seed=20240613)
    assert mu.num_atoms == 185
    stats = mu.info["flatness"]
    # independent O(m^2) oracle for the certified statistic
    counts = pairwise_difference_counts(mu.indices.ravel(), 4096)
    assert counts[0] == 185
    assert counts[1:].max() == stats["max_offzero_count"]
    assert stats["max_offzero_count"] <= stats["bound"]
    assert stats["ratio"] <= 4.0


def test_random_flat_full_and_single():
    full = random_flat(64, 64, seed=1)
    assert full.num_atoms == 64
    assert full.info["flatness"]["ratio"] == 1.0
    single = random_flat(64, 1, seed=1)
    assert single.num_atoms == 1
    assert single.info["flatness"]["ratio"] == 0.0


def test_random_flat_retries_exhausted():
    with pytest.raises(ValueError, match="exhausted 3 retries"):
        random_flat(4096, 2048, seed=5, flatness_c=0.01, max_retries=3)


@pytest.mark.parametrize("max_retries", [-1, -5])
def test_random_flat_rejects_negative_retries(max_retries):
    with pytest.raises(ValueError, match="max_retries must be >= 0"):
        random_flat(64, 8, seed=1, max_retries=max_retries)


@pytest.mark.parametrize("flatness_c", [0.0, -1.0, float("nan"), float("inf")])
def test_random_flat_rejects_unreachable_flatness_bound(flatness_c):
    with pytest.raises(ValueError, match="flatness_c must be finite and > 0"):
        random_flat(64, 8, seed=1, flatness_c=flatness_c)


def test_circle_mass_and_geometry():
    mu = circle(1024, 0.25)
    assert mu.dim == 2
    assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
    radii = np.hypot(*(mu.positions() - 0.5).T)
    assert np.all(np.abs(radii - 0.25) < 2.0 / 1024)


def test_circle_radius_validation():
    with pytest.raises(ValueError):
        circle(256, 0.5)


def test_mollify_dirac_is_kernel():
    mu = dirac(1, 64, 10)
    dens = mollify(mu, 4)
    kernel = measures.triangular_kernel(4)
    expected = np.zeros(64)
    expected[10 - 3 : 10 + 4] = kernel * 64
    assert np.allclose(dens, expected, atol=1e-12)


@pytest.mark.parametrize("eps", [1, 2, 8, 32])
def test_mollify_mass_invariance(eps):
    mu = random_flat(512, 40, seed=9)
    dens = mollify(mu, eps)
    assert abs(dens.sum() / 512 - 1.0) <= 1e-10
    assert dens.min() >= 0


def test_mollify_epsilon_one_is_identity():
    mu = cantor(4, {0, 3}, 3)
    dens = mollify(mu, 1)
    assert np.allclose(dens, mu.dense_weights() * mu.N, atol=1e-12)


@pytest.mark.parametrize("mu", [circle(256, 0.25), random_flat(4096, 185, seed=5)], ids=["2d", "1d"])
def test_mollify_holds_at_most_three_full_grids(mu):
    # the kernel is dropped once transformed, and the grid once transformed;
    # the product and both inverse passes overwrite the grid's half spectrum,
    # and the clip and scale overwrite the result, so the peak is the grid,
    # two half spectra and small arrays: within 3.25 result sizes (it was
    # 5.03 on circle(256, 1/4), with both spectra, their product and a
    # second result alive)
    tracemalloc.start()
    try:
        dens = mollify(mu, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dens.shape == (mu.N,) * mu.dim
    assert peak < 3.25 * dens.nbytes, peak / dens.nbytes


def test_mollified_integral_converges_to_atomic():
    # fixed smooth test spectrum against shrinking mollification
    N, q = 4096, 2.0
    mu = cantor(4, {0, 3}, 6)
    x = np.arange(N) / N
    f_hat = 1.0 + 0.5 * np.cos(2 * np.pi * x) + 0.25 * np.sin(4 * np.pi * x)
    target = float(np.sum(mu.weights * np.abs(f_hat[mu.indices[:, 0]]) ** q))
    errors = []
    for eps in (16, 8, 4, 2, 1):
        dens = mollify(mu, eps)
        approx = float(np.mean(np.abs(f_hat) ** q * dens))
        errors.append(abs(approx - target))
        assert errors[-1] <= 1e-3
    assert all(errors[i + 1] <= errors[i] + 1e-15 for i in range(len(errors) - 1))


def test_invariants_on_random_seeds():
    for seed in range(100):
        mu = random_flat(512, 1 + (seed * 37) % 500, seed=seed)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12
        assert mu.weights.min() >= 0
        flat = mu.indices[:, 0]
        assert len(np.unique(flat)) == len(flat)
        assert flat.min() >= 0 and flat.max() < mu.N


def test_measure_validation_rejects_bad_data():
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 10, np.array([[0]]), np.array([1.0]))  # N not dyadic
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 16, np.array([[0], [0]]), np.array([0.5, 0.5]))  # dup
    with pytest.raises(ValueError):
        DiscreteMeasure(1, 16, np.array([[0], [1]]), np.array([0.7, 0.7]))  # mass


@pytest.mark.parametrize("dim, indices", [
    (1, [[1], [3], [3]]),                 # sorted
    (1, [[3], [1], [3]]),                 # unsorted
    (2, [[0, 1], [2, 3], [2, 3]]),
    (2, [[2, 3], [0, 1], [2, 3]]),
])
def test_validate_rejects_duplicates_sorted_or_not(dim, indices):
    weights = np.full(len(indices), 1.0 / len(indices))
    with pytest.raises(ValueError, match="duplicate atom indices"):
        DiscreteMeasure(dim, 16, np.array(indices), weights)
    # the same atoms without the repeat are accepted, in any order
    distinct = DiscreteMeasure(dim, 16, np.array(indices[:2]), np.array([0.5, 0.5]))
    assert distinct.num_atoms == 2


def test_finalize_sorts_and_merges_duplicate_atoms():
    mu = measures._finalize(1, 8, [[3], [1], [3], [6], [1]], [1.0, 2.0, 3.0, 2.0, 2.0], {})
    assert mu.indices.ravel().tolist() == [1, 3, 6]
    assert mu.weights.tolist() == [0.4, 0.4, 0.2]


def test_json_roundtrip_bit_exact(tmp_path):
    mu = random_flat(1024, 77, seed=11)
    path = tmp_path / "m.json"
    save_measure(mu, str(path))
    back = load_measure(str(path))
    assert back.N == mu.N and back.dim == mu.dim
    assert np.array_equal(back.indices, mu.indices)
    assert all(a == b for a, b in zip(back.weights, mu.weights))  # bit exact
    assert back.constructor == mu.constructor
    # a second save is byte-identical
    path2 = tmp_path / "m2.json"
    save_measure(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_schema_version_checked(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "dim": 1, "N": 16, "atoms": []}))
    with pytest.raises(ValueError):
        load_measure(str(path))


def test_rebuild_from_descriptor():
    mu = cantor(4, {0, 3}, 3)
    again = measures.rebuild(mu.constructor)
    assert np.array_equal(again.indices, mu.indices)
    finer = measures.rebuild(mu.constructor, resolution=256)
    assert finer.N == 256
    rf = random_flat(256, 16, seed=2)
    again = measures.rebuild(rf.constructor)
    assert np.array_equal(again.indices, rf.indices)


def test_rebuild_dirac_on_coarser_grid_wraps():
    # 7/8 rounds to index 4 on a 4-point grid, which is index 0 on the torus
    coarse = measures.rebuild(dirac(1, 8, 7).constructor, resolution=4)
    assert coarse.N == 4 and coarse.indices.tolist() == [[0]]
    coarse = measures.rebuild(dirac(2, 8, (7, 3)).constructor, resolution=4)
    assert coarse.N == 4 and coarse.indices.tolist() == [[0, 2]]


def test_rebuild_returns_requested_resolution_or_raises():
    # resolution is the total grid size, confine included
    rf = random_flat(128, 8, seed=2, confine=2)
    assert measures.rebuild(rf.constructor, resolution=512).N == 512
    # a cantor grid is base**stage * confine; 128 lies between stages 3 and 4
    with pytest.raises(ValueError, match="resolution 128"):
        measures.rebuild(cantor(4, {0, 3}, 4).constructor, resolution=128)
    assert measures.rebuild(cantor(4, {0, 3}, 4, confine=2).constructor, resolution=128).N == 128


def test_similarity_dimension_recorded():
    mu = cantor(4, {0, 3}, 5)
    assert mu.info["similarity_dimension"] == pytest.approx(math.log(2) / math.log(4))
