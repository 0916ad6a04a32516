"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All tolerances are pinned here, none deferred.  Fixed seeds throughout; the
determinism criterion re-runs the seeded pipelines and compares serialized
artifacts byte for byte.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

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
from restrictlab.regularity import (
    ahlfors_alpha,
    billingsley_gamma,
    knapp_bound,
    mockenhaupt_p0,
    stein_tomas_p,
    theorem_range,
)
from restrictlab.spectral import convolve_power, density_norm, self_correlation
from restrictlab.verifiers import (
    check_dual_chain,
    check_hausdorff_young,
    check_prop1,
    check_prop2,
    check_prop3,
    exponent_identity,
    feasible_triples,
    knapp_test,
    prepare_chain,
    random_bounded_g,
)

from oracles import digit_multiplicity_peak, lattice_phase_matrix, pairwise_difference_counts

SEED = 20240613

_artifact_cache: dict = {}


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s > {budget_s}s"
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# Criterion 1: exponent tables, exact, zero tolerance, < 1 s
# ---------------------------------------------------------------------------

def test_criterion_1_exponent_tables():
    with criterion(1, "exponent tables", 1.0):
        rng = theorem_range(2, INF)
        assert rng.p_max == Fraction(4, 3)
        p = Fraction(1)
        while p <= Fraction(4, 3):
            assert rng.q_max(p) == conjugate(p) / 2
            p += Fraction(1, 30)

        rng2 = theorem_range(2, 2)
        assert rng2.p_max == Fraction(4, 3)
        p = Fraction(101, 100)
        while p <= Fraction(4, 3):
            assert rng2.q_max(p) == conjugate(p) / 4
            p += Fraction(1, 30)

        assert mockenhaupt_p0(1, Fraction(1, 2), Fraction(1, 2)) == Fraction(6, 5)
        for d in (1, 2, 3):
            assert mockenhaupt_p0(d, d - 1, d - 1) == Fraction(2 * (d + 1), d + 3)

        assert knapp_bound(1, Fraction(1, 2), Fraction(4, 3)) == Fraction(2)

        triples = feasible_triples()
        assert len(triples) >= 50
        for n, r, pp in triples:
            assert exponent_identity(n, r, pp)["holds"], (n, r, pp)


# ---------------------------------------------------------------------------
# Criterion 2: convolution exactness, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_2_convolution_exactness():
    with criterion(2, "convolution exactness", 10.0):
        bernoulli = DiscreteMeasure(1, 16, np.array([[0], [4]]),
                                    np.array([0.5, 0.5]))
        nu = convolve_power(bernoulli, 2)
        assert nu.indices.ravel().tolist() == [0, 4, 8]
        assert nu.weights.tolist() == [0.25, 0.5, 0.25]  # exact

        rng = np.random.default_rng(SEED)
        for trial in range(20):
            N = int(rng.choice([256, 512, 1024]))
            m = int(rng.integers(8, 65))
            members = np.sort(rng.choice(N, size=m, replace=False))
            mu = DiscreteMeasure(1, N, members.reshape(-1, 1), np.full(m, 1.0 / m))
            corr = self_correlation(mu).dense_weights()
            oracle = pairwise_difference_counts(members, N) / m**2
            assert np.max(np.abs(corr - oracle)) <= 1e-10


# ---------------------------------------------------------------------------
# Criterion 3: Cantor diagnostics, < 30 s
# ---------------------------------------------------------------------------

def test_criterion_3_cantor_diagnostics():
    with criterion(3, "cantor diagnostics", 30.0):
        sups = []
        for k in range(2, 7):
            mu = cantor(4, {0, 3}, k)
            value = density_norm(convolve_power(mu, 2), INF)
            # exact up to double round-off of the mandated FFT route; the
            # integer 2^k comes from the digit-multiplicity oracle
            assert digit_multiplicity_peak(k) == 2**k
            assert value == pytest.approx(2.0**k, rel=1e-12)
            sups.append(value)
        # sup densities grow unboundedly: this dimension-1/2 measure fails
        # the bounded-self-convolution hypothesis at every stage
        assert all(b > 1.9 * a for a, b in zip(sups, sups[1:]))

        rep = ahlfors_alpha(cantor(4, {0, 3}, 8), [4.0**-i for i in range(1, 7)])
        assert abs(rep.estimate - 0.5) <= 0.05


# ---------------------------------------------------------------------------
# Criterion 4: operator-norm oracles, < 2 min
# ---------------------------------------------------------------------------

def test_criterion_4_operator_norm_oracles():
    with criterion(4, "operator-norm oracles", 120.0):
        rng = np.random.default_rng(SEED)
        for trial in range(10):
            N = 1024
            m = int(rng.integers(32, 257))
            idx = np.sort(rng.choice(N, size=m, replace=False)).reshape(-1, 1)
            w = rng.random(m)
            mu = DiscreteMeasure(1, N, idx, w / w.sum())
            X = int(rng.choice([32, 64, 128]))
            op = ExtensionOperator(mu, X)
            dense = lattice_phase_matrix(mu.indices, N, X)
            svd = float(np.linalg.svd(np.sqrt(op.weights)[:, None] * dense.conj().T,
                                      compute_uv=False)[0])
            res = restriction_norm(op, 2, 2, ProbeOptions(restarts=8, max_iters=3000,
                                                          tol=1e-12, seed=trial))
            assert abs(res.norm_lower_bound - svd) <= 1e-8 * max(1.0, svd)

            one = restriction_norm(op, 1, 2, ProbeOptions(restarts=2, seed=trial))
            assert abs(one.norm_lower_bound - 1.0) <= 1e-12

        mu = dirac(1, 4096, 17)
        X_list = [64, 128, 256, 512]
        for p in (Fraction(1), Fraction(4, 3), Fraction(2)):
            g = growth_exponent(mu, p, 2, X_list, ProbeOptions(restarts=2, seed=0))
            expected = 0.0 if p == 1 else float(1 / conjugate(p))
            assert abs(g.slope - expected) <= 0.02


# ---------------------------------------------------------------------------
# Criterion 5: region mapping on a flatness-certified measure, < 10 min
# ---------------------------------------------------------------------------

def _sweep_artifact() -> str:
    mu = random_flat(4096, 185, seed=SEED, flatness_c=4.0, max_retries=200)
    grid = sweep(mu,
                 p_grid=[Fraction(5, 4), Fraction(4, 3), Fraction(8, 5)],
                 q_grid=[Fraction(3, 2), Fraction(2), Fraction(4)],
                 X_list=[64, 128, 256, 512],
                 n=2, r=INF, options=ProbeOptions(restarts=8, max_iters=500,
                                                  tol=1e-9, seed=SEED))
    return json.dumps(grid.to_rows(), sort_keys=True)


def test_criterion_5_region_mapping():
    with criterion(5, "region mapping", 600.0):
        artifact = _sweep_artifact()
        _artifact_cache["sweep"] = artifact
        rows = {(row["p"], row["q"]): row for row in json.loads(artifact)}
        assert rows[("4/3", "2")]["class"] == "bounded"
        assert rows[("4/3", "2")]["slope"] < 0.05
        assert rows[("5/4", "3/2")]["class"] == "bounded"
        assert rows[("5/4", "3/2")]["slope"] < 0.05
        assert rows[("8/5", "2")]["class"] == "growing"
        assert rows[("8/5", "2")]["slope"] > 0.10
        assert rows[("4/3", "4")]["class"] == "growing"
        assert rows[("4/3", "4")]["slope"] > 0.10
        # no strictly interior admissible cell may classify as growing
        for row in rows.values():
            if row["in_theorem_region"]:
                assert row["class"] != "growing", row


# ---------------------------------------------------------------------------
# A 2-D ground truth: Stein-Tomas on the circle
# ---------------------------------------------------------------------------

# fixed before the first run that could fail it
STEIN_TOMAS_SLOPE_TOL = 0.03


def test_stein_tomas_slopes_on_the_circle():
    # l^p(Z^2) -> L^2(sigma) on the circle of radius 1/4 holds iff p <= 6/5,
    # the Stein-Tomas endpoint; beyond it the curvature Knapp cap of size
    # delta x delta^2, delta = X^(-1/2), grows like X^((3/p' - 1/q)/2)
    mu = circle(256, 0.25)
    X_list = [8, 16, 32, 64]
    operators = {X: ExtensionOperator(mu, X) for X in X_list}
    options = ProbeOptions(restarts=2, max_iters=200, seed=0)
    q = Fraction(2)
    for p, want in ((Fraction(1), "bounded"), (stein_tomas_p(2), "bounded"),
                    (Fraction(4, 3), "growing"), (Fraction(3, 2), "growing")):
        g = growth_exponent(mu, p, q, X_list, options, operators=operators)
        predicted = max(0.0, float(3 * (1 - 1 / p) - 1 / q) / 2)
        assert classify_slope(g.slope) == want, (p, g.slope)
        assert abs(g.slope - predicted) <= STEIN_TOMAS_SLOPE_TOL, (p, g.slope, predicted)


# ---------------------------------------------------------------------------
# Criterion 6: proof-chain property suite, < 5 min
# ---------------------------------------------------------------------------

def _chain_artifact() -> str:
    mu = random_flat(256, 32, seed=SEED, flatness_c=4.0)
    records = []
    for(n, r, p) in ((2, INF, Fraction(4, 3)), (2, 2, Fraction(4, 3))):
        chain = prepare_chain(mu, n, r, p, epsilon=2)
        for trial in range(100):
            g = random_bounded_g(256, 1, seed=SEED + trial)
            rep = check_dual_chain(chain, g)
            records.append(rep.as_dict())
    return json.dumps(records, sort_keys=True)


def test_criterion_6_proof_chain():
    with criterion(6, "proof-chain property suite", 300.0):
        artifact = _chain_artifact()
        _artifact_cache["chain"] = artifact
        records = json.loads(artifact)
        assert len(records) == 200
        for rec in records:
            assert rec["all_hold"], rec
            for step in rec["steps"]:
                if step["kind"] == "inequality":
                    assert step["relative_slack"] >= -1e-8, step

        # materialized eta-sum oracle against the convolution form, N <= 64
        small = prepare_chain(random_flat(64, 12, seed=SEED), 2, INF, Fraction(4, 3))
        for trial in range(20):
            g = random_bounded_g(64, 1, seed=SEED + 500 + trial)
            rep = check_dual_chain(small, g)
            assert rep.oracle_match is not None and rep.oracle_match <= 1e-10

        # 1000 Hausdorff-Young trials, zero violations
        rng = np.random.default_rng(SEED)
        violations = 0
        for _ in range(250):
            h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            for s in (2, 4, 8, INF):
                if not check_hausdorff_young(h, s).holds(1e-10):
                    violations += 1
        assert violations == 0


# ---------------------------------------------------------------------------
# Criterion 7: proposition suite, < 5 min
# ---------------------------------------------------------------------------

def _prop_artifact() -> str:
    records = {}
    records["prop1"] = [
        check_prop1(uniform(1, 4096), 2).as_dict(),
        check_prop1(dirac(1, 4096, 0), 2).as_dict(),
        check_prop1(random_flat(4096, 185, seed=SEED), 2).as_dict(),
    ]
    stage8 = cantor(4, {0, 3}, 8)
    K_list = [2**j for j in range(4, 13)]
    records["prop2"] = [rep.as_dict() for rep in check_prop2(stage8, Fraction(1, 2), (2, 8), K_list)]
    records["prop3"] = check_prop3(stage8, Fraction(1, 2)).as_dict()
    r_list = [4.0**-j for j in range(1, 6)]
    gamma_report = billingsley_gamma(stage8)
    records["knapp"] = [
        knapp_test(stage8, Fraction(4, 3), Fraction(2), r_list, gamma_report).as_dict(),
        knapp_test(stage8, Fraction(4, 3), Fraction(4), r_list, gamma_report).as_dict(),
    ]
    return json.dumps(records, sort_keys=True)


def test_criterion_7_propositions():
    with criterion(7, "proposition suite", 300.0):
        artifact = _prop_artifact()
        _artifact_cache["props"] = artifact
        records = json.loads(artifact)
        assert all(rec["passed"] for rec in records["prop1"])
        by_s = {rec["s"]: rec for rec in records["prop2"]}
        assert by_s["2"]["classification"] == "diverging" and by_s["2"]["agrees"]
        assert by_s["8"]["classification"] == "leveling" and by_s["8"]["agrees"]
        assert records["prop3"]["fitted_exponent"] <= 0.6
        assert records["prop3"]["passed"]
        clears, flags = records["knapp"]
        assert not clears["violated"]
        assert flags["violated"]


# ---------------------------------------------------------------------------
# Criterion 8: determinism of criteria 5-7 artifacts
# ---------------------------------------------------------------------------

def test_criterion_8_determinism():
    with criterion(8, "determinism", 900.0):
        for key, fresh in (("sweep", _sweep_artifact),
                           ("chain", _chain_artifact),
                           ("props", _prop_artifact)):
            first = _artifact_cache.get(key) or fresh()
            again = fresh()
            assert first == again, f"{key} artifact not byte-identical"
