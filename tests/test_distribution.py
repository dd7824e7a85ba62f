"""Tests for discrete distributions and exact transport.

Groups:
  1. construction and validation of DiscreteDistribution / TransportPlan
  2. wasserstein_exact against a brute-force permutation oracle (small N)
  3. metric axioms on random inputs
  4. coupling_upper_bound dominance and tightness
  5. pushforward behaviour, including exact scaling under positive affine maps
  6. JSON round trips
"""

import itertools
import json

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from ambiflow.distribution import (
    DiscreteDistribution,
    TransportPlan,
    coupling_upper_bound,
    optimal_plan,
    pushforward,
    wasserstein_exact,
)


def brute_force_wasserstein(x: np.ndarray, y: np.ndarray, p: float) -> float:
    """Oracle: exact W_p between equal-weight empirical measures by enumerating
    all assignments.  Only usable for tiny inputs."""
    n = x.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(
            [np.linalg.norm(x[i] - y[perm[i]]) ** p for i in range(n)]
        )
        best = min(best, cost)
    return best ** (1.0 / p)


# --- group 1: construction -------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))


def test_point_weight_count_mismatch():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.zeros((3, 2)), np.array([0.5, 0.5]))


def test_nonfinite_point_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([[np.inf]]), np.array([1.0]))


def test_empirical_and_dirac():
    d = DiscreteDistribution.empirical(np.arange(6.0).reshape(3, 2))
    assert d.n_points == 3 and d.dim == 2
    assert np.allclose(d.weights, 1 / 3)
    delta = DiscreteDistribution.dirac(np.array([1.0, 2.0]))
    assert delta.n_points == 1 and delta.weights[0] == 1.0


def test_duplicate_points_not_merged():
    pts = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    d = DiscreteDistribution.empirical(pts)
    assert d.n_points == 3


def test_plan_marginal_validation():
    a = DiscreteDistribution.empirical(np.array([[0.0], [1.0]]))
    b = DiscreteDistribution.empirical(np.array([[2.0], [3.0]]))
    with pytest.raises(ValueError):
        TransportPlan(a, b, np.array([[0.5, 0.0], [0.5, 0.0]]))
    ok = TransportPlan(a, b, np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert ok.cost() == pytest.approx(0.5 * 2 + 0.5 * 2)


# --- group 2: exact distance vs oracle --------------------------------------


def test_shifted_grid_example():
    # Three points each, all gaps 0.5: any assignment preserving order is
    # optimal and W_2 = 0.5.
    src = DiscreteDistribution.empirical(np.array([[0.0], [1.0], [2.0]]))
    tgt = DiscreteDistribution.empirical(np.array([[0.5], [1.5], [2.5]]))
    assert wasserstein_exact(src, tgt, p=2.0) == pytest.approx(0.5, abs=1e-12)


def test_matches_permutation_oracle_small_n():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        got = wasserstein_exact(
            DiscreteDistribution.empirical(x), DiscreteDistribution.empirical(y), p
        )
        want = brute_force_wasserstein(x, y, p)
        assert got == pytest.approx(want, rel=1e-9), f"trial {trial}: {got} vs {want}"


def test_lp_path_agrees_with_assignment_path():
    # Duplicating an atom and splitting its weight must not change the value.
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.normal(size=(4, 2))
        y = rng.normal(size=(4, 2))
        src = DiscreteDistribution.empirical(x)
        tgt = DiscreteDistribution.empirical(y)
        via_assignment = wasserstein_exact(src, tgt, p=2.0)
        split = DiscreteDistribution(
            np.vstack([x, x[0]]), np.array([0.125, 0.25, 0.25, 0.25, 0.125])
        )
        via_lp = wasserstein_exact(split, tgt, p=2.0)
        assert via_lp == pytest.approx(via_assignment, rel=1e-7)


def test_unequal_sizes_lp():
    src = DiscreteDistribution(np.array([[0.0]]), np.array([1.0]))
    tgt = DiscreteDistribution(np.array([[-1.0], [1.0]]), np.array([0.5, 0.5]))
    # All mass splits evenly to distance-1 targets.
    assert wasserstein_exact(src, tgt, p=1.0) == pytest.approx(1.0, abs=1e-10)
    assert wasserstein_exact(src, tgt, p=2.0) == pytest.approx(1.0, abs=1e-10)


def test_optimal_plan_is_valid_coupling():
    rng = np.random.default_rng(3)
    src = DiscreteDistribution.empirical(rng.normal(size=(5, 2)))
    w = rng.random(4)
    tgt = DiscreteDistribution(rng.normal(size=(4, 2)), w / w.sum())
    plan = optimal_plan(src, tgt, p=2.0)
    assert np.allclose(plan.matrix.sum(axis=1), src.weights, atol=1e-9)
    assert np.allclose(plan.matrix.sum(axis=0), tgt.weights, atol=1e-9)


def test_lp_plan_meets_marginals_where_default_highs_tolerance_misses():
    # At HiGHS's default feasibility tolerance this pair's plan misses the
    # target marginals by 4.7e-8, which TransportPlan rejects.
    rng = np.random.default_rng(38)
    src = DiscreteDistribution.empirical(rng.normal(size=(30, 5)))
    tgt = DiscreteDistribution(rng.normal(size=(300, 5)), rng.dirichlet(np.ones(300)))
    plan = optimal_plan(src, tgt, p=2.0)
    assert np.abs(plan.matrix.sum(axis=1) - src.weights).max() <= 1e-10
    assert np.abs(plan.matrix.sum(axis=0) - tgt.weights).max() <= 1e-10
    # Oracle: the same transportation LP, solved by linprog directly.
    n, m = src.n_points, tgt.n_points
    a_eq = sparse.vstack(
        [sparse.kron(sparse.eye(n), np.ones((1, m))), sparse.kron(np.ones((1, n)), sparse.eye(m))]
    )
    cost = np.linalg.norm(src.points[:, None, :] - tgt.points[None, :, :], axis=2) ** 2
    b_eq = np.concatenate([src.weights, tgt.weights])
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert wasserstein_exact(src, tgt, p=2.0) ** 2 == pytest.approx(res.fun, rel=1e-6)


# --- group 3: metric axioms --------------------------------------------------


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(5)
    d = DiscreteDistribution.empirical(rng.normal(size=(6, 3)))
    assert wasserstein_exact(d, d, p=2.0) == pytest.approx(0.0, abs=1e-10)


def test_symmetry_and_triangle():
    rng = np.random.default_rng(13)
    for p in (1.0, 2.0):
        for _ in range(15):
            a = DiscreteDistribution.empirical(rng.normal(size=(4, 2)))
            b = DiscreteDistribution.empirical(rng.normal(size=(5, 2)))
            c = DiscreteDistribution.empirical(rng.normal(size=(3, 2)))
            dab = wasserstein_exact(a, b, p)
            dba = wasserstein_exact(b, a, p)
            assert dab == pytest.approx(dba, rel=1e-8)
            dac = wasserstein_exact(a, c, p)
            dcb = wasserstein_exact(c, b, p)
            assert dab <= dac + dcb + 1e-9, f"triangle violated at p={p}"


def test_order_monotonicity():
    # W_p is nondecreasing in p for probability measures.
    rng = np.random.default_rng(17)
    a = DiscreteDistribution.empirical(rng.normal(size=(5, 2)))
    b = DiscreteDistribution.empirical(rng.normal(size=(5, 2)))
    w1 = wasserstein_exact(a, b, 1.0)
    w2 = wasserstein_exact(a, b, 2.0)
    w3 = wasserstein_exact(a, b, 3.0)
    assert w1 <= w2 + 1e-12 <= w3 + 2e-12


def test_dimension_mismatch_raises():
    a = DiscreteDistribution.empirical(np.zeros((2, 2)))
    b = DiscreteDistribution.empirical(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        wasserstein_exact(a, b)


# --- group 4: coupling upper bound -------------------------------------------


def test_coupling_bound_interleaved_example():
    x = np.array([[0.0], [2.0]])
    y = np.array([[1.0], [3.0]])
    assert coupling_upper_bound(x, y, p=1.0) == pytest.approx(1.0)


def test_coupling_bound_dominates_exact():
    rng = np.random.default_rng(23)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, d))
        ub = coupling_upper_bound(x, y, p)
        exact = wasserstein_exact(
            DiscreteDistribution.empirical(x), DiscreteDistribution.empirical(y), p
        )
        assert ub >= exact - 1e-10, f"trial {trial}"


def test_coupling_bound_tight_for_identity_pairing():
    # Monotone 1-d samples: index pairing is the optimal coupling.
    x = np.array([[0.0], [1.0], [5.0]])
    y = np.array([[0.5], [1.5], [5.5]])
    assert coupling_upper_bound(x, y, 2.0) == pytest.approx(
        wasserstein_exact(
            DiscreteDistribution.empirical(x),
            DiscreteDistribution.empirical(y),
            2.0,
        ),
        rel=1e-10,
    )


# --- group 5: pushforward ----------------------------------------------------


def test_pushforward_keeps_weights_and_collisions():
    d = DiscreteDistribution.empirical(np.array([[1.0], [2.0], [3.0]]))
    img = pushforward(d, lambda x: np.zeros(2))
    assert img.n_points == 3 and img.dim == 2
    assert np.allclose(img.weights, d.weights)


def test_pushforward_map_failure_reports_point():
    d = DiscreteDistribution.empirical(np.array([[1.0], [-1.0]]))

    def bad(x):
        if x[0] < 0:
            raise RuntimeError("boom")
        return x

    with pytest.raises(ValueError, match="point 1"):
        pushforward(d, bad)


def test_positive_affine_map_scales_distance_exactly():
    # T(x) = shift + scale * x multiplies every pairwise distance by scale,
    # hence W_p by exactly scale.
    rng = np.random.default_rng(31)
    shift = rng.normal(size=2)
    for scale in (0.25, 1.0, 3.5):
        a = DiscreteDistribution.empirical(rng.normal(size=(4, 2)))
        b = DiscreteDistribution.empirical(rng.normal(size=(4, 2)))
        ta = pushforward(a, lambda x: shift + scale * x)
        tb = pushforward(b, lambda x: shift + scale * x)
        for p in (1.0, 2.0):
            assert wasserstein_exact(ta, tb, p) == pytest.approx(
                scale * wasserstein_exact(a, b, p), rel=1e-9
            )


# --- group 6: serialization ---------------------------------------------------


def test_json_round_trip():
    d = DiscreteDistribution(
        np.array([[0.5, 1.5], [2.0, -1.0]]), np.array([0.25, 0.75])
    )
    again = DiscreteDistribution.from_json(d.to_json())
    assert np.array_equal(again.points, d.points)
    assert np.array_equal(again.weights, d.weights)


def test_json_schema_fields():
    d = DiscreteDistribution.dirac(np.array([1.0, 2.0, 3.0]))
    payload = json.loads(d.to_json())
    assert set(payload) == {"dim", "points", "weights"}
    assert payload["dim"] == 3


def test_json_dim_mismatch_rejected():
    with pytest.raises(ValueError):
        DiscreteDistribution.from_json(
            json.dumps({"dim": 3, "points": [[1.0, 2.0]], "weights": [1.0]})
        )
