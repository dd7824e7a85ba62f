"""Finitely supported distributions and exact Wasserstein machinery.

Everything downstream manipulates empirical measures, so this module keeps the
representation deliberately plain: a point matrix, a weight vector, and a
handful of exact operations on top (optimal transport distance and the trivial
pairwise-coupling upper bound).

Costs are Euclidean: moving unit mass from x to y costs ||x - y||_2^p.  The
order-p distance between two supported-on-finitely-many-points measures is

    W_p(P, Q) = (min_{plan} sum_{ij} plan_ij ||x_i - y_j||^p)^(1/p)

with the minimum over nonnegative matrices whose row/column sums reproduce the
two weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

from ambiflow._checks import finite, finite_array

__all__ = [
    "DiscreteDistribution",
    "TransportPlan",
    "wasserstein_exact",
    "optimal_plan",
    "coupling_upper_bound",
]

_WEIGHT_TOL = 1e-9
_MARGINAL_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteDistribution:
    """A probability measure carried by finitely many points in R^d.

    ``points`` has one support point per row; ``weights`` are nonnegative and
    sum to one.  Duplicate rows are allowed and never merged, so the atom
    count is an invariant of how the measure was produced, not of its value.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(finite_array("points", self.points))
        w = finite_array("weights", self.weights).ravel()
        if pts.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {pts.shape}")
        if pts.shape[0] != w.shape[0]:
            raise ValueError(f"{pts.shape[0]} support points but {w.shape[0]} weights")
        if pts.shape[0] == 0:
            raise ValueError("a distribution needs at least one support point")
        if np.any(w < -_WEIGHT_TOL):
            raise ValueError(f"negative weight: min is {w.min()}")
        total = float(w.sum())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def empirical(cls, points: np.ndarray) -> "DiscreteDistribution":
        """Equal-weight measure on the given rows."""
        n = len(np.atleast_2d(points))  # the constructor reads the points
        return cls(points, np.ones(n) / n)


@dataclass(frozen=True)
class TransportPlan:
    """A coupling between two discrete distributions.

    ``matrix[i, j]`` is the mass moved from source atom i to target atom j.
    Marginals are validated on construction to 1e-10.
    """

    source: DiscreteDistribution
    target: DiscreteDistribution
    matrix: np.ndarray
    order: float = field(default=1.0)

    def __post_init__(self) -> None:
        finite("order", self.order, ge=1)
        m = finite_array("matrix", self.matrix)
        if m.shape != (self.source.n_points, self.target.n_points):
            raise ValueError(
                f"plan shape {m.shape} does not match "
                f"({self.source.n_points}, {self.target.n_points})"
            )
        if np.any(m < -_MARGINAL_TOL):
            raise ValueError("plan has negative entries")
        row_err = np.abs(m.sum(axis=1) - self.source.weights).max()
        col_err = np.abs(m.sum(axis=0) - self.target.weights).max()
        if row_err > _MARGINAL_TOL or col_err > _MARGINAL_TOL:
            raise ValueError(
                f"plan marginals off by (rows {row_err:.3e}, cols {col_err:.3e})"
            )
        object.__setattr__(self, "matrix", m)

    def cost(self) -> float:
        """Total transport cost sum_ij plan_ij ||x_i - y_j||^order."""
        c = _cost_matrix(self.source.points, self.target.points, self.order)
        return float(np.sum(self.matrix * c))


def _cost_matrix(x: np.ndarray, y: np.ndarray, p: float) -> np.ndarray:
    diff = x[:, None, :] - y[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return dist**p


def optimal_plan(
    source: DiscreteDistribution, target: DiscreteDistribution, p: float = 1.0
) -> TransportPlan:
    """Exact minimum-cost coupling between two discrete distributions.

    Equal-size, equal-weight inputs reduce to a linear assignment problem;
    everything else is solved as a sparse transportation LP.
    """
    if source.dim != target.dim:
        raise ValueError(f"dimension mismatch: {source.dim} vs {target.dim}")
    finite("p", p, ge=1)
    cost = _cost_matrix(source.points, target.points, p)
    n, m = cost.shape

    equal_sizes = n == m
    uniform = (
        equal_sizes
        and np.allclose(source.weights, 1.0 / n, atol=1e-12)
        and np.allclose(target.weights, 1.0 / n, atol=1e-12)
    )
    if uniform:
        rows, cols = linear_sum_assignment(cost)
        plan = np.zeros_like(cost)
        plan[rows, cols] = 1.0 / n
        return TransportPlan(source, target, plan, order=p)

    # Transportation LP: variables are the n*m plan entries, row-major, so
    # row sums and column sums are Kronecker products with a row of ones.
    # One of the two blocks is redundant, which HiGHS tolerates.
    a_eq = sparse.vstack(
        [
            sparse.kron(sparse.identity(n), np.ones((1, m))),
            sparse.kron(np.ones((1, n)), sparse.identity(m)),
        ],
        format="csr",
    )
    b_eq = np.concatenate([source.weights, target.weights])
    # HiGHS meets constraints only to its primal feasibility tolerance, 1e-7
    # by default, which TransportPlan's marginal check rejects.  1e-10 is
    # also the tightest tolerance HiGHS accepts.  Presolve finds nothing to
    # remove from a transportation LP and only costs time and memory.
    res = linprog(
        cost.ravel(),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": _MARGINAL_TOL, "presolve": False},
    )
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    plan = res.x.reshape(n, m)
    # Clean tiny negative noise before the marginal check.
    plan = np.clip(plan, 0.0, None)
    plan *= 1.0 / plan.sum()
    return TransportPlan(source, target, plan, order=p)


def wasserstein_exact(
    source: DiscreteDistribution, target: DiscreteDistribution, p: float = 1.0
) -> float:
    """Order-p Wasserstein distance with Euclidean ground cost, solved exactly."""
    plan = optimal_plan(source, target, p)
    return float(plan.cost() ** (1.0 / p))


def coupling_upper_bound(x: np.ndarray, y: np.ndarray, p: float = 1.0) -> float:
    """Upper bound on W_p between two equal-size empirical measures.

    Pairing the i-th row of ``x`` with the i-th row of ``y`` is one admissible
    coupling of the two equal-weight empirical measures, so

        W_p(emp(x), emp(y)) <= (mean_i ||x_i - y_i||^p)^(1/p).

    The bound is tight when the index pairing happens to be optimal.
    """
    finite("p", p, ge=1)
    xa = np.atleast_2d(finite_array("x", x))
    ya = np.atleast_2d(finite_array("y", y))
    if xa.shape != ya.shape:
        raise ValueError(f"sample arrays differ in shape: {xa.shape} vs {ya.shape}")
    norms = np.linalg.norm(xa - ya, axis=1)
    return float(np.mean(norms**p) ** (1.0 / p))
