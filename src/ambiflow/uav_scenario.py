"""Pursuit-evasion benchmark: a kinematic intruder crossing surveilled squares.

A chain of watcher vehicles, one per square of side ``square_side``, each
tracks a circular reference orbit of radius ``orbit_radius`` through the
second-order dynamics

    pos'' = gain^2 * (reference(t, phase) - pos),

with a random phase angle drawn from a small finite support.  An integer
gain makes every trajectory periodic with period 2*pi, so the set of
reachable states at the checkpoint times T_i = 2*pi*i never changes.

The intruder crosses each square along the x axis with a piecewise-constant
speed profile, collecting a few exact position samples of the local watcher
on the way.  In complex coordinates every position is linear in the
position, the velocity and the unit reference phasor (``_tracker_basis``),
so state recovery from three position fixes is one linear least-squares
solve for all three, followed by a refit on the unit circle
(``reconstruct_red_state``).  The recovered states feed a
distributionally robust program: maximize, over feasible speed profiles,
the worst-case expected squared clearance from the next (unseen) watcher,
where the expectation ranges over a Wasserstein ball around the empirical
state distribution.  The inner infimum restricted to a finite candidate
support is an exact linear program solved in closed form by a budgeted
exchange argument (``constrained_min_expectation``), for a whole batch of
profiles at once: the convex hull is built in Python only where a source
atom's dominance staircase has more than one point.  The outer supremum is
pairwise coordinate ascent over the profile polytope (a probe grid, then a
bounded Brent line search), started from the best local maxima of a fixed
lattice of profiles, so the answer depends only on the problem.  The
ascents run in lockstep, so each round of them is one batch evaluation.

``run_experiment`` assembles the full seeded comparison between the
cumulative ambiguity ball (all recovered states, shrinking radius) and the
static one (latest state only, fixed radius), solving each distinct
problem once.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from ambiflow.concentration import calibrated_radius
from ambiflow.distribution import DiscreteDistribution

__all__ = [
    "ScenarioConfig",
    "AmbiguityBall",
    "ExperimentRow",
    "ExperimentReport",
    "default_config",
    "initial_red_state",
    "red_uav_flow",
    "red_position_path",
    "reconstruct_red_state",
    "blue_path",
    "dro_objective",
    "candidate_support",
    "constrained_min_expectation",
    "solve_inner_inf",
    "solve_dro",
    "run_experiment",
]

TWO_PI = 2.0 * math.pi

# Default phase support: three angles strictly inside the second/third
# quadrant of the orbit, sampled uniformly unless the config says otherwise.
DEFAULT_THETA_SUPPORT = (2.8 * math.pi / 4.0, 3.5 * math.pi / 4.0, 4.6 * math.pi / 4.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, vehicle limits, ambiguity calibration, and the seed."""

    orbit_radius: float = 1.0
    square_side: float = 2.5
    tracking_gain: float = 4.0
    v_min: float = 0.3 * 2.5 / TWO_PI
    v_max: float = 1.5 * 2.5 / TWO_PI
    n_segments: int = 4
    theta_support: tuple[float, ...] = DEFAULT_THETA_SUPPORT
    theta_probabilities: tuple[float, ...] = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    eps_ref: float = 0.17
    n_ref: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_support", tuple(float(t) for t in self.theta_support))
        object.__setattr__(
            self, "theta_probabilities", tuple(float(p) for p in self.theta_probabilities)
        )
        for name, value in asdict(self).items():  # ints are finite; seeds may be huge
            if not isinstance(value, int) and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.orbit_radius <= 0.0:
            raise ValueError(f"orbit_radius must be positive, got {self.orbit_radius}")
        if self.square_side <= 0.0:
            raise ValueError(f"square_side must be positive, got {self.square_side}")
        g = self.tracking_gain
        if g < 2.0 or g != int(g):
            raise ValueError(
                f"tracking_gain must be an integer >= 2 for periodic orbits, got {g}"
            )
        if not 0.0 < self.v_min <= self.v_max:
            raise ValueError(f"need 0 < v_min <= v_max, got ({self.v_min}, {self.v_max})")
        if self.n_segments < 1:
            raise ValueError(f"n_segments must be >= 1, got {self.n_segments}")
        if self.n_segments > _LATTICE_SIZE.bit_length():  # i.e. 2^(n - 1) > _LATTICE_SIZE
            raise ValueError(
                f"n_segments must be <= {_LATTICE_SIZE.bit_length()} for a profile lattice "
                f"of at most {_LATTICE_SIZE} points, got {self.n_segments}"
            )
        mean_speed = self.square_side / TWO_PI
        if not self.v_min <= mean_speed + 1e-12 or not mean_speed <= self.v_max + 1e-12:
            raise ValueError(
                f"profile set empty: required mean speed {mean_speed:.6g} outside "
                f"[{self.v_min:.6g}, {self.v_max:.6g}]"
            )
        if len(self.theta_probabilities) != len(self.theta_support):
            raise ValueError("theta support and probabilities differ in length")
        probs = np.asarray(self.theta_probabilities, dtype=float)
        if probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("theta probabilities must be nonnegative and sum to 1")
        if self.eps_ref <= 0.0 or self.n_ref < 1:
            raise ValueError("calibration anchor needs eps_ref > 0 and n_ref >= 1")

    @property
    def profile_sum(self) -> float:
        """The speed profile must integrate to one square side per period."""
        return self.square_side * self.n_segments / TWO_PI

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown scenario config fields: {sorted(unknown)}")
        return cls(**payload)


def default_config(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(seed=seed)


# --- red vehicle dynamics --------------------------------------------------------


def _tracker_basis(
    tau: np.ndarray, gain: float, orbit_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form tracker flow as complex-linear maps over a time grid.

    In complex coordinates z = x + i*y and v = vx + i*vy the tracker obeys
    z'' = g^2 (r e^{i(t + theta)} - z).  After a time tau its state is linear
    in (z, v, e^{i*phi}), where phi = t + theta is the reference phase at the
    start: the homogeneous part oscillates at the gain's frequency and the
    particular solution rides the reference circle with amplitude
    g^2 r / (g^2 - 1).  Returns the (len(tau), 3) complex maps to position
    and to velocity.  Valid for any gain with g^2 != 1, forward or backward
    in time.
    """
    g2 = gain * gain
    if g2 == 1.0:
        raise ValueError("gain^2 = 1 is resonant; the closed form does not apply")
    amp = g2 * orbit_radius / (g2 - 1.0)
    tau = np.asarray(tau, dtype=float)
    ck, sk, ref = np.cos(gain * tau), np.sin(gain * tau), np.exp(1j * tau)
    pos = np.stack([ck, sk / gain, amp * (ref - ck - 1j * sk / gain)], axis=-1)
    vel = np.stack([-gain * sk, ck, amp * (1j * ref + gain * sk - 1j * ck)], axis=-1)
    return pos, vel


def _lift(states: np.ndarray) -> np.ndarray:
    """Rows (x, y, vx, vy, phase) to the basis coefficients (z, v, e^{i*phase})."""
    z, v = states[..., 0] + 1j * states[..., 1], states[..., 2] + 1j * states[..., 3]
    return np.stack([z, v, np.exp(1j * states[..., 4])], axis=-1)


def initial_red_state(theta: float, orbit_radius: float = 1.0) -> np.ndarray:
    """Launch state on the reference circle with zero velocity, phase appended."""
    return np.array(
        [orbit_radius * math.cos(theta), orbit_radius * math.sin(theta), 0.0, 0.0, theta]
    )


def red_uav_flow(
    theta: float,
    xi0: Sequence[float],
    t: float,
    t_start: float = 0.0,
    gain: float = 4.0,
    orbit_radius: float = 1.0,
) -> np.ndarray:
    """Closed-form tracker state (pos, vel) at time t, given the state at t_start."""
    x0, y0, vx0, vy0 = (float(v) for v in xi0)
    pos, vel = _tracker_basis(np.array([t - t_start]), gain, orbit_radius)
    coef = _lift(np.array([x0, y0, vx0, vy0, t_start + theta]))
    z, v = pos[0] @ coef, vel[0] @ coef
    return np.array([z.real, z.imag, v.real, v.imag])


def red_position_path(
    states: np.ndarray, tau_grid: np.ndarray, cfg: ScenarioConfig
) -> np.ndarray:
    """Positions of flowed 5-d states over a time grid, vectorized.

    ``states`` is (J, 5) rows (x, y, vx, vy, phase) at relative time 0;
    returns (J, len(tau_grid), 2).
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    pos, _ = _tracker_basis(tau_grid, cfg.tracking_gain, cfg.orbit_radius)
    z = _lift(states) @ pos.T
    return np.stack([z.real, z.imag], axis=-1)


# --- state recovery from position fixes ----------------------------------------

# Squared position residual a noiseless fit must reach.
_RESIDUAL_TOL = 1e-8


def reconstruct_red_state(
    times: Sequence[float], positions: np.ndarray, cfg: ScenarioConfig
) -> np.ndarray:
    """Recover (pos, vel, phase) at the last sample time from position fixes.

    Every fix is complex-linear in (z, v, e^{i*phi}) at the last sample time
    (``_tracker_basis``), so one least-squares solve on this lifted basis
    gives the phase phi as the angle of its third coefficient.  (z, v) is
    then refit with |e^{i*phi}| = 1, and the squared residual must reach
    ``_RESIDUAL_TOL``.  Sample spacings that alias the tracking frequency, or
    a lifted basis without full rank (every phase fits), are reported as
    errors rather than silently picked.
    """
    ts = np.asarray(times, dtype=float)
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    if ts.ndim != 1 or len(ts) < 3:
        raise ValueError(f"need at least three sample times, got {len(ts)}")
    if pos.shape != (len(ts), 2):
        raise ValueError(f"positions shape {pos.shape} does not match {len(ts)} times")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample times must be strictly increasing")
    t_last = float(ts[-1])
    basis, _ = _tracker_basis(ts - t_last, cfg.tracking_gain, cfg.orbit_radius)
    design = basis[:, :2].real
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        raise ArithmeticError(
            "sample spacing aliases the tracking frequency; velocity is "
            "not identifiable from these times"
        )
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        raise ArithmeticError("ambiguous fit: every phase fits samples at these times")
    z = pos[:, 0] + 1j * pos[:, 1]
    lifted, *_ = np.linalg.lstsq(basis, z, rcond=None)
    phi = float(np.angle(lifted[2]))
    rhs = z - basis[:, 2] * np.exp(1j * phi)
    sol, res, *_ = np.linalg.lstsq(design, np.column_stack([rhs.real, rhs.imag]), rcond=None)
    residual = float(res.sum())
    if not residual <= _RESIDUAL_TOL:
        raise ArithmeticError(
            f"no phase fits the samples (best residual {residual:.3e}); the "
            "data is not a noiseless trajectory of the tracker dynamics"
        )
    return np.array([sol[0, 0], sol[0, 1], sol[1, 0], sol[1, 1], (phi - t_last) % TWO_PI])


# --- intruder path and objective -------------------------------------------------


def _segment_coverage(tau_grid: np.ndarray, n_segments: int) -> np.ndarray:
    """(n_t, n) matrix: time each profile segment contributes up to tau."""
    h = TWO_PI / n_segments
    starts = np.arange(n_segments) * h
    return np.clip(tau_grid[:, None] - starts[None, :], 0.0, h)


def blue_path(
    profile: Sequence[float], cfg: ScenarioConfig, tau_grid: np.ndarray
) -> np.ndarray:
    """Intruder positions along the x axis: integral of the speed profile."""
    x = _validated_profile(profile, cfg)
    cov = _segment_coverage(np.asarray(tau_grid, dtype=float), cfg.n_segments)
    out = np.zeros((len(tau_grid), 2))
    out[:, 0] = _intruder_x(x[None, :], cov)[0]
    return out


def _intruder_x(xs: np.ndarray, coverage: np.ndarray) -> np.ndarray:
    """(B, n_t) intruder x of profiles (B, n), given their (n_t, n) segment coverage.

    The columns are summed left to right rather than by a BLAS product, so a
    profile rounds the same alone as in a batch, on any BLAS build.
    """
    bx = xs[:, :1] * coverage[:, 0]
    for k in range(1, xs.shape[1]):
        bx += xs[:, k : k + 1] * coverage[:, k]
    return bx


def _validated_profile(profile: Sequence[float], cfg: ScenarioConfig) -> np.ndarray:
    x = np.asarray(profile, dtype=float)
    if x.shape != (cfg.n_segments,):
        raise ValueError(f"profile infeasible: expected {cfg.n_segments} segments")
    # Phrased so that NaN fails: every comparison with NaN is false.
    if not (x.min() >= cfg.v_min - 1e-9 and x.max() <= cfg.v_max + 1e-9):
        raise ValueError("profile infeasible: speed bounds violated")
    if not abs(x.sum() - cfg.profile_sum) <= 1e-9 * max(1.0, cfg.profile_sum):
        raise ValueError(
            f"profile infeasible: sums to {x.sum():.9g}, needs {cfg.profile_sum:.9g}"
        )
    return x


def dro_objective(
    profile: Sequence[float],
    xi: Sequence[float],
    known_state: Sequence[float],
    cfg: ScenarioConfig,
    t_start: float = 0.0,
    n_t: int = 200,
) -> float:
    """Worst-moment squared clearance for one candidate next-watcher state.

    Minimum over a uniform time grid of the squared distance from the
    intruder to either the already-observed watcher (state ``known_state``
    at ``t_start``, orbiting the current square) or the candidate state
    ``xi`` (orbiting the next square, one side over along +x).
    """
    _check_solver_settings(n_t)
    x = _validated_profile(profile, cfg)
    # Flow formulas take states at relative time zero, so the reference
    # phase is developed to t_start.
    shift = np.array([0.0, 0.0, 0.0, 0.0, t_start])
    known = np.asarray(known_state, dtype=float).reshape(1, 5) + shift
    cand = np.asarray(xi, dtype=float).reshape(1, 5) + shift
    return float(_clearance_kernel(known, cand, cfg, n_t)(x[None, :])[0, 0])


# The clearance kernel cuts its (n_t, J) grid into tiles of _TILE_T times by _TILE_J
# candidates and computes at most _TILE_CHUNK live tiles at a time.
_TILE_T, _TILE_J, _TILE_CHUNK = 4, 32, 512


def _clearance_kernel(
    known_state: Sequence[float], candidates: np.ndarray, cfg: ScenarioConfig, n_t: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Squared clearance as a map from profiles (B, n_segments) to (B, J).

    Entry (b, j) is the minimum over a uniform grid of n_t times in
    [0, 2*pi] of the squared distance from intruder b to the nearer of the
    known watcher and candidate j, one square over.  Everything that does
    not depend on the profile is computed once, here.

    Exact pruning: rounding is monotone, so a cell fl(fl(cx - bx)^2 + cy^2) is at least cy^2 and
    fl(fl(cx - bx)^2); where either reaches the known-watcher clearance it is skipped.
    """
    tau = np.linspace(0.0, TWO_PI, n_t)
    coverage = _segment_coverage(tau, cfg.n_segments)
    known_xy = red_position_path(np.asarray(known_state, dtype=float), tau, cfg)[0]
    known_y2 = known_xy[:, 1] ** 2
    cand_xy = red_position_path(candidates, tau, cfg)
    cand_xy[:, :, 0] += cfg.square_side
    # (n_tj, n_tt, _TILE_T, _TILE_J) tiles with the columns in phase order, so that a
    # tile holds neighbouring orbits.  Padding repeats real cells: no min changes.
    order = np.argsort(np.atleast_2d(candidates)[:, 4], kind="stable")
    n_tj, n_tt = -(-len(order) // _TILE_J), -(-n_t // _TILE_T)
    cols = order[np.minimum(np.arange(n_tj * _TILE_J), len(order) - 1)].reshape(n_tj, 1, 1, -1)
    t_index = np.minimum(np.arange(n_tt * _TILE_T), n_t - 1)
    times = t_index.reshape(n_tt, _TILE_T, 1)
    cand_x, cand_y2 = cand_xy[cols, times, 0], cand_xy[cols, times, 1]
    np.square(cand_y2, out=cand_y2)
    y2_lo = cand_y2.min(axis=(2, 3))
    x_lo, x_hi = cand_x.min(axis=(2, 3)), cand_x.max(axis=(2, 3))
    restore = np.argsort(order)

    def clearance(xs: np.ndarray) -> np.ndarray:
        bx = _intruder_x(xs, coverage)  # (B, n_t), along y = 0
        best_known = ((known_xy[:, 0][None, :] - bx) ** 2 + known_y2[None, :]).min(axis=1)
        bxp = bx[:, t_index].reshape(len(bx), n_tt, _TILE_T)
        # A lower bound on every cell of a tile: its y^2 floor, or the square of the
        # cells' own rounded x difference at the tile's closest x range.
        lb = x_lo - bxp.max(axis=2)[:, None, :]
        np.maximum(lb, bxp.min(axis=2)[:, None, :] - x_hi, out=lb)
        np.maximum(lb, 0.0, out=lb)
        np.square(lb, out=lb)
        np.maximum(lb, y2_lo, out=lb)
        cells = np.flatnonzero(lb < best_known[:, None, None])  # (b, j) rows in runs
        dc = np.full((len(bx) * n_tj, _TILE_J), np.inf)
        for s in range(0, len(cells), _TILE_CHUNK):
            row, t = np.divmod(cells[s : s + _TILE_CHUNK], n_tt)  # row = b * n_tj + j
            b, j = np.divmod(row, n_tj)
            d = cand_x[j, t]
            np.subtract(d, bxp[b, t][:, :, None], out=d)
            np.square(d, out=d)
            np.add(d, cand_y2[j, t], out=d)
            runs = np.flatnonzero(np.diff(row, prepend=-1))
            row = row[runs]
            run_min = np.minimum.reduceat(d.reshape(-1, _TILE_J), runs * _TILE_T)
            np.minimum(run_min[0], dc[row[0]], out=run_min[0])  # a run from the last chunk
            dc[row] = run_min
        dc = dc.reshape(len(bx), -1)[:, restore]
        return np.minimum(best_known[:, None], dc, out=dc)

    return clearance


# --- ambiguity balls and the inner linear program ---------------------------------


@dataclass(frozen=True)
class AmbiguityBall:
    """Wasserstein ball: center distribution, radius, transport order."""

    center: DiscreteDistribution
    radius: float
    order: float = 1.0

    def __post_init__(self) -> None:
        for name in ("radius", "order"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.radius < 0.0:
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.order < 1.0:
            raise ValueError(f"order must be >= 1, got {self.order}")


def _merged_center(dist: DiscreteDistribution) -> tuple[np.ndarray, np.ndarray]:
    """Collapse bit-identical atoms, summing weights.

    Transport from co-located atoms is interchangeable, so the constrained
    expectation program is unchanged; the solver just loops over far fewer
    sources when many samples recovered the same state.
    """
    points, inverse = np.unique(dist.points, axis=0, return_inverse=True)
    weights = np.zeros(len(points))
    np.add.at(weights, inverse, dist.weights)
    return points, weights


_STAR_STEPS = 10


def candidate_support(ball: AmbiguityBall) -> np.ndarray:
    """Finite support for the inner adversary.

    The exact-deduplicated center atoms, plus an axis-aligned star around
    each: ``_STAR_STEPS`` offsets per direction per coordinate, extending to
    the ball radius with resolution radius / _STAR_STEPS.  Zero radius keeps
    just the atoms.
    """
    atoms = np.unique(ball.center.points, axis=0)
    pieces = [atoms]
    if ball.radius > 0.0:
        d = atoms.shape[1]
        reach = ball.radius * np.arange(1, _STAR_STEPS + 1) / _STAR_STEPS
        steps = np.eye(d)[:, None, :] * reach[:, None]  # (axis, step, coordinate)
        offsets = np.stack([steps, -steps], axis=2).reshape(-1, d)
        pieces.append((atoms[:, None, :] + offsets[None, :, :]).reshape(-1, atoms.shape[1]))
    return np.unique(np.vstack(pieces), axis=0)


def constrained_min_expectation(
    weights: np.ndarray, costs: np.ndarray, values: np.ndarray, budget: float
) -> float:
    """Exact optimum of the transport-constrained expectation program:

        minimize    sum_ij plan_ij * values_j
        subject to  sum_j plan_ij = weights_i,   plan >= 0,
                    sum_ij plan_ij * costs_ij <= budget.

    Solved by an exchange argument: per source atom, admissible (cost,
    value) trade-offs form the decreasing lower convex hull of its candidate
    points, and the budget is spent greedily on hull segments in order of
    steepest value decrease.  Exactness holds because the per-atom value
    functions are convex piecewise-linear, making the aggregate a classic
    budget allocation.  Each atom needs a zero-cost candidate (itself).
    An infinite budget is unconstrained transport.  Weights, costs and values
    must be finite, and weights and costs nonnegative.
    """
    w = np.asarray(weights, dtype=float)
    c = np.atleast_2d(np.asarray(costs, dtype=float))
    f = np.asarray(values, dtype=float)
    if c.shape != (len(w), len(f)):
        raise ValueError(f"cost matrix {c.shape} does not match {len(w)}x{len(f)}")
    if not budget >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not np.all(np.isfinite(f)):
        raise ValueError("values must be finite")
    for name, a in (("weights", w), ("costs", c)):
        if not np.all(np.isfinite(a) & (a >= 0.0)):
            raise ValueError(f"{name} must be finite and nonnegative")
    return _sorted_sources(w, c)(f[None, :], budget)[0]


def _sorted_sources(weights: np.ndarray, costs: np.ndarray) -> Callable[..., list[float]]:
    """``constrained_min_expectation`` for fixed weights and costs, over a batch of values.

    Returns ``solve(values, budget)``, mapping (B, J) values to B optima.  Each live source
    atom's candidates are sorted by cost once, here.  ``solve`` takes one atom at a time
    for all B rows.  A row's hull starts at its base point: the best of the atom's
    cheapest candidates.  Only the candidates that undercut every cheaper one (the
    dominance staircase, from a running minimum in cost order) can join it, so the
    staircase is gathered only for the rows with some value below the base, and the hull
    and the greedy run in Python only for those rows.
    """
    live = np.flatnonzero(weights != 0.0)
    order = np.argsort(costs[live], axis=1, kind="stable")
    sorted_costs = np.take_along_axis(costs[live], order, axis=1)
    for i, cs in zip(live, sorted_costs):
        if cs[0] > 1e-12:
            raise ValueError(
                f"source atom {i} has no zero-cost candidate (closest is "
                f"{cs[0]:.3e}); include the center's support"
            )
    # Only exactly equal costs merge: the first n_base candidates share the lowest cost.
    n_base = (sorted_costs == sorted_costs[:, :1]).sum(axis=1)
    atoms = list(zip(weights[live].tolist(), order, sorted_costs, n_base.tolist()))

    def solve(values: np.ndarray, budget: float) -> list[float]:
        total = np.zeros(len(values))
        lowest = values.min(axis=1)
        segments: dict[int, list[tuple[float, float]]] = {}  # row -> (slope, budget length)
        for wi, oi, cs, m in atoms:
            base = values[:, oi[:m]].min(axis=1)
            total += wi * base  # in atom order, as a per-row sum would round
            # A row's staircase steps below its base iff some value is below the base.
            stepped = np.flatnonzero(lowest < base)
            if not len(stepped):
                continue
            fs = values[stepped[:, None], oi]
            run = np.minimum.accumulate(fs, axis=1)
            # The later steps, row by row: the only points a hull can hold.
            rows, cols = np.nonzero(fs[:, m:] < run[:, m - 1 : -1])
            cols += m
            cuts = np.searchsorted(rows, np.arange(len(stepped))).tolist() + [len(rows)]
            step_c, step_f = cs[cols].tolist(), fs[rows, cols].tolist()
            c0 = float(cs[0])
            for b, f0, lo, hi in zip(stepped.tolist(), base[stepped].tolist(), cuts, cuts[1:]):
                # Decreasing lower convex hull over (cost, value), from the base point.
                hull = [(c0, f0)]
                for c, f in zip(step_c[lo:hi], step_f[lo:hi]):
                    while len(hull) >= 2:
                        (c1, f1), (c2, f2) = hull[-2], hull[-1]
                        # Drop the middle point when the new segment undercuts it (an
                        # equal-cost twin always does, so hull costs are distinct).
                        if (f2 - f1) * (c - c1) >= (f - f1) * (c2 - c1):
                            hull.pop()
                        else:
                            break
                    hull.append((c, f))
                segments.setdefault(b, []).extend(
                    ((f2 - f1) / (c2 - c1), wi * (c2 - c1))
                    for (c1, f1), (c2, f2) in zip(hull, hull[1:])
                )
        out = total.tolist()
        for b, segs in segments.items():
            remaining = budget
            for slope, length in sorted(segs, key=lambda s: s[0]):
                if remaining <= 0.0 or slope >= 0.0:
                    break
                used = min(length, remaining)
                out[b] += slope * used
                remaining -= used
        return out

    return solve


def _inner_evaluator(
    ball: AmbiguityBall,
    candidates: np.ndarray,
    known_state: Sequence[float],
    cfg: ScenarioConfig,
    n_t: int,
) -> Callable[[np.ndarray], list[float]]:
    """Worst-case expected clearance over the ball, for a batch of profiles.

    Returns a map from profiles (B, n_segments) to B inner-program values,
    restricted to the finite ``candidates`` support.  It evaluates
    ``_EVAL_BLOCK`` profiles at a time, which bounds the (B, J) scratch; every
    row is computed on its own, so the blocking changes no value.
    """
    cand = np.atleast_2d(np.asarray(candidates, dtype=float))
    center_pts, weights = _merged_center(ball.center)
    dist = np.linalg.norm(center_pts[:, None, :] - cand[None, :, :], axis=2)
    if np.any(dist.min(axis=1) > 1e-12):
        raise ValueError("candidate support must include the ball center's support")
    costs = dist**ball.order
    budget = ball.radius**ball.order
    clearance = _clearance_kernel(known_state, cand, cfg, n_t)
    solve = _sorted_sources(weights, costs)

    def evaluate_many(xs: np.ndarray) -> list[float]:
        blocks = range(0, len(xs), _EVAL_BLOCK)
        return [v for i in blocks for v in solve(clearance(xs[i : i + _EVAL_BLOCK]), budget)]

    return evaluate_many


def solve_inner_inf(
    ball: AmbiguityBall,
    profile: Sequence[float],
    candidates: np.ndarray,
    known_state: Sequence[float],
    cfg: ScenarioConfig,
    n_t: int = 200,
) -> float:
    """Worst-case expected clearance over the ball, on a finite support."""
    evaluate_many = _inner_evaluator(ball, candidates, known_state, cfg, n_t)
    return evaluate_many(_validated_profile(profile, cfg)[None, :])[0]


# --- outer solver -----------------------------------------------------------------

# Lattice levels: the largest L >= 2 with L^(n-1) <= _LATTICE_SIZE (13 at n = 4);
# ScenarioConfig caps n_segments so that L = 2 fits.
# The inner evaluator values _EVAL_BLOCK profiles at a time.
# An ascent stops after a sweep that gains less than _SWEEP_TOL; its line searches
# stop at scipy's bounded-Brent tolerance _BRENT_XATOL or after _BRENT_MAXFUN values.
_LATTICE_SIZE = 13**3
_EVAL_BLOCK = 64
_SWEEP_TOL = 1e-6
_BRENT_XATOL, _BRENT_MAXFUN = 1e-6, 500


def _check_solver_settings(n_t: int, n_starts: int = 1) -> None:
    if n_t < 2:
        raise ValueError(f"n_t must be >= 2 time nodes, got {n_t}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")


def _profile_lattice(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Feasible points of a fixed lattice on the profile polytope (n_segments >= 2).

    The first n - 1 speeds take L evenly spaced levels in [v_min, v_max] and the
    last one closes the sum.  Returns the feasible profiles (m, n) in lattice
    order and the (m, n(n-1)) rows of their neighbours under one-level pairwise
    transfers, -1 where infeasible.  With no feasible point: the uniform profile.
    """
    n = cfg.n_segments
    levels = 2
    while (levels + 1) ** (n - 1) <= _LATTICE_SIZE:
        levels += 1
    shape = (levels,) * (n - 1)
    index = np.indices(shape).reshape(n - 1, -1).T
    head = np.linspace(cfg.v_min, cfg.v_max, levels)[index]
    profiles = np.column_stack([head, cfg.profile_sum - head.sum(axis=1)])
    last = profiles[:, -1]
    feasible = (last >= cfg.v_min - 1e-12) & (last <= cfg.v_max + 1e-12)
    if not feasible.any():
        return np.full((1, n), cfg.profile_sum / n), np.empty((1, 0), dtype=int)
    row = np.where(feasible, np.cumsum(feasible) - 1, -1)
    unit = np.eye(n, n - 1, dtype=int)  # the closing speed has no level index
    moves = np.array([unit[k] - unit[l] for k in range(n) for l in range(n) if k != l])
    nbr = index[feasible][:, None, :] + moves[None, :, :]
    inside = np.all((nbr >= 0) & (nbr < levels), axis=2)
    flat = np.ravel_multi_index(tuple(np.moveaxis(np.clip(nbr, 0, levels - 1), -1, 0)), shape)
    return profiles[feasible], np.where(inside, row[flat], -1)


def _bounded_brent(lo: float, hi: float) -> Generator[float, float, tuple[float, float, int]]:
    """Minimize a scalar function on [lo, hi] by Brent's bounded method, as a generator.

    A port of scipy's ``minimize_scalar(method="bounded")`` at ``xatol`` =
    ``_BRENT_XATOL`` (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 5): the same arithmetic and stop rule, so on finite values
    it visits the same points and returns the same bits.  It yields each
    abscissa, is sent the function's value there, and returns (x, f(x), number
    of values).
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = yield xf
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        step = max(abs(rat), tol1)
        x = xf + step if rat >= 0.0 else xf - step
        fu = yield x
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + _BRENT_XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx, num


def _ascent(
    x: np.ndarray, val: float, cfg: ScenarioConfig
) -> Generator[np.ndarray, list[float], tuple[np.ndarray, float]]:
    """Pairwise coordinate ascent from one start, as a generator.

    Mass transfers between coordinate pairs preserve the sum.  Each pair is
    probed on a grid of 9 transfers, then line-searched by bounded Brent
    around the best probe.  Yields each (m, n_segments) batch of profiles it
    needs valued, is sent their m values, and returns the final profile and
    its value.
    """
    n = cfg.n_segments
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for _sweep in range(30):
        improved = 0.0
        for k, l in pairs:
            lo = max(cfg.v_min - x[k], x[l] - cfg.v_max)
            hi = min(cfg.v_max - x[k], x[l] - cfg.v_min)
            if hi - lo <= 1e-12:
                continue

            def shifted(t: float) -> np.ndarray:
                y = x.copy()
                y[k] += t
                y[l] -= t
                return y

            probes = np.linspace(lo, hi, 9)
            probe_vals = yield np.stack([shifted(t) for t in probes])
            j = int(np.argmax(probe_vals))
            span = probes[1] - probes[0]
            search = _bounded_brent(max(lo, probes[j] - span), min(hi, probes[j] + span))
            t = next(search)
            while True:  # Brent minimizes: it is sent the negated values
                (value,) = yield shifted(t)[None, :]
                try:
                    t = search.send(-value)
                except StopIteration as stop:
                    cand_t, neg_val, _ = stop.value
                    break
            cand_t, cand_val = float(cand_t), -float(neg_val)
            if probe_vals[j] > cand_val:
                cand_t, cand_val = float(probes[j]), float(probe_vals[j])
            if cand_val > val + 1e-15:
                improved += cand_val - val
                x = shifted(cand_t)
                val = cand_val
        if improved < _SWEEP_TOL:
            break
    return x, val


def _lockstep(
    ascents: Sequence[Generator[np.ndarray, list[float], tuple]],
    evaluate_many: Callable[[np.ndarray], list[float]],
) -> list[tuple]:
    """Drive generators that yield profile batches in lockstep; return their results in order.

    Each round values every pending batch in one ``evaluate_many`` call and
    sends each generator its own rows.  The evaluator computes every row on
    its own, so each generator sees exactly the values it would see alone.
    """
    results: list[tuple] = [()] * len(ascents)
    pending: dict[int, np.ndarray] = {}

    def advance(i: int, sent: list[float] | None) -> None:
        try:
            pending[i] = ascents[i].send(sent)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(ascents)):
        advance(i, None)
    while pending:
        batch = list(pending.items())
        pending.clear()
        values = evaluate_many(np.concatenate([rows for _, rows in batch]))
        offsets = np.cumsum([0] + [len(rows) for _, rows in batch]).tolist()
        for (i, _), lo, hi in zip(batch, offsets, offsets[1:]):
            advance(i, values[lo:hi])
    return results


def solve_dro(
    known_state: Sequence[float],
    ball: AmbiguityBall,
    cfg: ScenarioConfig,
    n_t: int = 200,
    n_starts: int = 20,
) -> tuple[np.ndarray, float]:
    """Best speed profile and its worst-case expected squared clearance.

    A fixed lattice on the profile polytope (box constraints plus the fixed
    crossing-time sum, ``_profile_lattice``) is evaluated in full; its local
    maxima under one-level pairwise transfers, best first (ties by lattice
    order), start at most ``n_starts`` runs of pairwise coordinate ascent
    (``_ascent``: a 9-probe grid, then a bounded Brent line search per pair).
    The ascents run in lockstep: each round values the pending profiles of
    every live ascent in one batch (``_lockstep``), and each ascent sees the
    values it would see alone.  The result depends only on the problem, so
    equal problems get equal answers.  Local optimality only; the returned
    value is a certified lower bound of the restricted sup-inf, and at least
    the best lattice value.
    """
    _check_solver_settings(n_t, n_starts)
    n = cfg.n_segments
    evaluate_many = _inner_evaluator(ball, candidate_support(ball), known_state, cfg, n_t)
    if cfg.v_min == cfg.v_max or n == 1:
        x = np.full(n, cfg.profile_sum / n)
        return x, evaluate_many(x[None, :])[0]

    lattice, neighbors = _profile_lattice(cfg)
    values = np.array(evaluate_many(lattice))
    local_max = np.all(np.append(values, -np.inf)[neighbors] <= values[:, None], axis=1)
    maxima = np.flatnonzero(local_max)
    starts = maxima[np.argsort(-values[maxima], kind="stable")][:n_starts]
    ascents = [_ascent(lattice[s].copy(), float(values[s]), cfg) for s in starts]
    best_x, best_val = lattice[starts[0]], -math.inf
    for x, val in _lockstep(ascents, evaluate_many):
        if val > best_val:
            best_val = val
            best_x = x
    return best_x, best_val


# --- the seeded experiment ---------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRow:
    realization: int
    checkpoint: int
    mode: str
    radius: float
    dro_value: float
    min_true_distance: float


@dataclass(frozen=True)
class ExperimentReport:
    """All rows of a comparison run plus per-checkpoint means."""

    rows: tuple[ExperimentRow, ...]
    checkpoints: tuple[int, ...]

    def summary(self) -> dict:
        out: dict = {"checkpoints": {}}
        for cp in self.checkpoints:
            entry = {}
            for mode in ("dynamic", "static"):
                vals = [r.dro_value for r in self.rows if r.checkpoint == cp and r.mode == mode]
                entry[f"{mode}_mean"] = sum(vals) / len(vals) if vals else None
            dyn, stat = entry["dynamic_mean"], entry["static_mean"]
            entry["dynamic_minus_static"] = dyn - stat if dyn is not None else None
            out["checkpoints"][str(cp)] = entry
        return out


SAMPLE_OFFSETS = (-0.2, -0.1, 0.0)  # position fixes collected just before each checkpoint


def _observe_and_reconstruct(theta: float, cfg: ScenarioConfig) -> np.ndarray:
    """Sample one watcher near its checkpoint and invert the samples.

    Checkpoint times are multiples of the period, so the canonical window
    around time zero produces bit-identical samples for every checkpoint.
    """
    xi0 = initial_red_state(theta, cfg.orbit_radius)
    positions = red_position_path(xi0, np.array(SAMPLE_OFFSETS), cfg)[0]
    return reconstruct_red_state(SAMPLE_OFFSETS, positions, cfg)


def _realization_problems(cfg: ScenarioConfig, realization: int, cps: list[int]) -> list[tuple]:
    """Draw one realization's phases, recover the states, build both balls per checkpoint.

    Returns (realization, checkpoint, mode, known state, ball, true next state) per row.
    """
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, realization)))
    n_watchers = cps[-1] + 1  # one beyond the last checkpoint: the unseen vehicle
    support = np.array(cfg.theta_support)
    thetas = rng.choice(support, size=n_watchers, p=np.array(cfg.theta_probabilities))
    fixes = {t: _observe_and_reconstruct(t, cfg) for t in dict.fromkeys(map(float, thetas[:-1]))}
    recovered = np.array([fixes[float(t)] for t in thetas[:-1]])
    problems = []
    for cp in cps:
        true_next = initial_red_state(float(thetas[cp]), cfg.orbit_radius)
        # The cumulative ball holds every recovered state; the static one the latest.
        for mode, first, n_samples in (("dynamic", 0, cp), ("static", cp - 1, 1)):
            center = DiscreteDistribution.empirical(recovered[first:cp])
            radius = calibrated_radius(cfg.eps_ref, cfg.n_ref, n_samples)
            ball = AmbiguityBall(center=center, radius=radius)
            problems.append((realization, cp, mode, recovered[cp - 1], ball, true_next))
    return problems


def _experiment_rows(
    cfg: ScenarioConfig,
    realizations: Sequence[int],
    checkpoints: Sequence[int],
    n_t: int,
    n_starts: int,
    jobs: int,
) -> list[ExperimentRow]:
    """Build every realization's problems, solve each distinct one once, assemble the rows.

    With the config, n_t and n_starts fixed, ``solve_dro`` depends only on the
    known state, the merged center, the radius and the order, so a repeated
    problem reuses the first solution bit for bit.  With ``jobs`` > 1 the
    distinct problems are solved in separate processes.
    """
    _check_solver_settings(n_t, n_starts)
    cps = sorted(int(c) for c in checkpoints)
    if not cps or cps[0] < 1:
        raise ValueError(f"checkpoints must be positive integers, got {checkpoints}")
    problems = [p for r in realizations for p in _realization_problems(cfg, r, cps)]
    keys = []
    distinct: dict[tuple, tuple] = {}
    for _, _, _, known, ball, _ in problems:
        merged = b"".join(a.tobytes() for a in _merged_center(ball.center))
        keys.append((known.tobytes(), merged, ball.radius, ball.order))
        distinct.setdefault(keys[-1], (known, ball, cfg, n_t, n_starts))
    columns = list(zip(*distinct.values()))  # one sequence per solve_dro argument
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            solved = dict(zip(distinct, pool.map(solve_dro, *columns)))
    else:
        solved = dict(zip(distinct, map(solve_dro, *columns)))
    rows = []
    for key, (realization, cp, mode, known, ball, true_next) in zip(keys, problems):
        profile, value = solved[key]
        true_d2 = dro_objective(profile, true_next, known, cfg, n_t=n_t)
        rows.append(ExperimentRow(realization, cp, mode, ball.radius, value, math.sqrt(true_d2)))
    return rows


def run_single_realization(
    cfg: ScenarioConfig,
    realization: int,
    checkpoints: Sequence[int],
    n_t: int = 200,
    n_starts: int = 20,
) -> list[ExperimentRow]:
    """One seeded pass: draw watcher phases, recover states, solve both DROs."""
    return _experiment_rows(cfg, [realization], checkpoints, n_t, n_starts, jobs=1)


def run_experiment(
    cfg: ScenarioConfig,
    n_realizations: int,
    checkpoints: Sequence[int],
    n_t: int = 200,
    n_starts: int = 20,
    jobs: int = 1,
) -> ExperimentReport:
    """Seeded dynamic-vs-static comparison across independent realizations.

    Each distinct DRO problem among all realizations is solved once; with
    ``jobs`` > 1 the distinct problems run in separate processes.  Row order
    and content depend only on the config and arguments, never on the
    worker count.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    rows = _experiment_rows(cfg, range(1, n_realizations + 1), checkpoints, n_t, n_starts, jobs)
    cps = tuple(sorted(int(c) for c in checkpoints))
    return ExperimentReport(rows=tuple(rows), checkpoints=cps)
