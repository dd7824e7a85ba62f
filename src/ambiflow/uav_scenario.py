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
exchange argument (``constrained_min_expectation``); the outer supremum is
multi-start pairwise coordinate ascent over the profile polytope.

``run_experiment`` assembles the full seeded comparison between the
cumulative ambiguity ball (all recovered states, shrinking radius) and the
static one (latest state only, fixed radius).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize_scalar

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
    return np.stack(
        [
            states[..., 0] + 1j * states[..., 1],
            states[..., 2] + 1j * states[..., 3],
            np.exp(1j * states[..., 4]),
        ],
        axis=-1,
    )


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
    out[:, 0] = cov @ x
    return out


def _validated_profile(profile: Sequence[float], cfg: ScenarioConfig) -> np.ndarray:
    x = np.asarray(profile, dtype=float)
    if x.shape != (cfg.n_segments,):
        raise ValueError(f"profile infeasible: expected {cfg.n_segments} segments")
    if x.min() < cfg.v_min - 1e-9 or x.max() > cfg.v_max + 1e-9:
        raise ValueError("profile infeasible: speed bounds violated")
    if abs(x.sum() - cfg.profile_sum) > 1e-9 * max(1.0, cfg.profile_sum):
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
    x = _validated_profile(profile, cfg)
    # Flow formulas take states at relative time zero, so the reference
    # phase is developed to t_start.
    shift = np.array([0.0, 0.0, 0.0, 0.0, t_start])
    known = np.asarray(known_state, dtype=float).reshape(1, 5) + shift
    cand = np.asarray(xi, dtype=float).reshape(1, 5) + shift
    return float(_clearance_kernel(known, cand, cfg, n_t)(x[None, :])[0, 0])


def _clearance_kernel(
    known_state: Sequence[float], candidates: np.ndarray, cfg: ScenarioConfig, n_t: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Squared clearance as a map from profiles (B, n_segments) to (B, J).

    Entry (b, j) is the minimum over a uniform grid of n_t times in
    [0, 2*pi] of the squared distance from intruder b to the nearer of the
    known watcher and candidate j, one square over.  Everything that does
    not depend on the profile is computed once, here.
    """
    tau = np.linspace(0.0, TWO_PI, n_t)
    coverage = _segment_coverage(tau, cfg.n_segments)
    known_xy = red_position_path(np.asarray(known_state, dtype=float), tau, cfg)[0]
    cand_xy = red_position_path(candidates, tau, cfg) + np.array([cfg.square_side, 0.0])
    # Time-major (n_t, J) copies and one scratch buffer: no (B, J, n_t) temporary.
    cand_x = np.ascontiguousarray(cand_xy[:, :, 0].T)
    cand_y2 = np.ascontiguousarray(cand_xy[:, :, 1].T ** 2)
    buf = np.empty_like(cand_x)
    known_y2 = known_xy[:, 1] ** 2

    def clearance(xs: np.ndarray) -> np.ndarray:
        bx = xs @ coverage.T  # (B, n_t); the intruder flies along y = 0
        best_known = ((known_xy[:, 0][None, :] - bx) ** 2 + known_y2[None, :]).min(axis=1)
        dc = np.empty((len(bx), cand_x.shape[1]))
        for b in range(len(bx)):
            np.subtract(cand_x, bx[b][:, None], out=buf)
            np.square(buf, out=buf)
            np.add(buf, cand_y2, out=buf)
            buf.min(axis=0, out=dc[b])
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


def candidate_support(ball: AmbiguityBall, star_steps: int = 10) -> np.ndarray:
    """Finite support for the inner adversary.

    The exact-deduplicated center atoms, plus an axis-aligned star around
    each: ``star_steps`` offsets per direction per coordinate, extending to
    the ball radius with resolution radius / star_steps.  Zero radius keeps
    just the atoms.
    """
    atoms = np.unique(ball.center.points, axis=0)
    pieces = [atoms]
    if ball.radius > 0.0:
        d = atoms.shape[1]
        offsets = []
        for axis in range(d):
            for k in range(1, star_steps + 1):
                delta = np.zeros(d)
                delta[axis] = ball.radius * k / star_steps
                offsets.append(delta)
                offsets.append(-delta)
        offsets = np.array(offsets)
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
    An infinite budget is unconstrained transport.
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
    return _sorted_sources(w, c)(f, budget)


def _sorted_sources(weights: np.ndarray, costs: np.ndarray) -> Callable[..., float]:
    """``constrained_min_expectation`` for fixed weights and costs: ``solve(values, budget)``.

    Each live source atom's candidates are sorted by cost once, here; ``solve`` only gathers
    the values in that order, drops dominated candidates and runs the hull and the greedy.
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
    live_weights = weights[live].tolist()

    def solve(values: np.ndarray, budget: float) -> float:
        fs = values[order]
        # Dominated candidates (some cheaper point is at least as good) can
        # never enter a hull; dropping them first keeps the hull loop short.
        keep = np.ones(fs.shape, dtype=bool)
        np.less(fs[:, 1:], np.minimum.accumulate(fs, axis=1)[:, :-1], out=keep[:, 1:])
        total = 0.0
        segments: list[tuple[float, float]] = []  # (slope, budget length)
        for wi, cs, fi, ki in zip(live_weights, sorted_costs, fs, keep):
            # Decreasing lower convex hull over (cost, value).
            hull: list[tuple[float, float]] = []
            for pt in zip(cs[ki].tolist(), fi[ki].tolist()):
                if hull and pt[1] >= hull[-1][1]:
                    continue
                while len(hull) >= 2:
                    (c1, f1), (c2, f2) = hull[-2], hull[-1]
                    # Drop the middle point when the new segment undercuts it.
                    if (f2 - f1) * (pt[0] - c1) >= (pt[1] - f1) * (c2 - c1):
                        hull.pop()
                    else:
                        break
                if hull and pt[0] <= hull[-1][0] + 1e-15:
                    hull.pop()
                hull.append(pt)
            total += wi * hull[0][1]
            for (c1, f1), (c2, f2) in zip(hull, hull[1:]):
                slope = (f2 - f1) / (c2 - c1)
                segments.append((slope, wi * (c2 - c1)))
        remaining = budget
        for slope, length in sorted(segments, key=lambda s: s[0]):
            if remaining <= 0.0 or slope >= 0.0:
                break
            used = min(length, remaining)
            total += slope * used
            remaining -= used
        return total

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
    restricted to the finite ``candidates`` support.
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
        return [solve(row, budget) for row in clearance(xs)]

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


def solve_dro(
    known_state: Sequence[float],
    ball: AmbiguityBall,
    cfg: ScenarioConfig,
    rng: np.random.Generator | None = None,
    n_t: int = 200,
    n_starts: int = 20,
    tol: float = 1e-6,
) -> tuple[np.ndarray, float]:
    """Best speed profile and its worst-case expected squared clearance.

    Multi-start pairwise coordinate ascent on the profile polytope (box
    constraints plus the fixed crossing-time sum).  Mass transfers between
    coordinate pairs preserve the sum; each pair is line-searched on a
    coarse grid and polished.  Local optimality only; the returned value is
    a certified lower bound of the restricted sup-inf.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    n = cfg.n_segments
    target = cfg.profile_sum
    evaluate_many = _inner_evaluator(ball, candidate_support(ball), known_state, cfg, n_t)

    def evaluate(x: np.ndarray) -> float:
        return evaluate_many(x[None, :])[0]

    def feasible_start() -> np.ndarray:
        x = rng.uniform(cfg.v_min, cfg.v_max, size=n)
        for _ in range(50):
            x += (target - x.sum()) / n
            x = np.clip(x, cfg.v_min, cfg.v_max)
            if abs(x.sum() - target) <= 1e-12 * max(1.0, target):
                break
        x[0] += target - x.sum()
        return x

    if cfg.v_min == cfg.v_max:
        x = np.full(n, cfg.v_min)
        return x, evaluate(x)

    best_x: np.ndarray | None = None
    best_val = -math.inf
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for _ in range(max(1, n_starts)):
        x = feasible_start()
        val = evaluate(x)
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
                probe_vals = evaluate_many(np.stack([shifted(t) for t in probes]))
                j = int(np.argmax(probe_vals))
                span = probes[1] - probes[0]
                left = max(lo, probes[j] - span)
                right = min(hi, probes[j] + span)
                opt = minimize_scalar(
                    lambda t: -evaluate(shifted(t)),
                    bounds=(left, right),
                    method="bounded",
                    options={"xatol": 1e-6},
                )
                cand_t, cand_val = float(opt.x), -float(opt.fun)
                if probe_vals[j] > cand_val:
                    cand_t, cand_val = float(probes[j]), float(probe_vals[j])
                if cand_val > val + 1e-15:
                    improved += cand_val - val
                    x = shifted(cand_t)
                    val = cand_val
            if improved < tol:
                break
        if val > best_val:
            best_val = val
            best_x = x
    assert best_x is not None
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
    config: ScenarioConfig
    checkpoints: tuple[int, ...]

    def summary(self) -> dict:
        out: dict = {"checkpoints": {}}
        for cp in self.checkpoints:
            entry = {}
            for mode in ("dynamic", "static"):
                vals = [
                    r.dro_value
                    for r in self.rows
                    if r.checkpoint == cp and r.mode == mode
                ]
                entry[f"{mode}_mean"] = sum(vals) / len(vals) if vals else None
            entry["dynamic_minus_static"] = (
                entry["dynamic_mean"] - entry["static_mean"]
                if entry["dynamic_mean"] is not None
                else None
            )
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


def run_single_realization(
    cfg: ScenarioConfig,
    realization: int,
    checkpoints: Sequence[int],
    n_t: int = 200,
    n_starts: int = 20,
) -> list[ExperimentRow]:
    """One seeded pass: draw watcher phases, recover states, solve both DROs."""
    cps = sorted(int(c) for c in checkpoints)
    if not cps or cps[0] < 1:
        raise ValueError(f"checkpoints must be positive integers, got {checkpoints}")
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, realization)))
    n_watchers = cps[-1] + 1  # one beyond the last checkpoint: the unseen vehicle
    support = np.array(cfg.theta_support)
    thetas = rng.choice(support, size=n_watchers, p=np.array(cfg.theta_probabilities))
    cache: dict[float, np.ndarray] = {}
    recovered = []
    for theta in thetas[:-1]:
        key = float(theta)
        if key not in cache:
            cache[key] = _observe_and_reconstruct(key, cfg)
        recovered.append(cache[key])
    recovered = np.array(recovered)

    rows: list[ExperimentRow] = []
    for cp in cps:
        known = recovered[cp - 1]
        true_next = initial_red_state(float(thetas[cp]), cfg.orbit_radius)
        for mode in ("dynamic", "static"):
            if mode == "dynamic":
                center = DiscreteDistribution.empirical(recovered[:cp])
                radius = calibrated_radius(cfg.eps_ref, cfg.n_ref, cp)
            else:
                center = DiscreteDistribution.empirical(recovered[cp - 1 : cp])
                radius = calibrated_radius(cfg.eps_ref, cfg.n_ref, 1)
            ball = AmbiguityBall(center=center, radius=radius)
            # Both modes share one start sequence (common random numbers):
            # identical balls then produce identical values, and the paired
            # comparison has lower variance.
            solver_rng = np.random.default_rng(
                np.random.SeedSequence((cfg.seed, realization, cp))
            )
            profile, value = solve_dro(
                known, ball, cfg, rng=solver_rng, n_t=n_t, n_starts=n_starts
            )
            true_d2 = dro_objective(profile, true_next, known, cfg, n_t=n_t)
            rows.append(
                ExperimentRow(
                    realization=realization,
                    checkpoint=cp,
                    mode=mode,
                    radius=radius,
                    dro_value=value,
                    min_true_distance=math.sqrt(true_d2),
                )
            )
    return rows


def _realization_args(args: tuple) -> list[ExperimentRow]:
    return run_single_realization(*args)


def run_experiment(
    cfg: ScenarioConfig,
    n_realizations: int,
    checkpoints: Sequence[int],
    n_t: int = 200,
    n_starts: int = 20,
    jobs: int = 1,
) -> ExperimentReport:
    """Seeded dynamic-vs-static comparison across independent realizations.

    Realizations are independent; with ``jobs`` > 1 they run in separate
    processes.  Row order and content depend only on the config and
    arguments, never on the worker count.
    """
    if n_realizations < 1:
        raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
    tasks = [(cfg, r, tuple(checkpoints), n_t, n_starts) for r in range(1, n_realizations + 1)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_realization_args, tasks))
    else:
        chunks = [_realization_args(t) for t in tasks]
    rows = tuple(row for chunk in chunks for row in chunk)
    return ExperimentReport(
        rows=rows, config=cfg, checkpoints=tuple(sorted(int(c) for c in checkpoints))
    )
