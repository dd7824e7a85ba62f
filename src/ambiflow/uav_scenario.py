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
profiles at once: the convex hull is built in Python only for the (profile,
atom) pairs whose dominance staircase steps below the base, and only from
the candidates and staircase points that can be hull vertices.  The
clearance field skips, bit for bit, every (time, candidate) tile whose
bound (its squared x gap plus its y^2 floor) reaches the known-watcher
clearance.  The outer supremum is
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
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from ambiflow import _checks
from ambiflow._checks import count, finite, finite_array
from ambiflow.concentration import calibrated_radius
from ambiflow.distribution import DiscreteDistribution

__all__ = [
    "ScenarioConfig",
    "AmbiguityBall",
    "ExperimentRow",
    "ExperimentReport",
    "default_config",
    "initial_red_state",
    "red_position_path",
    "reconstruct_red_state",
    "dro_objective",
    "candidate_support",
    "constrained_min_expectation",
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
        finite("orbit_radius", self.orbit_radius, gt=0)
        finite("square_side", self.square_side, gt=0)
        g = finite("tracking_gain", self.tracking_gain, ge=2)
        if g != int(g):
            raise ValueError(f"tracking_gain must be an integer for periodic orbits, got {g}")
        finite("v_min", self.v_min, gt=0)
        finite("v_max", self.v_max, ge=self.v_min)
        # A profile lattice of at most _LATTICE_SIZE points: 2^(n - 1) <= _LATTICE_SIZE.
        count("n_segments", self.n_segments, high=_LATTICE_SIZE.bit_length())
        for name in ("theta_support", "theta_probabilities"):
            values = tuple(float(finite(name, x)) for x in getattr(self, name))
            object.__setattr__(self, name, values)
        finite("eps_ref", self.eps_ref, gt=0)
        count("n_ref", self.n_ref)
        count("seed", self.seed, low=0)
        mean_speed = self.square_side / TWO_PI
        if not self.v_min <= mean_speed + 1e-12 or not mean_speed <= self.v_max + 1e-12:
            raise ValueError(
                f"profile set empty: required mean speed {mean_speed:.6g} outside "
                f"[{self.v_min:.6g}, {self.v_max:.6g}]"
            )
        if not self.theta_support:
            raise ValueError("theta_support must hold at least one phase, got ()")
        if len(self.theta_probabilities) != len(self.theta_support):
            raise ValueError("theta support and probabilities differ in length")
        probs = np.asarray(self.theta_probabilities, dtype=float)
        if probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError("theta probabilities must be nonnegative and sum to 1")

    @property
    def profile_sum(self) -> float:
        """The speed profile must integrate to one square side per period."""
        return self.square_side * self.n_segments / TWO_PI


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
    finite("theta", theta)
    finite("orbit_radius", orbit_radius)
    return np.array(
        [orbit_radius * math.cos(theta), orbit_radius * math.sin(theta), 0.0, 0.0, theta]
    )


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
    ts = _checks.times("sample times", times, at_least=3)
    pos = np.atleast_2d(finite_array("positions", positions))
    if pos.shape != (len(ts), 2):
        raise ValueError(f"positions shape {pos.shape} does not match {len(ts)} times")
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
    count("n_t", n_t, low=2)
    finite("t_start", t_start)
    x = _validated_profile(profile, cfg)
    # Flow formulas take states at relative time zero, so the reference
    # phase is developed to t_start.
    shift = np.array([0.0, 0.0, 0.0, 0.0, t_start])
    known = _watcher_state("known_state", known_state) + shift
    cand = _watcher_state("xi", xi)[None, :] + shift
    return float(_clearance_kernel(known, cand, cfg, n_t)(x[None, :])[0, 0])


def _watcher_state(name: str, state: Sequence[float]) -> np.ndarray:
    """``state`` as a finite watcher state (x, y, vx, vy, phase) of floats."""
    out = finite_array(name, state)
    if out.shape != (5,):
        raise ValueError(f"{name} must hold (x, y, vx, vy, phase), got shape {out.shape}")
    return out


# The clearance kernel cuts its (n_t, J) grid into tiles of _TILE_T (at least 2) times by
# _TILE_J candidates and computes at most _TILE_CHUNK live tiles at a time.
_TILE_T, _TILE_J, _TILE_CHUNK = 4, 32, 512


def _clearance_kernel(
    known_state: Sequence[float], candidates: np.ndarray, cfg: ScenarioConfig, n_t: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Squared clearance as a map from profiles (B, n_segments) to (B, J).

    Entry (b, j) is the minimum over a uniform grid of n_t times in
    [0, 2*pi] of the squared distance from intruder b to the nearer of the
    known watcher and candidate j, one square over.  Everything that does
    not depend on the profile is computed once, here.

    Exact pruning: rounded subtraction, squaring and addition are monotone and subtraction is
    sign-symmetric, so every cell fl(fl(fl(cx - bx)^2) + cy^2) of a tile is at least
    fl(fl(gap^2) + y2_lo): gap is the rounded distance from the tile's x range to the
    intruder's, y2_lo the tile's least cy^2.  A tile whose bound reaches the known-watcher
    clearance cannot undercut it, and is skipped.  The intruder's x range over a tile is
    the elementwise max and min of its _TILE_T strided time slices (when _TILE_T does not
    divide n_t, the last tile repeats the last time), and live tiles and their intruder
    rows are gathered by one flat index each.  Max, min and gathers are exact.
    """
    tau = np.linspace(0.0, TWO_PI, n_t)
    # Column-major, so that _intruder_x reads each segment's coverage contiguously.
    coverage = np.asfortranarray(_segment_coverage(tau, cfg.n_segments))
    known_xy = red_position_path(np.asarray(known_state, dtype=float), tau, cfg)[0]
    known_x, known_y2 = known_xy[None, :, 0].copy(), known_xy[None, :, 1] ** 2
    cand_xy = red_position_path(candidates, tau, cfg)
    cand_xy[:, :, 0] += cfg.square_side
    # (n_tj, n_tt, _TILE_T, _TILE_J) tiles with the columns in phase order, so that a
    # tile holds neighbouring orbits.  Padding repeats real cells: no min changes.
    order = np.argsort(np.atleast_2d(candidates)[:, 4], kind="stable")
    n_tj, n_tt = -(-len(order) // _TILE_J), -(-n_t // _TILE_T)
    n_tiles = n_tj * n_tt
    cols = order[np.minimum(np.arange(n_tj * _TILE_J), len(order) - 1)].reshape(n_tj, 1, 1, -1)
    t_index = np.minimum(np.arange(n_tt * _TILE_T), n_t - 1)
    times = t_index.reshape(n_tt, _TILE_T, 1)
    cand_x, cand_y2 = cand_xy[cols, times, 0], cand_xy[cols, times, 1]
    np.square(cand_y2, out=cand_y2)
    y2_lo = cand_y2.min(axis=(2, 3))
    x_lo, x_hi = cand_x.min(axis=(2, 3)), cand_x.max(axis=(2, 3))
    # Tiles by one flat index j * n_tt + t.
    tile_shape = (n_tiles, _TILE_T, _TILE_J)
    cand_x, cand_y2 = cand_x.reshape(tile_shape), cand_y2.reshape(tile_shape)
    pad = n_t % _TILE_T != 0
    restore = np.argsort(order)

    def clearance(xs: np.ndarray) -> np.ndarray:
        bx = _intruder_x(xs, coverage)  # (B, n_t), along y = 0
        known = known_x - bx
        np.square(known, out=known)
        np.add(known, known_y2, out=known)
        best_known = known.min(axis=1)
        if pad:  # the last tile repeats the last time
            bx = bx[:, t_index]
        # Each tile's intruder x extremes, elementwise over its _TILE_T strided times.
        bx_hi = np.maximum(bx[:, 0::_TILE_T], bx[:, 1::_TILE_T])
        bx_lo = np.minimum(bx[:, 0::_TILE_T], bx[:, 1::_TILE_T])
        for k in range(2, _TILE_T):
            np.maximum(bx_hi, bx[:, k::_TILE_T], out=bx_hi)
            np.minimum(bx_lo, bx[:, k::_TILE_T], out=bx_lo)
        # A lower bound on every cell of a tile: the square of the cells' own rounded x
        # difference at the tile's closest x range, plus its y^2 floor.
        lb = x_lo - bx_hi[:, None, :]
        np.maximum(lb, bx_lo[:, None, :] - x_hi, out=lb)
        np.maximum(lb, 0.0, out=lb)
        np.square(lb, out=lb)
        np.add(lb, y2_lo, out=lb)
        cells = np.flatnonzero(lb < best_known[:, None, None])  # b * n_tiles + j * n_tt + t
        bx = bx.reshape(-1, _TILE_T)  # intruder rows by b * n_tt + t
        dc = np.full((len(xs) * n_tj, _TILE_J), np.inf)
        starts = np.ones(_TILE_CHUNK, dtype=bool)  # starts[i]: a run starts at cell i
        for s in range(0, len(cells), _TILE_CHUNK):
            cell = cells[s : s + _TILE_CHUNK]
            row, t = np.divmod(cell, n_tt)  # row = b * n_tj + j: (b, j) rows in runs
            b = row // n_tj
            tile = cell - b * n_tiles
            d = cand_x[tile]
            np.subtract(d, bx[b * n_tt + t][:, :, None], out=d)
            np.square(d, out=d)
            np.add(d, cand_y2[tile], out=d)
            np.not_equal(row[1:], row[:-1], out=starts[1 : len(row)])
            runs = np.flatnonzero(starts[: len(row)])
            row = row[runs]
            run_min = np.minimum.reduceat(d.reshape(-1, _TILE_J), runs * _TILE_T)
            if s:  # a run from the last chunk; the first chunk meets only inf rows
                np.minimum(run_min[0], dc[row[0]], out=run_min[0])
            dc[row] = run_min
        dc = np.take(dc.reshape(len(xs), -1), restore, axis=1)
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
        finite("radius", self.radius, ge=0)
        finite("order", self.order, ge=1)


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
    w = finite_array("weights", weights)
    c = np.atleast_2d(finite_array("costs", costs))
    f = finite_array("values", values)
    if c.shape != (len(w), len(f)):
        raise ValueError(f"cost matrix {c.shape} does not match {len(w)}x{len(f)}")
    if budget != math.inf:  # an infinite budget is unconstrained transport
        finite("budget", budget, ge=0)
    for name, a in (("weights", w), ("costs", c)):
        if not np.all(a >= 0.0):
            raise ValueError(f"{name} must be finite and nonnegative")
    return _sorted_sources(w, c)(f[None, :], budget)[0]


def _sorted_sources(weights: np.ndarray, costs: np.ndarray) -> Callable[..., list[float]]:
    """``constrained_min_expectation`` for fixed weights and costs, over a batch of values.

    Returns ``solve(values, budget)``, mapping (B, J) values to B optima.  Each live source
    atom's candidates are sorted by cost once, here.  A (row, atom) pair's hull starts at
    its base point: the best of the atom's cheapest candidates.  Only the candidates that
    undercut every cheaper one (the dominance staircase, from a running minimum in cost
    order) can join it, so ``solve`` gathers the staircases of all pairs with some value
    below their base in one pass, and runs the hull and the greedy in Python only for
    those pairs.  Two exact skips shrink that work:

    - a candidate at or above the largest base of every row cannot undercut a running
      minimum, so its column is left out of the gather (base candidates stay);
    - a staircase point above the chord from its pair's base to its last point is no
      hull vertex, so it never reaches the Python hull.  The chord test is the hull's
      own, less eight units of rounding: more than the seven roundings of its two sides
      can lose, so it drops only points above the chord in exact arithmetic, and every
      near-tie reaches the hull as it would without the skip.
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
    base_cols = order[np.arange(costs.shape[1]) < n_base[:, None]]  # atom by atom
    base_starts = np.cumsum(n_base) - n_base
    twins = n_base.max(initial=1) > 1  # some atom has zero-cost twins
    w, c0 = weights[live], sorted_costs[:, 0]
    w_list, c0_list = w.tolist(), c0.tolist()

    def solve(values: np.ndarray, budget: float) -> list[float]:
        if not len(live):
            return [0.0] * len(values)
        base = values[:, base_cols]  # (B, atoms), unless an atom has zero-cost twins
        if twins:
            base = np.minimum.reduceat(base, base_starts, axis=1)
        # Atom by atom from 0.0, as a per-row sum would round (+ 0.0 turns -0.0 into 0.0).
        total = np.add.accumulate(w * base, axis=1)[:, -1] + 0.0
        # A pair's staircase steps below its base iff some value is below the base.
        lowest = np.minimum.reduce(values, axis=1)
        rows, atoms = np.nonzero(lowest[:, None] < base)
        if not len(rows):
            return total.tolist()
        # Leave out the columns at or above every row's largest base; keep base columns.
        keep = np.logical_or.reduce(values < np.maximum.reduce(base, axis=1)[:, None], axis=0)
        keep[base_cols] = True
        kept = keep[order]  # the same count in every atom's row
        k_order = order[kept].reshape(len(order), -1)
        tail_c = sorted_costs[kept].reshape(len(order), -1)[:, 1:]
        fs = values[rows[:, None], k_order[atoms]]
        tail_f = fs[:, 1:]
        step = tail_f < np.minimum.accumulate(fs[:, :-1], axis=1)
        pair, col = np.nonzero(step)  # pair by pair, in cost order
        step_c, step_f = tail_c[atoms[pair], col], tail_f[pair, col]
        # A pair's last point L is the first place of its row minimum.  The hull would pop
        # k from [base, k] for L when (f_k - f0)(c_L - c0) >= (f_L - f0)(c_k - c0); both
        # sides are negative, and the right one gives up 2^-50 of itself.
        last = tail_f.argmin(axis=1)
        c0p, f0 = c0[atoms], base[rows, atoms]
        d_cl, d_fl = tail_c[atoms, last] - c0p, lowest[rows] - f0
        chord = d_fl[pair] * (step_c - c0p[pair]) * (1.0 - 2.0**-50)
        hold = (step_f - f0[pair]) * d_cl[pair] < chord
        hold |= col == last[pair]
        pair, step_c, step_f = pair[hold], step_c[hold].tolist(), step_f[hold].tolist()
        cuts = np.searchsorted(pair, np.arange(len(rows) + 1)).tolist()
        segments: dict[int, list[tuple[float, float]]] = {}  # row -> (slope, budget length)
        pairs = zip(rows.tolist(), atoms.tolist(), f0.tolist(), cuts, cuts[1:])
        for b, a, f0b, lo, hi in pairs:
            # Decreasing lower convex hull over (cost, value), from the base point.
            hull = [(c0_list[a], f0b)]
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
            wi = w_list[a]
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
    x: Sequence[float], val: float, cfg: ScenarioConfig
) -> Generator[list[list[float]], list[float], tuple[np.ndarray, float]]:
    """Pairwise coordinate ascent from one start, as a generator.

    Mass transfers between coordinate pairs preserve the sum.  Each pair is
    probed on a grid of 9 transfers, then line-searched by bounded Brent
    around the best probe.  Yields each batch of m profiles it needs valued, a
    list of m lists of floats (the same IEEE steps as on arrays, without numpy's
    per-call cost), is sent their m values, and returns the final profile and
    its value.
    """
    x = np.asarray(x, dtype=float).tolist()
    n = cfg.n_segments
    pairs = [(k, l) for k in range(n) for l in range(k + 1, n)]
    for _sweep in range(30):
        improved = 0.0
        for k, l in pairs:
            lo = max(cfg.v_min - x[k], x[l] - cfg.v_max)
            hi = min(cfg.v_max - x[k], x[l] - cfg.v_min)
            if hi - lo <= 1e-12:
                continue

            def shifted(t: float) -> list[float]:
                y = x.copy()
                y[k] += t
                y[l] -= t
                return y

            probes = np.linspace(lo, hi, 9).tolist()
            probe_vals = yield [shifted(t) for t in probes]
            j = probe_vals.index(max(probe_vals))  # the first maximum, as np.argmax
            span = probes[1] - probes[0]
            search = _bounded_brent(max(lo, probes[j] - span), min(hi, probes[j] + span))
            t = next(search)
            while True:  # Brent minimizes: it is sent the negated values
                (value,) = yield [shifted(t)]
                try:
                    t = search.send(-value)
                except StopIteration as stop:
                    cand_t, neg_val, _ = stop.value
                    break
            cand_t, cand_val = float(cand_t), -float(neg_val)
            if probe_vals[j] > cand_val:
                cand_t, cand_val = probes[j], float(probe_vals[j])
            if cand_val > val + 1e-15:
                improved += cand_val - val
                x = shifted(cand_t)
                val = cand_val
        if improved < _SWEEP_TOL:
            break
    return np.array(x), val


def _lockstep(
    ascents: Sequence[Generator[list[list[float]], list[float], tuple]],
    evaluate_many: Callable[[np.ndarray], list[float]],
) -> list[tuple]:
    """Drive generators that yield profile batches in lockstep; return their results in order.

    Each round stacks every pending batch (a list of profiles) into one array
    for one ``evaluate_many`` call and sends each generator its own values, by
    running offset.  The evaluator computes every row on its own, so each
    generator sees exactly the values it would see alone.
    """
    results: list[tuple] = [()] * len(ascents)
    pending: dict[int, list[list[float]]] = {}

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
        values = evaluate_many(np.array([row for _, rows in batch for row in rows]))
        hi = 0
        for i, rows in batch:
            lo, hi = hi, hi + len(rows)
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
    count("n_t", n_t, low=2)
    count("n_starts", n_starts)
    known_state = _watcher_state("known_state", known_state)
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
    ascents = [_ascent(lattice[s], float(values[s]), cfg) for s in starts]
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
# A checkpoint sizes each realization's draw of watcher phases, so it is
# bounded before anything is allocated: 6,250x criterion 9's largest, 160.
_MAX_CHECKPOINT = 10**6


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


def _checkpoints(checkpoints: Sequence[int]) -> list[int]:
    """The checkpoints in increasing order; ValueError names an entry that is not
    a count (a bool or a float is not) or is past ``_MAX_CHECKPOINT``."""
    if not checkpoints:
        raise ValueError("checkpoints must be positive integers, got none")
    high = _MAX_CHECKPOINT
    return sorted(int(count(f"checkpoints[{i}]", c, high=high)) for i, c in enumerate(checkpoints))


def _experiment_rows(
    cfg: ScenarioConfig,
    realizations: Sequence[int],
    cps: list[int],
    n_t: int,
    n_starts: int,
    jobs: int,
) -> list[ExperimentRow]:
    """Build every realization's problems, solve each distinct one once, assemble the rows.

    With the config, n_t and n_starts fixed, ``solve_dro`` depends only on the
    known state, the merged center, the radius and the order, so a repeated
    problem reuses the first solution bit for bit.  The distinct problems are
    solved in min(``jobs``, number of distinct problems) processes, or in this
    one when that is 1.
    """
    count("n_t", n_t, low=2)
    count("n_starts", n_starts)
    count("jobs", jobs)
    problems = [p for r in realizations for p in _realization_problems(cfg, r, cps)]
    keys = []
    distinct: dict[tuple, tuple] = {}
    for _, _, _, known, ball, _ in problems:
        merged = b"".join(a.tobytes() for a in _merged_center(ball.center))
        keys.append((known.tobytes(), merged, ball.radius, ball.order))
        distinct.setdefault(keys[-1], (known, ball, cfg, n_t, n_starts))
    columns = list(zip(*distinct.values()))  # one sequence per solve_dro argument
    workers = min(jobs, len(distinct))  # an executor may start all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    return _experiment_rows(cfg, [realization], _checkpoints(checkpoints), n_t, n_starts, jobs=1)


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
    count("n_realizations", n_realizations)
    cps = _checkpoints(checkpoints)
    rows = _experiment_rows(cfg, range(1, n_realizations + 1), cps, n_t, n_starts, jobs)
    return ExperimentReport(rows=tuple(rows), checkpoints=tuple(cps))
