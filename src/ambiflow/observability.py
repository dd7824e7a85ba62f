"""State reconstruction from sampled outputs of linear time-varying systems.

A member of the population evolves as x' = A(t) x and is observed through
y = C(t) x at finitely many times t_1 < ... < t_l.  Stacking the rows
C(t_k) Phi(t_k, t_l) (with Phi the fundamental matrix, everything expressed
at the last sample time) gives the sample observability matrix O; a weighted
least-squares fit through O recovers x(t_l).

The quality of that fit is governed by how well the weighted normal matrix
O^T W^2 O approximates the continuous-time constructability Gramian

    G_varsigma(t) = integral_t^(t+varsigma) Phi(s, t+varsigma)^T C(s)^T C(s)
                    Phi(s, t+varsigma) ds,

anchored at the window's right end.  With trapezoid weights (built by
``weight_matrix``) the normal matrix IS the trapezoid discretization of that
integral at the sample times, so the gap is controlled by the largest
inter-sample gap times the s-derivative of the integrand.
``robust_sampling_bound`` turns this into an explicit sampling-rate bound
under which a chosen fraction of the Gramian's smallest eigenvalue survives
discretization, and ``estimation_error_bound`` converts that fraction plus a
per-output noise level into a state error bound.

The Gramian floor, the kernel-derivative scan and the stationary gap bound
read Phi(tau, t) at uniformly spaced tau as whole stacks from one backward
sweep (``_backward_sweep``) over every window or anchor: a product with
expm(-A h) per node for stationary systems.  ``sample_observability_matrix``
takes a stationary schedule's exponentials in one stacked ``expm``.  Every
time-varying Phi, of the sweep and of a sample schedule read back from its
last time, chains cells stepped from the identity (``_chain``), with A, C
and C' built once per distinct tau: each sweep cell by one RK4 step that
ends on the next node, all in one batched call, a schedule's gaps each only
as finely as step doubling needs (``_gap_cells``).  Only the kernel terms
that can hold the largest spectral norm take an SVD (``_max_norm``).  The
system keeps each Gramian floor it was asked for, so the floor a gap bound
keeps a fraction of is computed once; that assumes A(t) and C(t) are pure
functions of t (``LinearTimeVaryingSystem``).  Where the flow overflows,
the sweep's three users and ``sample_observability_matrix`` raise
OverflowError (an ArithmeticError) instead of returning NaN or inf.  Their
``grid_step`` must be positive and finite, and every time must be a finite
number.  A sweep or window grid of more than ``_MAX_SWEEP_NODES`` nodes x
columns is a ValueError raised before anything is allocated.

``check_schedule_observability`` covers the complementary qualitative
question (is the sampled pair observable at all?) through three classical
sufficient criteria for time-invariant systems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from ambiflow import _checks
from ambiflow._checks import count, finite, finite_array
from ambiflow.dynamics import _read_params, _steps

__all__ = [
    "LinearTimeVaryingSystem",
    "EigenStructure",
    "ScheduleDiagnostics",
    "sample_observability_matrix",
    "weight_matrix",
    "observability_gramian",
    "gramian_floor",
    "max_kernel_derivative",
    "robust_sampling_bound",
    "check_schedule_observability",
    "reconstruct_state",
    "estimation_error_bound",
    "eigenvalue_margin",
    "builtin_system",
]

_FD_STEP = 1e-5          # central-difference step for C'(t) when not supplied
_RANK_TOL = 1e-9
_PATTERN_TOL = 1e-9
_MIN_SINGULAR = 1e-10    # relative singular-value floor of a reconstruction
_CLUSTER_TOL = 1e-5      # relative distance that merges eigenvalues
_PHI_RTOL = 1e-12        # local RK4 error a sample gap may keep, times max(1, max|Phi|)
_PHI_FLOOR_STEP = 1e-3   # the finest RK4 step a sample gap is refined to
# The most nodes x columns one backward sweep or window grid may hold: 194x
# the largest the tests reach (5,151) and 2,976x the benchmark's (336).  At
# the limit a time-varying kernel scan at d = 2 peaks near 1.2 GB.
_MAX_SWEEP_NODES = 10**6
# Relative widening of a Frobenius norm before it may rule out a spectral
# norm: a rank-one kernel ties in both norms up to rounding.
_NORM_MARGIN = 1e-12


@dataclass(frozen=True)
class LinearTimeVaryingSystem:
    """x' = A(t) x observed through y = C(t) x.

    Use ``lti`` for constant matrices (enables exact matrix exponentials and
    the stationary fast paths) or ``time_varying`` with callables.  The
    optional ``c_dot_fn`` supplies the derivative of C; without it, kernel
    derivatives fall back to central finite differences on C.

    A(t), C(t) and C'(t) must be pure functions of t: the system keeps each
    Gramian floor it computes (``gramian_floor``), and a function that
    changed its values later would be answered with the floor of the old
    ones.  ``lti`` keeps read-only copies of its matrices for that reason.
    """

    a_fn: Callable[[float], np.ndarray]
    c_fn: Callable[[float], np.ndarray]
    dim: int
    n_outputs: int
    c_dot_fn: Callable[[float], np.ndarray] | None = None
    a_const: np.ndarray | None = None
    c_const: np.ndarray | None = None
    name: str = ""
    # Gramian floors by (window, horizon, grid_step), filled by
    # ``gramian_floor``; ``replace`` starts a new system with none.
    _floors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def is_lti(self) -> bool:
        """Constant matrices, ``a_const`` and ``c_const``, were given."""
        return self.a_const is not None

    @classmethod
    def lti(cls, a: np.ndarray, c: np.ndarray, name: str = "") -> "LinearTimeVaryingSystem":
        a, c = np.array(finite_array("A", a), ndmin=2), np.array(finite_array("C", c), ndmin=2)
        a.flags.writeable = c.flags.writeable = False  # read-only copies, as the kept floors need
        zero = np.zeros_like(c)
        sys = cls.time_varying(lambda t: a, lambda t: c, lambda t: zero, name)
        return replace(sys, a_const=a, c_const=c)

    @classmethod
    def time_varying(
        cls,
        a_fn: Callable[[float], np.ndarray],
        c_fn: Callable[[float], np.ndarray],
        c_dot_fn: Callable[[float], np.ndarray] | None = None,
        name: str = "",
    ) -> "LinearTimeVaryingSystem":
        a0, c0 = _as_matrix(a_fn(0.0)), _as_matrix(c_fn(0.0))
        if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError(f"A(t) must be square, got {a0.shape}")
        if c0.ndim != 2 or c0.shape[1] != a0.shape[0]:
            raise ValueError(f"C(t) must be a matrix with {a0.shape[0]} columns, got {c0.shape}")
        return cls(
            a_fn=a_fn,
            c_fn=c_fn,
            dim=a0.shape[0],
            n_outputs=c0.shape[0],
            c_dot_fn=c_dot_fn,
            name=name,
        )

    def a_at(self, t: float) -> np.ndarray:
        return _as_matrix(self.a_fn(t))

    def c_at(self, t: float) -> np.ndarray:
        return _as_matrix(self.c_fn(t))

    def c_dot_at(self, t: float) -> np.ndarray:
        if self.c_dot_fn is not None:
            return _as_matrix(self.c_dot_fn(t))
        hi = self.c_at(t + _FD_STEP)
        lo = self.c_at(t - _FD_STEP)
        return (hi - lo) / (2.0 * _FD_STEP)


def _as_matrix(value) -> np.ndarray:
    """A callable's value as a 2-D float array; one that is already 2-D is
    returned as it is, without the cost of ``np.atleast_2d``."""
    m = np.asarray(value, dtype=float)
    return m if m.ndim == 2 else np.atleast_2d(m)


# --- fundamental matrices -------------------------------------------------------


def _stacked(fn: Callable[[float], np.ndarray], taus: np.ndarray) -> np.ndarray:
    """fn at every tau of an array, stacked in its shape; fn sees each distinct tau once."""
    distinct, where = np.unique(taus.ravel(), return_inverse=True)
    values = np.array([fn(tau) for tau in distinct.tolist()])
    return values[where].reshape(*taus.shape, *values.shape[1:])


def _chain(cells: np.ndarray) -> np.ndarray:
    """Phi_k = R_k ... R_1 over a (K, B, d, d) stack of cells R, as a
    (K + 1, B, d, d) stack that starts from the identity.

    Each cell is a flow from the identity across one step of its column's
    chain; RK4 is linear in its start, so chaining the cells changes only
    rounding against stepping Phi cell by cell.
    """
    phis = np.empty((len(cells) + 1, *cells.shape[1:]))
    phis[0] = np.eye(cells.shape[-1])
    for cell, prev, phi in zip(cells, phis, phis[1:]):
        np.matmul(cell, prev, out=phi)
    return phis


def _rk4_gaps(a_at: Callable, start: np.ndarray, end: np.ndarray, n: int) -> np.ndarray:
    """The RK4 flow of M' = A M from the identity across every gap
    start[g] -> end[g] in n equal steps, n a power of two, as (G, d, d).

    A stage time sits at an exact dyadic fraction of its gap, and a gap's end
    is its end time itself, so halving the steps rebuilds no A that ``a_at``
    (a cache) has seen at the coarser n.
    """
    width = end - start
    times = start[:, None] + (np.arange(2 * n + 1) / (2 * n)) * width[:, None]
    times[:, -1] = end
    a = _stacked(a_at, times)
    a0, am, a1 = a[:, 0:-1:2], a[:, 1::2], a[:, 2::2]
    h = (width / n)[:, None, None, None]
    k2 = am + (0.5 * h) * (am @ a0)
    k3 = am + (0.5 * h) * (am @ k2)
    k4 = a1 + h * (a1 @ k3)
    steps = np.eye(a.shape[-1]) + (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
    while steps.shape[1] > 1:  # later steps act on the left
        steps = steps[:, 1::2] @ steps[:, 0::2]
    return steps[:, 0]


def _within_tolerance(fine: np.ndarray, coarse: np.ndarray, ratio) -> np.ndarray:
    """Per stack entry: is Richardson's estimate ratio * max|fine - coarse| of
    the error of ``fine`` at most _PHI_RTOL * max(1, max|fine|)?  A
    non-finite estimate is not."""
    err = ratio * np.abs(fine - coarse).max(axis=(1, 2))
    return err <= _PHI_RTOL * np.maximum(1.0, np.abs(fine).max(axis=(1, 2)))


def _gap_cells(dim: int, a_at: Callable, taus: np.ndarray) -> np.ndarray:
    """Phi(taus[k + 1], taus[k]) for every gap of a 1-D array of times, as
    (K, d, d), each gap stepped by RK4 only as finely as its error needs.

    Every gap first takes one step.  Each pair of neighbouring gaps (the last
    one overlapping when their number is odd) then takes one coarse step
    across both, whose end stages are the gaps' own nodes.  For steps of
    widths w1, w2 with local error C w^5, the error of the two fine steps is
    ratio * |coarse - fine| with ratio = (p^5 + q^5) / (1 - p^5 - q^5)
    = (p^5 + q^5) / (5 p q (1 - p q)), p = w1 / (w1 + w2), q = 1 - p: 1/15
    for equal gaps, and large for unequal ones, whose coarse and fine steps
    are nearly the same.  A gap whose pair misses _PHI_RTOL, or that has no
    pair, halves its steps until the doubled result passes (ratio 1/15
    against the last result) or its step is at most _PHI_FLOOR_STEP, which
    ends the loop.
    """
    if len(taus) < 2:
        return np.empty((0, dim, dim))
    start, end = taus[:-1], taus[1:]
    width = np.abs(end - start)
    cells = _rk4_gaps(a_at, start, end, 1)
    first = np.arange(0, len(cells) - 1, 2)
    if len(cells) % 2 and len(cells) > 1:
        first = np.append(first, len(cells) - 2)
    unchecked = np.ones(len(cells), dtype=bool)
    if first.size:
        p = width[first] / (width[first] + width[first + 1])
        pq = p * (1.0 - p)
        ratio = (p**5 + (1.0 - p) ** 5) / (5.0 * pq * (1.0 - pq))
        coarse = _rk4_gaps(a_at, start[first], end[first + 1], 1)
        missed = first[~_within_tolerance(cells[first + 1] @ cells[first], coarse, ratio)]
        unchecked[first] = unchecked[first + 1] = False
        unchecked[missed] = unchecked[missed + 1] = True
    todo = np.flatnonzero(unchecked & (width > _PHI_FLOOR_STEP))
    n = 1
    while todo.size:
        n *= 2
        finer = _rk4_gaps(a_at, start[todo], end[todo], n)
        again = ~_within_tolerance(finer, cells[todo], 1.0 / 15.0)
        cells[todo] = finer
        todo = todo[again & (width[todo] / n > _PHI_FLOOR_STEP)]
    return cells


def _check_sweep(nodes: float, columns: float, larger: str) -> None:
    """ValueError, before anything is allocated, for a sweep or window grid of
    more than _MAX_SWEEP_NODES nodes x columns; ``larger`` names what to raise."""
    if not nodes * columns <= _MAX_SWEEP_NODES:
        raise ValueError(
            f"a sweep of {nodes:.4g} nodes x {columns:.4g} columns is over the limit of "
            f"{_MAX_SWEEP_NODES:,}: take a larger {larger}"
        )


def _backward_sweep(
    sys: LinearTimeVaryingSystem, t: np.ndarray, h: np.ndarray, n: np.ndarray, a_at: Callable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(taus, phis, live) at tau = t - k h for k = 0..K = max(n), all columns at once.

    Column i sweeps back from t[i] in n[i] cells of width h[i] > 0.  taus and
    live are (K + 1, B), phis stacks Phi(taus[k, i], t[i]) as (K + 1, B, d, d),
    and ``live`` masks the nodes with k <= n[i]; phis means nothing past them.
    Stationary systems take Phi_k = Phi_(k-1) expm(-A h); time-varying ones
    step each live cell wider than a rounding (``_steps``) from I by one RK4
    step (``_rk4_gaps``), A from the sweep's cache ``a_at``, and chain them.
    """
    taus = t - np.arange(int(n.max()) + 1)[:, None] * h
    live = np.arange(len(taus))[:, None] <= n
    if not sys.is_lti:
        cells = np.tile(np.eye(sys.dim), (len(taus) - 1, taus.shape[1], 1, 1))
        ks, cols = np.nonzero(live[1:] & _steps(taus[1:] - taus[:-1], taus[1:]))
        if ks.size:
            cells[ks, cols] = _rk4_gaps(a_at, taus[ks, cols], taus[ks + 1, cols], 1)
        return taus, _chain(cells), live
    phis = np.empty((*taus.shape, sys.dim, sys.dim))
    phis[0] = np.eye(sys.dim)
    back = expm(-sys.a_const * h[:, None, None])
    for prev, phi in zip(phis, phis[1:]):
        np.matmul(prev, back, out=phi)
    return taus, phis, live


# --- sampled observability ------------------------------------------------------


def sample_observability_matrix(sys: LinearTimeVaryingSystem, times: Sequence[float]) -> np.ndarray:
    """Stack C(t_k) Phi(t_k, t_last) over the sample times.

    Shape (l * m, d).  The state being solved for lives at the last sample
    time; earlier rows reach it through backward flow.  Stationary systems
    take every Phi in one stacked ``expm``.  Otherwise each gap, read back
    from the anchor, is stepped by RK4 from the identity only as finely as
    step doubling says it needs (``_gap_cells``): until Richardson's
    estimate of its local error is at most _PHI_RTOL = 1e-12 times
    max(1, max|Phi|) of the gap, or its step is at most _PHI_FLOOR_STEP =
    1e-3, and the gaps chain back from the anchor.  The estimate reads A
    only at the gap's own stage times, so an A(t) that varies faster than
    the gaps, and aliases at them, is not detected.
    """
    ts = _checks.times("sample times", times)
    anchor = ts[-1]
    if sys.is_lti:
        phis = expm(sys.a_const * (ts - anchor)[:, None, None])
        blocks = [sys.c_const @ phi for phi in phis]
    else:
        cells = _gap_cells(sys.dim, functools.cache(sys.a_at), ts[::-1])
        phis = _chain(cells[:, None])[:, 0]
        blocks = [sys.c_at(t) @ phi for t, phi in zip(ts.tolist(), phis[::-1])]
    obs = np.vstack(blocks)
    if not np.isfinite(obs).all():
        raise OverflowError(
            f"sample observability matrix is not finite over [{ts[0]:.6g}, {anchor:.6g}]"
        )
    return obs


def weight_matrix(times: Sequence[float], n_outputs: int = 1) -> np.ndarray:
    """Trapezoid quadrature weights as a diagonal matrix on stacked outputs.

    With gaps tau_k = t_(k+1) - t_k the squared weights are tau_1/2 for the
    first sample, (tau_(k-1) + tau_k)/2 inside, tau_(l-1)/2 for the last;
    they sum to the window span.  Each weight is repeated for the m output
    channels of its sample, so the result is (l*m) x (l*m).
    """
    ts = _checks.times("sample times", times, at_least=2)
    count("n_outputs", n_outputs)
    gaps = np.diff(ts)
    sq = np.empty(len(ts))
    sq[0] = gaps[0] / 2.0
    sq[-1] = gaps[-1] / 2.0
    if len(ts) > 2:
        sq[1:-1] = (gaps[:-1] + gaps[1:]) / 2.0
    w = np.sqrt(sq)
    return np.kron(np.diag(w), np.eye(n_outputs))


def eigenvalue_margin(obs_matrix: np.ndarray, weight: np.ndarray) -> float:
    """Smallest eigenvalue of O^T W^2 O (the weighted normal matrix)."""
    wo = finite_array("weight", weight) @ finite_array("obs_matrix", obs_matrix)
    sv = np.linalg.svd(wo, compute_uv=False)
    smallest = sv[-1] if wo.shape[0] >= wo.shape[1] else 0.0
    return float(smallest**2)


# --- Gramians and kernel derivative ---------------------------------------------


def _kernel_mid(a: np.ndarray, c: np.ndarray, cd: np.ndarray) -> np.ndarray:
    """d/ds of C^T C along the flow, A^T C^T C + C'^T C + C^T C' + C^T C A,
    for stacks of A(s), C(s) and C'(s)."""
    ct = c.transpose(0, 2, 1)
    ctc = ct @ c
    return a.transpose(0, 2, 1) @ ctc + cd.transpose(0, 2, 1) @ c + ct @ cd + ctc @ a


def observability_gramian(
    sys: LinearTimeVaryingSystem,
    t: float | np.ndarray,
    varsigma: float,
    quad_step: float | None = None,
) -> np.ndarray:
    """Constructability Gramian over [t, t + varsigma], anchored at the right end.

    Composite trapezoid quadrature with a uniform node spacing at most
    ``quad_step`` (default varsigma/200).  The integrand is evaluated on one
    backward flow sweep from the anchor.  A number ``t`` gives one (d, d)
    Gramian; an array of window starts gives a (len(t), d, d) stack, every
    window on the same sweep.  A start that is not finite is a ValueError; an
    OverflowError names the first window in start order whose Gramian is not.
    """
    finite("varsigma", varsigma, gt=0)
    quad_step = finite("quad_step", varsigma / 200.0 if quad_step is None else quad_step, gt=0)
    starts = np.atleast_1d(finite_array("t", t))
    if not starts.size:
        raise ValueError("t must hold at least one window start, got none")
    _check_sweep(varsigma / quad_step + 1, starts.size, "quad_step")
    n_cells = max(2, math.ceil(varsigma / quad_step))
    h = varsigma / n_cells
    n_windows, a_at = len(starts), functools.cache(sys.a_at)
    taus, phis, _ = _backward_sweep(
        sys, starts + varsigma, np.full(n_windows, h), np.full(n_windows, n_cells), a_at
    )
    c = sys.c_const if sys.is_lti else _stacked(functools.cache(sys.c_at), taus)
    cm = c @ phis
    weights = np.r_[0.5, np.ones(n_cells - 1), 0.5]
    gram = (weights[:, None, None, None] * (cm.transpose(0, 1, 3, 2) @ cm)).sum(axis=0) * h
    bad = np.flatnonzero(~np.isfinite(gram).all(axis=(1, 2)))
    if bad.size:
        t0 = float(starts[bad[0]])
        raise OverflowError(f"Gramian over [{t0:.6g}, {t0 + varsigma:.6g}] is not finite")
    gram = 0.5 * (gram + gram.transpose(0, 2, 1))
    return gram if np.ndim(t) else gram[0]


def gramian_floor(
    sys: LinearTimeVaryingSystem,
    window: float,
    horizon: float,
    grid_step: float | None = None,
) -> float:
    """Smallest Gramian eigenvalue over all length-``window`` subintervals.

    Minimizes lambda_min of the anchored Gramian over window start times in
    [0, horizon - window], approximated on a uniform grid (stationary
    systems need a single evaluation).  All windows share one sweep.  The
    system keeps the floor, so asking again, as a caller of
    ``robust_sampling_bound`` does for the floor it keeps a fraction of,
    computes nothing; ``LinearTimeVaryingSystem`` states what that assumes.
    """
    finite("window", window, gt=0)
    finite("horizon", horizon, ge=window)
    grid_step = finite("grid_step", window / 100.0 if grid_step is None else grid_step, gt=0)
    span = 0.0 if sys.is_lti else horizon - window
    _check_sweep(window / grid_step + 1, span / grid_step + 1, "grid_step")
    key = (window, horizon, grid_step)
    if key not in sys._floors:
        starts = np.linspace(0.0, span, max(1, math.ceil(span / grid_step) + 1))
        grams = observability_gramian(sys, starts, window, grid_step)
        sys._floors[key] = float(np.linalg.eigvalsh(grams)[:, 0].min())
    return sys._floors[key]


def max_kernel_derivative(
    sys: LinearTimeVaryingSystem,
    t: float | np.ndarray,
    s_low: float | np.ndarray,
    grid_step: float,
) -> float:
    """max over s in [s_low, t] of the spectral norm of d/ds K(s, t),

    where K(s, t) = Phi(s, t)^T C(s)^T C(s) Phi(s, t).  Evaluated on one
    backward sweep from s = t with uniform node spacing at most grid_step.
    ``t`` and ``s_low`` may also be arrays of anchors and their lower ends,
    broadcast together: the result is then the maximum over every anchor,
    all of them on the same sweep.
    """
    finite("grid_step", grid_step, gt=0)
    t, s_low = np.broadcast_arrays(finite_array("t", t), finite_array("s_low", s_low))
    t, s_low = t.ravel(), s_low.ravel()
    if not t.size:
        raise ValueError("t and s_low must hold at least one anchor, got none")
    bad = np.flatnonzero(s_low > t)
    if bad.size:
        raise ValueError(f"need s_low <= t, both finite, got ({s_low[bad[0]]}, {t[bad[0]]})")
    span = t - s_low
    _check_sweep(span.max() / grid_step + 1, span.size, "grid_step")
    n_cells = np.where(span > 0.0, np.maximum(1.0, np.ceil(span / grid_step)), 0.0).astype(int)
    h = span / np.maximum(n_cells, 1)
    a_at = functools.cache(sys.a_at)
    taus, phis, live = _backward_sweep(sys, t, h, n_cells, a_at)
    tau, m = taus[live], phis[live]
    c_at, c_dot_at = functools.cache(sys.c_at), functools.cache(sys.c_dot_at)
    mid = _kernel_mid(_stacked(a_at, tau), _stacked(c_at, tau), _stacked(c_dot_at, tau))
    return _max_norm(m.transpose(0, 2, 1) @ mid @ m)


def _max_norm(kernels: np.ndarray) -> float:
    """Largest spectral norm in an (N, d, d) stack of kernel terms; OverflowError
    once the flow has overflowed any of them.

    A spectral norm is at most its Frobenius norm, so only the terms whose
    Frobenius norm, widened by _NORM_MARGIN, reaches the spectral norm of
    the top-Frobenius term can hold the maximum: they alone take an SVD, and
    the result is the one a stacked SVD of every term gives.
    """
    if not np.isfinite(kernels).all():
        raise OverflowError("kernel derivative is not finite: the flow diverges on the window")
    with np.errstate(over="ignore"):  # an infinite Frobenius norm only keeps its term
        fro = np.sqrt(np.einsum("kij,kij->k", kernels, kernels))
    top = np.linalg.norm(kernels[fro.argmax()], 2)
    near = kernels[fro * (1.0 + _NORM_MARGIN) >= top]
    return float(np.linalg.norm(near, 2, axis=(-2, -1)).max())


def robust_sampling_bound(
    sys: LinearTimeVaryingSystem,
    window_low: float,
    window_up: float,
    horizon: float,
    retention: float,
    grid_step: float | None = None,
) -> float:
    """Largest inter-sample gap certified to keep a Gramian fraction.

    Any per-member schedule whose samples span between window_low and
    window_up, with all gaps below the returned value, satisfies

        lambda_min(O^T W^2 O) >= retention * (Gramian floor).

    Stationary systems use the sharper form with the kernel-times-A norm:

        2 (1 - retention) lambda_min(G_window_low)
          / (window_up * max_{u in [-window_up, 0]} ||K(u) A||),

    the general form replaces the numerator factor 2 by 4 and the
    denominator by the worst s-derivative of the kernel over admissible
    (s, t) pairs.  Extrema are approximated on grids of spacing
    ``grid_step`` (default window_low / 100).  The floor is ``gramian_floor``
    over window_low, which the system keeps: asking for it after is a lookup.
    """
    finite("window_low", window_low, gt=0)
    finite("window_up", window_up, ge=window_low)
    finite("horizon", horizon, ge=window_up)
    finite("retention", retention, gt=0, lt=1)
    grid_step = finite("grid_step", window_low / 100.0 if grid_step is None else grid_step, gt=0)
    # The widest sweep: every window or anchor (one column when stationary)
    # over window_up.
    columns = 1.0 if sys.is_lti else (horizon - window_low) / grid_step + 1
    _check_sweep(window_up / grid_step + 1, columns, "window_low or grid_step")
    floor = gramian_floor(sys, window_low, horizon, grid_step)
    if floor <= 0.0:
        raise ArithmeticError(
            f"Gramian floor is not positive ({floor:.3e}); the pair is not "
            "observable on some window"
        )
    if sys.is_lti:
        factor = 2.0
        n_cells = max(1, math.ceil(window_up / grid_step))
        _, phis, _ = _backward_sweep(
            sys, np.zeros(1), np.array([window_up / n_cells]), np.array([n_cells]), sys.a_at
        )
        cm = sys.c_const @ phis[:, 0]
        worst = _max_norm(cm.transpose(0, 2, 1) @ cm @ sys.a_const)
    else:
        factor = 4.0
        n_anchor = max(2, math.ceil((horizon - window_low) / grid_step) + 1)
        anchors = np.linspace(window_low, horizon, n_anchor)
        lows = np.maximum(0.0, anchors - window_up)
        worst = max_kernel_derivative(sys, anchors, lows, grid_step)
    if worst == 0.0:
        return math.inf
    return factor * (1.0 - retention) * floor / (window_up * worst)


# --- reconstruction ---------------------------------------------------------------


def reconstruct_state(
    obs_matrix: np.ndarray,
    weight: np.ndarray,
    outputs: np.ndarray,
) -> np.ndarray:
    """Weighted least-squares state estimate pinv(W O) W y.

    Rejects ill-posed problems: O, W and y must be finite, and the smallest
    singular value of W O must exceed 1e-10 relative to the largest.
    """
    o = np.atleast_2d(finite_array("O", obs_matrix))
    w = np.atleast_2d(finite_array("W", weight))
    y = finite_array("y", outputs).reshape(-1)
    if o.shape[0] != w.shape[0] or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight shape {w.shape} does not match O rows {o.shape[0]}")
    if y.shape[0] != o.shape[0]:
        raise ValueError(f"{y.shape[0]} outputs for {o.shape[0]} observation rows")
    wo = w @ o
    u, sv, vt = np.linalg.svd(wo, full_matrices=False)
    if o.shape[0] < o.shape[1] or sv[-1] <= _MIN_SINGULAR * sv[0]:
        smallest = sv[-1] if o.shape[0] >= o.shape[1] else 0.0
        raise ArithmeticError(
            f"weighted observability matrix is numerically rank deficient "
            f"(smallest singular value {smallest:.3e})"
        )
    return vt.T @ ((u.T @ (w @ y)) / sv)


def estimation_error_bound(
    window_up: float, gramian_min: float, retention: float, output_noise: float
) -> float:
    """State error guarantee sqrt(window_up / (retention * gramian_min)) * noise."""
    finite("window_up", window_up, gt=0)
    finite("gramian_min", gramian_min, gt=0)
    finite("retention", retention, gt=0, le=1)
    finite("output_noise", output_noise, ge=0)
    return math.sqrt(window_up / (retention * gramian_min)) * output_noise


# --- eigen-structure and schedule criteria ------------------------------------------


@dataclass(frozen=True)
class EigenStructure:
    """Distinct eigenvalues of a matrix with their Jordan indices.

    ``indices[j]`` is the size of the largest Jordan block of eigenvalue j
    (found by rank stabilization of powers of A - lambda I);
    ``total_index`` sums them; ``imag_spread`` is the largest difference of
    imaginary parts across the spectrum.
    """

    eigenvalues: tuple[complex, ...]
    indices: tuple[int, ...]

    @property
    def total_index(self) -> int:
        return sum(self.indices)

    @property
    def imag_spread(self) -> float:
        ims = [ev.imag for ev in self.eigenvalues]
        return max(ims) - min(ims) if ims else 0.0

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "EigenStructure":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got {a.shape}")
        scale = max(1.0, float(np.linalg.norm(a, 2)))
        raw = np.linalg.eigvals(a)
        # Cluster nearly equal eigenvalues (defective ones split by roundoff).
        clusters: list[list[complex]] = []
        for ev in sorted(raw, key=lambda z: (z.real, z.imag)):
            for group in clusters:
                if abs(ev - group[0]) <= _CLUSTER_TOL * scale:
                    group.append(ev)
                    break
            else:
                clusters.append([ev])
        eigs = tuple(complex(np.mean(g)) for g in clusters)
        idxs = []
        eye = np.eye(a.shape[0])
        for lam in eigs:
            base = a.astype(complex) - lam * eye
            power = base.copy()
            prev_rank = _numerical_rank(power, scale)
            k = 1
            while True:
                nxt = power @ base
                rank = _numerical_rank(nxt, scale)
                if rank == prev_rank or k >= a.shape[0]:
                    break
                power = nxt
                prev_rank = rank
                k += 1
            idxs.append(k)
        return cls(eigenvalues=eigs, indices=tuple(idxs))


def _numerical_rank(m: np.ndarray, scale: float) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    tol = _RANK_TOL * max(scale, float(sv[0]) if len(sv) else 1.0)
    return int(np.sum(sv > tol))


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Outcome of a schedule observability criterion.

    ``passed`` is the criterion's verdict; ``messages`` explain failures and
    echo every user-asserted premise the criterion cannot verify itself.
    """

    passed: bool
    criterion: str
    messages: tuple[str, ...]


def _is_observable_pair(a: np.ndarray, c: np.ndarray) -> bool:
    d = a.shape[0]
    blocks = [c]
    for _ in range(d - 1):
        blocks.append(blocks[-1] @ a)
    stacked = np.vstack(blocks)
    scale = max(1.0, float(np.linalg.norm(stacked, 2)))
    return _numerical_rank(stacked, scale) == d


def check_schedule_observability(
    sys: LinearTimeVaryingSystem,
    schedules: Sequence[Sequence[float]],
    criterion: str = "equidistant",
) -> ScheduleDiagnostics:
    """Sufficient observability criteria for sampled stationary systems.

    ``schedules`` holds one row of sample times per member, each finite,
    non-empty and strictly increasing; rows may differ in length and come in
    any order, since each member is judged on its own.

    criterion = 'equidistant':  every member's samples share one gap g,
        at least d samples, and no pair of distinct eigenvalues differs by
        a nonzero multiple of 2 pi i / g (the classical aliasing condition).
    criterion = 'periodic':  gaps repeat a pattern of dbar equal gaps
        followed by one different gap; needs dbar >= d and at least
        (dbar + 1) * d samples.  Irrationality of the gap ratio cannot be
        checked in floating point and is echoed as a user assertion.
    criterion = 'count':  sample count exceeds (total Jordan index - 1)
        + span * (imaginary spread) / (2 pi); gaps may be arbitrary.

    A passing verdict is the paper's sufficient condition, in exact arithmetic,
    for full column rank of every member's sample observability matrix; the
    numerical check is the rank at ``reconstruct_state``'s 1e-10 floor, which
    samples 1e-11 apart fail beside a passing verdict.  Only stationary
    systems are supported, and the matrix pair itself must be observable.
    """
    if not sys.is_lti:
        raise ValueError("schedule criteria apply to stationary systems only")
    if not _is_observable_pair(sys.a_const, sys.c_const):
        raise ValueError("the (A, C) pair is not observable; no schedule can help")
    if criterion not in _SCHEDULE_CRITERIA:
        raise ValueError(
            f"unknown criterion {criterion!r}; pick one of {sorted(_SCHEDULE_CRITERIA)}"
        )
    rows = []
    for i, row in enumerate(schedules):
        try:
            rows.append(tuple(_checks.times("sample times", row).tolist()))
        except ValueError as exc:
            raise ValueError(f"member {i + 1}: {exc}") from None
    if not rows:
        raise ValueError("need at least one member's sample times")
    struct = EigenStructure.from_matrix(sys.a_const)
    messages: list[str] = []
    ok = True
    for i, row in enumerate(rows):
        good, msgs = _SCHEDULE_CRITERIA[criterion](sys, struct, row)
        ok = ok and good
        messages.extend(f"member {i + 1}: {m}" for m in msgs)
    return ScheduleDiagnostics(passed=ok, criterion=criterion, messages=tuple(messages))


def _check_equidistant(
    sys: LinearTimeVaryingSystem, struct: EigenStructure, row: tuple[float, ...]
) -> tuple[bool, list[str]]:
    d = sys.dim
    msgs: list[str] = []
    if len(row) < d:
        return False, [f"{len(row)} samples but the state dimension is {d}"]
    gaps = np.diff(row)
    gap = float(gaps[0])
    if np.max(np.abs(gaps - gap)) > _PATTERN_TOL * max(1.0, gap):
        return False, ["samples are not equidistant"]
    for i, lam in enumerate(struct.eigenvalues):
        for mu in struct.eigenvalues[i + 1 :]:
            diff = lam - mu
            if abs(diff.real) * gap > _PATTERN_TOL:
                continue
            ratio = gap * abs(diff.imag) / (2.0 * math.pi)
            k = round(ratio)
            if k != 0 and abs(ratio - k) <= _PATTERN_TOL:
                msgs.append(
                    f"gap {gap:.6g} aliases the eigenvalue pair "
                    f"({lam:.6g}, {mu:.6g})"
                )
                return False, msgs
    return True, msgs


def _check_periodic(
    sys: LinearTimeVaryingSystem, struct: EigenStructure, row: tuple[float, ...]
) -> tuple[bool, list[str]]:
    d = sys.dim
    gaps = np.diff(row)
    if len(gaps) < 2:
        return False, ["need at least three samples to exhibit a pattern"]
    g_small = float(gaps[0])
    tol = _PATTERN_TOL * max(1.0, g_small)
    dbar = 0
    while dbar < len(gaps) and abs(gaps[dbar] - g_small) <= tol:
        dbar += 1
    if dbar == len(gaps):
        return False, ["all gaps equal: use the equidistant criterion"]
    g_big = float(gaps[dbar])
    # Pattern: dbar gaps of g_small then one of g_big, repeated.
    for j, g in enumerate(gaps):
        want = g_big if (j + 1) % (dbar + 1) == 0 else g_small
        if abs(g - want) > _PATTERN_TOL * max(1.0, want):
            return False, [f"gap {j + 1} breaks the periodic pattern"]
    msgs = []
    if dbar < d:
        return False, [f"pattern block {dbar} shorter than the dimension {d}"]
    needed = (dbar + 1) * d
    if len(row) < needed:
        return False, [f"{len(row)} samples, pattern needs at least {needed}"]
    msgs.append(
        f"pattern ({dbar} x {g_small:.6g}, then {g_big:.6g}); irrationality of "
        f"the gap ratio {g_small / g_big:.6g} is user-asserted"
    )
    return True, msgs


def _check_count(
    sys: LinearTimeVaryingSystem, struct: EigenStructure, row: tuple[float, ...]
) -> tuple[bool, list[str]]:
    span = row[-1] - row[0]
    needed = struct.total_index - 1 + span * struct.imag_spread / (2.0 * math.pi)
    if len(row) > needed:
        return True, [
            f"{len(row)} samples clear the threshold {needed:.6g} "
            f"(total index {struct.total_index}, spread {struct.imag_spread:.6g})"
        ]
    return False, [f"{len(row)} samples do not exceed the threshold {needed:.6g}"]


# The criterion names ``check_schedule_observability`` and the CLI accept.
_SCHEDULE_CRITERIA = {
    "equidistant": _check_equidistant, "periodic": _check_periodic, "count": _check_count
}


# --- built-in systems ---------------------------------------------------------------


def builtin_system(name: str, **params) -> LinearTimeVaryingSystem:
    """The stationary double_integrator or harmonic_oscillator, or the
    time-varying rotating_sensor (params: omega), by name."""
    takes = {"double_integrator": {}, "harmonic_oscillator": {}, "rotating_sensor": {"omega": 1.0}}
    if not isinstance(name, str) or name not in takes:
        raise KeyError(f"unknown built-in system name {name!r}; pick one of {sorted(takes)}")
    p = _read_params(name, params, takes[name])
    if name == "double_integrator":
        return LinearTimeVaryingSystem.lti(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]]), name=name
        )
    if name == "harmonic_oscillator":
        return LinearTimeVaryingSystem.lti(
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]]), name=name
        )
    omega = p["omega"]
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return LinearTimeVaryingSystem.time_varying(
        a_fn=lambda t: a,
        c_fn=lambda t: np.array([[math.cos(omega * t), math.sin(omega * t)]]),
        c_dot_fn=lambda t: omega * np.array([[-math.sin(omega * t), math.cos(omega * t)]]),
        name=name,
    )
