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
last time, comes from one chain (``_chain``): one batched RK4 call for every
cell, each on its own step grid, and one chained product per node, with A,
C and C' built once per distinct tau.  Where the flow overflows, the
sweep's three users and ``sample_observability_matrix`` raise OverflowError
(an ArithmeticError) instead of returning NaN or inf.  Their ``grid_step``
must be positive and finite, as must the RK4 ``step`` of the sample
matrix (stationary or not), and every time must be a finite number.  A sweep
or window grid of more than ``_MAX_SWEEP_NODES`` nodes x columns is a
ValueError raised before anything is allocated.

``check_schedule_observability`` covers the complementary qualitative
question (is the sampled pair observable at all?) through three classical
sufficient criteria for time-invariant systems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from ambiflow._checks import count, finite
from ambiflow.dynamics import _read_params, _rk4

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
    "system_from_json",
]

_FD_STEP = 1e-5          # central-difference step for C'(t) when not supplied
_RANK_TOL = 1e-9
_PATTERN_TOL = 1e-9
_MIN_SINGULAR = 1e-10    # relative singular-value floor of a reconstruction
_CLUSTER_TOL = 1e-5      # relative distance that merges eigenvalues
# The most nodes x columns one backward sweep or window grid may hold: 194x
# the largest the tests reach (5,151) and 2,976x the benchmark's (336).  At
# the limit a time-varying kernel scan at d = 2 peaks near 1.2 GB.
_MAX_SWEEP_NODES = 10**6


@dataclass(frozen=True)
class LinearTimeVaryingSystem:
    """x' = A(t) x observed through y = C(t) x.

    Use ``lti`` for constant matrices (enables exact matrix exponentials and
    the stationary fast paths) or ``time_varying`` with callables.  The
    optional ``c_dot_fn`` supplies the derivative of C; without it, kernel
    derivatives fall back to central finite differences on C.
    """

    a_fn: Callable[[float], np.ndarray]
    c_fn: Callable[[float], np.ndarray]
    dim: int
    n_outputs: int
    c_dot_fn: Callable[[float], np.ndarray] | None = None
    a_const: np.ndarray | None = None
    c_const: np.ndarray | None = None
    name: str = ""

    @property
    def is_lti(self) -> bool:
        """Constant matrices, ``a_const`` and ``c_const``, were given."""
        return self.a_const is not None

    @classmethod
    def lti(cls, a: np.ndarray, c: np.ndarray, name: str = "") -> "LinearTimeVaryingSystem":
        a, c = np.atleast_2d(np.asarray(a, dtype=float)), np.atleast_2d(np.asarray(c, dtype=float))
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
        a0 = np.atleast_2d(np.asarray(a_fn(0.0), dtype=float))
        c0 = np.atleast_2d(np.asarray(c_fn(0.0), dtype=float))
        if a0.shape[0] != a0.shape[1]:
            raise ValueError(f"A(t) must be square, got {a0.shape}")
        if c0.shape[1] != a0.shape[0]:
            raise ValueError(f"C(t) has {c0.shape[1]} columns, expected {a0.shape[0]}")
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


def _matrix_field(a_at: Callable[[float], np.ndarray]) -> Callable[..., np.ndarray]:
    """M' = A(tau) M, whose flow from the identity is the fundamental matrix,
    for a batched ``_rk4``'s (d, d, N) stack: matrix i in M[..., i] at tau[i],
    each multiplied on its own."""

    def field(tau, m):
        stack = np.ascontiguousarray(m.transpose(2, 0, 1))
        return (_stacked(a_at, tau) @ stack).transpose(1, 2, 0)

    return field


def _chain(
    dim: int, a_at: Callable, taus: np.ndarray, live: np.ndarray, step: np.ndarray
) -> np.ndarray:
    """Phi(taus[k, i], taus[0, i]) as a (K + 1, B, d, d) stack, for a time-varying flow.

    taus is a (K + 1, B) grid of node times, one column per chain, and live
    masks its nodes; the stack means nothing past a column's last live node.
    One batched RK4 call steps every live cell taus[k - 1, i] -> taus[k, i]
    from the identity at its column's step[i], with A from ``a_at`` (a cache,
    so a tau shared by stages, cells or callers builds A once), and
    Phi_k = R_k Phi_(k-1) chains the cells: RK4 is linear in its start, so
    this changes only rounding against stepping Phi cell by cell.
    """
    phis = np.empty((*taus.shape, dim, dim))
    phis[0] = np.eye(dim)
    if len(taus) > 1:
        cells = np.tile(np.eye(dim), (len(taus) - 1, taus.shape[1], 1, 1))
        ks, cols = np.nonzero(live[1:])
        eyes = cells[ks, cols].transpose(1, 2, 0)
        rk = _rk4(_matrix_field(a_at), taus[ks, cols], taus[ks + 1, cols], eyes, step[cols])
        cells[ks, cols] = rk.transpose(2, 0, 1)
        for cell, prev, phi in zip(cells, phis, phis[1:]):
            np.matmul(cell, prev, out=phi)
    return phis


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
    chain their cells through ``_chain`` at step h, with A from the sweep's
    cache ``a_at``.
    """
    taus = t - np.arange(int(n.max()) + 1)[:, None] * h
    live = np.arange(len(taus))[:, None] <= n
    if not sys.is_lti:
        return taus, _chain(sys.dim, a_at, taus, live, h), live
    phis = np.empty((*taus.shape, sys.dim, sys.dim))
    phis[0] = np.eye(sys.dim)
    back = expm(-sys.a_const * h[:, None, None])
    for prev, phi in zip(phis, phis[1:]):
        np.matmul(prev, back, out=phi)
    return taus, phis, live


# --- sampled observability ------------------------------------------------------


def sample_observability_matrix(
    sys: LinearTimeVaryingSystem, times: Sequence[float], step: float = 1e-3
) -> np.ndarray:
    """Stack C(t_k) Phi(t_k, t_last) over the sample times.

    Shape (l * m, d).  The state being solved for lives at the last sample
    time; earlier rows reach it through backward flow.  Stationary systems
    take every Phi in one stacked ``expm``.  Otherwise the sample times, read
    back from the anchor, are the nodes of one ``_chain`` column at the RK4
    ``step``: one batched RK4 call steps every gap from the identity, each
    on the step grid it would have alone, and the gaps chain back from the
    anchor.
    """
    ts = _sample_times(times)
    finite("step", step, gt=0)
    anchor = ts[-1]
    if sys.is_lti:
        phis = expm(sys.a_const * (np.array(ts) - anchor)[:, None, None])
        blocks = [sys.c_const @ phi for phi in phis]
    else:
        taus = np.array(ts[::-1])[:, None]
        live = np.ones(taus.shape, dtype=bool)
        phis = _chain(sys.dim, functools.cache(sys.a_at), taus, live, np.array([step]))
        blocks = [sys.c_at(t) @ phi for t, phi in zip(ts, phis[::-1, 0])]
    obs = np.vstack(blocks)
    if not np.isfinite(obs).all():
        raise OverflowError(
            f"sample observability matrix is not finite over [{ts[0]:.6g}, {anchor:.6g}]"
        )
    return obs


def _sample_times(times: Sequence[float]) -> list[float]:
    """The sample times as floats; ValueError names the first one that is not
    a finite number, or says they are empty or do not strictly increase."""
    ts = [float(finite("sample times", t)) for t in times]
    if not ts or any(b - a <= 0.0 for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be non-empty and strictly increasing")
    return ts


def weight_matrix(times: Sequence[float], n_outputs: int = 1) -> np.ndarray:
    """Trapezoid quadrature weights as a diagonal matrix on stacked outputs.

    With gaps tau_k = t_(k+1) - t_k the squared weights are tau_1/2 for the
    first sample, (tau_(k-1) + tau_k)/2 inside, tau_(l-1)/2 for the last;
    they sum to the window span.  Each weight is repeated for the m output
    channels of its sample, so the result is (l*m) x (l*m).
    """
    ts = _sample_times(times)
    if len(ts) < 2:
        raise ValueError("weights need at least two sample times")
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
    wo = weight @ obs_matrix
    sv = np.linalg.svd(wo, compute_uv=False)
    smallest = sv[-1] if wo.shape[0] >= wo.shape[1] else 0.0
    return float(smallest**2)


# --- Gramians and kernel derivative ---------------------------------------------


def _floats(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValueError names one holding an int too large for a float."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {values}") from None


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
    starts = np.atleast_1d(_floats("t", t))
    if not np.isfinite(starts).all():  # a stationary Gramian would not notice
        raise ValueError(f"t must be finite, got {starts[~np.isfinite(starts)][0]}")
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
    systems need a single evaluation).  All windows share one sweep.
    """
    finite("window", window, gt=0)
    finite("horizon", horizon, ge=window)
    grid_step = finite("grid_step", window / 100.0 if grid_step is None else grid_step, gt=0)
    span = 0.0 if sys.is_lti else horizon - window
    _check_sweep(window / grid_step + 1, span / grid_step + 1, "grid_step")
    starts = np.linspace(0.0, span, max(1, math.ceil(span / grid_step) + 1))
    grams = observability_gramian(sys, starts, window, grid_step)
    return float(np.linalg.eigvalsh(grams)[:, 0].min())


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
    t, s_low = np.broadcast_arrays(_floats("t", t), _floats("s_low", s_low))
    t, s_low = t.ravel(), s_low.ravel()
    bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(s_low) & (s_low <= t)))
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
    """Largest spectral norm in a stack of kernel terms, in one stacked SVD;
    OverflowError once the flow has overflowed any of them."""
    if not np.isfinite(kernels).all():
        raise OverflowError("kernel derivative is not finite: the flow diverges on the window")
    return float(np.linalg.norm(kernels, 2, axis=(-2, -1)).max())


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
    ``grid_step`` (default window_low / 100).
    """
    return _sampling_bound_and_floor(sys, window_low, window_up, horizon, retention, grid_step)[0]


def _sampling_bound_and_floor(
    sys: LinearTimeVaryingSystem,
    window_low: float,
    window_up: float,
    horizon: float,
    retention: float,
    grid_step: float | None = None,
) -> tuple[float, float]:
    """``robust_sampling_bound`` and the Gramian floor over window_low it keeps a fraction of."""
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
        return math.inf, floor
    return factor * (1.0 - retention) * floor / (window_up * worst), floor


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
    o = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    w = np.atleast_2d(np.asarray(weight, dtype=float))
    y = np.asarray(outputs, dtype=float).reshape(-1)
    if o.shape[0] != w.shape[0] or w.shape[0] != w.shape[1]:
        raise ValueError(f"weight shape {w.shape} does not match O rows {o.shape[0]}")
    if y.shape[0] != o.shape[0]:
        raise ValueError(f"{y.shape[0]} outputs for {o.shape[0]} observation rows")
    for name, values in (("O", o), ("W", w), ("y", y)):
        if not np.isfinite(values).all():  # the SVD would return NaN or fail to converge
            raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
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

    A passing verdict certifies full column rank of the sample observability
    matrix of every member.  Only stationary systems are supported, and the
    matrix pair itself must be observable.
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
            rows.append(tuple(_sample_times(row)))
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


# --- serialization -----------------------------------------------------------------


def _builtin_system(name: str, **params) -> LinearTimeVaryingSystem:
    takes = {"double_integrator": {}, "harmonic_oscillator": {}, "rotating_sensor": {"omega": 1.0}}
    if name not in takes:
        raise KeyError(f"unknown built-in system {name!r}")
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


def system_from_json(payload: dict) -> LinearTimeVaryingSystem:
    """Build a system from a config mapping.

    Either constant matrices: {"A": [[...]], "C": [[...]]}, or a named
    built-in: {"name": "rotating_sensor", "params": {"omega": 2.0}}.
    """
    if "name" in payload:
        return _builtin_system(payload["name"], **payload.get("params", {}))
    if "A" in payload and "C" in payload:
        a, c = np.asarray(payload["A"]), np.asarray(payload["C"])
        if a.dtype.kind not in "iuf" or c.dtype.kind not in "iuf":  # e.g. strings or nulls
            raise ValueError(f"A and C must be matrices of numbers, got {payload}")
        return LinearTimeVaryingSystem.lti(a, c)
    raise ValueError("system config needs either 'name' or both 'A' and 'C'")
