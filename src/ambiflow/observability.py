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
read Phi(tau, t) at uniformly spaced tau on one backward sweep
(``_backward_sweep``) that steps every window or anchor together: a product
with expm(-A h) per node for stationary systems, one batched RK4 call per
node otherwise, with A, C and C' built once per distinct tau.  Each takes
its eigenvalues or spectral norms in one stacked call.  Where the flow
overflows, each of them, ``fundamental_matrix`` and
``sample_observability_matrix`` raise OverflowError (an ArithmeticError)
instead of returning NaN or inf.  Their ``grid_step`` must be positive and
finite, as must the RK4 ``step`` of time-varying flows.

``check_schedule_observability`` covers the complementary qualitative
question (is the sampled pair observable at all?) through three classical
sufficient criteria for time-invariant systems.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.linalg import expm

from ambiflow.dynamics import _rk4

__all__ = [
    "LinearTimeVaryingSystem",
    "EigenStructure",
    "ScheduleDiagnostics",
    "fundamental_matrix",
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
    is_lti: bool = False
    c_dot_fn: Callable[[float], np.ndarray] | None = None
    a_const: np.ndarray | None = None
    c_const: np.ndarray | None = None
    name: str = ""

    @classmethod
    def lti(cls, a: np.ndarray, c: np.ndarray, name: str = "") -> "LinearTimeVaryingSystem":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        c = np.atleast_2d(np.asarray(c, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got {a.shape}")
        if c.shape[1] != a.shape[0]:
            raise ValueError(f"C has {c.shape[1]} columns, expected {a.shape[0]}")
        zero = np.zeros_like(c)
        return cls(
            a_fn=lambda t: a,
            c_fn=lambda t: c,
            dim=a.shape[0],
            n_outputs=c.shape[0],
            is_lti=True,
            c_dot_fn=lambda t: zero,
            a_const=a,
            c_const=c,
            name=name,
        )

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
            is_lti=False,
            c_dot_fn=c_dot_fn,
            name=name,
        )

    def a_at(self, t: float) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.a_fn(t), dtype=float))

    def c_at(self, t: float) -> np.ndarray:
        return np.atleast_2d(np.asarray(self.c_fn(t), dtype=float))

    def c_dot_at(self, t: float) -> np.ndarray:
        if self.c_dot_fn is not None:
            return np.atleast_2d(np.asarray(self.c_dot_fn(t), dtype=float))
        hi = self.c_at(t + _FD_STEP)
        lo = self.c_at(t - _FD_STEP)
        return (hi - lo) / (2.0 * _FD_STEP)


# --- fundamental matrices -------------------------------------------------------


def fundamental_matrix(
    sys: LinearTimeVaryingSystem, t: float, s: float, step: float = 1e-3
) -> np.ndarray:
    """Phi(t, s): maps the state at time s to the state at time t.

    Constant dynamics use the matrix exponential; otherwise the matrix
    differential equation M' = A(tau) M is integrated by fixed-step RK4
    (backward in time when t < s).
    """
    if sys.is_lti:
        m = expm(sys.a_const * (t - s))
    else:
        m = _rk4(_matrix_field(functools.cache(sys.a_at)), s, t, np.eye(sys.dim), step)
    if not np.isfinite(m).all():
        raise OverflowError(f"fundamental matrix is not finite between {s:.6g} and {t:.6g}")
    return m


def _stacked(fn: Callable[[float], np.ndarray], taus: np.ndarray) -> np.ndarray:
    """fn at every tau of an array, stacked in its shape."""
    values = [fn(tau) for tau in taus.ravel().tolist()]
    return np.array(values).reshape(*taus.shape, *values[0].shape)


def _matrix_field(a_at: Callable[[float], np.ndarray]) -> Callable[..., np.ndarray]:
    """M' = A(tau) M, whose flow from the identity is the fundamental matrix.

    M is one matrix at a number tau, or a batched ``_rk4``'s (d, d, N) stack
    with matrix i in M[..., i] at tau[i], each multiplied on its own.
    """

    def field(tau, m):
        if m.ndim == 2:
            return a_at(tau) @ m
        stack = np.ascontiguousarray(m.transpose(2, 0, 1))
        return (_stacked(a_at, tau) @ stack).transpose(1, 2, 0)

    return field


def _backward_sweep(
    sys: LinearTimeVaryingSystem, t: np.ndarray, h: np.ndarray, n: np.ndarray, a_at: Callable
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (tau, Phi, live) at tau = t - k h for k = 0..max(n), all columns at once.

    Column i sweeps back from t[i] in n[i] cells of width h[i] > 0.  Phi
    stacks Phi(tau[i], t[i]) as (B, d, d); ``live`` masks the columns with
    k <= n[i], and Phi means nothing past them.  Stationary systems step
    Phi <- Phi expm(-A h); otherwise one batched RK4 call per node steps the
    live columns, with A from the sweep's cache ``a_at``, so RK4's two
    midpoint stages, columns that meet at one tau and the kernel terms at a
    node build each A(tau) once.
    """
    taus = t - np.arange(int(n.max()) + 1)[:, None] * h
    lives = np.arange(len(taus))[:, None] <= n
    m = np.tile(np.eye(sys.dim), (len(t), 1, 1))
    yield taus[0], m, lives[0]
    field = _matrix_field(a_at)
    if sys.is_lti:
        back = np.stack([expm(-sys.a_const * step) for step in h.tolist()])
    for k in range(1, len(taus)):
        if sys.is_lti:
            m = m @ back
        else:
            # Columns that have ended take a zero-length span: no step.
            end = np.where(lives[k], taus[k], taus[k - 1])
            x = _rk4(field, taus[k - 1], end, m.transpose(1, 2, 0), h)
            m = np.ascontiguousarray(x.transpose(2, 0, 1))
        yield taus[k], m, lives[k]


# --- sampled observability ------------------------------------------------------


def sample_observability_matrix(
    sys: LinearTimeVaryingSystem, times: Sequence[float], step: float = 1e-3
) -> np.ndarray:
    """Stack C(t_k) Phi(t_k, t_last) over the sample times.

    Shape (l * m, d).  The state being solved for lives at the last sample
    time; earlier rows reach it through backward flow.
    """
    ts = [float(t) for t in times]
    if len(ts) < 1:
        raise ValueError("need at least one sample time")
    if any(b - a <= 0.0 for a, b in zip(ts, ts[1:])):
        raise ValueError("sample times must be strictly increasing")
    anchor = ts[-1]
    if sys.is_lti:
        blocks = [sys.c_const @ expm(sys.a_const * (t - anchor)) for t in ts]
    else:
        # One backward sweep: carry Phi(tau, anchor) from the anchor down
        # through every sample time.
        field = _matrix_field(functools.cache(sys.a_at))
        m = np.eye(sys.dim)
        blocks = [sys.c_at(anchor) @ m]
        for tau, t in zip(ts[:0:-1], ts[-2::-1]):
            m = _rk4(field, tau, t, m, step)
            blocks.append(sys.c_at(t) @ m)
        blocks.reverse()
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
    ts = [float(t) for t in times]
    if len(ts) < 2:
        raise ValueError("weights need at least two sample times")
    gaps = np.diff(ts)
    if gaps.min() <= 0.0:
        raise ValueError("sample times must be strictly increasing")
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


def _kernel_mid(a: np.ndarray, c: np.ndarray, cd: np.ndarray) -> np.ndarray:
    """d/ds of C^T C along the flow, A^T C^T C + C'^T C + C^T C' + C^T C A,
    for stacks of A(s), C(s) and C'(s)."""
    ct = c.transpose(0, 2, 1)
    ctc = ct @ c
    return a.transpose(0, 2, 1) @ ctc + cd.transpose(0, 2, 1) @ c + ct @ cd + ctc @ a


def _gramians(
    sys: LinearTimeVaryingSystem, starts: np.ndarray, varsigma: float, quad_step: float
) -> np.ndarray:
    """Anchored Gramians over [s, s + varsigma] for every s in ``starts``, on
    one sweep: a (len(starts), d, d) stack.  OverflowError names the first
    window in start order that is not finite."""
    n_cells = max(2, math.ceil(varsigma / quad_step))
    h = varsigma / n_cells
    count, a_at = len(starts), functools.cache(sys.a_at)
    sweep = _backward_sweep(
        sys, starts + varsigma, np.full(count, h), np.full(count, n_cells), a_at
    )
    taus, ms, _ = zip(*sweep)
    c = sys.c_const if sys.is_lti else _stacked(functools.cache(sys.c_at), np.stack(taus))
    cm = c @ np.stack(ms)
    terms = cm.transpose(0, 1, 3, 2) @ cm
    gram = np.zeros((count, sys.dim, sys.dim))
    for k, term in enumerate(terms):
        gram += (0.5 if k in (0, n_cells) else 1.0) * term
    gram *= h
    bad = np.flatnonzero(~np.isfinite(gram).all(axis=(1, 2)))
    if bad.size:
        t = float(starts[bad[0]])
        raise OverflowError(f"Gramian over [{t:.6g}, {t + varsigma:.6g}] is not finite")
    return 0.5 * (gram + gram.transpose(0, 2, 1))


def observability_gramian(
    sys: LinearTimeVaryingSystem,
    t: float,
    varsigma: float,
    quad_step: float | None = None,
) -> np.ndarray:
    """Constructability Gramian over [t, t + varsigma], anchored at the right end.

    Composite trapezoid quadrature with a uniform node spacing at most
    ``quad_step`` (default varsigma/200).  The integrand is evaluated on one
    backward flow sweep from the anchor.
    """
    if varsigma <= 0.0:
        raise ValueError(f"window length must be positive, got {varsigma}")
    if quad_step is None:
        quad_step = varsigma / 200.0
    if quad_step <= 0.0:
        raise ValueError(f"quad_step must be positive, got {quad_step}")
    return _gramians(sys, np.array([t], dtype=float), varsigma, quad_step)[0]


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
    if not 0.0 < window <= horizon:
        raise ValueError(f"need 0 < window <= horizon, got ({window}, {horizon})")
    if grid_step is None:
        grid_step = window / 100.0
    _check_grid_step(grid_step)
    span = 0.0 if sys.is_lti else horizon - window
    starts = np.linspace(0.0, span, max(1, math.ceil(span / grid_step) + 1))
    grams = _gramians(sys, starts, window, grid_step)
    return float(np.linalg.eigvalsh(grams)[:, 0].min())


def max_kernel_derivative(
    sys: LinearTimeVaryingSystem,
    t: float,
    s_low: float,
    grid_step: float,
) -> float:
    """max over s in [s_low, t] of the spectral norm of d/ds K(s, t),

    where K(s, t) = Phi(s, t)^T C(s)^T C(s) Phi(s, t).  Evaluated on one
    backward sweep from s = t with uniform node spacing at most grid_step.
    """
    _check_grid_step(grid_step)
    if s_low > t:
        raise ValueError(f"need s_low <= t, got ({s_low}, {t})")
    return _kernel_scan(sys, np.array([t], dtype=float), np.array([s_low], dtype=float), grid_step)


def _kernel_scan(
    sys: LinearTimeVaryingSystem, t: np.ndarray, s_low: np.ndarray, grid_step: float
) -> float:
    """``max_kernel_derivative`` maximized over anchors t[i] with their own
    s_low[i], every anchor on one sweep."""
    span = t - s_low
    n_cells = np.where(span > 0.0, np.maximum(1.0, np.ceil(span / grid_step)), 0.0).astype(int)
    h = np.where(n_cells > 0, span / np.maximum(n_cells, 1), grid_step)  # RK4 wants h > 0
    a_at = functools.cache(sys.a_at)
    sweep = _backward_sweep(sys, t, h, n_cells, a_at)
    taus, ms = zip(*[(tau[live], m[live]) for tau, m, live in sweep])
    tau, m = np.concatenate(taus), np.concatenate(ms)
    c_at, c_dot_at = functools.cache(sys.c_at), functools.cache(sys.c_dot_at)
    mid = _kernel_mid(_stacked(a_at, tau), _stacked(c_at, tau), _stacked(c_dot_at, tau))
    return _max_norm(m.transpose(0, 2, 1) @ mid @ m)


def _max_norm(kernels: np.ndarray) -> float:
    """Largest spectral norm in a stack of kernel terms, in one stacked SVD;
    OverflowError once the flow has overflowed any of them."""
    if not np.isfinite(kernels).all():
        raise OverflowError("kernel derivative is not finite: the flow diverges on the window")
    return float(np.linalg.norm(kernels, 2, axis=(-2, -1)).max())


def _check_grid_step(grid_step: float) -> None:
    if not (grid_step > 0.0 and math.isfinite(grid_step)):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")


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
    if not 0.0 < window_low <= window_up <= horizon:
        raise ValueError(
            f"need 0 < window_low <= window_up <= horizon, got "
            f"({window_low}, {window_up}, {horizon})"
        )
    if not 0.0 < retention < 1.0:
        raise ValueError(f"retention must be in (0, 1), got {retention}")
    if grid_step is None:
        grid_step = window_low / 100.0
    floor = gramian_floor(sys, window_low, horizon, grid_step)
    if floor <= 0.0:
        raise ArithmeticError(
            f"Gramian floor is not positive ({floor:.3e}); the pair is not "
            "observable on some window"
        )
    if sys.is_lti:
        factor = 2.0
        n_cells = max(1, math.ceil(window_up / grid_step))
        sweep = _backward_sweep(
            sys, np.zeros(1), np.array([window_up / n_cells]), np.array([n_cells]), sys.a_at
        )
        cm = sys.c_const @ np.concatenate([m for _, m, _ in sweep])
        worst = _max_norm(cm.transpose(0, 2, 1) @ cm @ sys.a_const)
    else:
        factor = 4.0
        n_anchor = max(2, math.ceil((horizon - window_low) / grid_step) + 1)
        anchors = np.linspace(window_low, horizon, n_anchor)
        worst = _kernel_scan(sys, anchors, np.maximum(0.0, anchors - window_up), grid_step)
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

    Rejects ill-posed problems: the smallest singular value of W O must
    exceed 1e-10 relative to the largest.
    """
    o = np.atleast_2d(np.asarray(obs_matrix, dtype=float))
    w = np.atleast_2d(np.asarray(weight, dtype=float))
    y = np.asarray(outputs, dtype=float).reshape(-1)
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
    if window_up <= 0.0:
        raise ValueError(f"window_up must be positive, got {window_up}")
    if gramian_min <= 0.0:
        raise ValueError(f"gramian_min must be positive, got {gramian_min}")
    if not 0.0 < retention <= 1.0:
        raise ValueError(f"retention must be in (0, 1], got {retention}")
    if output_noise < 0.0:
        raise ValueError(f"output_noise must be >= 0, got {output_noise}")
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

    ``schedules`` holds one row of sample times per member, each non-empty
    and strictly increasing; rows may differ in length and come in any order,
    since each member is judged on its own.

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
    handlers = {
        "equidistant": _check_equidistant,
        "periodic": _check_periodic,
        "count": _check_count,
    }
    if criterion not in handlers:
        raise ValueError(
            f"unknown criterion {criterion!r}; pick one of {sorted(handlers)}"
        )
    rows = [tuple(float(t) for t in row) for row in schedules]
    if not rows:
        raise ValueError("need at least one member's sample times")
    for i, row in enumerate(rows):
        if not row or any(b <= a for a, b in zip(row, row[1:])):
            raise ValueError(
                f"member {i + 1}: sample times must be non-empty and strictly increasing"
            )
    struct = EigenStructure.from_matrix(sys.a_const)
    messages: list[str] = []
    ok = True
    for i, row in enumerate(rows):
        good, msgs = handlers[criterion](sys, struct, row)
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
    if abs(g_big - g_small) <= tol:
        return False, ["second gap indistinguishable from the first"]
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


# --- serialization -----------------------------------------------------------------


def _builtin_system(name: str, **params) -> LinearTimeVaryingSystem:
    if name == "double_integrator":
        return LinearTimeVaryingSystem.lti(
            np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]]), name=name
        )
    if name == "harmonic_oscillator":
        return LinearTimeVaryingSystem.lti(
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[1.0, 0.0]]), name=name
        )
    if name == "rotating_sensor":
        omega = float(params.get("omega", 1.0))
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        return LinearTimeVaryingSystem.time_varying(
            a_fn=lambda t: a,
            c_fn=lambda t: np.array([[math.cos(omega * t), math.sin(omega * t)]]),
            c_dot_fn=lambda t: omega
            * np.array([[-math.sin(omega * t), math.cos(omega * t)]]),
            name=name,
        )
    raise KeyError(f"unknown built-in system {name!r}")


def system_from_json(payload: dict) -> LinearTimeVaryingSystem:
    """Build a system from a config mapping.

    Either constant matrices: {"A": [[...]], "C": [[...]]}, or a named
    built-in: {"name": "rotating_sensor", "params": {"omega": 2.0}}.
    """
    if "name" in payload:
        return _builtin_system(payload["name"], **payload.get("params", {}))
    if "A" in payload and "C" in payload:
        return LinearTimeVaryingSystem.lti(
            np.asarray(payload["A"], dtype=float), np.asarray(payload["C"], dtype=float)
        )
    raise ValueError("system config needs either 'name' or both 'A' and 'C'")
