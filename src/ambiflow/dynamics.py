"""Flows, numerical integration error models, and norm growth certificates.

Three separate concerns live here because they feed the same downstream
budget:

* ``integrate_flow`` pushes a state through a vector field with classical
  fixed-step RK4 (final partial step shortened to land exactly on t).  Given
  one start time per state, it pushes a whole sample set in one state-major
  sweep of the same loop, each point on its own step grid, as
  ``calibrate_flow_error`` and ``ambiguity.cumulative_empirical`` do.

* ``FlowErrorModel`` captures the usual one-sided bound on the gap between a
  numerical flow and the exact one over a window [s, t]:

      ||numerical - exact|| <= magnitude * (exp(rate * (t - s)) - 1).

  The pair (magnitude, rate) is either known analytically or calibrated
  empirically with ``calibrate_flow_error``.

* ``GrowthCertificate`` encodes a norm-sandwich Lyapunov argument: if
  scale_low * ||x||^power <= V(x) <= scale_high * ||x||^power and the
  derivative of V along the field is at most drift(t) * V + gain * V^exp
  with power > 1 and exp < 1, then the state norm admits an explicit
  envelope (exponential when gain = 0, polynomial-in-time otherwise).
  ``growth_bound`` evaluates that envelope; applied to the largest initial
  norm it bounds the support radius at a horizon T on the exact flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from ambiflow import _checks
from ambiflow._checks import count, finite, finite_array

__all__ = [
    "VectorField",
    "FlowErrorModel",
    "GrowthCertificate",
    "integrate_flow",
    "flow_error_bound",
    "calibrate_flow_error",
    "growth_bound",
    "builtin_field",
]

# f(t, x): t is a number or one time per column of a state-major batch x.
_Field = Callable[[float | np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VectorField:
    """A time-dependent vector field f(t, x) on R^dim.

    f is called with one state, x of shape (dim,) and a number t, or with a
    state-major batch: x of shape (dim, N) holds one state per column and t
    of shape (N,) the time of each column.  It returns an array of x's shape
    either way, so it reads coordinates as x[k] and computes with numpy
    ufuncs; the call raises ValueError on any other shape.
    """

    f: _Field
    dim: int
    name: str = ""

    def __call__(self, t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.f(t, x), dtype=float)
        if out.shape != x.shape:
            raise ValueError(
                f"field {self.name or 'anonymous'} returned shape {out.shape} "
                f"for states of shape {x.shape}"
            )
        return out


@dataclass(frozen=True)
class FlowErrorModel:
    """Exponential envelope for numerical flow error.

    magnitude  leading coefficient (0 allowed: exact integration)
    rate       exponential growth rate L >= 0 of error over elapsed time
    """

    magnitude: float
    rate: float

    def __post_init__(self) -> None:
        finite("magnitude", self.magnitude, ge=0)
        finite("rate", self.rate, ge=0)


def integrate_flow(
    field: VectorField,
    t_start: float | Sequence[float],
    t_end: float,
    state: np.ndarray | Iterable[np.ndarray],
    step: float = 1e-3,
) -> np.ndarray:
    """Propagate ``state`` from t_start to t_end by fixed-step RK4.

    Steps are taken at the requested size with the last one shortened so the
    trajectory lands exactly on t_end.  Integration backward in time is
    allowed.  Every time and state entry must be finite and ``step``
    positive.  Raises ArithmeticError if the state stops being finite.

    With a sequence of start times, ``state`` holds one state per start and
    the images come back one per row.  All of them go through one
    state-major RK4 sweep, each on its own step grid, so each lands exactly
    where it would alone; errors name the first sample at fault.
    """
    one = np.ndim(t_start) == 0
    cols = [finite_array("state", x) for x in ([state] if one else state)]
    if not cols:
        raise ValueError("state must hold at least one state, got none")
    for x in cols:
        if x.shape != (field.dim,):
            raise ValueError(f"state shape {x.shape} does not match field dim {field.dim}")
    t0 = np.array([finite("t_start", t) for t in ([t_start] if one else t_start)], dtype=float)
    if t0.shape != (len(cols),):
        raise ValueError(f"{t0.size} start times for {len(cols)} states")
    finite("t_end", t_end)
    finite("step", step, gt=0)
    if one:
        x = _rk4(field, t_start, t_end, cols[0].copy(), step)
    else:
        x = _rk4(field, t0, t_end, np.column_stack(cols), step)
    bad = np.flatnonzero(~np.isfinite(x.reshape(field.dim, -1)).all(axis=0))
    if bad.size:
        raise ArithmeticError(
            f"integration from t={t0[bad[0]]:.6g} to t={t_end:.6g} blew up "
            f"(field {field.name or 'anonymous'})"
        )
    return x if one else np.ascontiguousarray(x.T)


def _rk4(
    f: _Field,
    t_start: float | np.ndarray,
    t_end: float,
    x: np.ndarray,
    step: float,
) -> np.ndarray:
    """Fixed-step RK4 for x' = f(t, x), stepping as ``integrate_flow`` describes.

    With a number ``t_start``, x may have any shape.  With a vector of N
    start times, x is a batch with one column per start on its last axis,
    states of shape (dim, N) or matrices of shape (d, d, N), and column i
    starts at t_start[i]; t_end and step are then numbers or hold one value
    per column too.  Each column steps on its own grid t_start[i] + k h[i],
    with its own shortened last step, so it ends bit for bit where it would
    alone; f sees only the columns still stepping, x[..., live] with t of
    shape (n,).  The times and steps come checked (``integrate_flow``).
    """
    span = t_end - t_start
    batch = isinstance(t_start, np.ndarray)
    if batch:
        x = np.array(x, dtype=float)
        h = np.copysign(step, span)
        n_full = (np.abs(span) // step).astype(int)
        n_steps = int(n_full.max())
    else:
        h = math.copysign(step, span)
        n_steps = n_full = int(abs(span) // step)
    t = t_start
    for i in range(n_steps):
        x = _advance(f, t, x, h, n_full > i)
        t = t_start + (i + 1) * h
    t = t_start + n_full * h
    rem = t_end - t
    return _advance(f, t, x, rem, _steps(rem, t_end))


def _steps(span: float | np.ndarray, t_end: float | np.ndarray) -> bool | np.ndarray:
    """Whether RK4 steps ``span`` to ``t_end``: one within 1e-15 max(1, |t_end|) is rounding."""
    return np.abs(span) > 1e-15 * np.maximum(1.0, np.abs(t_end))


def _advance(
    f: _Field,
    t: float | np.ndarray,
    x: np.ndarray,
    h: float | np.ndarray,
    live: bool | np.ndarray,
) -> np.ndarray:
    """One RK4 step of the batch columns where ``live`` holds, in place; a
    scalar ``live`` steps all of x, whatever its shape, or none of it."""
    if not isinstance(live, np.ndarray):
        return _rk4_step(f, t, x, h) if live else x
    if live.any():
        x[..., live] = _rk4_step(f, t[live], x[..., live], h[live])
    return x


def _rk4_step(
    f: _Field, t: float | np.ndarray, x: np.ndarray, h: float | np.ndarray
) -> np.ndarray:
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_error_bound(model: FlowErrorModel, t_start: float, t_end: float) -> float:
    """Worst-case numerical-vs-exact flow gap over [t_start, t_end]."""
    finite("t_start", t_start)
    finite("t_end", t_end, ge=t_start)
    return model.magnitude * math.expm1(model.rate * (t_end - t_start))


def calibrate_flow_error(
    field: VectorField,
    samples: Iterable[tuple[float, np.ndarray]],
    horizon: float,
    step: float,
    rate: float,
    safety: float = 1.1,
) -> FlowErrorModel:
    """Fit the magnitude of a FlowErrorModel empirically.

    For each (t, x) sample, the state is pushed to ``horizon`` once at the
    working step and once at step/10 (at a tenth of its span when that is
    shorter than the step); the gap between the two is treated as the
    integration error at the working step.  The smallest magnitude that
    covers every observed gap under the given rate is returned, inflated by
    ``safety`` >= 1.  At least one sample is needed: none would certify an
    exact integrator from no evidence.
    """
    times, states = _checks.samples(samples, horizon)
    finite("rate", rate, gt=0)
    finite("safety", safety, ge=1)
    coarse = integrate_flow(field, times, horizon, states, step)
    fine = integrate_flow(field, times, horizon, states, step / 10.0)
    # A span shorter than ``step`` takes one short working step, which
    # step / 10 does not refine tenfold: such a sample's reference takes ten
    # steps of its own span.
    for i, t in enumerate(times):
        if 0.0 < horizon - t < step:
            fine[i] = integrate_flow(field, t, horizon, states[i], (horizon - t) / 10.0)
    worst, unit = 0.0, FlowErrorModel(magnitude=1.0, rate=rate)
    for t, a, b in zip(times, coarse, fine):
        gap = float(np.linalg.norm(a - b))
        growth = flow_error_bound(unit, t, horizon)
        if growth > 0.0:
            worst = max(worst, gap / growth)
    return FlowErrorModel(magnitude=safety * worst, rate=rate)


@dataclass(frozen=True)
class GrowthCertificate:
    """Certificate V sandwiched by norms, with sublinear forcing.

    scale_low, scale_high   sandwich constants (0 < low <= high)
    power                   norm exponent r > 1 in the sandwich
    forcing_exponent        exponent q < 1 of the forcing term
    forcing_gain            coefficient M1 >= 0 of the forcing term
    drift_cap               upper bound M2 on the running drift integral
                            (required when forcing_gain > 0)
    drift_integral          callable (s, t) -> integral of the drift over
                            [s, t]; defaults to identically zero
    """

    scale_low: float
    scale_high: float
    power: float
    forcing_exponent: float
    forcing_gain: float
    drift_cap: float = 0.0
    drift_integral: Callable[[float, float], float] = field(
        default=lambda s, t: 0.0
    )

    def __post_init__(self) -> None:
        finite("scale_low", self.scale_low, gt=0)
        finite("scale_high", self.scale_high, ge=self.scale_low)
        finite("power", self.power, gt=1)
        finite("forcing_exponent", self.forcing_exponent, lt=1)
        finite("forcing_gain", self.forcing_gain, ge=0)
        finite("drift_cap", self.drift_cap)


def growth_bound(cert: GrowthCertificate, initial_norm: float, t: float) -> float:
    """Envelope on the state norm at time t from the certificate.

    With no forcing the envelope is exponential in the drift integral:

        (scale_high / scale_low)^(1/power) * ||x0|| * exp(drift(0,t) / power).

    With positive forcing and drift integral capped by drift_cap it is
    polynomial in t:

        base * (1 + gain * (1 - exp) * t)^(1 / (power * (1 - exp)))

    where base = (e^drift_cap * (1 + scale_high * ||x0||^power)
                  / scale_low)^(1/power).
    """
    finite("initial_norm", initial_norm, ge=0)
    finite("t", t, ge=0)
    r = cert.power
    if cert.forcing_gain == 0.0:
        ratio = (cert.scale_high / cert.scale_low) ** (1.0 / r)
        return ratio * initial_norm * math.exp(cert.drift_integral(0.0, t) / r)
    one_minus_q = 1.0 - cert.forcing_exponent
    base = (
        math.exp(cert.drift_cap)
        * (1.0 + cert.scale_high * initial_norm**r)
        / cert.scale_low
    ) ** (1.0 / r)
    slope = cert.forcing_gain * one_minus_q
    return base * (1.0 + slope * t) ** (1.0 / (r * one_minus_q))


# --- built-in vector fields ---------------------------------------------------


def _double_integrator(t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.array([x[1], np.ones(x[1].shape)])


def _make_forced_norm_growth(gain: float, exponent: float):
    # d/dt ||x||^2 = drift * ||x||^2 + gain * ||x||^(2*exponent) along this
    # field (with zero drift), which meets a power-2 certificate with
    # equality.  Singular at the origin for exponent < 1.
    def f(t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        nrm = np.sqrt(np.vecdot(x, x, axis=0))
        # One state gives a numpy scalar, whose .all() costs more than the
        # rest of the field; its truth value is the same test.
        if not (nrm.all() if nrm.ndim else nrm):
            raise ArithmeticError("forced-growth field is singular at the origin")
        return (gain / 2.0) * nrm ** (2.0 * exponent - 2.0) * x

    return f


def _make_orbit_tracker(orbit_radius: float, gain: float):
    # Five-dimensional state (px, py, vx, vy, phase): a double integrator
    # steered toward a point moving on a circle, with frozen phase offset.
    def f(t: float | np.ndarray, x: np.ndarray) -> np.ndarray:
        px, py, vx, vy, phase = x
        cx = orbit_radius * np.cos(phase + t)
        cy = orbit_radius * np.sin(phase + t)
        g2 = gain * gain
        return np.array([vx, vy, g2 * (cx - px), g2 * (cy - py), np.zeros(phase.shape)])

    return f


def _read_params(name: str, params: dict, defaults: dict) -> dict:
    """The params of built-in ``name``: ``defaults`` with ``params`` in place.

    A param with an int default is a count (``_checks.count``); every other
    is a finite real number (``_checks.finite``), read as a float.
    ValueError names a param the built-in does not take, or ``params.<key>``.
    """
    extra = sorted(set(params) - set(defaults))
    if extra:
        raise ValueError(f"{name} takes no params {extra}")
    out = dict(defaults)
    for key, value in params.items():
        read = count if isinstance(defaults[key], int) else finite
        out[key] = type(defaults[key])(read(f"params.{key}", value))
    return out


def builtin_field(name: str, **params) -> VectorField:
    """Registry of vector fields used by tests and the command line.

    double_integrator      2-d state (position, velocity), unit acceleration
    forced_norm_growth     n-d field meeting a norm-growth certificate with
                           equality; params: gain, exponent, dim
    orbit_tracker          5-d oscillator chasing a circling target; params:
                           orbit_radius, gain

    ValueError names a param the field does not take, a bool, a string or a
    non-finite value; dim must be an int >= 1.
    """
    takes = {
        "double_integrator": {},
        "forced_norm_growth": {"gain": 1.0, "exponent": 0.5, "dim": 2},
        "orbit_tracker": {"orbit_radius": 1.0, "gain": 4.0},
    }
    if name not in takes:
        raise KeyError(f"unknown vector field {name!r}")
    p = _read_params(name, params, takes[name])
    if name == "double_integrator":
        return VectorField(_double_integrator, dim=2, name=name)
    if name == "forced_norm_growth":
        return VectorField(_make_forced_norm_growth(p["gain"], p["exponent"]), p["dim"], name)
    return VectorField(_make_orbit_tracker(p["orbit_radius"], p["gain"]), dim=5, name=name)
