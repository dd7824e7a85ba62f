"""Flows, numerical integration error models, and norm growth certificates.

Three separate concerns live here because they feed the same downstream
budget:

* ``integrate_flow`` pushes a state through a vector field with classical
  fixed-step RK4 (final partial step shortened to land exactly on t).

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
  ``growth_bound`` evaluates that envelope and ``support_radius`` turns a
  compact set of initial conditions into a half-diameter at horizon T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "VectorField",
    "FlowErrorModel",
    "GrowthCertificate",
    "integrate_flow",
    "flow_error_bound",
    "calibrate_flow_error",
    "growth_bound",
    "support_radius",
    "builtin_field",
]


@dataclass(frozen=True)
class VectorField:
    """A time-dependent vector field f(t, x) on R^dim."""

    f: Callable[[float, np.ndarray], np.ndarray]
    dim: int
    name: str = ""

    def __call__(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(t, x), dtype=float)


@dataclass(frozen=True)
class FlowErrorModel:
    """Exponential envelope for numerical flow error.

    magnitude  leading coefficient (0 allowed: exact integration)
    rate       exponential growth rate L >= 0 of error over elapsed time
    """

    magnitude: float
    rate: float

    def __post_init__(self) -> None:
        for name in ("magnitude", "rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.magnitude < 0.0:
            raise ValueError(f"magnitude must be >= 0, got {self.magnitude}")
        if self.rate < 0.0:
            raise ValueError(f"rate must be >= 0, got {self.rate}")


def integrate_flow(
    field: VectorField,
    t_start: float,
    t_end: float,
    state: np.ndarray,
    step: float = 1e-3,
) -> np.ndarray:
    """Propagate ``state`` from t_start to t_end by fixed-step RK4.

    Steps are taken at the requested size with the last one shortened so the
    trajectory lands exactly on t_end.  Integration backward in time is
    allowed.  Raises ArithmeticError if the state stops being finite.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(state, dtype=float).copy()
    if x.shape != (field.dim,):
        raise ValueError(f"state shape {x.shape} does not match field dim {field.dim}")
    x = _rk4(field, t_start, t_end, x, step)
    if not np.all(np.isfinite(x)):
        raise ArithmeticError(
            f"integration from t={t_start:.6g} to t={t_end:.6g} blew up "
            f"(field {field.name or 'anonymous'})"
        )
    return x


def _rk4(
    f: Callable[[float, np.ndarray], np.ndarray],
    t_start: float,
    t_end: float,
    x: np.ndarray,
    step: float,
) -> np.ndarray:
    """Fixed-step RK4 for x' = f(t, x) on an array x of any shape, stepping
    as ``integrate_flow`` describes; flows and fundamental matrices share it."""
    span = t_end - t_start
    h = math.copysign(step, span)
    n_full = int(abs(span) // step)
    t = t_start
    for i in range(n_full):
        x = _rk4_step(f, t, x, h)
        t = t_start + (i + 1) * h
    rem = t_end - t
    if abs(rem) > 1e-15 * max(1.0, abs(t_end)):
        x = _rk4_step(f, t, x, rem)
    return x


def _rk4_step(
    f: Callable[[float, np.ndarray], np.ndarray], t: float, x: np.ndarray, h: float
) -> np.ndarray:
    k1 = f(t, x)
    k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = f(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow_error_bound(model: FlowErrorModel, t_start: float, t_end: float) -> float:
    """Worst-case numerical-vs-exact flow gap over [t_start, t_end]."""
    if t_end < t_start:
        raise ValueError(f"need t_end >= t_start, got [{t_start}, {t_end}]")
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
    working step and once at step/10; the gap between the two is treated as
    the integration error at the working step.  The smallest magnitude that
    covers every observed gap under the given rate is returned, inflated by
    ``safety``.
    """
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    worst = 0.0
    for t, x in samples:
        if t > horizon:
            raise ValueError(f"sample time {t} beyond horizon {horizon}")
        coarse = integrate_flow(field, t, horizon, x, step)
        fine = integrate_flow(field, t, horizon, x, step / 10.0)
        gap = float(np.linalg.norm(coarse - fine))
        growth = math.expm1(rate * (horizon - t))
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
        if not 0.0 < self.scale_low <= self.scale_high:
            raise ValueError(
                f"need 0 < scale_low <= scale_high, got "
                f"({self.scale_low}, {self.scale_high})"
            )
        if not self.power > 1.0:
            raise ValueError(f"power must exceed 1, got {self.power}")
        if not self.forcing_exponent < 1.0:
            raise ValueError(
                f"forcing_exponent must be < 1, got {self.forcing_exponent}"
            )
        if self.forcing_gain < 0.0:
            raise ValueError(f"forcing_gain must be >= 0, got {self.forcing_gain}")


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
    if initial_norm < 0.0:
        raise ValueError(f"initial_norm must be >= 0, got {initial_norm}")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
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


def support_radius(
    initial_points: np.ndarray,
    field: VectorField,
    horizon: float,
    step: float = 1e-3,
) -> float:
    """Half the infinity-norm diameter of the initial set pushed to ``horizon``.

    The initial set is represented by a finite point cloud; each point is
    integrated to the horizon and the box half-width of the images is
    returned.  A singleton cloud gives 0.
    """
    pts = np.atleast_2d(np.asarray(initial_points, dtype=float))
    if pts.shape[0] < 1:
        raise ValueError("need at least one initial point")
    images = np.vstack(
        [integrate_flow(field, 0.0, horizon, p, step) for p in pts]
    )
    spread = images.max(axis=0) - images.min(axis=0)
    return float(spread.max() / 2.0)


# --- built-in vector fields ---------------------------------------------------


def _double_integrator(t: float, x: np.ndarray) -> np.ndarray:
    return np.array([x[1], 1.0])


def _make_forced_norm_growth(gain: float, exponent: float):
    # d/dt ||x||^2 = drift * ||x||^2 + gain * ||x||^(2*exponent) along this
    # field (with zero drift), which meets a power-2 certificate with
    # equality.  Singular at the origin for exponent < 1.
    def f(t: float, x: np.ndarray) -> np.ndarray:
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:
            raise ArithmeticError("forced-growth field is singular at the origin")
        return (gain / 2.0) * nrm ** (2.0 * exponent - 2.0) * x

    return f


def _make_orbit_tracker(orbit_radius: float, gain: float):
    # Five-dimensional state (px, py, vx, vy, phase): a double integrator
    # steered toward a point moving on a circle, with frozen phase offset.
    def f(t: float, x: np.ndarray) -> np.ndarray:
        px, py, vx, vy, phase = x
        cx = orbit_radius * math.cos(phase + t)
        cy = orbit_radius * math.sin(phase + t)
        g2 = gain * gain
        return np.array([vx, vy, g2 * (cx - px), g2 * (cy - py), 0.0])

    return f


def builtin_field(name: str, **params) -> VectorField:
    """Registry of vector fields used by tests and the command line.

    double_integrator      2-d state (position, velocity), unit acceleration
    forced_norm_growth     n-d field meeting a norm-growth certificate with
                           equality; params: gain, exponent, dim
    orbit_tracker          5-d oscillator chasing a circling target; params:
                           orbit_radius, gain
    """
    if name == "double_integrator":
        return VectorField(_double_integrator, dim=2, name=name)
    if name == "forced_norm_growth":
        gain = float(params.get("gain", 1.0))
        exponent = float(params.get("exponent", 0.5))
        dim = int(params.get("dim", 2))
        return VectorField(_make_forced_norm_growth(gain, exponent), dim=dim, name=name)
    if name == "orbit_tracker":
        orbit_radius = float(params.get("orbit_radius", 1.0))
        gain = float(params.get("gain", 4.0))
        return VectorField(_make_orbit_tracker(orbit_radius, gain), dim=5, name=name)
    raise KeyError(f"unknown vector field {name!r}")
