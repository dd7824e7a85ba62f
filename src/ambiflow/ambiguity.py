"""Ambiguity ball construction for sampled dynamic populations.

The object of interest is the distribution, at a horizon T, of the state of
a randomly drawn population member.  Each member i is observed near its own
last sample time t_i <= T, its state is pushed forward numerically to T, and
the pushed states form a cumulative empirical measure.  Two error sources
separate that measure from the truth at T:

* statistical: finitely many members were sampled (handled by the
  concentration radius);

* numerical/temporal: each sample was pushed through an approximate flow
  over a window of length up to Delta * (N - i), where Delta bounds the gap
  between consecutive last-sample times.

With a flow-error envelope magnitude * (exp(rate * dt) - 1), the coupling
that pairs each pushed sample with its exact image gives

    pushforward_error(N) = magnitude * (1/N * integral_1^N
                              (exp(rate * Delta * s) - 1)^p ds)^(1/p)

and the total ball radius is the sum of the two parts.  Since the
statistical part falls in N while the pushforward part grows, there is a
last sample count at which adding one more member still shrinks the ball;
``effective_horizon`` computes it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad

from ambiflow._checks import count, finite
from ambiflow.concentration import RadiusConfig, ambiguity_radius
from ambiflow.distribution import DiscreteDistribution
from ambiflow.dynamics import FlowErrorModel, VectorField, integrate_flow

__all__ = [
    "SamplingSchedule",
    "HorizonResult",
    "cumulative_empirical",
    "pushforward_error",
    "pushforward_error_noisy",
    "total_radius",
    "effective_horizon",
]

_TIME_TOL = 1e-12


@dataclass(frozen=True)
class SamplingSchedule:
    """Sample times for a sequence of observed population members.

    ``times`` holds one strictly increasing tuple of finite sample times per
    member, all of the same length.  Members are ordered by their last sample
    time (ties allowed).  ``effective_start`` is the 1-based index of the
    first member that counts toward the empirical measure; earlier members
    are kept for context but ignored by the derived quantities.
    """

    times: tuple[tuple[float, ...], ...]
    effective_start: int = 1

    def __post_init__(self) -> None:
        norm = tuple(
            tuple(float(finite(f"times of trajectory {i}", t)) for t in row)
            for i, row in enumerate(self.times)
        )
        if len(norm) == 0:
            raise ValueError("schedule needs at least one trajectory")
        lengths = {len(row) for row in norm}
        if len(lengths) != 1:
            raise ValueError(f"trajectories differ in length: {sorted(lengths)}")
        if min(lengths) < 1:
            raise ValueError("each trajectory needs at least one sample time")
        for i, row in enumerate(norm):
            gaps = np.diff(row)
            if len(gaps) and gaps.min() <= _TIME_TOL:
                raise ValueError(f"times of trajectory {i} are not increasing")
        last = [row[-1] for row in norm]
        if any(b - a < -_TIME_TOL for a, b in zip(last, last[1:])):
            raise ValueError("last sample times must be nondecreasing across members")
        count("effective_start", self.effective_start, high=len(norm))
        object.__setattr__(self, "times", norm)

    @property
    def horizon(self) -> float:
        return self.times[-1][-1]

    def _window(self) -> list[tuple[float, ...]]:
        return list(self.times[self.effective_start - 1 :])

    @property
    def n_effective(self) -> int:
        return len(self._window())

    @property
    def delta(self) -> float:
        """Largest gap between consecutive last-sample times in the window."""
        last = [row[-1] for row in self._window()]
        if len(last) < 2:
            return 0.0
        return float(max(b - a for a, b in zip(last, last[1:])))

    @property
    def delta_prime(self) -> float:
        """Largest gap between consecutive samples within one member."""
        worst = 0.0
        for row in self._window():
            if len(row) >= 2:
                worst = max(worst, max(b - a for a, b in zip(row, row[1:])))
        return worst

    @property
    def tau_low(self) -> float:
        """Shortest per-member observation span in the window."""
        return float(min(row[-1] - row[0] for row in self._window()))

    @property
    def tau_up(self) -> float:
        """Longest per-member observation span in the window."""
        return float(max(row[-1] - row[0] for row in self._window()))


def cumulative_empirical(
    samples: Sequence[tuple[float, np.ndarray]],
    horizon: float,
    field: VectorField,
    step: float = 1e-3,
) -> DiscreteDistribution:
    """Equal-weight measure on samples pushed forward to the horizon.

    Each (t, state) pair is integrated from t to ``horizon``, all of them in
    one RK4 sweep on their own step grids; sample times beyond the horizon
    are rejected.  Colliding images stay separate atoms.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    finite("horizon", horizon)
    for idx, (t, _) in enumerate(samples):
        if t > horizon + _TIME_TOL:
            raise ValueError(
                f"sample {idx} taken at t={t}, after the horizon {horizon}"
            )
    times, states = zip(*samples)
    return DiscreteDistribution.empirical(integrate_flow(field, times, horizon, states, step))


def _envelope_power_integral(n: float, a: float, p: float) -> float:
    """integral_1^n (exp(a s) - 1)^p ds for n >= 1, a >= 0, p >= 1.

    Integer p admits a closed form by binomial expansion.  The expansion
    cancels badly when a*n is small, and fractional p has no closed form;
    both cases fall back to adaptive quadrature.  The terms exceed the
    result by about (2 / (a*n))^p, so with roundoff near 2e-15 the closed
    form keeps about 1e-10 relative accuracy once a*n >= 2 * 2e-5^(1/p);
    for p <= 2 the switch stays at a*n = 1e-2.
    """
    if n <= 1.0 or a == 0.0:
        return 0.0
    p_int = round(p)
    closed_form_floor = max(1e-2, 2.0 * 2e-5 ** (1.0 / p_int))
    use_closed_form = abs(p - p_int) < 1e-12 and a * n >= closed_form_floor
    if use_closed_form:
        total = 0.0
        for k in range(p_int + 1):
            sign = -1.0 if (p_int - k) % 2 else 1.0
            coeff = math.comb(p_int, k)
            if k == 0:
                term = n - 1.0
            else:
                ak = a * k
                term = math.exp(ak) * math.expm1(ak * (n - 1.0)) / ak
            total += sign * coeff * term
        return max(total, 0.0)
    val, _ = quad(
        lambda s: math.expm1(a * s) ** p, 1.0, n, epsabs=1e-12, epsrel=1e-12, limit=200
    )
    return max(val, 0.0)


def pushforward_error(
    n_samples: int, delta: float, p: float, model: FlowErrorModel
) -> float:
    """Wasserstein gap bound between pushed and exact empirical measures.

    Zero when only one sample exists (it is pushed over a zero-length
    window), when the envelope magnitude vanishes, or when delta = 0.
    Strictly increasing in n_samples otherwise.
    """
    count("n_samples", n_samples)
    finite("delta", delta, ge=0)
    finite("p", p, ge=1)
    a = model.rate * delta
    integral = _envelope_power_integral(float(n_samples), a, p)
    if integral == 0.0:
        return 0.0
    return model.magnitude * (integral / n_samples) ** (1.0 / p)


def pushforward_error_noisy(
    n_samples: int,
    delta: float,
    p: float,
    model: FlowErrorModel,
    recon_error: float,
) -> float:
    """Pushforward gap when each sampled state carries its own error.

    A per-sample reconstruction error of size up to ``recon_error`` is
    amplified by the flow over the push window; combined with the numerical
    integration envelope through the power-mean inequality this gives

        (2^(p-1)/N * [recon^p * (exp(p a N) - 1)/(p a)
                      + magnitude^p * integral_1^N (exp(a s) - 1)^p ds])^(1/p)

    with a = rate * delta.  Reduces to the plain bound plus a recon term at
    p = 1, and dominates ``pushforward_error`` for every p >= 1.
    """
    count("n_samples", n_samples)
    finite("delta", delta, ge=0)
    finite("p", p, ge=1)
    finite("recon_error", recon_error, ge=0)
    a = model.rate * delta
    n = float(n_samples)
    if a == 0.0:
        recon_term = recon_error**p * n
    else:
        recon_term = recon_error**p * math.expm1(p * a * n) / (p * a)
    flow_term = model.magnitude**p * _envelope_power_integral(n, a, p)
    return (2.0 ** (p - 1.0) / n * (recon_term + flow_term)) ** (1.0 / p)


def total_radius(
    n_samples: int,
    cfg: RadiusConfig,
    rho_horizon: float,
    delta: float,
    model: FlowErrorModel,
    recon_error: float | None = None,
) -> float:
    """Full ambiguity-ball radius: concentration part plus pushforward part."""
    stat = ambiguity_radius(n_samples, cfg, rho_horizon)
    if recon_error is None:
        push = pushforward_error(n_samples, delta, cfg.p, model)
    else:
        push = pushforward_error_noisy(n_samples, delta, cfg.p, model, recon_error)
    return stat + push


@dataclass(frozen=True)
class HorizonResult:
    """Outcome of the effective-horizon search.

    status is one of:
      'found'           n_star is the first count where growing the sample
                        stops shrinking the ball; the total radius strictly
                        decreases on [1, n_star]
      'no-improvement'  already the step from 1 to 2 samples fails to shrink
                        the ball (delta at or above its critical value)
      'capped'          every count up to the cap improves; n_star is None

    margins holds the (statistical gain, pushforward growth) of the steps
    kappa -> kappa + 1, kappa = 1..n_star: differences of the two parts of
    ``total_radius``.  It is empty when capped.
    """

    status: str
    n_star: int | None
    delta: float
    checked: int
    margins: tuple[tuple[float, float], ...] = ()


def effective_horizon(
    delta: float,
    cfg: RadiusConfig,
    rho_horizon: float,
    model: FlowErrorModel,
    cap: int = 10**6,
) -> HorizonResult:
    """Largest sample count up to which growing the sample shrinks the ball.

    Scans kappa = 1, 2, ... and returns the first kappa where the statistical
    gain of one more sample no longer strictly exceeds the pushforward
    growth (ties count as failure).  Failure already at kappa = 1 means the
    inter-sample gap delta is at or above its critical value and is reported
    as 'no-improvement'.  If no kappa up to ``cap`` fails (for instance with
    an exact integrator, magnitude = 0), the result is 'capped'.
    """
    count("cap", cap)
    gains, growths = array("d"), array("d")
    # Each part of ``total_radius`` is computed once per count.
    push, stat = pushforward_error(1, delta, cfg.p, model), ambiguity_radius(1, cfg, rho_horizon)
    # With an exact flow the pushforward part is identically zero, so a
    # positive statistical gain at the first step wins forever.
    exact = model.magnitude == 0.0 or model.rate * delta == 0.0
    for kappa in range(1, cap + 1):
        stat_next = ambiguity_radius(kappa + 1, cfg, rho_horizon)
        push_next = pushforward_error(kappa + 1, delta, cfg.p, model)
        gains.append(stat - stat_next)
        growths.append(push_next - push)
        if not gains[-1] > growths[-1]:
            status = "no-improvement" if kappa == 1 else "found"
            return HorizonResult(status, kappa, delta, kappa, tuple(zip(gains, growths)))
        if exact:
            break
        stat, push = stat_next, push_next
    return HorizonResult("capped", None, delta, cap)
