"""Finite-sample concentration for empirical Wasserstein distances.

For N independent samples of a measure supported in a box of half-width
``rho`` (infinity norm), the probability that the p-th power of the order-p
Wasserstein distance between the empirical measure and the truth exceeds
``eps`` admits an exponential bound whose shape depends on how the transport
order p compares with half the ambient dimension d:

    p > d/2:   C exp(-c N eps^2 / rho^(2p))
    p = d/2:   C exp(-c N eps^2 / (rho^(2p) (ln(2 + rho^p/eps))^2))
    p < d/2:   C exp(-c N eps^(d/p) / rho^d)

Inverting the bound at a target confidence level 1 - beta yields the radius
of a Wasserstein ball guaranteed to contain the sampled measure with that
confidence.  The balanced case p = d/2 has no closed-form inverse; it is
handled through the strictly increasing rate function

    g(x) = x^2 / (ln(2 + 1/x))^2

whose inverse is computed here by bisection.

The constants C and c are dimensional artifacts of the underlying moment
argument; they are configuration, not outputs, and both default to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ambiflow._checks import count, finite

__all__ = [
    "RadiusConfig",
    "deviation_bound",
    "ambiguity_radius",
    "critical_rate",
    "invert_critical_rate",
    "calibrated_radius",
]


@dataclass(frozen=True)
class RadiusConfig:
    """Parameters of the concentration bound.

    p     transport order (>= 1)
    d     ambient dimension (positive integer)
    beta  target exceedance probability in (0, 1)
    big_c multiplicative constant C > 0 of the bound
    small_c exponential rate constant c > 0 of the bound
    """

    p: float
    d: int
    beta: float
    big_c: float = 1.0
    small_c: float = 1.0

    def __post_init__(self) -> None:
        finite("p", self.p, ge=1)
        count("d", self.d)
        finite("beta", self.beta, gt=0, lt=1)
        finite("big_c", self.big_c, gt=0)
        finite("small_c", self.small_c, gt=0)

    @property
    def regime(self) -> str:
        """Which branch of the bound applies: 'subcritical' is p < d/2,
        'critical' is p = d/2, 'supercritical' is p > d/2."""
        if self.p > self.d / 2.0:
            return "supercritical"
        if self.p == self.d / 2.0:
            return "critical"
        return "subcritical"

    @property
    def decay_exponent(self) -> float:
        """max(2p, d): the radius decays like N^(-1/decay_exponent) away
        from the critical case."""
        return max(2.0 * self.p, float(self.d))


def deviation_bound(eps: float, rho: float, n_samples: int, cfg: RadiusConfig) -> float:
    """Probability bound for the event  W_p^p(empirical, truth) >= eps.

    ``rho`` is the half-diameter (infinity norm) of the support box and
    ``n_samples`` the number of independent draws.
    """
    finite("eps", eps, gt=0)
    finite("rho", rho, gt=0)
    count("n_samples", n_samples)
    p, d = cfg.p, cfg.d
    n = float(n_samples)
    if cfg.regime == "supercritical":
        rate = eps**2 / rho ** (2 * p)
    elif cfg.regime == "critical":
        rate = eps**2 / (rho ** (2 * p) * math.log(2.0 + rho**p / eps) ** 2)
    else:
        rate = eps ** (d / p) / rho**d
    return cfg.big_c * math.exp(-cfg.small_c * n * rate)


def critical_rate(x: float) -> float:
    """g(x) = x^2 / (ln(2 + 1/x))^2, strictly increasing on (0, inf)."""
    return _critical_rate(finite("x", x, gt=0))


def _critical_rate(x: float) -> float:
    return x * x / math.log(2.0 + 1.0 / x) ** 2


def invert_critical_rate(y: float) -> float:
    """Unique x > 0 with critical_rate(x) = y, by bracketed bisection.

    The bracket is grown geometrically and then bisected to floating-point
    fixed point, so round trips are accurate to machine precision.
    """
    finite("y", y, gt=0)
    lo, hi = 0.0, 1.0
    while _critical_rate(hi) < y:
        hi *= 2.0
        if hi > 1e200:
            raise ArithmeticError(f"bracket growth failed for y={y}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (_critical_rate(mid) if mid > 0.0 else 0.0) < y:
            lo = mid
        else:
            hi = mid
    return hi


def ambiguity_radius(n_samples: int, cfg: RadiusConfig, rho: float) -> float:
    """Wasserstein-ball radius meeting confidence 1 - beta after n draws.

    Returns the smallest eps such that the deviation bound evaluated at
    eps^p equals beta.  Scales linearly in rho and decreases in both
    n_samples and beta.  A zero rho (degenerate support) gives radius 0.
    """
    count("n_samples", n_samples)
    if finite("rho", rho, ge=0) == 0.0:
        return 0.0
    # If beta already exceeds the bound's ceiling C, any positive radius
    # works; the infimum is 0.
    log_term = math.log(cfg.big_c / cfg.beta)
    if log_term <= 0.0:
        return 0.0
    y = log_term / (cfg.small_c * float(n_samples))
    if cfg.regime == "critical":
        return invert_critical_rate(y) ** (1.0 / cfg.p) * rho
    return y ** (1.0 / cfg.decay_exponent) * rho


def calibrated_radius(eps_ref: float, n_ref: int, n_samples: int) -> float:
    """Radius schedule pinned to a reference pair (n_ref, eps_ref).

    Uses the quarter-power scaling eps_n = eps_ref * (n_ref / n)^(1/4).
    Useful when a radius at one sample count is known (from calibration or
    from published results) and the whole schedule is needed.
    """
    finite("eps_ref", eps_ref, gt=0)
    count("n_ref", n_ref)
    count("n_samples", n_samples)
    return eps_ref * (n_ref / n_samples) ** 0.25
