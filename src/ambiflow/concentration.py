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
        for name in ("p", "beta", "big_c", "small_c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.p >= 1.0:
            raise ValueError(f"transport order p must be >= 1, got {self.p}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"dimension d must be a positive integer, got {self.d}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.big_c > 0.0 or not self.small_c > 0.0:
            raise ValueError("constants C and c must be positive")

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
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
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
    if x <= 0.0:
        raise ValueError(f"critical_rate needs x > 0, got {x}")
    return x * x / math.log(2.0 + 1.0 / x) ** 2


def invert_critical_rate(y: float) -> float:
    """Unique x > 0 with critical_rate(x) = y, by bracketed bisection.

    The bracket is grown geometrically and then bisected to floating-point
    fixed point, so round trips are accurate to machine precision.
    """
    if y <= 0.0:
        raise ValueError(f"invert_critical_rate needs y > 0, got {y}")
    lo, hi = 0.0, 1.0
    while critical_rate(hi) < y:
        hi *= 2.0
        if hi > 1e200:
            raise ArithmeticError(f"bracket growth failed for y={y}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if (critical_rate(mid) if mid > 0.0 else 0.0) < y:
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
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    if rho < 0.0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    if rho == 0.0:
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
    if eps_ref <= 0.0 or n_ref < 1 or n_samples < 1:
        raise ValueError("eps_ref must be positive and sample counts >= 1")
    return eps_ref * (n_ref / n_samples) ** 0.25
