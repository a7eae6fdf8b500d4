"""VP-SDE noise schedule math with SNR scaling.

The base schedule is beta(t) = a + b t with integral
y(t) = a t + 0.5 b t^2, giving SNR(t) = e^{-y} / (1 - e^{-y}).
Scaling the SNR by a constant factor c is equivalent to running the
modified schedule

    beta'(t; c) = a + b t + (c - 1) e^{-y} (-a - b t) / (1 + (c - 1) e^{-y})

whose integral is y'(t; c) = y - ln c + ln(1 + (c - 1) e^{-y}); at c = 1
everything degrades to the base schedule. The half-log-SNR lambda(t) and
its closed-form inverse (needed by exponential-integrator samplers) use
the scaled SNR throughout. All functions accept scalars or arrays of t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_dct import _check_int, _check_real

__all__ = [
    "NoiseSchedule",
    "DiscreteSchedule",
    "snr_factor_for_resolution",
    "y_integral",
    "y_scaled",
    "snr",
    "beta_prime",
    "lambda_of_t",
    "t_of_lambda",
    "discrete_schedule",
]


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear-beta VP schedule parameters plus the SNR scale factor c."""

    a: float = 0.1
    b: float = 19.9
    c: float = 1.0

    def __post_init__(self):
        message = f"a, b, c must all be positive and finite, got {self}"
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _check_real(getattr(self, name), message))


def snr_factor_for_resolution(resolution: int) -> float:
    """Default SNR scale factor keyed by image resolution (4 up to 256, else 12)."""
    return 4.0 if resolution <= 256 else 12.0


def _check_t(t, allow_zero: bool = True):
    t = np.asarray(t, dtype=np.float64)
    if not np.all((t >= 0) & (t <= 1)):
        raise ValueError("t must lie in [0, 1]")
    if not allow_zero and np.any(t == 0):
        raise ValueError("t = 0 is outside the domain of this quantity")
    return t


def y_integral(t, sched: NoiseSchedule = NoiseSchedule()):
    """Integral of the base beta over [0, t]: a t + 0.5 b t^2."""
    t = _check_t(t)
    with np.errstate(over="ignore"):  # an overflow to inf is left to the caller to reject
        return sched.a * t + 0.5 * sched.b * t * t


def y_scaled(t, sched: NoiseSchedule = NoiseSchedule()):
    """Integral of beta'(.; c) over [0, t]; equals y_integral when c = 1."""
    y = y_integral(t, sched)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf when c e^{-y} underflows
        return y - np.log(sched.c) + np.log1p((sched.c - 1.0) * np.exp(-y))


def snr(t, sched: NoiseSchedule = NoiseSchedule()):
    """Scaled signal-to-noise ratio c e^{-y} / (1 - e^{-y}); infinite at t = 0."""
    y = y_integral(t, sched)
    with np.errstate(divide="ignore"):
        out = sched.c * np.exp(-y) / (-np.expm1(-y))
    return out if np.ndim(t) else float(out)


def beta_prime(t, sched: NoiseSchedule = NoiseSchedule()):
    """The modified noise schedule realizing SNR'(t) = c SNR(t)."""
    t = _check_t(t)
    base = sched.a + sched.b * t
    w = (sched.c - 1.0) * np.exp(-y_integral(t, sched))
    out = base / (1.0 + w)
    return out if np.ndim(t) else float(out)


def lambda_of_t(t, sched: NoiseSchedule = NoiseSchedule()):
    """Half-log of the scaled SNR: 0.5 log(SNR'(t)). Diverges at t = 0."""
    t = _check_t(t, allow_zero=False)
    y = y_integral(t, sched)
    with np.errstate(divide="ignore"):
        out = 0.5 * (np.log(sched.c) - y - np.log(-np.expm1(-y)))
    return out if np.ndim(t) else float(out)


def t_of_lambda(lam, sched: NoiseSchedule = NoiseSchedule()):
    """Closed-form inverse of :func:`lambda_of_t` for the scaled schedule.

    The log argument c (1 + e^{2 lam}) / e^{2 lam} + 1 - c simplifies to
    1 + c e^{-2 lam}, so the base integral is y = ln(1 + e^{2u}) with u = ln(c)/2 - lam.
    Its half, h = max(u, 0) + log1p(e^{-2|u|}) / 2, is finite for any finite lam: no
    e^{2u} is formed, and a 2|u| past the float max only makes e^{-2|u|} its true 0. t, the
    root of a t + b t^2 / 2 = 2h, is h / (a/4 + hypot(a/4, sqrt(b/2) sqrt(h/2))): nothing
    cancels as t -> 0 and no b h overflows. A NaN lam is an error.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if np.isnan(lam).any():
        raise ValueError("lambda must not be NaN")
    u = 0.5 * np.log(sched.c) - lam
    quarter_a = 0.25 * sched.a
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf where h = inf, replaced below
        h = np.maximum(u, 0.0) + 0.5 * np.log1p(np.exp(-2.0 * np.abs(u)))
        out = h / (quarter_a + np.hypot(quarter_a, np.sqrt(0.5 * sched.b) * np.sqrt(0.5 * h)))
    out = np.where(np.isinf(h), h, out)
    return out if np.ndim(lam) else float(out)


@dataclass
class DiscreteSchedule:
    """Per-step beta and cumulative signal arrays of a discrete-time schedule."""

    beta: np.ndarray
    alpha_bar: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.alpha_bar = np.asarray(self.alpha_bar, dtype=np.float64)
        if self.beta.shape != self.alpha_bar.shape or self.beta.ndim != 1:
            raise ValueError("beta and alpha_bar must be 1-D arrays of equal length")
        # each rule is stated as what holds, so a NaN breaks it
        if not np.all((self.beta > 0) & (self.beta < 1)):
            raise ValueError("every beta step must lie in (0, 1)")
        if not np.all((self.alpha_bar > 0) & (self.alpha_bar < 1)):
            raise ValueError("alpha_bar must lie in (0, 1)")
        if not np.all(np.diff(self.alpha_bar) < 0):
            raise ValueError("alpha_bar must be strictly decreasing")


def discrete_schedule(
    steps: int = 1000,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
    c: float = 1.0,
) -> DiscreteSchedule:
    """SNR-scaled discrete schedule built from a linear base beta ramp.

    The base per-step SNR alpha_bar / (1 - alpha_bar) is multiplied by c,
    the scaled alpha_bar' = c SNR / (c SNR + 1) is formed, and beta' is
    recovered step by step via beta'_t = 1 - alpha_bar'_t / alpha_bar'_{t-1}
    with alpha_bar'_0 = 1.
    """
    steps = _check_int(steps, "steps")
    if steps < 2:
        raise ValueError(f"need at least 2 steps, got {steps}")
    if not 0 < beta_start <= beta_end < 1:
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got {beta_start}, {beta_end}")
    c = _check_real(c, "c must be positive and finite, got {}")
    base_beta = np.linspace(beta_start, beta_end, steps)
    base_ab = np.cumprod(1.0 - base_beta)
    base_snr = base_ab / (1.0 - base_ab)
    with np.errstate(over="ignore", invalid="ignore"):  # c * SNR past the float max: NaN
        ab = c * base_snr / (c * base_snr + 1.0)
    beta = 1.0 - ab / np.concatenate(([1.0], ab[:-1]))
    if not np.all((beta > 0) & (beta < 1)):
        raise ValueError(f"scaled schedule leaves (0, 1) for c={c}; reduce c or the beta range")
    return DiscreteSchedule(beta, ab)
