"""The forward diffusion kernel x_t = m(t) x_0 + s(t) eps with counter-based noise.

Noise is keyed by (seed, coefficient counter) rather than drawn from a
sequential stream, so any parallel or chunked execution order produces
identical output. The generator is SplitMix64 used in counter mode:

    word(seed, n) = mix64(mix64(seed) + (n + 1) * 0x9E3779B97F4A7C15)

Each standard normal consumes two words via Box-Muller:

    z = sqrt(-2 ln u1) * cos(2 pi u2),  u_k = ((word_k >> 11) + 1) * 2^-53

where coefficient i uses counters 2i and 2i+1. The scheme is fixed so
that outputs are reproducible across runs and comparable in distribution
across implementations (not bit-exactly, since libm cos/log may differ).
"""

from __future__ import annotations

import numpy as np

from .schedule import NoiseSchedule, y_scaled
from .tokenizer import TokenArray

__all__ = [
    "counter_uniforms",
    "counter_normals",
    "derive_stream",
    "perturb_params",
    "noisy",
    "perturb",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x):
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _key(seed: int) -> np.uint64:
    return _mix64(np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)


def counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1], one per counter value, independent of call order."""
    counters = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        words = _mix64(_key(seed) + (counters + np.uint64(1)) * _GOLDEN)
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def counter_normals(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Standard normals for coefficient indices start..start+count-1."""
    idx = np.arange(start, start + count, dtype=np.uint64)
    u1 = counter_uniforms(seed, idx * np.uint64(2))
    u2 = counter_uniforms(seed, idx * np.uint64(2) + np.uint64(1))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_stream(seed: int, stream: int) -> int:
    """Derive an independent sub-seed, e.g. one per time point of a sweep."""
    with np.errstate(over="ignore"):
        return int(_mix64(_key(seed) ^ np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF)))


def perturb_params(
    t: float, sched: NoiseSchedule = NoiseSchedule(), mode: str = "vp"
) -> tuple[float, float]:
    """Mean coefficient m(t) and noise std s(t) of the forward kernel.

    "vp" is the variance-preserving (e^{-y'/2}, sqrt(1 - e^{-y'})); "ve" is
    the additive (1, sqrt(y')), under which noisy power = clean power + y'
    per rank. y' is the SNR-scaled integral :func:`schedule.y_scaled`; at
    t = 0 the kernel is exactly (1, 0).
    """
    if mode not in ("vp", "ve"):
        raise ValueError(f"mode must be 'vp' or 've', got {mode!r}")
    if t == 0:
        return 1.0, 0.0
    yp = float(y_scaled(t, sched))
    if mode == "ve":
        if not 0 <= yp < np.inf:
            raise ValueError(f"y'(t) must lie in [0, inf), got {yp}")
        return 1.0, float(np.sqrt(yp))
    mean = float(np.exp(-0.5 * yp))
    if not 0 < mean <= 1:
        raise ValueError(f"mean coefficient must lie in (0, 1], got {mean}")
    return mean, float(np.sqrt(-np.expm1(-yp)))


def noisy(x0: np.ndarray, t: float, sched: NoiseSchedule, seed: int, mode: str = "vp"):
    """Sample x_t = m(t) x_0 + s(t) eps of :func:`perturb_params`; a copy of x_0 at t = 0.

    Element i of x_0 (in C order) uses counter_normals(seed, x0.size)[i], so
    the result does not depend on how the work is split across threads.
    """
    mean, std = perturb_params(t, sched, mode)
    if t == 0:
        return x0.copy()
    return mean * x0 + std * counter_normals(seed, x0.size).reshape(x0.shape)


def perturb(x0: TokenArray, t: float, sched: NoiseSchedule, seed: int) -> TokenArray:
    """Sample the VP kernel on a token array; token i, column j uses counter i * width + j."""
    return TokenArray(x0.config, noisy(x0.tokens, t, sched, seed))
