"""The forward diffusion kernel x_t = m(t) x_0 + s(t) eps with counter-based noise.

Noise is keyed by (seed, coefficient counter) rather than drawn from a
sequential stream, so any parallel or chunked execution order produces
identical output. The generator is SplitMix64 used in counter mode:

    word(seed, n) = mix64(key + (n + 1) * G),  key = mix64(seed + G),  G = 0x9E3779B97F4A7C15

Each standard normal consumes two words via Box-Muller:

    z = sqrt(-2 ln u1) * cos(2 pi u2),  u_k = ((word_k >> 11) + 1) * 2^-53

where coefficient i uses counters 2i and 2i+1. The scheme is fixed so
that outputs are reproducible across runs and comparable in distribution
across implementations (not bit-exactly, since libm cos/log may differ).

Noise is generated in place, in fixed chunks of 2^15 normals: the words,
uniforms and Box-Muller steps overwrite a constant scratch, and :func:`noisy`
adds one chunk at a time to a C-ordered float64 copy of x_0, whatever x_0's
layout. Peak memory is the output plus a constant (about 2 MB), whatever the count.
"""

from __future__ import annotations

import numpy as np

from .block_dct import _check_int
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
_MASK = 0xFFFFFFFFFFFFFFFF
_CHUNK = 2**15  # normals per chunk of counter_normals and noisy: bounds their scratch


def _mix64(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, in place on the uint64 array x; s is uint64 scratch of x's shape."""
    np.right_shift(x, 30, out=s)
    x ^= s
    x *= _MIX1
    np.right_shift(x, 27, out=s)
    x ^= s
    x *= _MIX2
    np.right_shift(x, 31, out=s)
    x ^= s
    return x


def _mix64_int(v: int) -> int:
    x = np.array([v & _MASK], dtype=np.uint64)
    return int(_mix64(x, np.empty_like(x))[0])


def _key(seed: int) -> int:
    return _mix64_int(_check_int(seed, "seed") + int(_GOLDEN))


def _uniforms(c: np.ndarray, key: int, out: np.ndarray, offset: int = 0) -> np.ndarray:
    """Write the uniforms of counters c + offset to out (float64, c's shape).

    Overwrites the uint64 buffer c with the counters' SplitMix64 words, using
    out as the mixer's scratch, so nothing else is allocated.
    """
    c += np.uint64((offset + 1) & _MASK)
    c *= _GOLDEN
    c += np.uint64(key)
    _mix64(c, out.view(np.uint64))
    c >>= np.uint64(11)
    np.add(c, 1.0, out=out)
    out *= 2.0**-53
    return out


def counter_uniforms(seed: int, count: int) -> np.ndarray:
    """Uniforms in (0, 1] of counters 0..count-1; uniform i depends on (seed, i) only."""
    return _uniforms(np.arange(count, dtype=np.uint64), _key(seed), np.empty(count))


def counter_normals(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Standard normals for coefficient indices start..start+count-1.

    Fills one output array in chunks of ``_CHUNK`` normals; the only other
    memory is a fixed scratch of three chunk-sized buffers.
    """
    key, out = _key(seed), np.empty(count)
    u, v = np.empty(2 * min(count, _CHUNK)), np.empty(min(count, _CHUNK))
    for lo in range(0, count, _CHUNK):
        z = out[lo : lo + _CHUNK]
        n = z.size
        # coefficient i uses counters 2i and 2i+1, so u1 and u2 come interleaved
        u12 = _uniforms(np.arange(2 * n, dtype=np.uint64), key, u[: 2 * n], 2 * (start + lo))
        np.copyto(z, u12[0::2])
        np.log(z, out=z)
        z *= -2.0
        np.sqrt(z, out=z)
        cos = np.multiply(u12[1::2], 2.0 * np.pi, out=v[:n])
        np.cos(cos, out=cos)
        z *= cos
    return out


def derive_stream(seed: int, stream: int) -> int:
    """Derive an independent sub-seed, e.g. one per time point of a sweep."""
    return _mix64_int(_key(seed) ^ _check_int(stream, "stream"))


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


def noisy(
    x0: np.ndarray, t: float, sched: NoiseSchedule, seed: int, mode: str = "vp", offset: int = 0
):
    """Sample x_t = m(t) x_0 + s(t) eps of :func:`perturb_params`; a copy of x_0 at t = 0.

    x_t is C-ordered float64 whatever x_0's layout, and element i of x_0 (in
    C order) uses the normal of counter ``offset + i``, so its bytes depend on
    x_0's values only, not on its layout or on how the work is split: a
    matrix's row blocks, each passed with the offset of its first element,
    draw what the whole matrix draws. The noise is drawn and added in chunks,
    so x_t is the only full-size allocation.
    """
    mean, std = perturb_params(t, sched, mode)
    out = np.array(x0, dtype=np.float64, order="C")
    if t == 0:
        return out
    out *= mean
    for lo in range(0, out.size, _CHUNK):
        xt = out.reshape(-1)[lo : lo + _CHUNK]
        xt += std * counter_normals(seed, xt.size, start=offset + lo)
    return out


def perturb(x0: TokenArray, t: float, sched: NoiseSchedule, seed: int) -> TokenArray:
    """Sample the VP kernel on a token array; token i, column j uses counter i * width + j."""
    return TokenArray(x0.config, noisy(x0.tokens, t, sched, seed))
