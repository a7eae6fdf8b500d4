"""Frequency-domain statistics of DCT coefficient datasets.

Covers four jobs: per-frequency entropy weights for loss reweighting,
the averaged power spectral density (APSD) of clean and noise-perturbed
coefficients, power-law fits of spectra, and the time at which a
frequency's SNR crosses a threshold. The frequency axis is always the zigzag rank
of the block DCT, not a Fourier bin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .block_dct import _check_finite, kept_ranks
from .diffuse import derive_stream, noisy
from .schedule import NoiseSchedule, _check_t, t_of_lambda

__all__ = [
    "EntropyWeights",
    "entropy_weights",
    "apply_ebfr",
    "apsd",
    "power_law_fit",
    "snr_threshold_time",
    "save_weights",
    "load_weights",
]

_CHANNELS = ("Y", "Cb", "Cr")
DEFAULT_BINS = 256


def _sample_matrices(channel_samples, min_rows: int, width: int | None = None) -> list[np.ndarray]:
    """Check a (y, cb, cr) triple of coefficient samples and return it as float64.

    Each channel must be a finite 2-D (n, width) matrix with n >= ``min_rows``;
    without ``width`` the channels need only share theirs.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in channel_samples]
    if len(mats) != 3:
        raise ValueError(f"expected (y, cb, cr) sample matrices, got {len(mats)}")
    for name, mat in zip(_CHANNELS, mats):
        # Y is checked for 2-D before any channel reads its width
        if mat.ndim != 2 or mat.shape[1] != (mats[0].shape[1] if width is None else width):
            want = "one shared width" if width is None else f"{width} columns"
            raise ValueError(f"{name} samples must be 2-D with {want}, got shape {mat.shape}")
        if mat.shape[0] < min_rows:
            raise ValueError(f"{name} channel needs >= {min_rows} samples per rank, got {len(mat)}")
        _check_finite(mat, f"{name} samples contain non-finite values")
    return mats


@dataclass(frozen=True)
class EntropyWeights:
    """Per-frequency loss weights, one per (channel, kept zigzag rank).

    ``weights`` is ordered Y ranks, then Cb ranks, then Cr ranks and is
    normalized to mean 1. ``clamped_ranks`` flags positions whose weight
    was degenerate (constant samples) or nonpositive and was replaced by
    the smallest positive weight seen.
    """

    weights: np.ndarray
    block_size: int
    drop_count: int
    clamped_ranks: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        kept = kept_ranks(self.block_size, self.drop_count)
        if self.weights.shape != (3 * kept,):
            raise ValueError(f"expected {3 * kept} weights, got shape {self.weights.shape}")
        _check_finite(self.weights, "weights contain non-finite values")
        if not np.all(self.weights > 0):
            raise ValueError("all weights must be strictly positive")
        if abs(self.weights.mean() - 1.0) > 1e-9:
            raise ValueError("weights must be normalized to mean 1")


def _check_bins(bins: int) -> None:
    if bins < 16:
        raise ValueError(f"need at least 16 histogram bins, got {bins}")


def _hist_entropy(samples: np.ndarray, bins: int) -> float | None:
    lo, hi = samples.min(), samples.max()
    if hi == lo:
        return None
    counts, _ = np.histogram(samples, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / samples.size
    return float(-(p * np.log(p)).sum() + np.log((hi - lo) / bins))


def entropy_weights(
    channel_samples,
    block_size: int,
    drop_count: int = 0,
    bins: int = DEFAULT_BINS,
) -> EntropyWeights:
    """Estimate per-frequency entropy weights from coefficient samples.

    ``channel_samples`` is a (y, cb, cr) triple of (n_blocks, kept) matrices
    of finite zigzag-ordered coefficients (n >= 1000 per channel). Each rank's
    differential entropy comes from a ``bins``-bin histogram over its own
    empirical range. Normalization to mean 1 is additive (H - mean(H) + 1):
    a global rescale of the samples shifts every entropy by the same ln k,
    so the shift cancels and the weights are scale invariant.
    """
    _check_bins(bins)
    kept = kept_ranks(block_size, drop_count)
    mats = _sample_matrices(channel_samples, 1000, kept)
    raw = np.empty(3 * kept)
    degenerate = np.zeros(3 * kept, dtype=bool)
    for ci, mat in enumerate(mats):
        for r in range(kept):
            h = _hist_entropy(mat[:, r], bins)
            pos = ci * kept + r
            degenerate[pos] = h is None
            raw[pos] = np.nan if h is None else h

    if degenerate.all():
        raise ValueError("every rank is constant; no entropy to estimate")
    weights = raw - np.nanmean(raw) + 1.0
    clamp = degenerate | ~(weights > 0)
    if clamp.any():
        positive = weights[~np.isnan(weights) & (weights > 0)]
        weights[clamp] = positive.min() if positive.size else 1.0
        weights /= weights.mean()
    return EntropyWeights(
        weights=weights,
        block_size=block_size,
        drop_count=drop_count,
        clamped_ranks=tuple(int(i) for i in np.flatnonzero(clamp)),
    )


def apply_ebfr(squared_residuals: np.ndarray, w: EntropyWeights) -> float:
    """Weighted sum of squared residuals laid out like token rows.

    The last axis must be 6 * kept, matching [Y|Y|Y|Y|Cb|Cr]; the Y weight
    block is broadcast across the four Y segments.
    """
    sq = np.asarray(squared_residuals, dtype=np.float64)
    kept = kept_ranks(w.block_size, w.drop_count)
    if sq.shape[-1] != 6 * kept:
        raise ValueError(f"last axis must be {6 * kept}, got {sq.shape[-1]}")
    wy, wcb, wcr = w.weights[:kept], w.weights[kept : 2 * kept], w.weights[2 * kept :]
    per_token = np.concatenate([wy, wy, wy, wy, wcb, wcr])
    return float(np.sum(sq * per_token))


def apsd(parts, sched: NoiseSchedule, t_grid, seed: int = 0, mode: str = "vp",
         map_fn=map) -> np.ndarray:
    """Monte-Carlo averaged power spectral density per zigzag rank.

    ``parts`` is an iterable (a list or a generator, never one array) of
    finite (n_i, ranks) matrices of zigzag-ordered DCT coefficients, one row
    per block, with n >= 1000 rows in all. Row i of the (len(t_grid), ranks)
    result estimates E[D_r(x_t)^2] per rank at t = t_grid[i] (t = 0 is the
    clean power), where x_t is drawn by :func:`diffuse.noisy` with the
    ``mode`` kernel ("vp" or "ve") and the sub-seed derive_stream(seed, i).

    One pass checks the parts in order and keeps one accumulator per time.
    ``map_fn(fn, jobs)`` draws x_t per (part, time) job, one x_t per job in
    flight: builtin ``map`` holds one, the CLI's ``--threads N`` map 2N.
    A part's noise starts at the counter of its first element, and each
    accumulator adds rows in part order, so with two or more ranks the bits
    equal the mean's over the concatenation (one rank: numpy sums pairwise).
    """
    if isinstance(parts, np.ndarray):
        raise ValueError("apsd takes an iterable of (n, ranks) matrices, not one array")
    t_grid = np.atleast_1d(_check_t(t_grid))
    seeds = [derive_stream(seed, i) for i in range(t_grid.size)]
    acc, n = None, 0

    def jobs():  # run by the calling thread, as map_fn takes them
        nonlocal acc, n
        for part in parts:
            part = np.asarray(part, dtype=np.float64)
            if part.ndim != 2 or (acc is not None and part.shape[1] != acc.shape[1]):
                raise ValueError(f"parts must be (n, ranks) matrices of one width, got {part.shape}")
            _check_finite(part, "coefficients contain non-finite values")
            if acc is None:
                acc = np.zeros((t_grid.size, part.shape[1]))
            yield from ((part, n * part.shape[1], i) for i in range(t_grid.size))
            n += len(part)

    def draw(job):  # one part's x_t at one time, squared in place
        part, offset, i = job
        sq = noisy(part, t_grid[i], sched, seeds[i], mode, offset=offset)
        return i, np.square(sq, out=sq)

    for i, sq in map_fn(draw, jobs()):
        if len(sq):  # row-by-row sum: the first row carries the sum so far
            sq[0] += acc[i]
            np.add.reduce(sq, axis=0, out=acc[i])
        del sq  # so builtin map holds at most one x_t
    if n < 1000:
        raise ValueError(f"need at least 1000 blocks, got {n}")
    return acc / n


def power_law_fit(powers) -> tuple[float, float]:
    """Fit power ~ K rank^-alpha over ranks >= 1 by least squares in log-log.

    ``powers`` is one row of :func:`apsd`. Returns (K, alpha). All fitted
    powers must be finite and positive, and there must be at least 4 of them.
    """
    powers = np.asarray(powers, dtype=np.float64)[1:]
    if powers.size < 4:
        raise ValueError(f"need at least 4 ranks beyond DC, got {powers.size}")
    _check_finite(powers, "powers contain non-finite values")
    if np.any(powers <= 0):
        raise ValueError("cannot fit a power law through nonpositive powers")
    log_r = np.log(np.arange(1, powers.size + 1, dtype=np.float64))
    slope, intercept = np.polyfit(log_r, np.log(powers), 1)
    return float(np.exp(intercept)), float(-slope)


def snr_threshold_time(
    s0: float,
    gamma: float,
    sched: NoiseSchedule = NoiseSchedule(),
    mode: str = "vp",
) -> float:
    """Time at which a frequency with clean power ``s0`` reaches SNR = gamma.

    mode "ve_const_g": SNR(t) = s0 / t (VE with g = 1), so t = s0 / gamma.
    mode "vp": the kernel sampled by :func:`apsd` gives SNR(t) = s0 snr(t),
    with snr the schedule's SNR scaled by c. The crossing sits at the
    half-log-SNR lambda = 0.5 ln(gamma / s0), and t = t_of_lambda(lambda).
    A time t > 1 means the frequency never reaches the threshold on [0, 1].
    """
    if not (s0 > 0 and gamma > 0):
        raise ValueError("s0 and gamma must be positive")
    if mode not in ("ve_const_g", "vp"):
        raise ValueError(f"mode must be 've_const_g' or 'vp', got {mode!r}")
    with np.errstate(divide="ignore", over="ignore"):  # a ratio past float range: t = 0 or inf
        t = s0 / gamma if mode == "ve_const_g" else t_of_lambda(0.5 * np.log(gamma / s0), sched)
    return float(t)


def save_weights(path, w: EntropyWeights) -> None:
    doc = {
        "block_size": w.block_size,
        "drop": w.drop_count,
        "weights": w.weights.tolist(),
        "clamped_ranks": list(w.clamped_ranks),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_json(path, kind: str, build):
    """build(doc) of the JSON in ``path``. A file that is not UTF-8 JSON, or a missing or
    mistyped field, raises ValueError naming the file; build's own checks keep their messages."""

    def malformed(exc):
        return ValueError(f"malformed {kind} file {path}: {type(exc).__name__}: {exc}")

    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise malformed(exc) from None
    try:
        return build(doc)
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise malformed(exc) from None


def load_weights(path) -> EntropyWeights:
    """Read a weights JSON file; a malformed file or field raises ValueError naming the file."""
    return _load_json(path, "weights", lambda doc: EntropyWeights(
        weights=np.asarray(doc["weights"]),
        block_size=doc["block_size"],
        drop_count=doc["drop"],
        clamped_ranks=tuple(doc.get("clamped_ranks", ())),
    ))
