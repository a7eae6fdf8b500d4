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

from .block_dct import _check_finite, _check_int, kept_ranks
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
    the smallest positive weight seen; they are strictly ascending
    positions of ``weights``.
    """

    weights: np.ndarray
    block_size: int
    drop_count: int
    clamped_ranks: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        kept = kept_ranks(self.block_size, self.drop_count)
        object.__setattr__(self, "block_size", int(self.block_size))
        object.__setattr__(self, "drop_count", int(self.drop_count))
        if self.weights.shape != (3 * kept,):
            raise ValueError(f"expected {3 * kept} weights, got shape {self.weights.shape}")
        _check_finite(self.weights, "weights contain non-finite values")
        if not np.all(self.weights > 0):
            raise ValueError("all weights must be strictly positive")
        if abs(self.weights.mean() - 1.0) > 1e-9:
            raise ValueError("weights must be normalized to mean 1")
        ranks = tuple(_check_int(r, "clamped rank") for r in self.clamped_ranks)
        if list(ranks) != sorted(set(ranks)) or not all(0 <= r < 3 * kept for r in ranks):
            raise ValueError(f"clamped ranks must ascend strictly in [0, {3 * kept}), got {ranks}")
        object.__setattr__(self, "clamped_ranks", ranks)


def _check_bins(bins: int) -> None:
    _check_int(bins, "bins")
    if bins < 16:
        raise ValueError(f"need at least 16 histogram bins, got {bins}")


def _hist_entropy(samples: np.ndarray, bins: int) -> float:
    lo, hi = samples.min(), samples.max()
    if hi == lo:
        return np.nan  # a constant rank has no density
    counts, _ = np.histogram(samples, bins=bins, range=(lo, hi))
    p = counts[counts > 0] / samples.size
    return float(-(p * np.log(p)).sum() + np.log((hi - lo) / bins))


def entropy_weights(
    channel_samples,
    block_size: int,
    drop_count: int = 0,
    bins: int = DEFAULT_BINS,
    map_fn=map,
) -> EntropyWeights:
    """Estimate per-frequency entropy weights from coefficient samples.

    ``channel_samples`` is a (y, cb, cr) triple of (n_blocks, kept) matrices
    of finite zigzag-ordered coefficients (n >= 1000 per channel). Each rank's
    differential entropy comes from a ``bins``-bin histogram over its own
    range, one column per ``map_fn(fn, columns)`` call. Normalization to mean
    1 is additive (H - mean(H) + 1): a global rescale of the samples shifts
    every entropy by the same ln k, so the weights are scale invariant.
    """
    _check_bins(bins)
    kept = kept_ranks(block_size, drop_count)
    mats = _sample_matrices(channel_samples, 1000, kept)
    raw = np.array(list(map_fn(lambda x: _hist_entropy(x, bins), [c for m in mats for c in m.T])))
    degenerate = np.isnan(raw)

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
        clamped_ranks=np.flatnonzero(clamp),
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
    ``map_fn(fn, jobs)`` draws x_t per (part, time > 0) job, one x_t per job
    in flight: builtin ``map`` holds one, the CLI's ``--threads N`` map 2N;
    this thread folds t = 0, which draws no noise. A part's noise starts at
    the counter of its first element, and each accumulator adds rows in part
    order, so with two or more ranks the bits equal the mean's over the
    concatenation (one rank: numpy sums pairwise). An overflowed power is an error.
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
            for job in [(part, n * part.shape[1], i) for i in range(t_grid.size)]:
                if t_grid[job[2]] > 0:
                    yield job
                else:  # t = 0 draws no noise: folded here, in no worker's slot
                    fold(*draw(job))
            n += len(part)

    def draw(job):  # one part's x_t at one time, squared in place
        part, offset, i = job
        sq = noisy(part, t_grid[i], sched, seeds[i], mode, offset=offset)
        with np.errstate(over="ignore"):  # an overflowed power is rejected below
            return i, np.square(sq, out=sq)

    def fold(i, sq):  # row-by-row sum: the first row carries the sum so far
        if len(sq):
            with np.errstate(over="ignore"):
                sq[0] += acc[i]
                np.add.reduce(sq, axis=0, out=acc[i])

    for i, sq in map_fn(draw, jobs()):
        fold(i, sq)
        del sq  # so builtin map holds at most one x_t
    if n < 1000:
        raise ValueError(f"need at least 1000 blocks, got {n}")
    _check_finite(acc, "coefficient powers overflow to non-finite values")
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

    SNR(t) = s0 m(t)^2 / s(t)^2 under the ``mode`` kernel of :func:`diffuse.perturb_params`,
    the one :func:`apsd` samples: s0 snr(t) for "vp", with snr the schedule's SNR scaled by c,
    and s0 / y'(t) for "ve". The crossing is t = t_of_lambda(lambda), at the half-log-SNR
    lambda = 0.5 (ln gamma - ln s0) for "vp" and -0.5 ln(e^r - 1) = -0.5 (r + ln(1 - e^{-r}))
    for "ve", r = s0 / gamma. A time t > 1 means the frequency never reaches gamma on [0, 1].
    """
    if not (s0 > 0 and gamma > 0):
        raise ValueError("s0 and gamma must be positive")
    if mode not in ("vp", "ve"):
        raise ValueError(f"mode must be 'vp' or 've', got {mode!r}")
    with np.errstate(divide="ignore", over="ignore"):  # r past float range: t = 0 or inf
        r = s0 / gamma
        lam = (-0.5 * (r + np.log(-np.expm1(-r))) if mode == "ve"
               else 0.5 * (np.log(gamma) - np.log(s0)))
        return float(t_of_lambda(lam, sched))


def save_weights(path, w: EntropyWeights) -> None:
    doc = {
        "block_size": w.block_size,
        "drop": w.drop_count,
        "weights": w.weights.tolist(),
        "clamped_ranks": list(w.clamped_ranks),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _load_json(path, kind: str, build):
    """build(doc) of the JSON in ``path``. Not UTF-8 JSON, or a missing or mistyped field,
    raises ``malformed {kind} file: …``; build's own checks keep theirs. None names the file."""

    def malformed(exc):
        return ValueError(f"malformed {kind} file: {type(exc).__name__}: {exc}")

    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise malformed(exc) from None
    try:
        return build(doc)
    except (AttributeError, KeyError, OverflowError, TypeError) as exc:
        raise malformed(exc) from None


def load_weights(path) -> EntropyWeights:
    """Read a weights JSON file; a malformed file or field raises ValueError (see _load_json)."""

    def build(doc):
        bad = [w for w in doc["weights"] if type(w) not in (int, float)]  # true is no JSON number
        if bad:
            raise TypeError(f"weights must be numbers, got {bad[0]!r}")
        if extra := doc.keys() - {"block_size", "drop", "weights", "clamped_ranks"}:
            raise TypeError(f"unexpected weights key {min(extra)!r}")
        return EntropyWeights(
            weights=doc["weights"],
            block_size=doc["block_size"],
            drop_count=doc["drop"],
            clamped_ranks=doc.get("clamped_ranks", ()),
        )

    return _load_json(path, "weights", build)
