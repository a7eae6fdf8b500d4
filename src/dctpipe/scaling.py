"""Percentile-based coefficient bounds.

Two estimators over a dataset of zigzag-ordered DCT blocks:

* entropy-consistent: one global bound eta taken from the Y-channel DC
  distribution, eta = max(|P_tau|, |P_{100-tau}|);
* naive: one bound per channel and zigzag rank (3 B^2 bounds total),
  same percentile rule applied per column.

Percentiles use linear interpolation between closest order statistics
(numpy's default). The default tau is 98.25.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .block_dct import _check_finite, kept_ranks
from .diffuse import counter_uniforms
from .freq_stats import _load_json, _sample_matrices

__all__ = [
    "DEFAULT_TAU",
    "ScalingBounds",
    "estimate_ecs_bound",
    "estimate_naive_bounds",
    "reservoir_sample",
    "save_bounds",
    "load_bounds",
]

DEFAULT_TAU = 98.25

# Cap on pooled per-rank samples before the sort; beyond this a
# deterministic reservoir subsample stands in for the full set.
MAX_SAMPLES_PER_RANK = 1 << 22


def _check_tau(tau: float) -> float:
    if not 50.0 < tau < 100.0:
        raise ValueError(f"tau must lie in (50, 100), got {tau}")
    return float(tau)


def _check_limit(limit: int) -> None:
    if isinstance(limit, bool) or not isinstance(limit, (int, np.integer)):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")


def _envelope(samples: np.ndarray, tau: float):
    """max(|P_tau|, |P_{100-tau}|) of all values of ``samples``."""
    up, low = np.percentile(samples, (tau, 100.0 - tau))
    return np.maximum(np.abs(up), np.abs(low))


def estimate_ecs_bound(dc_samples, tau: float = DEFAULT_TAU) -> float:
    """Entropy-consistent bound: percentile envelope of the Y DC coefficients.

    ``dc_samples`` pools D(0, 0) over all Y blocks of all images.
    """
    tau = _check_tau(tau)
    x = np.asarray(dc_samples, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValueError(f"need at least 2 DC samples, got {x.size}")
    _check_finite(x, "DC samples contain non-finite values")
    eta = float(_envelope(x, tau))
    if eta <= 0:
        raise ValueError("DC percentile bound is zero; dataset has no luma spread")
    return eta


def estimate_naive_bounds(channel_samples, tau: float = DEFAULT_TAU) -> np.ndarray:
    """Per-frequency bounds for all three channels.

    ``channel_samples`` is a (y, cb, cr) triple of (n_blocks, B^2) matrices of
    zigzag-ordered coefficients. Returns 3 B^2 bounds ordered Y ranks 0..B^2-1,
    then Cb, then Cr. Every rank must have spread: a zero bound (constant
    column) is an error because it cannot scale anything.
    """
    tau = _check_tau(tau)
    mats = _sample_matrices(channel_samples, 2)
    # np.percentile partitions a copy of its input: one column's, not a channel's
    out = np.array([_envelope(col, tau) for mat in mats for col in mat.T])
    width = mats[0].shape[1]
    if np.any(out <= 0):
        bad = int(np.argmax(out <= 0))
        raise ValueError(f"rank {bad % width} of channel {bad // width} has zero spread")
    return out


def reservoir_sample(samples: np.ndarray, limit: int, seed: int = 0) -> np.ndarray:
    """Deterministically subsample a 1-D vector to at most ``limit`` values.

    Used when a pooled per-rank sample set would not fit in memory. Sample i
    is kept when its counter key ``counter_uniforms(seed, i)`` is among the
    ``limit`` smallest, and kept samples stay in input order; a vector of at
    most ``limit`` samples comes back whole. The keys depend only on
    (len(samples), limit, seed), never on the values, so
    ``reservoir_sample(x, limit, seed)`` equals
    ``x[reservoir_sample(np.arange(x.size), limit, seed)]``: the rows can be
    picked before the samples exist. ``limit`` must be an integer >= 1.
    """
    x = np.asarray(samples)
    if x.ndim != 1:
        raise ValueError(f"samples must be a 1-D vector, got shape {x.shape}")
    _check_limit(limit)
    if x.size <= limit:
        return x
    # Keep the `limit` smallest keys: equivalent to a uniform reservoir.
    keys = counter_uniforms(seed, np.arange(x.size, dtype=np.uint64))
    return x[np.sort(np.argpartition(keys, limit)[:limit])]


@dataclass(frozen=True)
class ScalingBounds:
    """Result of a bound estimation run, as stored in bounds JSON files."""

    mode: str
    tau: float
    block_size: int
    eta: float | None = None
    naive_bounds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("ecs", "naive"):
            raise ValueError(f"mode must be 'ecs' or 'naive', got {self.mode!r}")
        _check_tau(self.tau)
        kept_ranks(self.block_size)
        if self.mode == "ecs":
            if self.eta is None or not 0 < self.eta < np.inf:
                raise ValueError("ecs bounds require a positive finite eta")
        else:
            if self.naive_bounds is None:
                raise ValueError("naive bounds require the bound vector")
            want = 3 * self.block_size**2
            if len(self.naive_bounds) != want:
                raise ValueError(f"expected {want} naive bounds, got {len(self.naive_bounds)}")
            if not all(0 < b < np.inf for b in self.naive_bounds):
                raise ValueError("all naive bounds must be positive and finite")


def save_bounds(path, bounds: ScalingBounds) -> None:
    doc: dict = {"mode": bounds.mode, "tau": bounds.tau, "block_size": bounds.block_size}
    if bounds.mode == "ecs":
        doc["eta"] = bounds.eta
    else:
        doc["naive_bounds"] = list(bounds.naive_bounds)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_bounds(path) -> ScalingBounds:
    """Read a bounds JSON file; a malformed file or field raises ValueError naming the file."""

    def build(doc):
        naive = doc.get("naive_bounds")
        return ScalingBounds(
            mode=doc["mode"],
            tau=doc["tau"],
            block_size=doc["block_size"],
            eta=doc.get("eta"),
            naive_bounds=tuple(naive) if naive is not None else None,
        )

    return _load_json(path, "bounds", build)
