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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .block_dct import _check_finite, _check_int, _check_real
from .diffuse import counter_uniforms
from .freq_stats import _CHANNELS, _load_json, _sample_matrices

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
    return _check_real(tau, "tau must lie in (50, 100), got {}", 50.0, 100.0)


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


def estimate_naive_bounds(channel_samples, tau: float = DEFAULT_TAU, map_fn=map) -> np.ndarray:
    """Per-frequency bounds for all three channels.

    ``channel_samples`` is a (y, cb, cr) triple of (n_blocks, B^2) matrices of
    zigzag-ordered coefficients. Returns 3 B^2 bounds ordered Y ranks 0..B^2-1,
    then Cb, then Cr. Every rank must have spread: a zero bound (constant
    column) is an error because it cannot scale anything. Each column's
    percentiles are one ``map_fn(fn, columns)`` call.
    """
    tau = _check_tau(tau)
    mats = _sample_matrices(channel_samples, 2)
    # np.percentile partitions a copy of its input: one column's per call, not a channel's
    out = np.array(list(map_fn(lambda x: _envelope(x, tau), [c for m in mats for c in m.T])))
    width = mats[0].shape[1]
    if np.any(out <= 0):
        bad = int(np.argmax(out <= 0))
        raise ValueError(f"rank {bad % width} of channel {_CHANNELS[bad // width]} has zero spread")
    return out


def reservoir_sample(samples: np.ndarray, limit: int, seed: int = 0) -> np.ndarray:
    """Deterministically subsample a 1-D vector to at most ``limit`` values.

    Used when a pooled per-rank sample set would not fit in memory. Sample i
    is kept when its key, uniform i of ``counter_uniforms(seed, n)``, is among the
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
    _check_int(limit, "limit", 1)
    if x.size <= limit:
        return x
    # Keep the `limit` smallest keys: equivalent to a uniform reservoir.
    keys = counter_uniforms(seed, x.size)
    return x[np.sort(np.argpartition(keys, limit)[:limit])]


@dataclass(frozen=True)
class ScalingBounds:
    """Result of a bound estimation run. A bounds JSON file holds exactly its fields
    that are not None: mode, tau, block_size and the mode's eta or naive_bounds."""

    mode: str
    tau: float
    block_size: int
    eta: float | None = None
    naive_bounds: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.mode not in ("ecs", "naive"):
            raise ValueError(f"mode must be 'ecs' or 'naive', got {self.mode!r}")
        object.__setattr__(self, "tau", _check_tau(self.tau))
        object.__setattr__(self, "block_size", _check_int(self.block_size, "block size", 1))
        if self.mode == "ecs":
            if self.eta is None:
                raise ValueError("ecs bounds require a positive finite eta")
            eta = _check_real(self.eta, "ecs bounds require a positive finite eta")
            object.__setattr__(self, "eta", eta)
            if self.naive_bounds is not None:
                raise ValueError("ecs bounds take no naive bound vector")
        else:
            if self.naive_bounds is None:
                raise ValueError("naive bounds require the bound vector")
            want, bounds = 3 * self.block_size**2, self.naive_bounds
            if len(bounds) != want:
                raise ValueError(f"expected {want} naive bounds, got {len(bounds)}")
            message = "all naive bounds must be positive and finite"
            object.__setattr__(self, "naive_bounds", tuple(_check_real(b, message) for b in bounds))
            if self.eta is not None:
                raise ValueError("naive bounds take no eta")


def save_bounds(path, bounds: ScalingBounds) -> None:
    doc = {k: v for k, v in asdict(bounds).items() if v is not None}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_bounds(path) -> ScalingBounds:
    """Read a bounds JSON file; a malformed file or field raises ValueError (see _load_json)."""
    return _load_json(path, "bounds", lambda doc: ScalingBounds(**doc))
