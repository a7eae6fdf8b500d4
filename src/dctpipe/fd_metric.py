"""Frechet distance between feature distributions and the m* compression scan.

The distance is the Gaussian Wasserstein-2 form
|mu1 - mu2|^2 + tr(S1 + S2 - 2 (S1 S2)^{1/2}) over a pluggable feature
space; two dependency-free extractors are built in (8x8 mean-pooled luma,
and per-image mean/std of each DCT coefficient per channel). They and the
codec round trip read a SubsampledImage, so the scan converts each image
to YCbCr once, takes it through the codec at every drop count m of its
grid and returns the largest m whose distance stays under a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_dct import _check_finite, _check_int, avg_pool, kept_ranks
from .colorspace import SubsampledImage, assemble_rgb, subsample_rgb
from .tokenizer import dct_coefficient_matrices, detokenize, tokenize

__all__ = [
    "GaussianStats",
    "gaussian_stats",
    "frechet_distance",
    "extract_pixel_features",
    "extract_dct_stat_features",
    "make_feature_extractor",
    "reconstruct_rgb",
    "MStarResult",
    "scan_mstar",
    "compression_ratio",
]

FEATURE_MODES = ("pixels8", "dctstats")

_RIDGE = 1e-6
_EIG_DUST = 1e-8


@dataclass
class GaussianStats:
    """Sample mean and (ridge-regularized) covariance of a feature set."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mean.shape[0]
        if self.mean.ndim != 1 or self.cov.shape != (d, d):
            raise ValueError(f"inconsistent stat shapes {self.mean.shape} / {self.cov.shape}")
        _check_finite(self.mean, "mean entries contain non-finite values")
        _check_finite(self.cov, "covariance entries contain non-finite values")
        if not np.allclose(self.cov, self.cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def gaussian_stats(features: np.ndarray) -> GaussianStats:
    """Mean and unbiased covariance of an (n, d) feature matrix, plus _RIDGE * I."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be (n, d), got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    _check_finite(x, "features contain non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed covariance is rejected below
        mean = x.mean(axis=0)
        centered = x - mean
        cov = centered.T @ centered / (n - 1)
        cov = 0.5 * (cov + cov.T) + _RIDGE * np.eye(d)
    _check_finite(cov, "covariance of the features overflows to non-finite values")
    return GaussianStats(mean, cov)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = _clamp_dust(vals)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _clamp_dust(vals: np.ndarray) -> np.ndarray:
    # Negative dust from eigh rounding is zeroed; the tolerance scales with
    # the spectrum so large-magnitude feature spaces do not trip it.
    tol = _EIG_DUST * max(1.0, float(np.abs(vals).max()))
    if np.any(vals < -tol):
        raise ValueError(f"matrix is not PSD: eigenvalue {vals.min():.3e}")
    return np.where(vals < 0, 0.0, vals)


def frechet_distance(s1: GaussianStats, s2: GaussianStats) -> float:
    """Gaussian Frechet (Wasserstein-2 squared) distance between two stats.

    The cross term tr((S1^{1/2} S2 S1^{1/2})^{1/2}) is evaluated as the
    nuclear norm of root2 @ root1: the singular values of that product are
    exactly the square roots of the eigenvalues of S1^{1/2} S2 S1^{1/2},
    and the SVD keeps ridge-level eigenvalues from drowning in rounding
    noise when the covariances are nearly singular. Rounding can still take
    the sum of a distance near 0 below it, so the result is clipped at 0.
    """
    if s1.dim != s2.dim:
        raise ValueError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    cross = np.linalg.svd(_psd_sqrt(s2.cov) @ _psd_sqrt(s1.cov), compute_uv=False).sum()
    diff = s1.mean - s2.mean
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed sum is rejected below
        dist = diff @ diff + np.trace(s1.cov) + np.trace(s2.cov) - 2.0 * cross
    _check_finite(dist, "Frechet distance overflows to a non-finite value")
    return max(0.0, float(dist))


def extract_pixel_features(s: SubsampledImage) -> np.ndarray:
    """Luma mean-pooled to 8 x 8, flattened to 64 values ("pixels8")."""
    h, w = s.y.shape
    if h % 8 or w % 8:
        raise ValueError(f"plane {w}x{h} is not divisible by the 8x8 feature grid")
    return avg_pool(s.y, h // 8, w // 8).ravel()


def extract_dct_stat_features(s: SubsampledImage, block_size: int) -> np.ndarray:
    """Per-channel mean and std of each DCT coefficient rank ("dctstats", 6 B^2 values)."""
    feats = []
    for mat in dct_coefficient_matrices(s, block_size):
        # np.mean's and np.std's own steps (so their bits), with the mean taken once
        mean = np.add.reduce(mat, axis=0) / len(mat)
        dev = mat - mean
        np.multiply(dev, dev, out=dev)
        feats += [mean, np.sqrt(np.add.reduce(dev, axis=0) / len(mat))]
    return np.concatenate(feats)


def make_feature_extractor(mode: str, block_size: int | None = None):
    """Feature function SubsampledImage -> 1-D vector for a mode of FEATURE_MODES."""
    if mode == "pixels8":
        return extract_pixel_features
    if mode == "dctstats":
        if block_size is None:
            raise ValueError("dctstats features need a block size")
        kept_ranks(block_size)
        return lambda s: extract_dct_stat_features(s, block_size)
    raise ValueError(f"unknown feature mode {mode!r} (want one of {FEATURE_MODES})")


def reconstruct_rgb(s: SubsampledImage, block_size: int, drop_count: int):
    """Round-trip an image's planes through the full codec at a drop count, back to 8-bit RGB."""
    return assemble_rgb(detokenize(tokenize(s, block_size, drop_count, 1.0)))


@dataclass
class MStarResult:
    """Outcome of a scan: chosen m*, the full (m, distance) curve, saturation."""

    m_star: int
    curve: tuple[tuple[int, float], ...]
    saturated: bool


def _check_gamma(gamma: float) -> None:
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")


def _check_grid(m_grid, block_size: int):
    """The drop-count grid of a scan, checked: nonempty, strictly ascending, in [0, B^2 - 1].

    A ``range`` is checked by its ends and returned as is, never
    materialised, however large B is; any other iterable comes back a list.
    """
    lazy = isinstance(m_grid, range)
    grid = m_grid if lazy else [_check_int(m, "drop count") for m in m_grid]
    ascending = (grid.step > 0 or not grid[1:]) if lazy else grid == sorted(set(grid))
    if not grid or not ascending:
        raise ValueError("m_grid must be a nonempty, strictly ascending list of drop counts")
    kept_ranks(block_size, grid[0])
    kept_ranks(block_size, grid[-1])
    return grid


def _check_image_count(n: int) -> None:
    if n < 500:
        raise ValueError(f"scan needs at least 500 images, got {n}")


def scan_mstar(
    images, block_size: int, gamma: float, m_grid, features: str = "pixels8", map_fn=map
) -> MStarResult:
    """Find the largest drop count in ``m_grid`` whose distance stays under ``gamma``.

    ``m_grid`` is checked by :func:`_check_grid`. ``map_fn`` (``map`` or an
    order-preserving parallel map) is called once, taking each image to a
    (1 + |grid|, d) block: its ``features``, then its reconstructions' per m.
    """
    _check_gamma(gamma)
    grid = _check_grid(m_grid, block_size)
    extract = make_feature_extractor(features, block_size)

    def feature_block(img):
        s = subsample_rgb(img)
        recon = (extract(subsample_rgb(reconstruct_rgb(s, block_size, m))) for m in grid)
        return np.stack([extract(s), *recon])

    blocks = list(map_fn(feature_block, images))
    _check_image_count(len(blocks))
    ref, *recon = (gaussian_stats(np.stack(rows)) for rows in zip(*blocks))
    curve = [(m, frechet_distance(ref, stats)) for m, stats in zip(grid, recon)]

    passing = [m for m, d in curve if d < gamma]
    if passing:
        return MStarResult(max(passing), tuple(curve), saturated=False)
    return MStarResult(0, tuple(curve), saturated=True)


def compression_ratio(block_size: int, drop_count: int) -> float:
    """Signal-count ratio of raw RGB (3 h w) to the token representation.

    Chroma subsampling contributes the factor 2 and truncation the factor
    B^2 / (B^2 - m), giving 2 B^2 / (B^2 - m).
    """
    return 2.0 * block_size**2 / kept_ranks(block_size, drop_count)
