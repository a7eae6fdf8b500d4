"""Seeded synthetic data with a known DCT spectrum, shared by tests and scripts.

Each builder draws from ``rng`` in a fixed order, so a seed pins the output
bytes. The package ``__init__`` does not import this module, so the CLI
does not pay for importing it.
"""

from __future__ import annotations

import numpy as np

from .colorspace import SubsampledImage, assemble_rgb, subsample_rgb
from .fd_metric import reconstruct_rgb
from .image_io import RgbImage
from .tokenizer import plane_from_zigzag

__all__ = ["smooth_cosine_plane", "power_law_coefficients", "band_limited_image"]


def smooth_cosine_plane(rng: np.random.Generator, size: int, max_freq: int = 8) -> np.ndarray:
    """Bandlimited ``size`` x ``size`` 2D cosine mixture mapped into the 8-bit range."""
    coords = (np.arange(size) + 0.5) / size
    plane = np.zeros((size, size))
    for p in range(max_freq + 1):
        for q in range(max_freq + 1):
            amp = rng.normal() / (1.0 + p + q)
            plane += amp * np.outer(np.cos(np.pi * p * coords), np.cos(np.pi * q * coords))
    span = np.abs(plane).max() or 1.0
    return 128.0 + 90.0 * plane / span


def power_law_coefficients(
    rng: np.random.Generator, n: int, b: int, k: float = 3.0, alpha: float = 2.0
) -> np.ndarray:
    """(n, B^2) zigzag-ordered DCT coefficients of BxB blocks with E[D_r^2] = K r^-alpha.

    Rank 0 gets power 4K, keeping the spectrum monotone. Each row is one
    block's coefficients, drawn as zigzag-rank-scaled normals.
    """
    ranks = np.arange(1, b * b, dtype=float)
    power = np.concatenate(([4.0 * k], k * ranks**-alpha))
    return rng.normal(size=(n, b * b)) * np.sqrt(power)


def band_limited_image(rng: np.random.Generator, size: int, b: int, zero_top: int) -> RgbImage:
    """``size`` x ``size`` RGB image whose per-block zigzag ranks >= B^2 - zero_top are near zero.

    Coefficients are drawn with decaying scale, the top ``zero_top`` zigzag
    slots are forced to zero, and the planes are inverse-transformed around
    a mid-gray level. The final uint8 rounding re-injects a trace of energy
    into the zeroed slots. One lossless codec round trip damps that rounding
    jitter, so m-scan curves reflect truncation loss more than double
    rounding; it is not a fixed point (at 64x64, B=4 it changes about 3.9%
    of pixels, and a second round trip still changes about 0.6%).
    """
    n_ranks = b * b
    live = n_ranks - zero_top
    scale = np.zeros(n_ranks)
    scale[:live] = 18.0 / (1.0 + np.arange(live)) ** 0.8
    scale[0] = 40.0

    def plane(p):
        return plane_from_zigzag(rng.normal(size=(p // b, p // b, n_ranks)) * scale, b)

    img = assemble_rgb(SubsampledImage(plane(size), plane(size // 2), plane(size // 2)))
    return reconstruct_rgb(subsample_rgb(img), b, 0)
