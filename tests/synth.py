"""Synthetic dataset builders shared by the tests."""

from __future__ import annotations

import numpy as np

from dctpipe.block_dct import from_zigzag, idct2, unblockify
from dctpipe.colorspace import SubsampledImage, assemble_rgb
from dctpipe.image_io import RgbImage
from dctpipe.upsample import bilinear_upsample


def random_rgb_image(rng: np.random.Generator, h: int = 64, w: int = 64) -> RgbImage:
    return RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))


def cell_chroma_image(rng: np.random.Generator, h: int = 64, w: int = 64) -> RgbImage:
    """Random image whose chromaticity is exactly uniform on each 2x2 cell.

    Built as a per-cell random base color plus a per-pixel equal-RGB (gray)
    offset: equal offsets shift only luma because the Cb/Cr matrix rows sum
    to zero. On this family the 2x chroma subsampling round trip is exact,
    so the whole codec is lossless up to final 8-bit rounding.
    """
    base = rng.integers(40, 216, (h // 2, w // 2, 3))
    base = np.repeat(np.repeat(base, 2, axis=0), 2, axis=1)
    offset = rng.integers(-40, 41, (h, w, 1))
    return RgbImage(np.clip(base + offset, 0, 255).astype(np.uint8))


def smooth_plane(rng: np.random.Generator, h: int, w: int, coarse: int = 4) -> np.ndarray:
    """Slowly varying plane: a random coarse grid blown up bilinearly."""
    plane = rng.uniform(30.0, 226.0, (coarse, coarse))
    while plane.shape[0] < h or plane.shape[1] < w:
        plane = bilinear_upsample(plane)
    return plane[:h, :w]


def smooth_cosine_plane(rng: np.random.Generator, h: int, w: int, max_freq: int = 8) -> np.ndarray:
    """Bandlimited 2D cosine mixture mapped into the 8-bit range."""
    ys = (np.arange(h) + 0.5) / h
    xs = (np.arange(w) + 0.5) / w
    plane = np.zeros((h, w))
    for p in range(max_freq + 1):
        for q in range(max_freq + 1):
            amp = rng.normal() / (1.0 + p + q)
            plane += amp * np.outer(np.cos(np.pi * p * ys), np.cos(np.pi * q * xs))
    span = np.abs(plane).max() or 1.0
    return 128.0 + 90.0 * plane / span


def power_law_dct_blocks(
    rng: np.random.Generator, n: int, b: int, k: float = 3.0, alpha: float = 2.0,
    dc_power: float | None = None,
) -> np.ndarray:
    """Spatial blocks whose DCT coefficients follow E[D_r^2] = K r^-alpha.

    Rank 0 gets ``dc_power`` (default 4K, keeping the spectrum monotone).
    Built by drawing zigzag-rank-scaled normals and inverse transforming,
    so the forward DCT inside the code under test recovers the spectrum.
    """
    ranks = np.arange(1, b * b, dtype=float)
    power = np.concatenate(([4.0 * k if dc_power is None else dc_power], k * ranks**-alpha))
    coeffs = rng.normal(size=(n, b * b)) * np.sqrt(power)
    return idct2(from_zigzag(coeffs, b))


def band_limited_image(
    rng: np.random.Generator, h: int, w: int, b: int, zero_top: int, stabilize: bool = True
) -> RgbImage:
    """RGB image whose per-block zigzag ranks >= B^2 - zero_top are (near) zero.

    Coefficients are drawn with decaying scale, the top ``zero_top`` zigzag
    slots are forced to zero, and the planes are inverse-transformed around
    a mid-gray level. Only the final uint8 rounding re-injects a trace of
    energy into the zeroed slots; ``stabilize`` runs one lossless codec
    round trip so that rounding reaches a fixed point and m-scan curves
    reflect truncation loss rather than double-rounding jitter.
    """
    n_ranks = b * b
    live = n_ranks - zero_top
    scale = np.zeros(n_ranks)
    scale[:live] = 18.0 / (1.0 + np.arange(live)) ** 0.8
    scale[0] = 40.0

    def plane(ph, pw):
        coeffs = rng.normal(size=(ph // b, pw // b, n_ranks)) * scale
        return 128.0 + unblockify(idct2(from_zigzag(coeffs, b)))

    s = SubsampledImage(plane(h, w), plane(h // 2, w // 2), plane(h // 2, w // 2))
    img = assemble_rgb(s)
    if stabilize:
        from dctpipe.fd_metric import reconstruct_rgb

        img = reconstruct_rgb(img, b, 0)
    return img
