"""2x image upsampling in the DCT domain, with a bilinear baseline.

If a low-resolution image is the 2x2 average pooling of a high-resolution
one, each BxB DCT block D_bar of the low-res image approximates the
low-frequency corner of the corresponding 2Bx2B block D via

    D_bar(k, l) ~= 0.5 cos(k pi / 4B) cos(l pi / 4B) D(k, l),  k, l < B.

Upsampling inverts this: scale D_bar by 2 / (cos cos), zero-fill the three
high-frequency quadrants, and inverse-DCT at size 2B. The relation is
exact for the DC term and for blocks whose mirror frequencies (2B - k)
carry no energy, which is why it reproduces smooth content so well.
"""

from __future__ import annotations

import numpy as np

from .block_dct import blockify, dct2, idct2, kept_ranks, unblockify
from .colorspace import _STRIP_PIXELS, rgb_to_ycbcr, ycbcr_to_rgb
from .image_io import GrayImage, RgbImage

__all__ = ["dct_upsample", "bilinear_upsample", "upsample_image", "psnr"]

METHODS = ("dct", "bilinear")


def dct_upsample(low: np.ndarray, block_size: int) -> np.ndarray:
    """Double a plane's resolution through the block-DCT relation above.

    The 2B-size inverse DCT runs on strips of tile rows, padded into one
    reused buffer whose high quadrants stay zero, into one preallocated plane.
    """
    b = block_size
    coeffs = dct2(blockify(np.asarray(low, dtype=np.float64), b))

    k = np.cos(np.arange(b) * np.pi / (4 * b))
    scale = 2.0 / np.outer(k, k)
    gh, gw = coeffs.shape[:2]
    rows = max(1, _STRIP_PIXELS // (4 * b * b * max(gw, 1)))  # 4 b^2 gw pixels per tile row
    out = np.empty((2 * b * gh, 2 * b * gw))
    big = np.zeros((min(rows, gh), 2 * b, gw, 2 * b)).swapaxes(1, 2)  # the plane layout idct2 reads
    for top in range(0, gh, rows):
        n = min(rows, gh - top)
        np.multiply(coeffs[top : top + n], scale, out=big[:n, :, :b, :b])
        out[2 * b * top : 2 * b * (top + n)] = unblockify(idct2(big[:n]))
    return out


def bilinear_upsample(low: np.ndarray) -> np.ndarray:
    """Standard 2x bilinear interpolation with half-pixel alignment."""
    low = np.asarray(low, dtype=np.float64)
    h, w = low.shape

    def axis_weights(n):
        src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        i0 = np.clip(np.floor(src).astype(int), 0, n - 1)
        i1 = np.clip(i0 + 1, 0, n - 1)
        frac = np.clip(src - i0, 0.0, 1.0)
        return i0, i1, frac

    r0, r1, fr = axis_weights(h)
    c0, c1, fc = axis_weights(w)
    top = low[r0][:, c0] * (1 - fc) + low[r0][:, c1] * fc
    bot = low[r1][:, c0] * (1 - fc) + low[r1][:, c1] * fc
    return top * (1 - fr)[:, None] + bot * fr[:, None]


def upsample_image(img: GrayImage | RgbImage, method: str, block_size: int = 4):
    """2x upsample an image by a method of METHODS; ``block_size`` is the low-res DCT block.

    A color image is upsampled per YCbCr plane, then converted back to RGB.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    kept_ranks(block_size)
    up = bilinear_upsample if method == "bilinear" else lambda p: dct_upsample(p, block_size)
    if isinstance(img, RgbImage):
        return ycbcr_to_rgb(*(up(p) for p in rgb_to_ycbcr(img)))
    plane = up(img.pixels)  # a fresh array, rounded and clipped in place
    return GrayImage(np.clip(np.rint(plane, out=plane), 0, 255, out=plane).astype(np.uint8))


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against the 8-bit peak 255 (inf for identical inputs)."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {test.shape}")
    mse = np.mean((reference - test) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(255.0 * 255.0 / mse))
