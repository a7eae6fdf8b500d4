"""RGB <-> YCbCr conversion and 2x chroma subsampling.

Uses the ITU-R BT.601 full-range matrix (the JPEG convention):

    Y  =  0.299 R + 0.587 G + 0.114 B
    Cb = -0.168736 R - 0.331264 G + 0.5 B + 128
    Cr =  0.5 R - 0.418688 G - 0.081312 B + 128

All arithmetic is double precision; quantization happens only when
converting back to 8-bit RGB. Pixels are converted planar: the forward
direction is one (3, 3) @ (3, h w) GEMM returning C-contiguous planes, the
inverse one such GEMM per strip of whole rows (about 2^14 pixels) into one
8-bit image. Downsampling is 2x2 mean pooling and upsampling is
nearest-neighbor replication, so down(up(s)) == s exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_dct import _check_finite, avg_pool
from .image_io import RgbImage

__all__ = [
    "RGB_TO_YCBCR",
    "YCBCR_OFFSET",
    "SubsampledImage",
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "subsample_rgb",
    "assemble_rgb",
]

RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
YCBCR_OFFSET = np.array([0.0, 128.0, 128.0])
_YCBCR_TO_RGB = np.linalg.inv(RGB_TO_YCBCR)
_STRIP_PIXELS = 1 << 14  # pixels per strip of the row-strip loops here and in upsample


@dataclass
class SubsampledImage:
    """Full-resolution luma plane plus half-resolution chroma planes."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.cb = np.asarray(self.cb, dtype=np.float64)
        self.cr = np.asarray(self.cr, dtype=np.float64)
        if self.cb.shape != self.cr.shape:
            raise ValueError(f"Cb/Cr shapes differ: {self.cb.shape} vs {self.cr.shape}")
        if self.y.shape != (2 * self.cb.shape[0], 2 * self.cb.shape[1]):
            raise ValueError(
                f"Y must be exactly 2x the chroma size, got {self.y.shape} vs {self.cb.shape}"
            )
        for name, plane in (("Y", self.y), ("Cb", self.cb), ("Cr", self.cr)):
            _check_finite(plane, f"{name} plane contains non-finite values")

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def width(self) -> int:
        return self.y.shape[1]


def rgb_to_ycbcr(img) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convert an RgbImage (or raw (h, w, 3) array) to full-resolution Y, Cb, Cr planes.

    Purely affine: no clamping, no rounding. One (3, 3) @ (3, h w) GEMM
    yields the three planes as C-contiguous rows of one (3, h, w) array.
    """
    pixels = img.pixels if isinstance(img, RgbImage) else np.asarray(img)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) pixels, got shape {pixels.shape}")
    planes = RGB_TO_YCBCR @ np.asarray(pixels.reshape(-1, 3).T, np.float64, order="C")
    planes += YCBCR_OFFSET[:, None]
    return tuple(planes.reshape(3, *pixels.shape[:2]))


def _planes_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray, cell: int) -> RgbImage:
    """Y plus Cb/Cr at 1/``cell`` of its size -> RGB, one GEMM per row strip in reused buffers."""
    h, w = y.shape
    img = RgbImage(np.empty((h, w, 3), np.uint8))
    rows = max(cell, _STRIP_PIXELS // w // cell * cell)
    buf = np.empty((2, 3 * min(rows, h) * w))
    for top in range(0, h, rows):
        n = min(rows, h - top)
        planes, rgb = buf[:, : 3 * n * w].reshape(2, 3, n, w)
        planes[0] = y[top : top + n]
        for dst, src, off in zip(planes[1:], (cb, cr), YCBCR_OFFSET[1:]):
            src = src[top // cell : (top + n) // cell, None, :, None]
            np.subtract(src, off, out=dst.reshape(n // cell, cell, w // cell, cell))
        np.matmul(_YCBCR_TO_RGB, planes.reshape(3, n * w), out=rgb.reshape(3, n * w))
        np.rint(rgb, out=rgb)
        np.clip(rgb, 0, 255, out=rgb)
        img.pixels[top : top + n] = rgb.transpose(1, 2, 0)
    return img


def ycbcr_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> RgbImage:
    """Invert :func:`rgb_to_ycbcr`; clamp to [0, 255] and round only here."""
    y, cb, cr = (np.asarray(p, dtype=np.float64) for p in (y, cb, cr))
    if not (y.shape == cb.shape == cr.shape):
        raise ValueError(f"plane shapes differ: {y.shape}, {cb.shape}, {cr.shape}")
    return _planes_to_rgb(y, cb, cr, 1)


def subsample_rgb(img) -> SubsampledImage:
    """RGB image -> subsampled YCbCr representation (encode-side pipeline)."""
    y, cb, cr = rgb_to_ycbcr(img)
    return SubsampledImage(y, avg_pool(cb, 2), avg_pool(cr, 2))


def assemble_rgb(s: SubsampledImage) -> RgbImage:
    """Subsampled YCbCr representation -> 8-bit RGB image (decode-side pipeline)."""
    return _planes_to_rgb(s.y, s.cb, s.cr, 2)
