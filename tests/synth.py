"""Test-only synthetic images; the shared builders live in ``dctpipe.synth``."""

from __future__ import annotations

import numpy as np

from dctpipe.image_io import RgbImage


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
