"""Orthonormal 2D type-II DCT on square blocks, zigzag order, and block grids.

The transform matrix T has rows T[u, x] = alpha(u) * cos((2x+1)u*pi / 2B)
with alpha(0) = sqrt(1/B) and alpha(u>0) = sqrt(2/B), so the 2D transform
is the separable product T A T^T and its inverse is T^T D T. Both accept
stacks of blocks (shape (..., B, B)) and run as batched matmuls.

The block-grid geometry of the package lives here once. :func:`kept_ranks`
checks a block size B and drop count m; :func:`blockify`
views an (H, W, ...) grid as (H/bh, W/bw, bh, bw, ...) tiles (DCT blocks,
the 2x2 luma blocks of a token) and :func:`unblockify` undoes it;
:func:`avg_pool` takes the mean of each tile (2x2 chroma subsampling, the
low-resolution side of DCT upsampling, the 8x8 luma feature grid);
:func:`to_zigzag` gathers (..., B, B) blocks into zigzag rank
order and :func:`from_zigzag` scatters truncated rank vectors back,
zero-filling the dropped ranks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "kept_ranks", "dct2", "idct2", "zigzag_order", "to_zigzag", "from_zigzag",
    "blockify", "unblockify", "avg_pool",
]


def kept_ranks(block_size: int, drop_count: int = 0) -> int:
    """B^2 - m zigzag ranks kept per block; ValueError unless B >= 1 and 0 <= m <= B^2 - 1."""
    if block_size < 1:
        raise ValueError(f"block size must be >= 1, got {block_size}")
    top = block_size**2 - 1
    if not 0 <= drop_count <= top:
        raise ValueError(f"drop count must be in [0, {top}] for B={block_size}, got {drop_count}")
    return top + 1 - drop_count


@lru_cache(maxsize=None)
def _basis(block_size: int) -> np.ndarray:
    kept_ranks(block_size)
    b = block_size
    x = np.arange(b)
    u = np.arange(b)[:, None]
    t = np.cos((2 * x + 1) * u * np.pi / (2 * b))
    t *= np.sqrt(2.0 / b)
    t[0, :] = np.sqrt(1.0 / b)
    t.setflags(write=False)
    return t


def _check_square(block: np.ndarray) -> int:
    block = np.asarray(block)
    if block.ndim < 2 or block.shape[-1] != block.shape[-2]:
        raise ValueError(f"expected square block(s), got shape {block.shape}")
    return block.shape[-1]


def dct2(block: np.ndarray) -> np.ndarray:
    """Forward 2D DCT-II of one block or a stack of blocks.

    The caller is responsible for level shifting (zero-centering) the input.
    """
    block = np.asarray(block, dtype=np.float64)
    t = _basis(_check_square(block))
    return t @ block @ t.T


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (exact up to floating-point rounding)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    t = _basis(_check_square(coeffs))
    return t.T @ coeffs @ t


@lru_cache(maxsize=None)
def zigzag_order(block_size: int) -> np.ndarray:
    """Zigzag permutation: rank -> flattened (row-major) coefficient index.

    JPEG convention: start at (0,0), first move right, then alternate
    up-right / down-left along anti-diagonals.
    """
    kept_ranks(block_size)
    b = block_size
    order = []
    for d in range(2 * b - 1):
        lo, hi = max(0, d - b + 1), min(d, b - 1)
        rows = range(lo, hi + 1) if d % 2 == 1 else range(hi, lo - 1, -1)
        order.extend(r * b + (d - r) for r in rows)
    perm = np.array(order, dtype=np.intp)
    perm.setflags(write=False)
    return perm


def to_zigzag(blocks: np.ndarray) -> np.ndarray:
    """Gather (..., B, B) blocks into (..., B^2) coefficients in zigzag rank order."""
    blocks = np.asarray(blocks)
    b = _check_square(blocks)
    return blocks.reshape(*blocks.shape[:-2], b * b)[..., zigzag_order(b)]


def from_zigzag(coeffs: np.ndarray, block_size: int) -> np.ndarray:
    """Scatter (..., k) zigzag-ordered coefficients into (..., B, B) blocks.

    Ranks k..B^2-1 (the truncated high frequencies) are zero-filled.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    b, lead, k = block_size, coeffs.shape[:-1], coeffs.shape[-1]
    blocks = np.zeros((*lead, b * b))
    blocks[..., zigzag_order(b)[:k]] = coeffs
    return blocks.reshape(*lead, b, b)


def blockify(grid: np.ndarray, bh: int, bw: int | None = None) -> np.ndarray:
    """View an (H, W, ...) grid as (H/bh, W/bw, bh, bw, ...) tiles.

    Tile (i, j) covers rows i*bh..(i+1)*bh and columns j*bw..(j+1)*bw;
    trailing axes ride along. ``bw`` defaults to ``bh``.
    """
    grid = np.asarray(grid)
    bw = bh if bw is None else bw
    h, w = grid.shape[:2]
    if bh < 1 or bw < 1 or h % bh or w % bw:
        raise ValueError(f"grid {w}x{h} is not tiled by {bw}x{bh} blocks")
    return grid.reshape(h // bh, bh, w // bw, bw, *grid.shape[2:]).swapaxes(1, 2)


def avg_pool(grid: np.ndarray, bh: int, bw: int | None = None) -> np.ndarray:
    """Mean of each (bh, bw) tile of an (H, W, ...) grid: (H/bh, W/bw, ...)."""
    return blockify(grid, bh, bw).mean(axis=(2, 3))


def unblockify(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`blockify`: (gh, gw, bh, bw, ...) tiles -> (gh*bh, gw*bw, ...) grid."""
    gh, gw, bh, bw = blocks.shape[:4]
    return blocks.swapaxes(1, 2).reshape(gh * bh, gw * bw, *blocks.shape[4:])
