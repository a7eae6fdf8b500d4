"""Orthonormal 2D type-II DCT on square blocks, zigzag order, and block grids.

The transform matrix T has rows T[u, x] = alpha(u) * cos((2x+1)u*pi / 2B)
with alpha(0) = sqrt(1/B) and alpha(u>0) = sqrt(2/B), so the 2D transform
is the separable product T A T^T and its inverse is T^T D T. Both accept
stacks of blocks (shape (..., B, B)) and lay the stack out as planes of
tile rows, so each runs as one GEMM per tile row and one (N*B, B) @ (B, B)
GEMM rather than two GEMMs per block.

The block-grid geometry of the package lives here once. :func:`kept_ranks`
checks a block size B and drop count m, each through the package's one
integer rule :func:`_check_int` (its real rule is :func:`_check_real`); :func:`blockify`
views an (H, W, ...) grid as (H/bh, W/bw, bh, bw, ...) tiles (DCT blocks,
the 2x2 luma blocks of a token) and :func:`unblockify` undoes it;
:func:`avg_pool` takes the mean of each tile (2x2 chroma subsampling, the
low-resolution side of DCT upsampling, the 8x8 luma feature grid);
:func:`to_zigzag` gathers (..., B, B) blocks into zigzag rank
order and :func:`from_zigzag` scatters truncated rank vectors back,
zero-filling the dropped ranks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "kept_ranks", "dct2", "idct2", "zigzag_order", "to_zigzag", "from_zigzag",
    "blockify", "unblockify", "avg_pool",
]


def kept_ranks(block_size: int, drop_count: int = 0) -> int:
    """B^2 - m zigzag ranks kept per block; ValueError unless B >= 1 and 0 <= m <= B^2 - 1."""
    block_size = _check_int(block_size, "block size", 1)
    top = block_size**2 - 1
    drop_count = _check_int(drop_count, "drop count")
    if not 0 <= drop_count <= top:
        raise ValueError(f"drop count must be in [0, {top}] for B={block_size}, got {drop_count}")
    return top + 1 - drop_count


def _check_int(value, name: str, low: int | None = None) -> int:
    """The package's one integer rule: ``value`` as a Python int.

    ValueError unless ``value`` is an int or numpy integer (a bool is not)
    and, with ``low``, at least ``low``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_real(value, message: str, low: float = 0.0, high: float = math.inf) -> float:
    """The package's one real-number rule: ``value`` as a Python float, unless it is a bool or
    fails low < value < high (as NaN does): then ValueError(message.format(value)), formatted only
    then. A value that does not compare with a float (a string, None) raises TypeError."""
    if isinstance(value, (bool, np.bool_)) or not low < value < high:
        raise ValueError(message.format(value))
    return float(value)


def _check_finite(values: np.ndarray, message: str) -> None:
    """The package's one finiteness rule: ValueError(message) unless every entry is finite."""
    # min and max carry any NaN through and expose an infinity, without a mask array
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise ValueError(message)


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


@lru_cache(maxsize=None)
def _factors(block_size: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """C-ordered (left, right) of the separable product: (T, T^T), or (T^T, T) to invert.

    A transposed view would send the right-hand GEMM through a slower kernel.
    """
    t = _basis(block_size)
    tt = np.ascontiguousarray(t.T)
    tt.setflags(write=False)
    return (tt, t) if inverse else (t, tt)


def _check_square(block: np.ndarray) -> int:
    block = np.asarray(block)
    if block.ndim < 2 or block.shape[-1] != block.shape[-2]:
        raise ValueError(f"expected square block(s), got shape {block.shape}")
    return block.shape[-1]


def _separable(x: np.ndarray, inverse: bool) -> np.ndarray:
    """(left @ X) @ right for every (B, B) block X of a (..., B, B) stack.

    Swapping the tile-column axis next to the row axis lays each (gw, B, B)
    row of tiles out as one (B, gw*B) plane; for a :func:`blockify` view of
    a C-ordered plane that is the plane itself, with no copy. The left
    product is then one GEMM per tile row and the right product one
    (N*B, B) @ (B, B) GEMM. Each coefficient is the same length-B dot
    product, with the same factors in the same order, as in the per-block
    product; its bits match wherever BLAS sums a dot product in one order at
    every matrix size (numpy's OpenBLAS does for B <= 16). The result is a
    view in the plane layout, so :func:`unblockify` of it needs no copy.
    """
    x = np.asarray(x, dtype=np.float64)
    b = _check_square(x)
    left, right = _factors(b, inverse)
    lead = x.shape[:-2]
    n, gw = math.prod(lead[:-1]), math.prod(lead[-1:])
    planes = x.reshape(n, gw, b, b).swapaxes(1, 2).reshape(n, b, gw * b)
    out = (left @ planes).reshape(n * b * gw, b) @ right
    return out.reshape(n, b, gw, b).swapaxes(1, 2).reshape(x.shape)


def dct2(block: np.ndarray) -> np.ndarray:
    """Forward 2D DCT-II of one block or a stack of blocks.

    The caller is responsible for level shifting (zero-centering) the input.
    """
    return _separable(block, inverse=False)


def idct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`dct2` (exact up to floating-point rounding)."""
    return _separable(coeffs, inverse=True)


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
    """Gather (..., B, B) blocks into (..., B^2) coefficients in zigzag rank order.

    Indexing rows and columns gathers straight from a strided stack, such as
    the plane-layout views that :func:`dct2` returns, without a copy first.
    """
    blocks = np.asarray(blocks)
    b = _check_square(blocks)
    rows, cols = np.divmod(zigzag_order(b), b)
    return blocks[..., rows, cols]


def from_zigzag(coeffs: np.ndarray, block_size: int) -> np.ndarray:
    """Scatter (..., k) zigzag-ordered coefficients into (..., B, B) blocks.

    Ranks k..B^2-1 (the truncated high frequencies) are zero-filled. The
    blocks are a view of planes of tile rows, the layout :func:`idct2`
    works in, so it reads them without a copy.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    b, lead, k = block_size, coeffs.shape[:-1], coeffs.shape[-1]
    n, gw = math.prod(lead[:-1]), math.prod(lead[-1:])
    rows, cols = np.divmod(zigzag_order(b)[:k], b)
    blocks = np.zeros((n, b, gw, b)).swapaxes(1, 2)
    blocks[..., rows, cols] = coeffs.reshape(n, gw, k)
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
    """Mean of each (bh, bw) tile of an (H, W, ...) grid: (H/bh, W/bw, ...).

    The mean is taken over a C-ordered float64 copy, so its bits depend on
    the grid's values only, not on its memory layout.
    """
    grid = np.asarray(grid, dtype=np.float64, order="C")
    tiles = blockify(grid, bh, bw)
    gw, bh, bw = tiles.shape[1:4]
    # numpy's mean over a C-ordered 2-D grid two or more tiles wide adds each
    # tile row left to right, adds the row sums onto 0 top to bottom, then
    # divides. It sums rows of 8 or more pairwise, runs a one-tile-wide grid
    # as one sequence and walks trailing axes innermost, so those shapes keep
    # numpy's own mean; the strided adds below repeat its order for the rest.
    if grid.ndim != 2 or gw < 2 or bw >= 8:
        return tiles.mean(axis=(2, 3))
    total = np.zeros(tiles.shape[:2])
    for r in range(bh):
        row = tiles[:, :, r, 0].copy()
        for c in range(1, bw):
            row += tiles[:, :, r, c]
        total += row
    total /= bh * bw
    return total


def unblockify(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`blockify`: (gh, gw, bh, bw, ...) tiles -> (gh*bh, gw*bw, ...) grid."""
    gh, gw, bh, bw = blocks.shape[:4]
    return blocks.swapaxes(1, 2).reshape(gh * bh, gw * bw, *blocks.shape[4:])
