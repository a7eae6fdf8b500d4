"""Seeded synthetic corpora, written as binary PNM files.

Only numpy is used here, never dctpipe: the corpus must stay the same
bytes when the package under test changes, and the oracles in
``workloads.py`` rely on these images being built independently of it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# BT.601 full-range RGB -> YCbCr, the JPEG convention the package documents.
RGB_TO_YCBCR = np.array(
    [[0.299, 0.587, 0.114], [-0.168736, -0.331264, 0.5], [0.5, -0.418688, -0.081312]]
)
YCBCR_OFFSET = np.array([0.0, 128.0, 128.0])


def write_ppm(path: Path, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    path.write_bytes(b"P6\n%d %d\n255\n" % (w, h) + np.ascontiguousarray(pixels).tobytes())


def read_ppm(path: Path) -> np.ndarray:
    """Read a canonical P6 file as written by ``write_ppm`` or the package."""
    data = Path(path).read_bytes()
    magic, w, h, maxval = data.split(maxsplit=4)[:4]
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not a canonical P6 file")
    w, h = int(w), int(h)
    return np.frombuffer(data[len(data) - 3 * w * h :], dtype=np.uint8).reshape(h, w, 3)


def dct_basis(b: int) -> np.ndarray:
    x = np.arange(b)
    t = np.cos((2 * x + 1) * np.arange(b)[:, None] * np.pi / (2 * b)) * np.sqrt(2.0 / b)
    t[0] = np.sqrt(1.0 / b)
    return t


def zigzag(b: int) -> np.ndarray:
    """Zigzag rank -> row-major index (JPEG order: right first)."""
    key = sorted(
        ((r + c, r if (r + c) % 2 else c, r * b + c) for r in range(b) for c in range(b))
    )
    return np.array([k[2] for k in key])


def _to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    """Full-resolution YCbCr planes -> clipped, rounded uint8 RGB."""
    ycc = np.stack([y, cb, cr], axis=-1) - YCBCR_OFFSET
    rgb = ycc @ np.linalg.inv(RGB_TO_YCBCR).T
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def _cosine_mixture(rng: np.random.Generator, size: int, max_freq: int) -> np.ndarray:
    """Band-limited 2D cosine mixture with 1/(1+p+q) amplitude decay, in [-1, 1]."""
    u = (np.arange(size) + 0.5) / size
    basis = np.cos(np.pi * np.arange(max_freq + 1)[:, None] * u)  # (freq, size)
    f = np.arange(max_freq + 1)
    amp = rng.normal(size=(max_freq + 1, max_freq + 1)) / (1.0 + f[:, None] + f)
    plane = basis.T @ amp @ basis
    return plane / (np.abs(plane).max() or 1.0)


def smooth_image(rng: np.random.Generator, size: int, noise: float) -> np.ndarray:
    """RGB cosine mixture (shared luma plus weaker per-channel tint) plus Gaussian noise."""
    luma = 128.0 + 80.0 * _cosine_mixture(rng, size, 8)
    rgb = luma[..., None] + 24.0 * np.stack(
        [_cosine_mixture(rng, size, 4) for _ in range(3)], axis=-1
    )
    rgb += rng.normal(scale=noise, size=rgb.shape)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8)


def band_limited_image(rng: np.random.Generator, size: int, b: int, zero_top: int) -> np.ndarray:
    """RGB image whose top ``zero_top`` zigzag slots are zero in every BxB block.

    Y is drawn at full size and Cb/Cr at half size with decaying per-rank
    scales, then assembled to RGB with nearest-neighbour chroma. One
    round trip through the m=0 codec path (convert, 2x2 chroma mean,
    replicate, round) settles most of the uint8 rounding, so the m-scan
    sees truncation loss rather than double-rounding jitter.
    """
    n_ranks = b * b
    live = n_ranks - zero_top
    scale = np.zeros(n_ranks)
    scale[:live] = 18.0 / (1.0 + np.arange(live)) ** 0.8
    scale[0] = 40.0
    t = dct_basis(b)
    order = zigzag(b)

    def plane(p: int) -> np.ndarray:
        g = p // b
        blocks = np.zeros((g, g, n_ranks))
        blocks[..., order] = rng.normal(size=(g, g, n_ranks)) * scale
        spatial = t.T @ blocks.reshape(g, g, b, b) @ t
        return 128.0 + spatial.swapaxes(1, 2).reshape(p, p)

    def up(c: np.ndarray) -> np.ndarray:
        return np.repeat(np.repeat(c, 2, axis=0), 2, axis=1)

    def pool(c: np.ndarray) -> np.ndarray:
        return c.reshape(size // 2, 2, size // 2, 2).mean(axis=(1, 3))

    rgb = _to_rgb(plane(size), up(plane(size // 2)), up(plane(size // 2)))
    ycc = rgb.astype(np.float64) @ RGB_TO_YCBCR.T + YCBCR_OFFSET
    return _to_rgb(ycc[..., 0], up(pool(ycc[..., 1])), up(pool(ycc[..., 2])))


def write_corpus(directory: Path, images) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, pixels in enumerate(images):
        path = directory / f"img_{i:04d}.ppm"
        write_ppm(path, pixels)
        paths.append(path)
    return paths
