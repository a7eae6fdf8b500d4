"""Image <-> token-matrix codec and the DCTK token file format.

Encoding path: level shift each plane by -128, split into BxB blocks,
2D DCT, zigzag, keep the first B^2 - m coefficients, divide by eta.
Each token packs the four Y blocks covering one 2B x 2B luma patch with
the Cb and Cr blocks covering the same patch at half resolution, laid
out as [Y_TL | Y_TR | Y_BL | Y_BR | Cb | Cr]. Decoding inverts every
step; with m = 0 the codec is lossless to floating-point rounding.

``tokenize`` takes plain (B, m, eta) and the image fixes the token grid.
Every token matrix passes ``TokenArray``'s shape and finiteness checks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .block_dct import (
    _check_finite, blockify, dct2, from_zigzag, idct2, kept_ranks, to_zigzag, unblockify,
)
from .colorspace import SubsampledImage

__all__ = [
    "LEVEL_SHIFT",
    "TokenConfig",
    "TokenArray",
    "tokenize",
    "detokenize",
    "dct_coefficient_matrices",
    "plane_to_zigzag",
    "plane_from_zigzag",
    "write_dctk",
    "read_dctk",
]

LEVEL_SHIFT = 128.0

_MAGIC = b"DCTK"
_VERSION = 1
_HEADER = struct.Struct("<IIHHdQ")  # h, w, block_size, drop_count, eta, token_count
_HEADER_INTS = (("height", 32), ("width", 32), ("block_size", 16), ("drop_count", 16))


def _check_patch_tiling(height: int, width: int, b: int) -> None:
    if height % (2 * b) or width % (2 * b):
        raise ValueError(f"image {width}x{height} is not tiled by the {2 * b}x{2 * b} patch")


def _check_eta(eta: float) -> None:
    if not (eta > 0 and np.isfinite(eta)):
        raise ValueError(f"eta must be a positive finite real, got {eta}")


@dataclass(frozen=True)
class TokenConfig:
    """Geometry and scaling of a token array.

    The patch size is 2B, so height and width must be divisible by 2B;
    drop_count may remove everything except the DC coefficient.
    """

    block_size: int
    drop_count: int
    eta: float
    height: int
    width: int

    def __post_init__(self):
        kept_ranks(self.block_size, self.drop_count)
        _check_eta(self.eta)
        _check_patch_tiling(self.height, self.width, self.block_size)

    @property
    def kept(self) -> int:
        """Coefficients kept per block after truncation."""
        return kept_ranks(self.block_size, self.drop_count)

    @property
    def token_width(self) -> int:
        return 6 * self.kept

    @property
    def token_count(self) -> int:
        return (self.height * self.width) // (4 * self.block_size**2)


@dataclass
class TokenArray:
    """N x 6(B^2 - m) matrix of scaled DCT coefficients plus its config."""

    config: TokenConfig
    tokens: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.float64)
        want = (self.config.token_count, self.config.token_width)
        if self.tokens.shape != want:
            raise ValueError(f"token matrix shape {self.tokens.shape} != expected {want}")
        _check_finite(self.tokens, "token matrix contains non-finite values")


def plane_to_zigzag(plane: np.ndarray, b: int) -> np.ndarray:
    """Plane -> (H/B, W/B, B^2) zigzag-ordered DCT coefficients of its level-shifted BxB blocks."""
    return to_zigzag(dct2(blockify(plane - LEVEL_SHIFT, b)))


def tokenize(s: SubsampledImage, block_size: int, drop_count: int, eta: float) -> TokenArray:
    """Encode a subsampled image into a scaled token matrix; the image fixes the token grid."""
    cfg = TokenConfig(block_size, drop_count, eta, s.height, s.width)
    b, k, n = block_size, cfg.kept, cfg.token_count
    # each 2x2 tile of the luma block grid is one token's [TL, TR, BL, BR]
    parts = [blockify(plane_to_zigzag(s.y, b)[..., :k], 2).reshape(n, 4 * k)]
    parts += [plane_to_zigzag(p, b)[..., :k].reshape(n, k) for p in (s.cb, s.cr)]
    with np.errstate(over="ignore"):  # TokenArray rejects a token that overflows
        tokens = np.concatenate(parts, axis=1) / eta
    return TokenArray(cfg, tokens)


def plane_from_zigzag(coeffs: np.ndarray, b: int) -> np.ndarray:
    """Invert :func:`plane_to_zigzag`: (H/B, W/B, k) coefficients -> plane, ranks >= k zero."""
    return unblockify(idct2(from_zigzag(coeffs, b))) + LEVEL_SHIFT


def detokenize(t: TokenArray) -> SubsampledImage:
    """Invert :func:`tokenize`, zero-filling the dropped high-frequency slots."""
    cfg = t.config
    b, k = cfg.block_size, cfg.kept
    nh, nw = cfg.height // (2 * b), cfg.width // (2 * b)
    with np.errstate(over="ignore", invalid="ignore"):  # SubsampledImage rejects a plane that overflows
        segs = (t.tokens * cfg.eta).reshape(nh, nw, 6, k)
        # checked before idct2 turns an inf into NaNs
        _check_finite(segs, f"tokens scaled by eta {cfg.eta} overflow to non-finite coefficients")
        coeffs = (unblockify(segs[:, :, :4].reshape(nh, nw, 2, 2, k)), segs[:, :, 4], segs[:, :, 5])
        return SubsampledImage(*(plane_from_zigzag(c, b) for c in coeffs))


def dct_coefficient_matrices(
    s: SubsampledImage, block_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel sample matrices of zigzag-ordered, unscaled DCT coefficients.

    Returns (y, cb, cr) with shapes (4N, B^2), (N, B^2), (N, B^2); rows are
    blocks, columns are zigzag ranks. This is the raw material for bound
    estimation and entropy statistics.
    """
    ranks = kept_ranks(block_size)
    _check_patch_tiling(s.height, s.width, block_size)
    return tuple(plane_to_zigzag(p, block_size).reshape(-1, ranks) for p in (s.y, s.cb, s.cr))


def write_dctk(path, t: TokenArray) -> None:
    """Write a token array in the DCTK binary format (little-endian, f64 payload)."""
    cfg = t.config
    for name, bits in _HEADER_INTS:
        if not 0 <= getattr(cfg, name) < 1 << bits:
            raise ValueError(f"{name} {getattr(cfg, name)} does not fit the DCTK header's u{bits}")
    header = _HEADER.pack(
        cfg.height, cfg.width, cfg.block_size, cfg.drop_count, cfg.eta, cfg.token_count
    )
    payload = np.ascontiguousarray(t.tokens, dtype="<f8").tobytes()
    Path(path).write_bytes(_MAGIC + struct.pack("<H", _VERSION) + header + payload)


def read_dctk(path) -> TokenArray:
    """Read a DCTK file written by :func:`write_dctk`; exact payload length, finite tokens."""
    data = Path(path).read_bytes()
    if data[:4] != _MAGIC:
        raise ValueError(f"not a DCTK file: bad magic {data[:4]!r}")
    offset = 6 + _HEADER.size
    if len(data) < offset:
        raise ValueError(f"truncated DCTK header: {len(data)} of {offset} bytes")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported DCTK version {version}")
    h, w, b, m, eta, n = _HEADER.unpack_from(data, 6)
    cfg = TokenConfig(block_size=b, drop_count=m, eta=eta, height=h, width=w)
    if n != cfg.token_count:
        raise ValueError(f"header token count {n} != geometry-implied {cfg.token_count}")
    need, have = n * cfg.token_width * 8, len(data) - offset
    if have != need:
        what = "truncated DCTK payload" if have < need else "trailing bytes after DCTK payload"
        raise ValueError(f"{what}: need {need} bytes, have {have}")
    tokens = np.frombuffer(data, dtype="<f8", count=n * cfg.token_width, offset=offset)
    return TokenArray(cfg, tokens.reshape(n, cfg.token_width).astype(np.float64))
