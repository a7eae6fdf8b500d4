"""Binary PNM image files (P6 color / P5 grayscale, maxval 255).

This is the only external image boundary of the package: bit-exact,
dependency-free, and easy to verify. Header parsing follows the PNM
rules (whitespace-separated tokens, ``#`` comment lines, a single
whitespace byte before the binary payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["RgbImage", "GrayImage", "PnmError", "read_image", "write_image"]


class PnmError(ValueError):
    """Malformed or unsupported PNM file."""


@dataclass
class RgbImage:
    """8-bit interleaved RGB raster, shape (height, width, 3).

    Dimensions must be even and >= 2: the 2x chroma subsampling stage
    downstream needs exact 2x2 cells.
    """

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"RGB pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(f"RGB pixels must have shape (h, w, 3), got {self.pixels.shape}")
        h, w = self.pixels.shape[:2]
        if h < 2 or w < 2 or h % 2 or w % 2:
            raise ValueError(f"RGB dimensions must be even and >= 2, got {w}x{h}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class GrayImage:
    """8-bit grayscale raster, shape (height, width)."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8:
            raise ValueError(f"gray pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 2:
            raise ValueError(f"gray pixels must have shape (h, w), got {self.pixels.shape}")
        if self.pixels.shape[0] < 1 or self.pixels.shape[1] < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise PnmError("unexpected end of header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    tok, pos = _next_token(data, pos)
    if not tok.isdigit():
        raise PnmError(f"bad {what} field: {tok!r}")
    return int(tok), pos


def read_image(path) -> RgbImage | GrayImage:
    """Read a binary PNM file (P6 -> RgbImage, P5 -> GrayImage) with an exact-length payload."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"unsupported magic {magic!r} (want P5 or P6)")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (want 255)")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PnmError("missing whitespace before payload")
    pos += 1

    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = data[pos:]
    if len(payload) != need:
        what = "truncated payload" if len(payload) < need else "trailing bytes after payload"
        raise PnmError(f"{what}: need {need} bytes, have {len(payload)}")
    arr = np.frombuffer(payload, dtype=np.uint8)
    if channels == 3:
        if width % 2 or height % 2 or width < 2 or height < 2:
            raise PnmError(f"color dimensions must be even and >= 2, got {width}x{height}")
        return RgbImage(arr.reshape(height, width, 3).copy())
    return GrayImage(arr.reshape(height, width).copy())


def write_image(path, image: RgbImage | GrayImage) -> None:
    """Write ``image`` as a canonical binary PNM file.

    ``read_image(write_image(x)) == x`` holds byte-for-byte.
    """
    if isinstance(image, RgbImage):
        magic = b"P6"
    elif isinstance(image, GrayImage):
        magic = b"P5"
    else:
        raise TypeError(f"expected RgbImage or GrayImage, got {type(image).__name__}")
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    Path(path).write_bytes(header + image.pixels.tobytes())
