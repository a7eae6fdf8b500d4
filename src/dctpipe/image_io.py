"""Binary PNM image files (P6 color / P5 grayscale, maxval 255).

This is the only external image boundary of the package: bit-exact,
dependency-free, and easy to verify. Header parsing follows the PNM
rules (whitespace-separated tokens, ``#`` comment lines, a single
whitespace byte before the binary payload).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["RgbImage", "GrayImage", "PnmError", "read_image", "read_shape", "write_image"]


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


def _next_token(f) -> tuple[bytes, bytes]:
    """The next header token of binary file f and the byte read after it (b"" at the end)."""
    c = f.read(1)
    while c == b"#" or c.isspace():
        if c == b"#":  # a comment runs to the end of its line, however long
            while c not in (b"\n", b"\r", b""):
                c = f.read(1)
        c = f.read(1)
    if not c:
        raise PnmError("unexpected end of header")
    tok = bytearray()
    while c and not c.isspace():
        tok += c
        c = f.read(1)
    return bytes(tok), c


def _header_int(f, what: str) -> tuple[int, bytes]:
    tok, after = _next_token(f)
    if not tok.isdigit():
        raise PnmError(f"bad {what} field: {tok!r}")
    return int(tok), after


def _read_header(f) -> tuple[int, int, int]:
    """Parse and check the header of binary PNM file f, leaving f at the payload.

    Returns (height, width, channels). The payload length is checked
    against the file's size, so no payload byte is read and a header that
    lies about its size never sizes an allocation.
    """
    magic, _ = _next_token(f)
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"unsupported magic {magic!r} (want P5 or P6)")
    width, _ = _header_int(f, "width")
    height, _ = _header_int(f, "height")
    maxval, after = _header_int(f, "maxval")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (want 255)")
    if not after:  # a token ends at one whitespace byte, or at the end of the file
        raise PnmError("missing whitespace before payload")

    channels = 3 if magic == b"P6" else 1
    need, have = width * height * channels, os.fstat(f.fileno()).st_size - f.tell()
    if have != need:
        what = "truncated payload" if have < need else "trailing bytes after payload"
        raise PnmError(f"{what}: need {need} bytes, have {have}")
    if channels == 3 and (width % 2 or height % 2 or width < 2 or height < 2):
        raise PnmError(f"color dimensions must be even and >= 2, got {width}x{height}")
    if width < 1 or height < 1:
        raise PnmError("image must be at least 1x1")
    return height, width, channels


def read_shape(path) -> tuple[int, int, int]:
    """(height, width, channels) of a PNM file, checked as :func:`read_image` checks it.

    Reads only the header and the file's size, not the pixels.
    """
    with open(path, "rb") as f:
        return _read_header(f)


def read_image(path) -> RgbImage | GrayImage:
    """Read a binary PNM file (P6 -> RgbImage, P5 -> GrayImage) with an exact-length payload."""
    with open(path, "rb") as f:
        height, width, channels = _read_header(f)
        pixels = np.empty((height, width, 3) if channels == 3 else (height, width), np.uint8)
        if f.readinto(pixels) != pixels.size:
            raise PnmError("truncated payload: the file shrank while it was read")
    return RgbImage(pixels) if channels == 3 else GrayImage(pixels)


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
