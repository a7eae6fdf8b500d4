"""Fuzzing of the artifact parsers: any byte string either parses into a
valid object or is rejected with ValueError (PnmError is a ValueError)."""

import json
import math
import struct
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctpipe.freq_stats import EntropyWeights, load_weights
from dctpipe.cli import _read_rgb, _y_blocks
from dctpipe.colorspace import subsample_rgb
from dctpipe.image_io import GrayImage, PnmError, RgbImage, read_image, read_shape, write_image
from dctpipe.scaling import ScalingBounds, load_bounds
from dctpipe.tokenizer import TokenArray, dct_coefficient_matrices, read_dctk

_DCTK_PREFIX = b"DCTK" + struct.pack("<H", 1)


@pytest.fixture(scope="module")
def scratch_file():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / "fuzz.bin"


def _parse(read, path, data):
    path.write_bytes(data)
    try:
        return read(path)
    except ValueError:
        return None


@st.composite
def dctk_like(draw):
    """A mostly consistent DCTK header and a payload of any length, zero or non-finite."""
    b, m = draw(st.integers(0, 3)), draw(st.integers(0, 9))
    gh, gw = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    skew, extra = draw(st.sampled_from([0, 0, 0, 1])), draw(st.sampled_from([0, 0, 0, 1]))
    eta = draw(st.one_of(st.just(2.5), st.floats()))
    n = gh * gw + extra
    head = _DCTK_PREFIX + struct.pack("<IIHHdQ", gh * 2 * b + skew, gw * 2 * b, b, m, eta, n)
    size = max(n * 6 * max(b * b - m, 0) * 8 + draw(st.sampled_from([0, 0, 0, -8, -1, 1, 8])), 0)
    fill = draw(st.sampled_from([0.0, 0.0, 0.0, math.nan, math.inf, -math.inf]))
    return head + np.full(size // 8, fill, dtype="<f8").tobytes() + bytes(size % 8)


@given(st.one_of(st.binary(max_size=80), st.binary(max_size=80).map(_DCTK_PREFIX.__add__), dctk_like()))
@example(_DCTK_PREFIX + struct.pack("<IIHHdQ", 2, 2, 1, 0, 2.5, 1) + np.full(6, np.nan).tobytes())
@example(_DCTK_PREFIX + struct.pack("<IIHHdQ", 0, 0, 1, 0, 2.5, 0))
@example(_DCTK_PREFIX + struct.pack("<IIHHdQ", 0, 4, 2, 0, 2.5, 0))
@settings(max_examples=300, deadline=None)
def test_read_dctk_returns_valid_tokens_or_value_error(scratch_file, data):
    t = _parse(read_dctk, scratch_file, data)
    if t is not None:
        assert isinstance(t, TokenArray)
        cfg = t.config
        assert t.tokens.shape == (cfg.token_count, cfg.token_width)
        assert cfg.token_count >= 1
        ints = (cfg.block_size, cfg.drop_count, cfg.height, cfg.width)
        assert all(type(v) is int for v in ints)  # not a bool
        assert len(data) == 34 + t.tokens.size * 8
        assert np.isfinite(t.tokens).all()


@st.composite
def pnm_like(draw):
    """A PNM header with small dimensions, an occasional bad field, and a payload of any length."""
    magic = draw(st.sampled_from([b"P5", b"P6", b"P4"]))
    w, h = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    fields = [magic, str(w).encode(), str(h).encode(), b"255"]
    if draw(st.integers(0, 3)) == 0:
        fields[draw(st.integers(1, 3))] = draw(st.sampled_from([b"x", b"-2", b"256", b"1"]))
    sep = draw(st.sampled_from([b"\n", b" ", b"\n# note\n"]))
    size = w * h * (3 if magic == b"P6" else 1) + draw(st.sampled_from([0, 0, -1, 1]))
    payload = draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    return sep.join(fields) + draw(st.sampled_from([b"\n", b"\n", b""])) + payload


@given(st.one_of(st.binary(max_size=80), pnm_like()))
@settings(max_examples=300, deadline=None)
def test_read_image_returns_valid_image_or_value_error(scratch_file, data):
    img = _parse(read_image, scratch_file, data)
    if img is not None:
        assert isinstance(img, (RgbImage, GrayImage))
        assert img.pixels.dtype == np.uint8
        assert img.pixels.shape[:2] == (img.height, img.width)


def _outcome(read, path):
    """What ``read`` gives for ``path``: ("ok", value) or ("error", its message)."""
    try:
        return "ok", read(path)
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def commented_pnm(draw):
    """A PNM file whose header has comments of any length (past 4 KiB too), anywhere."""
    head = draw(pnm_like())
    cut = draw(st.integers(0, min(len(head), 24)))
    body = draw(st.sampled_from([b"", b"x", b"#", b" P6 2 2 255"]))
    comment = b"#" + body * draw(st.sampled_from([0, 1, 4500, 9000])) + draw(
        st.sampled_from([b"\n", b"\r", b""])
    )
    return head[:cut] + draw(st.sampled_from([b"", b"\n", b" "])) + comment + head[cut:]


@given(st.one_of(st.binary(max_size=80), pnm_like(), commented_pnm()))
@example(b"P6\n#" + b"c" * 5000 + b"\n2 2\n255\n" + bytes(12))
@example(b"P5 1 1 255\n#" + b"c" * 5000)
@settings(max_examples=300, deadline=None)
def test_header_pass_and_read_image_accept_and_reject_the_same_files(scratch_file, data):
    scratch_file.write_bytes(data)
    shape, image = _outcome(read_shape, scratch_file), _outcome(read_image, scratch_file)
    if image[0] == "ok":
        pixels = image[1].pixels
        assert shape == ("ok", (*pixels.shape[:2], pixels.shape[2] if pixels.ndim == 3 else 1))
    else:
        assert shape == image


@given(st.one_of(pnm_like(), commented_pnm()), st.sampled_from([1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_cli_size_pass_checks_what_reading_and_transforming_checks(scratch_file, data, b):
    # the corpus commands size their matrices from _y_blocks, then read every image
    scratch_file.write_bytes(data)
    blocks = _outcome(lambda p: _y_blocks(p, b), scratch_file)
    coeffs = _outcome(lambda p: dct_coefficient_matrices(subsample_rgb(_read_rgb(p)), b), scratch_file)
    if coeffs[0] == "ok":
        assert blocks == ("ok", len(coeffs[1][0]))
    else:
        assert blocks == coeffs


@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.binary(min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_read_image_rejects_trailing_bytes(scratch_file, h, w, color, suffix):
    pixels = np.zeros((2 * h, 2 * w, 3) if color else (h, w), np.uint8)
    write_image(scratch_file, RgbImage(pixels) if color else GrayImage(pixels))
    scratch_file.write_bytes(scratch_file.read_bytes() + suffix)
    with pytest.raises(PnmError, match="trailing bytes after payload"):
        read_image(scratch_file)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 70), st.floats(), st.text(max_size=3),
    st.sampled_from(["ecs", "naive"]),
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.dictionaries(st.text(max_size=3), inner)),
    max_leaves=12,
)


def _json_doc(keys):
    """Dicts over the loader's own keys (each possibly missing) with arbitrary JSON values."""
    fields = st.fixed_dictionaries({}, optional={k: _JSON for k in keys})
    return st.one_of(_JSON, fields).map(lambda doc: json.dumps(doc).encode())


# a file the JSON artifact loaders cannot parse, with the error type its message names
UNPARSABLE = [
    (b"{'mode': 'ecs'}", "JSONDecodeError"),
    (b"", "JSONDecodeError"),
    (b'{"tau": 98.25} trailing', "JSONDecodeError"),
    (b"\xff\xfe{}", "UnicodeDecodeError"),
    (b"1" * 5000, "ValueError"),  # past Python's digit limit for int parsing
]


@pytest.mark.parametrize("load, kind", [(load_bounds, "bounds"), (load_weights, "weights")])
@pytest.mark.parametrize("data, error", UNPARSABLE)
def test_unparsable_artifact_is_a_malformed_file_error_without_its_path(
    tmp_path, load, kind, data, error
):
    # the CLI puts the file name in front (tests/test_cli.py::test_every_input_file_is_named)
    path = tmp_path / f"{kind}.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"malformed {kind} file: {error}: "), info.value
    assert str(path) not in str(info.value)


def _doc(**fields):
    return json.dumps(fields).encode()


@given(st.one_of(st.binary(max_size=40),
                 _json_doc(["mode", "tau", "block_size", "eta", "naive_bounds", "extra"])))
@example(_doc(mode="ecs", tau=98.25, block_size=True, eta=1.0))
@example(_doc(mode="ecs", tau=98.25, block_size=1, eta=1.0, extra=[1]))
@example(_doc(mode="ecs", tau=98.25, block_size=1, eta=1.0, naive_bounds="junk"))
@example(_doc(mode="naive", tau=98.25, block_size=1, naive_bounds=[1.0] * 3, eta="abc"))
@example(_doc(mode="ecs", tau=98.25, block_size=4.0, eta=1.0))
@example(_doc(mode="ecs", tau=98.25, block_size=4, eta=True))
@example(_doc(mode="naive", tau=98.25, block_size=1, naive_bounds=[True, 1.0, 1.0]))
@settings(max_examples=300, deadline=None)
def test_load_bounds_returns_bounds_or_value_error(scratch_file, data):
    bounds = _parse(load_bounds, scratch_file, data)
    if bounds is not None:
        assert isinstance(bounds, ScalingBounds)
        assert type(bounds.block_size) is int  # not a bool or a whole float
        assert type(bounds.tau) is float  # not a bool or an int
        reals = [bounds.eta] if bounds.mode == "ecs" else bounds.naive_bounds
        assert all(type(r) is float and 0 < r < math.inf for r in reals)
        # the file held exactly the mode's keys: the fields that are not None
        assert json.loads(data).keys() == {k for k, v in asdict(bounds).items() if v is not None}


@given(st.one_of(st.binary(max_size=40),
                 _json_doc(["weights", "block_size", "drop", "clamped_ranks", "extra"])))
@example(_doc(weights=[1.0] * 3, block_size=True, drop=0))
@example(_doc(weights=[1.0] * 9, block_size=2, drop=True))
@example(_doc(weights=[1.0] * 3, block_size=1, drop=0, clamped_ranks=[99, "x"]))
@example(_doc(weights=[True, 1.5, 0.5], block_size=1, drop=0))
@example(_doc(weights=["x", 1, 1], block_size=1, drop=0))
@example(_doc(weights=[None, 1, 1], block_size=1, drop=0))
@example(_doc(weights=[1.0] * 3, block_size=1, drop=0, extra=[1]))
@example(_doc(weights=[1.0] * 3, block_size=1, drop_count=0))
@settings(max_examples=300, deadline=None)
def test_load_weights_returns_weights_or_value_error(scratch_file, data):
    w = _parse(load_weights, scratch_file, data)
    if w is not None:
        assert isinstance(w, EntropyWeights)
        # every weight was a JSON number: true, a string or null is not one
        assert all(type(v) in (int, float) for v in json.loads(data)["weights"])
        assert json.loads(data).keys() <= {"weights", "block_size", "drop", "clamped_ranks"}
        assert type(w.block_size) is int and type(w.drop_count) is int
        ranks = w.clamped_ranks
        assert all(type(r) is int for r in ranks)
        assert list(ranks) == sorted(set(ranks)) and all(0 <= r < w.weights.size for r in ranks)
