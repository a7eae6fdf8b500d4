import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctpipe.block_dct import avg_pool
from dctpipe.colorspace import (
    SubsampledImage,
    assemble_rgb,
    rgb_to_ycbcr,
    subsample_rgb,
    ycbcr_to_rgb,
)
from dctpipe.image_io import RgbImage

from oracles import (
    interleaved_rgb_to_ycbcr,
    interleaved_ycbcr_to_rgb,
    pool2_loops,
    repeat_assemble_rgb,
    whole_planes_to_rgb,
)
from synth import cell_chroma_image


def _triple(r, g, b):
    return np.array([[[r, g, b]]], dtype=float)


def test_white_and_black():
    y, cb, cr = rgb_to_ycbcr(_triple(255, 255, 255))
    assert (y[0, 0], cb[0, 0], cr[0, 0]) == pytest.approx((255.0, 128.0, 128.0), abs=1e-12)
    y, cb, cr = rgb_to_ycbcr(_triple(0, 0, 0))
    assert (y[0, 0], cb[0, 0], cr[0, 0]) == pytest.approx((0.0, 128.0, 128.0), abs=1e-12)


def test_pure_red():
    y, cb, cr = rgb_to_ycbcr(_triple(255, 0, 0))
    assert y[0, 0] == pytest.approx(76.245, abs=1e-9)
    assert cb[0, 0] == pytest.approx(84.97232, abs=1e-9)
    assert cr[0, 0] == pytest.approx(255.5, abs=1e-9)


def test_neutral_gray_and_clamping():
    neutral = np.full((2, 2), 128.0)
    img = ycbcr_to_rgb(neutral, neutral, neutral)
    assert set(img.pixels.ravel().tolist()) == {128}
    img = ycbcr_to_rgb(np.full((2, 2), 300.0), neutral, neutral)
    assert set(img.pixels.ravel().tolist()) == {255}


def test_exhaustive_lattice_roundtrip():
    vals = np.array(list(range(0, 256, 16)) + [255], dtype=np.uint8)
    assert vals.size == 17
    r, g, b = np.meshgrid(vals, vals, vals, indexing="ij")
    pixels = np.stack([r, g, b], axis=-1).reshape(17 * 17, 17, 3)
    # duplicate last row/column: even dims for the RgbImage invariant
    pixels = np.concatenate([pixels, pixels[-1:, :, :]], axis=0)
    pixels = np.concatenate([pixels, pixels[:, -1:, :]], axis=1)
    img = RgbImage(np.ascontiguousarray(pixels))
    back = ycbcr_to_rgb(*rgb_to_ycbcr(img))
    assert np.array_equal(back.pixels, img.pixels)


@given(
    st.tuples(*[st.floats(min_value=0, max_value=255) for _ in range(6)]),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_affine_mixing(values, alpha):
    p = _triple(*values[:3])
    q = _triple(*values[3:])
    mixed = np.stack(rgb_to_ycbcr(alpha * p + (1 - alpha) * q), axis=-1)
    parts = alpha * np.stack(rgb_to_ycbcr(p), axis=-1) + (1 - alpha) * np.stack(
        rgb_to_ycbcr(q), axis=-1
    )
    assert np.abs(mixed - parts).max() < 1e-12


@given(
    st.integers(1, 24).map(lambda n: 2 * n),
    st.integers(1, 24).map(lambda n: 2 * n),
    st.integers(0, 2**32 - 1),
)
@example(2, 2, 0)
@example(24, 40, 1)
@example(40, 6, 2)
@settings(max_examples=60, deadline=None)
def test_planar_conversion_matches_interleaved_oracle_bit_for_bit(h, w, seed):
    rng = np.random.default_rng(seed)
    img = RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
    planes = rgb_to_ycbcr(img)
    for got, want in zip(planes, interleaved_rgb_to_ycbcr(img.pixels), strict=True):
        assert got.shape == (h, w) and got.flags.c_contiguous
        assert np.array_equal(got, want)
    # inverse inputs reach past [0, 255] so the clamp is exercised on both sides
    y, cb, cr = rng.uniform(-60, 320, (3, h, w))
    assert np.array_equal(ycbcr_to_rgb(y, cb, cr).pixels, interleaved_ycbcr_to_rgb(y, cb, cr))
    assert np.array_equal(ycbcr_to_rgb(*planes).pixels, interleaved_ycbcr_to_rgb(*planes))
    s = SubsampledImage(y, cb[: h // 2, : w // 2], cr[: h // 2, : w // 2])
    got = assemble_rgb(s).pixels
    assert got.flags.c_contiguous
    assert np.array_equal(got, repeat_assemble_rgb(s.y, s.cb, s.cr))
    s = subsample_rgb(img)
    assert np.array_equal(assemble_rgb(s).pixels, repeat_assemble_rgb(s.y, s.cb, s.cr))


@given(
    st.sampled_from([1, 2]),
    st.integers(1, 300).map(lambda n: 2 * n),
    st.integers(1, 8200).map(lambda n: 2 * n),
    st.integers(0, 2**32 - 1),
)
@example(1, 8, 8, 0)  # one strip
@example(2, 64, 64, 1)  # one strip, the 64x64 decode
@example(1, 256, 128, 2)  # two full strips of 128 rows
@example(2, 400, 100, 3)  # strips of 162 rows: two full ones and a short last one
@example(1, 6, 16386, 4)  # wider than 2^14 pixels: every strip is a single row
@example(2, 6, 16386, 5)  # ... or a single 2-row chroma cell
@example(1, 2, 16384, 6)  # exactly 2^14 pixels a row: two single-row strips
@settings(max_examples=40, deadline=None)
def test_strip_conversion_is_bitwise_the_whole_image_form(cell, h, w, seed):
    h = min(h, max(2, 2**17 // w // 2 * 2))  # at most about 2^17 pixels
    rng = np.random.default_rng(seed)
    # inputs reach past [0, 255] so the clamp is exercised on both sides
    y, cb, cr = rng.uniform(-60, 320, (3, h, w))
    cb, cr = cb[: h // cell, : w // cell], cr[: h // cell, : w // cell]
    want = whole_planes_to_rgb(y, cb, cr, cell)
    got = ycbcr_to_rgb(y, cb, cr) if cell == 1 else assemble_rgb(SubsampledImage(y, cb, cr))
    assert got.pixels.flags.c_contiguous
    assert np.array_equal(got.pixels, want)


def test_inverse_conversion_memory_is_its_output_plus_strip_scratch(rng, traced_peak):
    y, cb, cr = rng.uniform(0, 255, (3, 512, 512))
    peak = traced_peak(lambda: ycbcr_to_rgb(y, cb, cr))
    assert peak <= 512 * 512 * 3 + 3 * 2**19  # uint8 output plus 1.5 MiB (12.75 MiB whole)


def _replicate(plane):
    # independent nearest-neighbour 2x upsampling: one 2x2 cell per sample
    return np.kron(plane, np.ones((2, 2)))


def test_downsample_constant_and_block_mean():
    assert avg_pool(np.array([[100.0, 104.0], [96.0, 100.0]]), 2)[0, 0] == pytest.approx(100.0)
    assert avg_pool(np.full((2, 2), 7.0), 2)[0, 0] == pytest.approx(7.0)
    img = RgbImage(np.array([[[255, 0, 0], [0, 255, 0]], [[0, 0, 255], [9, 9, 9]]], np.uint8))
    y, cb, cr = rgb_to_ycbcr(img)
    s = subsample_rgb(img)
    assert s.cb.shape == s.cr.shape == (1, 1)
    assert s.cb[0, 0] == pytest.approx(cb.mean(), abs=1e-12)
    assert s.cr[0, 0] == pytest.approx(cr.mean(), abs=1e-12)
    assert np.array_equal(s.y, y)


def test_downsample_matches_bruteforce(rng):
    img = RgbImage(rng.integers(0, 256, (16, 12, 3), dtype=np.uint8))
    _, cb, cr = rgb_to_ycbcr(img)
    s = subsample_rgb(img)
    assert np.abs(s.cb - pool2_loops(cb)).max() < 1e-12
    assert np.abs(s.cr - pool2_loops(cr)).max() < 1e-12


def test_downsample_rejects_odd():
    with pytest.raises(ValueError):
        subsample_rgb(np.zeros((3, 4, 3)))
    with pytest.raises(ValueError):
        avg_pool(np.zeros((3, 4)), 2)


def test_upsample_replicates(rng):
    s = SubsampledImage(np.full((2, 2), 128.0), np.array([[42.0]]), np.array([[7.0]]))
    want = ycbcr_to_rgb(s.y, np.full((2, 2), 42.0), np.full((2, 2), 7.0))
    assert np.array_equal(assemble_rgb(s).pixels, want.pixels)
    s = SubsampledImage(
        rng.uniform(0, 255, (8, 8)), rng.uniform(0, 255, (4, 4)), rng.uniform(0, 255, (4, 4))
    )
    want = ycbcr_to_rgb(s.y, _replicate(s.cb), _replicate(s.cr))
    assert np.array_equal(assemble_rgb(s).pixels, want.pixels)


def test_down_after_up_is_identity(rng):
    plane = rng.uniform(0, 255, (4, 6))
    assert np.array_equal(avg_pool(_replicate(plane), 2), plane)
    # on images with uniform chroma per 2x2 cell, subsample(assemble(s)) gives s back exactly
    s = subsample_rgb(cell_chroma_image(rng, 16, 12))
    back = subsample_rgb(assemble_rgb(s))
    assert np.array_equal(back.cb, s.cb)
    assert np.array_equal(back.cr, s.cr)
    assert np.array_equal(back.y, s.y)


def test_up_after_down_is_projection(rng):
    plane = rng.uniform(0, 255, (8, 8))
    once = _replicate(avg_pool(plane, 2))
    twice = _replicate(avg_pool(once, 2))
    assert np.abs(once - twice).max() < 1e-12
    # through the 8-bit pipeline, only the final rounding can move a pixel, by one level
    img = RgbImage(rng.integers(64, 192, (16, 12, 3), dtype=np.uint8))
    once = assemble_rgb(subsample_rgb(img)).pixels.astype(int)
    twice = assemble_rgb(subsample_rgb(RgbImage(once.astype(np.uint8)))).pixels
    assert np.abs(once - twice).max() <= 1


def test_luma_survives_full_pipeline(rng):
    img = RgbImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    y_ref, _, _ = rgb_to_ycbcr(img)
    s = subsample_rgb(img)
    assert np.array_equal(s.y, y_ref)
    assemble_rgb(s)  # smoke: full decode path runs


def test_subsampled_image_invariants():
    with pytest.raises(ValueError):
        SubsampledImage(np.zeros((4, 4)), np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        SubsampledImage(np.full((4, 4), np.nan), np.zeros((2, 2)), np.zeros((2, 2)))
