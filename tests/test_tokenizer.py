from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctpipe.colorspace import SubsampledImage
from dctpipe.synth import power_law_coefficients
from dctpipe.tokenizer import (
    _HEADER,
    _HEADER_FIELDS,
    TokenArray,
    TokenConfig,
    dct_coefficient_matrices,
    detokenize,
    plane_from_zigzag,
    plane_to_zigzag,
    read_dctk,
    tokenize,
    write_dctk,
)

from oracles import naive_dct2_stack, zigzag_by_diagonal_walk


def random_subsampled(rng, h, w):
    return SubsampledImage(
        rng.uniform(0, 255, (h, w)),
        rng.uniform(0, 255, (h // 2, w // 2)),
        rng.uniform(0, 255, (h // 2, w // 2)),
    )


def test_token_counts_match_reference_geometries(rng):
    s = random_subsampled(rng, 64, 64)
    t = tokenize(s, 2, 0, 1.0)
    assert t.tokens.shape == (256, 24)
    s = random_subsampled(rng, 256, 256)
    t = tokenize(s, 4, 8, 1.0)
    assert t.tokens.shape == (1024, 48)


def test_constant_gray_image_is_all_zero(rng):
    s = SubsampledImage(np.full((16, 16), 128.0), np.full((8, 8), 128.0), np.full((8, 8), 128.0))
    t = tokenize(s, 2, 1, 3.0)
    assert np.abs(t.tokens).max() < 1e-12


def test_all_zero_tokens_decode_to_flat_128():
    cfg = TokenConfig(4, 5, 2.0, 32, 32)
    s = detokenize(TokenArray(cfg, np.zeros((cfg.token_count, cfg.token_width))))
    assert np.abs(s.y - 128.0).max() < 1e-12
    assert np.abs(s.cb - 128.0).max() < 1e-12


@pytest.mark.parametrize("b,eta", [(2, 1.0), (4, 144.0), (8, 0.37)])
def test_lossless_roundtrip_m0(rng, b, eta):
    h = w = 8 * b
    s = random_subsampled(rng, h, w)
    out = detokenize(tokenize(s, b, 0, eta))
    assert np.abs(out.y - s.y).max() < 1e-9
    assert np.abs(out.cb - s.cb).max() < 1e-9
    assert np.abs(out.cr - s.cr).max() < 1e-9


def test_band_limited_roundtrip_with_drop(rng):
    # build planes whose top-m zigzag slots are exactly zero, then roundtrip at that m
    b, m = 4, 6
    cfg = TokenConfig(b, m, 1.0, 32, 32)
    tokens = rng.normal(size=(cfg.token_count, cfg.token_width)) * 5.0
    s = detokenize(TokenArray(cfg, tokens))
    full = tokenize(s, b, 0, 1.0)
    # the construction really zeroed those slots
    kept = b * b - m
    segs = full.tokens.reshape(-1, 6, b * b)
    assert np.abs(segs[:, :, kept:]).max() < 1e-9
    out = detokenize(tokenize(s, b, m, 1.0))
    assert np.abs(out.y - s.y).max() < 1e-9
    assert np.abs(out.cb - s.cb).max() < 1e-9


def test_scaling_divides_every_coefficient(rng):
    s = random_subsampled(rng, 16, 16)
    t1 = tokenize(s, 2, 0, 1.0)
    t9 = tokenize(s, 2, 0, 9.0)
    assert np.abs(t1.tokens / 9.0 - t9.tokens).max() < 1e-12


def test_geometry_single_patch_hits_single_token():
    b = 4
    y = np.full((32, 32), 128.0)
    cb = np.full((16, 16), 128.0)
    cr = np.full((16, 16), 128.0)
    # paint the patch at token grid position (1, 2)
    y[8:16, 16:24] = 200.0
    cb[4:8, 8:12] = 60.0
    cr[4:8, 8:12] = 190.0
    t = tokenize(SubsampledImage(y, cb, cr), b, 0, 1.0)
    nonzero = np.where(np.abs(t.tokens).max(axis=1) > 1e-9)[0]
    assert nonzero.tolist() == [1 * 4 + 2]


def test_top_right_luma_block_fills_only_the_y_tr_segment():
    b, m = 4, 3
    k = b * b - m
    y = np.full((32, 32), 128.0)
    flat = np.full((16, 16), 128.0)
    # token (1, 2) covers luma rows 8:16, cols 16:24; its top-right block is rows 8:12, cols 20:24
    y[8:12, 20:24] = 200.0
    t = tokenize(SubsampledImage(y, flat, flat), b, m, 1.0)
    rows, cols = np.nonzero(np.abs(t.tokens) > 1e-9)
    assert set(rows.tolist()) == {1 * 4 + 2}
    assert cols.min() >= k and cols.max() < 2 * k
    assert t.tokens[6, k] == pytest.approx(72.0 * b)  # DC of a 4x4 block raised by 72


def test_signal_count_identity():
    for b, m, h, w in [(2, 0, 64, 64), (4, 8, 256, 128), (8, 46, 512, 512)]:
        cfg = TokenConfig(b, m, 1.0, h, w)
        assert cfg.token_count * cfg.token_width == 1.5 * h * w * (b * b - m) / (b * b)


def test_energy_ordering_on_spectral_synthetic(rng):
    # plane synthesized with per-rank decaying variance; tokenizer statistics
    # must recover a (mostly) non-increasing variance by zigzag rank
    b = 4
    coeffs = power_law_coefficients(rng, 4096, b, k=30.0, alpha=1.5)
    plane = plane_from_zigzag(coeffs.reshape(64, 64, b * b), b)
    s = SubsampledImage(plane, np.full((128, 128), 128.0), np.full((128, 128), 128.0))
    y_mat, _, _ = dct_coefficient_matrices(s, b)
    variances = y_mat.var(axis=0)
    inversions = int(np.sum(np.diff(variances) > 0))
    assert inversions <= 0.05 * (variances.size - 1)


def test_config_invariants():
    with pytest.raises(ValueError):
        TokenConfig(4, 16, 1.0, 32, 32)  # m too large (DC never dropped)
    with pytest.raises(ValueError):
        TokenConfig(4, 0, 1.0, 36, 32)  # 36 not divisible by 2B
    with pytest.raises(ValueError):
        TokenConfig(4, 0, 0.0, 32, 32)  # eta must be positive
    with pytest.raises(ValueError):
        TokenConfig(4, -1, 1.0, 32, 32)


@pytest.mark.parametrize(
    "h, w, message",
    [
        (0, 0, "image 0x0 is not tiled by the 8x8 patch"),
        (8, 0, "image 0x8 is not tiled by the 8x8 patch"),
        (-8, 8, "image 8x-8 is not tiled by the 8x8 patch"),
        (8.0, 8, "height must be an integer, got 8.0"),
        (True, 8, "height must be an integer, got True"),
    ],
)
def test_config_rejects_a_side_that_is_not_a_whole_number_of_patches(h, w, message):
    with pytest.raises(ValueError) as info:
        TokenConfig(4, 0, 1.0, h, w)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "b, side",
    [(np.uint16(256), 512), (4, np.int32(2**20)), (np.int64(4), np.uint32(2**20))],
)
def test_config_stores_numpy_integers_as_python_ints(b, side):
    # numpy arithmetic on the stored values overflowed: B^2 in uint16, H W in int32
    cfg = TokenConfig(b, np.uint8(0), 1.0, side, side)
    plain = TokenConfig(int(b), 0, 1.0, int(side), int(side))
    assert cfg == plain and cfg.token_count == plain.token_count
    assert all(type(getattr(cfg, f.name)) is int for f in fields(cfg) if f.name != "eta")


def test_dctk_header_is_the_config_fields_then_the_token_count():
    # a field added to TokenConfig or to the header alone fails here
    assert sorted(_HEADER_FIELDS) == sorted(f.name for f in fields(TokenConfig))
    assert _HEADER.size == 28


@pytest.mark.parametrize(
    "b, m, eta, h, w",
    [(0, 0, 1.0, 32, 32), (4, 16, 1.0, 32, 32), (4, 0, 0.0, 32, 32), (4, 0, np.nan, 32, 32),
     (4, 0, 1.0, 36, 32)],
)
def test_tokenize_raises_the_config_errors(rng, b, m, eta, h, w):
    with pytest.raises(ValueError) as config_error:
        TokenConfig(b, m, eta, h, w)
    with pytest.raises(ValueError) as tokenize_error:
        tokenize(random_subsampled(rng, h, w), b, m, eta)
    assert str(tokenize_error.value) == str(config_error.value)


def test_tokenize_rejects_an_eta_that_overflows_the_tokens(rng):
    with np.errstate(all="raise", under="ignore"), pytest.raises(ValueError, match="non-finite"):
        tokenize(random_subsampled(rng, 16, 16), 2, 0, 1e-320)


def test_detokenize_rejects_tokens_that_overflow_when_scaled():
    cfg = TokenConfig(2, 0, 1e300, 8, 8)
    t = TokenArray(cfg, np.full((cfg.token_count, cfg.token_width), 1e10))
    with np.errstate(all="raise", under="ignore"), pytest.raises(ValueError, match="overflow"):
        detokenize(t)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_token_array_rejects_non_finite_tokens(value):
    cfg = TokenConfig(2, 0, 1.0, 8, 8)
    tokens = np.zeros((cfg.token_count, cfg.token_width))
    tokens[-1, -1] = value
    with pytest.raises(ValueError, match="non-finite"):
        TokenArray(cfg, tokens)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_roundtrip_property(b_exp, seed):
    b = 2**b_exp if b_exp <= 2 else b_exp  # b in {2, 4, 3}
    gen = np.random.default_rng(seed)
    h, w = 4 * b, 8 * b
    s = SubsampledImage(
        gen.uniform(0, 255, (h, w)),
        gen.uniform(0, 255, (h // 2, w // 2)),
        gen.uniform(0, 255, (h // 2, w // 2)),
    )
    out = detokenize(tokenize(s, b, 0, 7.5))
    assert np.abs(out.y - s.y).max() < 1e-9
    assert np.abs(out.cb - s.cb).max() < 1e-9
    assert np.abs(out.cr - s.cr).max() < 1e-9


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_plane_zigzag_transform_matches_direct_evaluation(rng, b):
    # a 3x2 grid of BxB tiles: each tile's level-shifted DCT, gathered along the zigzag walk
    plane = rng.uniform(0, 255, (3 * b, 2 * b))
    coeffs = plane_to_zigzag(plane, b)
    assert coeffs.shape == (3, 2, b * b)
    walk = zigzag_by_diagonal_walk(b)
    for i in range(3):
        for j in range(2):
            tile = naive_dct2_stack(plane[i * b : (i + 1) * b, j * b : (j + 1) * b] - 128.0)
            assert np.allclose(coeffs[i, j], [tile[u, v] for u, v in walk], atol=1e-9)
    assert np.abs(plane_from_zigzag(coeffs, b) - plane).max() < 1e-9
    kept = coeffs.copy()
    kept[..., 1:] = 0.0
    assert np.array_equal(plane_from_zigzag(coeffs[..., :1], b), plane_from_zigzag(kept, b))


def test_dctk_file_roundtrip(tmp_path, rng):
    s = random_subsampled(rng, 32, 32)
    t = tokenize(s, 4, 3, 2.5)
    path = tmp_path / "tokens.dctk"
    write_dctk(path, t)
    back = read_dctk(path)
    assert back.config == t.config
    assert np.array_equal(back.tokens, t.tokens)


def test_config_built_by_tokenize_survives_the_dctk_file(tmp_path, rng):
    # h != w, so a transposed grid cannot pass unseen
    t = tokenize(random_subsampled(rng, 24, 40), 2, 1, 0.75)
    assert t.config == TokenConfig(block_size=2, drop_count=1, eta=0.75, height=24, width=40)
    write_dctk(tmp_path / "t.dctk", t)
    assert read_dctk(tmp_path / "t.dctk").config == t.config


def test_dctk_rejects_garbage(tmp_path):
    path = tmp_path / "bad.dctk"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ValueError, match="magic"):
        read_dctk(path)
    path.write_bytes(b"DCTK" + bytes(2) + bytes(28))
    with pytest.raises(ValueError):
        read_dctk(path)


def test_dctk_truncation_detected(tmp_path, rng):
    s = random_subsampled(rng, 16, 16)
    t = tokenize(s, 2, 0, 1.0)
    path = tmp_path / "t.dctk"
    write_dctk(path, t)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="truncated"):
        read_dctk(path)


def test_dctk_trailing_bytes_rejected(tmp_path, rng):
    t = tokenize(random_subsampled(rng, 16, 16), 2, 0, 1.0)
    path = tmp_path / "t.dctk"
    write_dctk(path, t)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="trailing"):
        read_dctk(path)


def test_dctk_short_header_rejected(tmp_path):
    path = tmp_path / "short.dctk"
    for size in range(4, 34):
        path.write_bytes((b"DCTK\x01\x00" + bytes(28))[:size])
        with pytest.raises(ValueError, match="truncated DCTK header"):
            read_dctk(path)
