from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctpipe import fd_metric
from dctpipe.block_dct import avg_pool
from dctpipe.colorspace import rgb_to_ycbcr, subsample_rgb
from dctpipe.fd_metric import (
    FEATURE_MODES,
    GaussianStats,
    _check_grid,
    compression_ratio,
    extract_dct_stat_features,
    extract_pixel_features,
    frechet_distance,
    gaussian_stats,
    make_feature_extractor,
    reconstruct_rgb,
    scan_mstar,
)
from dctpipe.image_io import RgbImage
from dctpipe.synth import band_limited_image

from oracles import covariance_twopass, numpy_dct_stat_features, per_m_scan_curve
from synth import cell_chroma_image


def stats_1d(mean, var):
    return GaussianStats(np.array([mean]), np.array([[var]]))


def test_identical_rows_give_ridge_only_cov(rng):
    x = np.tile(rng.normal(size=4), (10, 1))
    s = gaussian_stats(x)
    assert np.abs(s.cov - 1e-6 * np.eye(4)).max() < 1e-15


def test_two_point_1d():
    x = np.array([[0.0], [2.0]])
    s = gaussian_stats(x)
    assert s.mean[0] == pytest.approx(1.0)
    assert s.cov[0, 0] == pytest.approx(2.0 + 1e-6, rel=1e-12)  # unbiased, plus the ridge
    assert s.cov[0, 0] == pytest.approx(np.cov(x.T) + 1e-6, rel=1e-12)


def test_covariance_matches_two_pass_oracle(rng):
    x = rng.normal(size=(1000, 8))
    s = gaussian_stats(x)
    mean_o, cov_o = covariance_twopass(x)
    assert np.abs(s.mean - mean_o).max() < 1e-10
    assert np.abs(s.cov - (cov_o + 1e-6 * np.eye(8))).max() < 1e-10
    assert np.abs(s.cov - (np.cov(x, rowvar=False) + 1e-6 * np.eye(8))).max() < 1e-10


def test_gaussian_stats_validation(rng):
    with pytest.raises(ValueError):
        gaussian_stats(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        gaussian_stats(np.zeros(5))


def test_frechet_zero_on_identical(rng):
    s = gaussian_stats(rng.normal(size=(200, 6)))
    assert abs(frechet_distance(s, s)) < 1e-8


@pytest.mark.parametrize("seed", range(50))
def test_frechet_of_a_set_with_itself_is_never_negative(seed):
    # a squared W2 distance is >= 0; unclipped, rounding in the cross term put 22 of these below 0
    s = gaussian_stats(np.random.default_rng(seed).normal(size=(40, 6)))
    assert frechet_distance(s, s) >= 0.0


def test_frechet_1d_analytic_cases():
    assert frechet_distance(stats_1d(0, 1), stats_1d(1, 1)) == pytest.approx(1.0, abs=1e-6)
    assert frechet_distance(stats_1d(0, 1), stats_1d(0, 4)) == pytest.approx(1.0, abs=1e-6)


def test_frechet_symmetry_and_nonnegativity(rng):
    for _ in range(25):
        d = rng.integers(2, 9)
        a = rng.normal(size=(3 * d, d))
        b = rng.normal(size=(3 * d, d)) * rng.uniform(0.5, 2.0) + rng.normal(size=d)
        s1, s2 = gaussian_stats(a), gaussian_stats(b)
        d12, d21 = frechet_distance(s1, s2), frechet_distance(s2, s1)
        assert d12 == pytest.approx(d21, abs=1e-8 * max(1.0, abs(d12)))
        assert d12 > -1e-10


def test_frechet_dimension_mismatch(rng):
    s1 = gaussian_stats(rng.normal(size=(50, 3)))
    s2 = gaussian_stats(rng.normal(size=(50, 4)))
    with pytest.raises(ValueError):
        frechet_distance(s1, s2)


def test_frechet_rejects_indefinite_covariance(rng):
    bad = GaussianStats(np.zeros(2), np.array([[1.0, 0.0], [0.0, -0.5]]))
    good = gaussian_stats(rng.normal(size=(50, 2)))
    with pytest.raises(ValueError, match="PSD"):
        frechet_distance(bad, good)


def test_a_distance_that_overflows_is_rejected_not_scored():
    # finite stats whose traces overflow sum to inf - inf, and max(0.0, nan) is 0.0
    a = GaussianStats([0.0, 0.0], np.diag([1e308, 1.0]))
    b = GaussianStats([0.0, 1e3], np.diag([1e308, 1.0]))
    with pytest.raises(ValueError, match="^Frechet distance overflows to a non-finite value$"):
        frechet_distance(a, b)


@given(
    where=st.sampled_from(["mean", "covariance", "features"]),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    d=st.integers(1, 5),
    index=st.integers(0, 2**16),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_a_non_finite_entry_is_rejected_not_scored(where, bad, d, index, seed):
    # max(0.0, nan) is 0.0, so a NaN mean used to score as a perfect match
    x = np.random.default_rng(seed).normal(size=(2 * d + 2, d))
    cov = np.cov(x, rowvar=False).reshape(d, d)
    target = {"mean": x[0].copy(), "covariance": cov, "features": x}
    target[where].flat[index % target[where].size] = bad
    with pytest.raises(ValueError, match=f"{where}( entries)? contain non-finite values"):
        if where == "features":
            gaussian_stats(x)
        else:
            other = GaussianStats(np.zeros(d), np.eye(d))
            frechet_distance(GaussianStats(target["mean"], target["covariance"]), other)


def test_pixel_features_shape_and_pooling(rng):
    img = cell_chroma_image(rng, 64, 64)
    feats = extract_pixel_features(subsample_rgb(img))
    assert feats.shape == (64,)
    gray = RgbImage(np.full((16, 16, 3), 77, dtype=np.uint8))
    feats = extract_pixel_features(subsample_rgb(gray))
    assert np.abs(feats - 77.0).max() < 1e-9


@given(
    tiles=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    span=st.sampled_from([0, 1, 255]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_pixel_features_pool_the_luma_of_rgb_to_ycbcr_bitwise(tiles, span, seed):
    rng = np.random.default_rng(seed)
    h, w = (8 * k for k in tiles)
    lo = int(rng.integers(0, 256 - span))
    img = RgbImage(rng.integers(lo, lo + span + 1, (h, w, 3), dtype=np.uint8))
    want = avg_pool(rgb_to_ycbcr(img)[0], h // 8, w // 8).ravel()
    assert extract_pixel_features(subsample_rgb(img)).tobytes() == want.tobytes()


def test_dct_stat_features_shape(rng):
    img = cell_chroma_image(rng, 32, 32)
    feats = extract_dct_stat_features(subsample_rgb(img), block_size=4)
    assert feats.shape == (2 * 3 * 16,)


@given(
    block_size=st.integers(1, 8),
    tiles=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    span=st.sampled_from([0, 1, 8, 255]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_dct_stat_features_have_the_bits_of_numpys_mean_and_std(block_size, tiles, span, seed):
    # one-row chroma matrices (one 2B patch), flat images (std exactly 0), low and full contrast
    rng = np.random.default_rng(seed)
    h, w = (2 * block_size * k for k in tiles)
    lo = int(rng.integers(0, 256 - span))
    img = RgbImage(rng.integers(lo, lo + span + 1, (h, w, 3), dtype=np.uint8))
    want = numpy_dct_stat_features(img, block_size)
    assert extract_dct_stat_features(subsample_rgb(img), block_size).tobytes() == want.tobytes()


def test_make_feature_extractor_validation():
    with pytest.raises(ValueError):
        make_feature_extractor("dctstats")
    with pytest.raises(ValueError):
        make_feature_extractor("nope")


def test_reconstruct_rgb_m0_is_rounding_exact(rng):
    img = cell_chroma_image(rng, 32, 32)
    recon = reconstruct_rgb(subsample_rgb(img), block_size=4, drop_count=0)
    assert np.abs(recon.pixels.astype(int) - img.pixels.astype(int)).max() <= 1


def test_scan_config_validation():
    # the arguments are checked before the dataset size
    with pytest.raises(ValueError, match="gamma"):
        scan_mstar([], 4, gamma=0.0, m_grid=(0, 1))
    with pytest.raises(ValueError, match="m_grid"):
        scan_mstar([], 4, gamma=1.0, m_grid=())
    with pytest.raises(ValueError, match="m_grid"):
        scan_mstar([], 4, gamma=1.0, m_grid=(3, 1))
    with pytest.raises(ValueError, match="feature mode"):
        scan_mstar([], 4, gamma=1.0, m_grid=(0, 1), features="bad")


@pytest.fixture(scope="module")
def band_limited_set():
    gen = np.random.default_rng(777)
    return [band_limited_image(gen, 32, b=4, zero_top=6) for _ in range(500)]


def test_scan_mstar_recovers_band_limit(band_limited_set):
    gamma = 1.0
    result = scan_mstar(
        band_limited_set, block_size=4, gamma=gamma, m_grid=range(0, 16, 2), features="dctstats"
    )
    dist = dict(result.curve)
    assert dist[6] < 0.01 * dist[8]  # zeroed-slot plateau sits far below the jump
    assert dist[8] > gamma  # first live frequency killed: threshold crossed
    assert not result.saturated
    assert result.m_star >= 6
    # curve is non-decreasing with at most one inversion
    values = [d for _, d in result.curve]
    inversions = sum(1 for i in range(len(values) - 1) if values[i + 1] < values[i])
    assert inversions <= 1


def test_scan_mstar_gamma_infinity_selects_max(band_limited_set):
    result = scan_mstar(
        band_limited_set, block_size=4, gamma=1e30, m_grid=(0, 5, 9), features="dctstats"
    )
    assert result.m_star == 9
    assert not result.saturated


def test_scan_mstar_saturation_flag(band_limited_set):
    result = scan_mstar(
        band_limited_set, block_size=4, gamma=1e-30, m_grid=(0, 1), features="dctstats"
    )
    assert result.saturated
    assert result.m_star == 0


def test_scan_mstar_needs_enough_images(rng):
    imgs = [cell_chroma_image(rng, 16, 16) for _ in range(5)]
    with pytest.raises(ValueError, match="500"):
        scan_mstar(imgs, 2, gamma=1.0, m_grid=(0,))


def test_grid_rule():
    assert _check_grid(range(10**18), 10**9) == range(10**18)  # checked by its ends, never built
    assert _check_grid((0, 4, 8), 4) == [0, 4, 8]
    assert _check_grid(range(5, 4, -1), 4) == range(5, 4, -1)  # one drop count is ascending
    for bad in ((), (3, 1), (1, 1), range(3, 1), range(3, 0, -1), range(10**20, 0, -1)):
        with pytest.raises(ValueError, match="m_grid must be a nonempty, strictly ascending"):
            _check_grid(bad, 4)
    for bad in ((0, 16), (-1, 2), range(0, 17), range(-1, 3)):
        with pytest.raises(ValueError, match=r"drop count must be in \[0, 15\] for B=4"):
            _check_grid(bad, 4)


def _two_thread_map(fn, items):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(fn, items))


@pytest.fixture(scope="module")
def small_set():
    # 16x16 images keep the 500-image scans quick; both feature spaces read them at B=4
    gen = np.random.default_rng(31)
    return [band_limited_image(gen, 16, b=4, zero_top=6) for _ in range(500)]


@pytest.mark.parametrize("features", FEATURE_MODES)
@pytest.mark.parametrize(
    "grid", [range(0, 16, 5), (2, 6, 7), (9,)], ids=["range", "tuple", "one-m"]
)
def test_scan_curve_is_bitwise_the_per_m_loop(small_set, features, grid):
    want = per_m_scan_curve(small_set, 4, grid, features)
    for map_fn in (map, _two_thread_map):
        result = scan_mstar(small_set, 4, gamma=1.0, m_grid=grid, features=features, map_fn=map_fn)
        assert result.curve == want


def test_scan_calls_map_fn_once(small_set):
    calls = []

    def counting_map(fn, items):
        calls.append(fn)
        return map(fn, items)

    scan_mstar(iter(small_set), 4, gamma=1.0, m_grid=(0, 8), map_fn=counting_map)
    assert len(calls) == 1


@pytest.mark.parametrize("features", FEATURE_MODES)
def test_scan_converts_each_image_and_each_reconstruction_once(small_set, monkeypatch, features):
    calls = []

    def counting_subsample(img):
        calls.append(None)
        return subsample_rgb(img)

    monkeypatch.setattr(fd_metric, "subsample_rgb", counting_subsample)
    grid = (2, 6, 7)
    scan_mstar(small_set, 4, gamma=1.0, m_grid=grid, features=features)
    assert len(calls) == len(small_set) * (1 + len(grid))


@pytest.mark.parametrize("features", FEATURE_MODES)
def test_scan_memory_is_the_feature_blocks_not_the_images(traced_peak, features):
    # 500 fresh 64x64 images (5.9 MiB in all) come from a generator. The scan keeps
    # n (1 + |grid|) d feature floats and one image's working set, not the images.
    grid, d = (0, 6, 12), {"pixels8": 64, "dctstats": 6 * 16}[features]

    def images():
        rng = np.random.default_rng(5)
        for _ in range(500):
            yield RgbImage(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))

    extract = make_feature_extractor(features, 4)
    for m in grid:  # warm the package's one-time caches outside the measurement
        extract(subsample_rgb(reconstruct_rgb(subsample_rgb(next(images())), 4, m)))
    peak = traced_peak(lambda: scan_mstar(images(), 4, 1.0, grid, features=features))
    assert peak < 500 * (1 + len(grid)) * d * 8 + 2 * 2**20


def test_compression_ratio_table_values():
    table = {(4, 7): 3.56, (4, 8): 4.00, (4, 9): 4.57, (8, 44): 6.40, (8, 46): 7.11, (8, 48): 8.00}
    for (b, m), expected in table.items():
        assert round(compression_ratio(b, m), 2) == expected


def test_compression_ratio_m0_is_two():
    for b in (1, 2, 4, 8, 16, 32):
        assert compression_ratio(b, 0) == 2.0


def test_compression_ratio_validation():
    with pytest.raises(ValueError):
        compression_ratio(4, 16)
    with pytest.raises(ValueError):
        compression_ratio(4, -1)
