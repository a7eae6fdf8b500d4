import json
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctpipe.freq_stats import (
    EntropyWeights,
    _hist_entropy,
    apply_ebfr,
    apsd,
    entropy_weights,
    load_weights,
    power_law_fit,
    save_weights,
    snr_threshold_time,
)
from dctpipe.block_dct import dct2, to_zigzag
from dctpipe.cli import _imap
from dctpipe.scaling import estimate_naive_bounds
from dctpipe.diffuse import perturb_params
from dctpipe.schedule import NoiseSchedule, snr, y_integral, y_scaled
from dctpipe.synth import power_law_coefficients

from oracles import (
    gaussian_differential_entropy,
    histogram_entropy,
    kernel_crossing_time,
    whole_matrix_apsd,
)

DEFAULTS = NoiseSchedule()


def iid_samples(rng, n, kept, scale=1.0):
    return tuple(rng.normal(size=(n, kept)) * scale for _ in range(3))


def test_iid_ranks_get_equal_weights(rng):
    w = entropy_weights(iid_samples(rng, 50_000, 4), block_size=2)
    assert np.abs(w.weights - 1.0).max() < 0.02
    assert w.weights.mean() == pytest.approx(1.0, abs=1e-12)


def test_entropy_gap_matches_gaussian_analytics(rng):
    n = 100_000
    mats = [rng.normal(size=(n, 2)) for _ in range(3)]
    mats[0][:, 0] *= 2.0  # Y rank 0 has sigma=2, Y rank 1 sigma=1
    w = entropy_weights(tuple(mats), block_size=2, drop_count=2)
    gap_expected = gaussian_differential_entropy(2.0) - gaussian_differential_entropy(1.0)
    assert gap_expected == pytest.approx(math.log(2.0), abs=1e-12)
    # additive normalization preserves entropy differences exactly
    assert w.weights[0] - w.weights[1] == pytest.approx(math.log(2.0), rel=0.05)


def test_natural_like_data_weights_decay(rng):
    # decaying per-rank scale: DC weight must exceed the highest kept rank
    kept = 8
    scale = 40.0 / (1.0 + np.arange(kept)) ** 1.2
    mats = tuple(rng.normal(size=(20_000, kept)) * scale for _ in range(3))
    w = entropy_weights(mats, block_size=3, drop_count=1)
    for ch in range(3):
        assert w.weights[ch * kept] > w.weights[ch * kept + kept - 1]


def test_degenerate_rank_is_clamped_and_flagged(rng):
    mats = [rng.normal(size=(5000, 3)) for _ in range(3)]
    mats[1][:, 2] = 42.0  # constant Cb rank 2
    w = entropy_weights(tuple(mats), block_size=2, drop_count=1)
    assert 5 in w.clamped_ranks
    assert np.all(w.weights > 0)


def test_scale_invariance_of_weights(rng):
    mats = iid_samples(rng, 30_000, 4, scale=np.array([5.0, 3.0, 2.0, 1.0]))
    w1 = entropy_weights(mats, block_size=2)
    w2 = entropy_weights(tuple(m * 37.0 for m in mats), block_size=2)
    assert np.abs(w1.weights - w2.weights).max() < 0.01


def test_entropy_weights_validation(rng):
    with pytest.raises(ValueError):
        entropy_weights(iid_samples(rng, 100, 4), block_size=2)  # too few samples
    with pytest.raises(ValueError):
        entropy_weights(iid_samples(rng, 2000, 4), block_size=2, bins=8)
    with pytest.raises(ValueError):
        entropy_weights(iid_samples(rng, 2000, 3), block_size=2)  # wrong width


def test_entropy_weights_on_worker_threads_have_the_bits_of_builtin_map(rng):
    # one histogram per column on 1-4 threads, switching often; a constant column
    # is clamped wherever its histogram runs
    mats = [m * rng.uniform(0.5, 40.0, 5) for m in iid_samples(rng, 3000, 5)]
    mats[2][:, 3] = 7.0
    want = entropy_weights(mats, block_size=3, drop_count=4)
    assert 13 in want.clamped_ranks  # Cr rank 3; small-scale ranks may clamp too
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in range(1, 5):
            got = entropy_weights(mats, 3, 4, map_fn=lambda f, it: _imap(f, it, threads))
            assert got.weights.tobytes() == want.weights.tobytes(), threads
            assert got.clamped_ranks == want.clamped_ranks, threads
    finally:
        sys.setswitchinterval(interval)


@given(
    seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 999, 8192, 8193, 20_000]),
    bins=st.integers(16, 300), kind=st.sampled_from(["normal", "edges", "two values"]),
    scale=st.floats(-8, 8), offset=st.floats(-8, 8),
)
@example(seed=0, n=20_000, bins=256, kind="edges", scale=0.0, offset=0.0)
@settings(max_examples=100, deadline=None)
def test_hist_entropy_bins_as_np_histogram_does(seed, n, bins, kind, scale, offset):
    # a strided column, binned in place per block of 8192 values; values on the edges, a
    # float beside them, or past 1e8 times the range are where a truncated bin index is wrong
    rng = np.random.default_rng(seed)
    lo, width = 10.0**offset * rng.normal(), 10.0**scale
    if kind == "normal":
        x = lo + width * rng.normal(size=n)
    else:
        edges = np.linspace(lo, lo + width, bins + 1 if kind == "edges" else 2)
        near = [edges, np.nextafter(edges[1:], -np.inf), np.nextafter(edges[:-1], np.inf)]
        x = rng.choice(np.concatenate(near if kind == "edges" else near[:1]), n)
        x[[0, -1]] = edges[[0, -1]]  # the samples span the edges' range
    column = np.repeat(x[:, None], 3, axis=1)[:, 1]
    try:
        want = histogram_entropy(column, bins)
    except ValueError as exc:  # more bins than floats between lo and hi
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _hist_entropy(column, bins)
        return
    got = _hist_entropy(column, bins)
    assert got == want or (math.isnan(got) and math.isnan(want))


def _triple(rng, n, width, *, bad=None):
    mats = [rng.normal(size=(n, width)) for _ in range(3)]
    if bad is not None:
        mats[1][n // 2, width - 1] = bad
    return mats


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: (np.float64(1.0),) * 3,  # 0-d channels
        lambda rng: (rng.normal(size=2000),) * 3,  # 1-d channels
        lambda rng: _triple(rng, 2000, 4)[:2],  # two channels
        lambda rng: _triple(rng, 2000, 4)[:2] + [rng.normal(size=(2000, 3))],  # widths differ
        lambda rng: _triple(rng, 1, 4),  # too few rows for either function
        lambda rng: _triple(rng, 2000, 4, bad=np.nan),
        lambda rng: _triple(rng, 2000, 4, bad=np.inf),
        lambda rng: _triple(rng, 2000, 4, bad=-np.inf),
    ],
)
def test_sample_triples_are_checked_alike(rng, make):
    mats = make(rng)
    with pytest.raises(ValueError):
        entropy_weights(mats, block_size=2)
    with pytest.raises(ValueError):
        estimate_naive_bounds(mats)


def test_non_finite_samples_are_named_by_channel(rng):
    for fn in (lambda m: entropy_weights(m, block_size=2), estimate_naive_bounds):
        with pytest.raises(ValueError, match="Cb samples contain non-finite values"):
            fn(_triple(rng, 2000, 4, bad=np.nan))


@pytest.mark.parametrize("bad", ["Infinity", "-Infinity", "NaN"])
def test_non_finite_weights_are_named_before_their_sign_and_mean(tmp_path, bad):
    path = tmp_path / "w.json"
    path.write_text(f'{{"weights": [{bad}, 1, 1], "block_size": 1, "drop": 0}}')
    with pytest.raises(ValueError, match="^weights contain non-finite values$"):
        load_weights(path)


def test_weights_json_roundtrip(tmp_path, rng):
    w = entropy_weights(iid_samples(rng, 2000, 4), block_size=2)
    path = tmp_path / "w.json"
    save_weights(path, w)
    back = load_weights(path)
    assert np.allclose(back.weights, w.weights)
    assert back.block_size == w.block_size


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        {"block_size": 1, "drop": 0},
        {"weights": [1.0, 1.0, 1.0], "block_size": "1", "drop": 0},
        {"weights": [1.0, 1.0, 1.0], "block_size": 1, "drop": 0, "clamped_ranks": 3},
        {"weights": {"a": 1}, "block_size": 1, "drop": 0},
        {"weights": [math.nan, math.nan, math.nan], "block_size": 1, "drop": 0},
        {"weights": [1, 1, 1], "block_size": -1, "drop": 0},
        {"weights": [], "block_size": 4, "drop": 16},
        {"weights": [], "block_size": 0, "drop": 0},
    ],
)
def test_malformed_weights_json_is_value_error(tmp_path, doc):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_weights(path)


def test_weights_with_numpy_fields_save_the_plain_bytes(tmp_path):
    # numpy integers used to reach json.dumps, which cannot write them
    plain, numpy = tmp_path / "plain.json", tmp_path / "numpy.json"
    weights = np.linspace(0.5, 1.5, 9)
    save_weights(plain, EntropyWeights(weights, 2, 1, (3,)))
    for size, drop in ((np.int64, np.uint16), (np.uint16, np.int64)):
        save_weights(numpy, EntropyWeights(weights, size(2), drop(1), (np.int64(3),)))
        assert numpy.read_bytes() == plain.read_bytes(), (size, drop)


@pytest.mark.parametrize("entry", [True, False, "x", None, [1.0]])
def test_weights_json_entries_must_be_numbers(tmp_path, entry):
    # true used to load as the weight 1.0, and "x" raised numpy's own error
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [entry, 1.5, 0.5], "block_size": 1, "drop": 0}))
    with pytest.raises(ValueError) as info:
        load_weights(path)
    want = f"malformed weights file: TypeError: weights must be numbers, got {entry!r}"
    assert str(info.value) == want


@pytest.mark.parametrize("extra", [{"extra": [1]}, {"drop_count": 0}, {"": 0}, {"z": 1, "b": 2}])
def test_weights_json_rejects_unknown_keys(tmp_path, extra):
    # each used to load, the unknown key dropped without a word
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [1.0, 1.0, 1.0], "block_size": 1, "drop": 0} | extra))
    with pytest.raises(ValueError) as info:
        load_weights(path)
    want = f"malformed weights file: TypeError: unexpected weights key {min(extra)!r}"
    assert str(info.value) == want


@pytest.mark.parametrize(
    "field, message",
    [
        ({"drop": True}, "drop count must be an integer, got True"),
        ({"block_size": 1.0}, "block size must be an integer, got 1.0"),
        ({"clamped_ranks": [99]}, "clamped ranks must ascend strictly in [0, 3), got (99,)"),
        ({"clamped_ranks": ["x"]}, "clamped rank must be an integer, got 'x'"),
        ({"clamped_ranks": [True]}, "clamped rank must be an integer, got True"),
        ({"clamped_ranks": [1, 0]}, "clamped ranks must ascend strictly in [0, 3), got (1, 0)"),
        ({"clamped_ranks": [2, 2]}, "clamped ranks must ascend strictly in [0, 3), got (2, 2)"),
    ],
)
def test_weights_json_integer_fields_are_checked(tmp_path, field, message):
    # each of these used to load; clamped ranks are positions of the weights, ascending
    # as entropy_weights flags them
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [1.0, 1.0, 1.0], "block_size": 1, "drop": 0} | field))
    with pytest.raises(ValueError) as info:
        load_weights(path)
    assert str(info.value) == message


def unit_weights(block_size, drop=0):
    kept = block_size**2 - drop
    return EntropyWeights(np.ones(3 * kept), block_size, drop)


def test_ebfr_identity_weighting(rng):
    sq = rng.uniform(size=(10, 24))  # B=2, kept=4 -> width 24
    assert apply_ebfr(sq, unit_weights(2)) == pytest.approx(sq.sum(), rel=1e-12)


def test_ebfr_single_residual_and_broadcast(rng):
    kept = 4
    weights = np.arange(1.0, 3 * kept + 1)
    weights /= weights.mean()
    w = EntropyWeights(weights, block_size=2, drop_count=0)
    sq = np.zeros((3, 24))
    sq[1, 0] = 4.0  # Y_TL rank 0
    assert apply_ebfr(sq, w) == pytest.approx(weights[0] * 4.0)
    sq = np.zeros((3, 24))
    sq[2, 2 * kept + 1] = 9.0  # Y_BL segment, rank 1 -> still Y weights
    assert apply_ebfr(sq, w) == pytest.approx(weights[1] * 9.0)


def test_ebfr_matches_bruteforce_loop(rng):
    kept = 4
    weights = rng.uniform(0.5, 2.0, 3 * kept)
    weights /= weights.mean()
    w = EntropyWeights(weights, block_size=2, drop_count=0)
    sq = rng.uniform(size=(5, 24))
    expected = 0.0
    for row in sq:
        for j, v in enumerate(row):
            seg, r = divmod(j, kept)
            channel = 0 if seg < 4 else seg - 3
            expected += weights[channel * kept + r] * v
    assert apply_ebfr(sq, w) == pytest.approx(expected, rel=1e-12)


def test_ebfr_length_mismatch(rng):
    with pytest.raises(ValueError):
        apply_ebfr(np.zeros((2, 30)), unit_weights(2))


def test_apsd_white_noise_is_flat(rng):
    blocks = rng.normal(size=(100_000, 2, 2))
    powers = apsd([to_zigzag(dct2(blocks))], DEFAULTS, [0.0])
    assert powers.shape == (1, 4)  # one row per time, one column per rank
    assert np.abs(powers[0] - 1.0).max() < 0.03


def test_apsd_clean_profile_decays(rng):
    coeffs = power_law_coefficients(rng, 20_000, 4, k=3.0, alpha=2.0)
    (powers,) = apsd([coeffs], DEFAULTS, [0.0])
    inversions = int(np.sum(np.diff(powers) > 0))
    assert inversions <= 0.05 * (powers.size - 1)


def test_apsd_ve_noise_floor_matches_theory(rng):
    coeffs = power_law_coefficients(rng, 50_000, 4, k=3.0, alpha=2.0)
    t = 0.4
    clean, noisy = apsd([coeffs], DEFAULTS, [0.0, t], seed=11, mode="ve")
    diff = noisy - clean
    sigma2 = float(y_integral(t, DEFAULTS))
    assert np.abs(diff / sigma2 - 1.0).max() < 0.05


def test_apsd_vp_mode_variance_preserving(rng):
    # VP at large t: profile approaches 1 (pure unit noise) at every rank
    coeffs = power_law_coefficients(rng, 20_000, 2, k=0.5, alpha=1.0)
    (noisy,) = apsd([coeffs], DEFAULTS, [1.0], seed=3, mode="vp")
    assert np.abs(noisy - 1.0).max() < 0.1


def test_apsd_deterministic(rng):
    coeffs = to_zigzag(dct2(rng.normal(size=(1000, 2, 2))))
    a = apsd([coeffs], DEFAULTS, [0.3], seed=5)
    b = apsd([coeffs], DEFAULTS, [0.3], seed=5)
    assert np.array_equal(a, b)


def test_apsd_validation(rng):
    with pytest.raises(ValueError):
        apsd([rng.normal(size=(10, 4))], DEFAULTS, [0.0])
    with pytest.raises(ValueError):
        apsd([rng.normal(size=(2000, 2, 2))], DEFAULTS, [0.0])  # a 3-D array
    with pytest.raises(ValueError):
        apsd([rng.normal(size=(2000, 4))], DEFAULTS, [0.0], mode="other")
    # without the check, one NaN gives a NaN column and one infinity an infinite power
    for bad in (np.nan, np.inf, -np.inf):
        coeffs = rng.normal(size=(1000, 4))
        coeffs[17, 2] = bad
        with pytest.raises(ValueError, match="coefficients contain non-finite values"):
            apsd([coeffs], DEFAULTS, [0.0, 0.5])


def _laid_out(part: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(part)
    if layout == "strided":  # every other column of a wider matrix
        wide = np.zeros((part.shape[0], 2 * part.shape[1]))
        wide[:, ::2] = part
        return wide[:, ::2]
    return np.ascontiguousarray(part)


@given(
    ranks=st.integers(2, 7),
    sizes=st.lists(st.one_of(st.just(1), st.integers(0, 2500)), min_size=1, max_size=10),
    layouts=st.lists(st.sampled_from(["C", "F", "strided"]), min_size=10, max_size=10),
    t_grid=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.37, 1.0]), min_size=1, max_size=3).map(
        lambda ts: [0.0, *ts]
    ),
    mode=st.sampled_from(["vp", "ve"]),
    seed=st.integers(0, 2**40),
    threads=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_apsd_fold_over_parts_has_the_bits_of_the_whole_matrix(
    ranks, sizes, layouts, t_grid, mode, seed, threads
):
    # parts of one row, empty parts, and parts whose first counter (rows before it times
    # ranks) falls anywhere in a 2^15-normal chunk of counter_normals
    sizes.append(max(1000 - sum(sizes), 1))
    rng = np.random.default_rng(seed)
    whole = rng.normal(size=(sum(sizes), ranks)) * rng.uniform(0.1, 50, ranks)
    parts = np.split(whole, np.cumsum(sizes)[:-1])
    parts = [_laid_out(part, layout) for part, layout in zip(parts, layouts + ["C"])]
    sched = NoiseSchedule(c=float(rng.choice([0.25, 1.0, 4.0])))
    want = whole_matrix_apsd(whole, sched, t_grid, seed, mode)
    assert apsd(parts, sched, t_grid, seed, mode).tobytes() == want.tobytes()
    assert apsd(iter(parts), sched, t_grid, seed, mode).tobytes() == want.tobytes()
    # the draws on 1-4 worker threads (more than this host's cores), switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = apsd(iter(parts), sched, t_grid, seed, mode, lambda f, it: _imap(f, it, threads))
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones((500, 3)), "parts must be (n, ranks) matrices of one width, got (500, 3)"),
        (np.full((500, 4), np.nan), "coefficients contain non-finite values"),
    ],
    ids=["width", "non-finite"],
)
def test_a_bad_later_part_stops_the_threaded_draws(rng, bad, message):
    # the third part fails its check in the calling thread after the draws of the first two
    # are queued: the same error as with builtin map, and no worker thread outlives it
    parts = [rng.normal(size=(700, 4)), rng.normal(size=(700, 4)), bad]
    before = threading.active_count()
    for map_fn in (map, lambda f, it: _imap(f, it, 2)):
        with pytest.raises(ValueError) as info:
            apsd(iter(parts), DEFAULTS, [0.0, 0.3, 0.9], map_fn=map_fn)
        assert str(info.value) == message
        assert threading.active_count() == before


def test_apsd_sends_every_part_and_time_through_map_fn(rng):
    # t = 0 is a job like any other: map_fn sees each (part, time) in part-then-time order
    parts = [rng.normal(size=(600, 4)), rng.normal(size=(700, 4))]
    jobs = []

    def spy(fn, it):
        for job in it:
            jobs.append((job[0].shape[0], job[2]))
            yield fn(job)

    t_grid = [0.0, 0.3, 0.0, 0.9]
    want = whole_matrix_apsd(np.concatenate(parts), DEFAULTS, t_grid)
    assert apsd(parts, DEFAULTS, t_grid, map_fn=spy).tobytes() == want.tobytes()
    assert jobs == [(600, i) for i in range(4)] + [(700, i) for i in range(4)]
    jobs.clear()
    assert apsd(parts, DEFAULTS, [0.0], map_fn=spy).tobytes() == want[:1].tobytes()
    assert jobs == [(600, 0), (700, 0)]


@pytest.mark.parametrize("t_grid", [[0.0], [0.0, 0.4], [0.4]])
def test_apsd_rejects_a_power_that_overflows(rng, t_grid):
    # finite coefficients whose square passes float range; RuntimeWarnings are errors here
    coeffs = rng.normal(size=(1000, 4))
    coeffs[500, 1] = 1.7e308
    for map_fn in (map, lambda f, it: _imap(f, it, 2)):
        for mode in ("vp", "ve"):
            with pytest.raises(ValueError, match="^coefficient powers overflow to non-finite values$"):
                apsd([coeffs[:400], coeffs[400:]], DEFAULTS, t_grid, mode=mode, map_fn=map_fn)


def test_apsd_takes_parts_not_one_array(rng):
    x = rng.normal(size=(2000, 4))
    with pytest.raises(ValueError, match="iterable of \\(n, ranks\\) matrices, not one array"):
        apsd(x, DEFAULTS, [0.0])  # its rows would otherwise pass as 1-D parts
    with pytest.raises(ValueError, match="one width"):
        apsd([x, x[:, :3]], DEFAULTS, [0.0])
    with pytest.raises(ValueError, match="need at least 1000 blocks, got 999"):
        apsd((x[i : i + 333] for i in (0, 333, 666)), DEFAULTS, [0.0])


def test_power_law_fit_exact():
    ranks = np.arange(1, 16, dtype=float)
    k, alpha = power_law_fit(np.concatenate(([10.0], 3.0 * ranks**-2.0)))
    assert k == pytest.approx(3.0, abs=1e-9)
    assert alpha == pytest.approx(2.0, abs=1e-9)


def test_power_law_fit_white_noise_is_flat(rng):
    blocks = rng.normal(size=(200_000, 4, 4))
    (powers,) = apsd([to_zigzag(dct2(blocks))], DEFAULTS, [0.0])
    _, alpha = power_law_fit(powers)
    assert abs(alpha) < 0.05


def test_power_law_fit_recovers_synthetic_alpha(rng):
    coeffs = power_law_coefficients(rng, 50_000, 4, k=2.0, alpha=1.5)
    (powers,) = apsd([coeffs], DEFAULTS, [0.0])
    _, alpha = power_law_fit(powers)
    assert 1.35 <= alpha <= 1.65


def test_power_law_fit_validation():
    with pytest.raises(ValueError):
        power_law_fit(np.ones(4))
    with pytest.raises(ValueError):
        power_law_fit(np.zeros(10))
    # without the check, one NaN power gives (nan, nan)
    for bad in (np.nan, np.inf):
        powers = 3.0 * np.arange(1, 17, dtype=float) ** -2.0
        powers[5] = bad
        with pytest.raises(ValueError, match="powers contain non-finite values"):
            power_law_fit(powers)


def test_threshold_time_ve_value():
    # ve adds noise of variance y'(t), so the crossing solves y'(t) = s0 / gamma
    t = snr_threshold_time(1.0, 1.0, DEFAULTS, mode="ve")
    assert isinstance(t, float)
    assert t == pytest.approx((-0.1 + math.sqrt(0.01 + 2 * 19.9)) / 19.9, rel=1e-12)
    t = snr_threshold_time(2.0, 0.5, DEFAULTS, mode="ve")
    assert float(y_scaled(t, DEFAULTS)) == pytest.approx(4.0, rel=1e-12)


def test_threshold_time_vp_value():
    t = snr_threshold_time(1.0, 1.0, DEFAULTS, mode="vp")
    assert isinstance(t, float)
    assert t == pytest.approx(0.2590, abs=5e-5)
    # verify the crossing: SNR at the returned t equals gamma
    y = y_integral(t, DEFAULTS)
    assert math.exp(-y) * 1.0 / (1.0 - math.exp(-y)) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
@pytest.mark.parametrize("s0,gamma", [(1.0, 1.0), (3.0, 0.05), (0.01, 2.0)])
def test_threshold_time_vp_honours_snr_scale(c, s0, gamma):
    sched = NoiseSchedule(c=c)
    t = snr_threshold_time(s0, gamma, sched, mode="vp")
    assert 0 < t < 1
    # the vp kernel perturbs coefficients with SNR s0 * snr(t), snr scaled by c
    assert s0 * snr(t, sched) == pytest.approx(gamma, rel=1e-9)


def test_threshold_time_monotonicity():
    t_base = snr_threshold_time(1.0, 1.0, DEFAULTS, mode="vp")
    assert snr_threshold_time(1.0, 2.0, DEFAULTS, mode="vp") < t_base
    assert snr_threshold_time(2.0, 1.0, DEFAULTS, mode="vp") > t_base


def test_threshold_time_saturation_flag():
    # a frequency that never reaches the threshold on [0, 1] crosses after t = 1
    assert snr_threshold_time(1e9, 1e-9, DEFAULTS, mode="vp") > 1
    with warnings.catch_warnings():  # an infinite s0 never crosses; gamma / s0 = 1e-616 does
        warnings.simplefilter("error")
        assert snr_threshold_time(math.inf, 1.0, DEFAULTS, mode="vp") == math.inf
        assert snr_threshold_time(math.inf, 1.0, DEFAULTS, mode="ve") == math.inf
        t = snr_threshold_time(1e308, 1e-308, DEFAULTS, mode="vp")
        assert t == pytest.approx(kernel_crossing_time(1e308, 1e-308, DEFAULTS, "vp"), rel=1e-9)
        assert t == pytest.approx(11.9345, abs=1e-4)
    for mode in ("vp", "ve"):  # one infinite input still crosses; two leave s0 / gamma undefined
        assert snr_threshold_time(1.0, math.inf, DEFAULTS, mode=mode) == 0.0
        with pytest.raises(ValueError, match="^s0 and gamma must be positive and not both inf"):
            snr_threshold_time(math.inf, math.inf, DEFAULTS, mode=mode)
    with pytest.raises(ValueError):
        snr_threshold_time(-1.0, 1.0, DEFAULTS)
    with pytest.raises(ValueError):
        snr_threshold_time(1.0, 1.0, DEFAULTS, mode="other")


_THRESHOLD_INPUTS = st.one_of(
    st.just(math.nan), st.floats(1e-6, 1e6), st.floats(max_value=0.0, allow_infinity=False)
)


@given(s0=_THRESHOLD_INPUTS, gamma=_THRESHOLD_INPUTS, mode=st.sampled_from(["vp", "ve"]))
@example(1.0, 1e12, "vp")
@settings(max_examples=200, deadline=None)
def test_threshold_time_rejects_nan_as_it_rejects_nonpositive_inputs(s0, gamma, mode):
    # a NaN time compares False with 1, so it used to read as a frequency that crosses
    if not (s0 > 0 and gamma > 0):
        with pytest.raises(ValueError, match="s0 and gamma must be positive"):
            snr_threshold_time(s0, gamma, DEFAULTS, mode=mode)
        return
    # e^{s0 / gamma} used to overflow to t = inf for "ve", where the kernel crosses at a finite t;
    # t_of_lambda's old -a + sqrt(a^2 + 2 b y) cancelled for small t: 5.5e-9 relative at 1e-11
    t = snr_threshold_time(s0, gamma, DEFAULTS, mode=mode)
    assert t == pytest.approx(kernel_crossing_time(s0, gamma, DEFAULTS, mode), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "s0, gamma, mode, want",
    [(1e308, 1e-10, "vp", 0.3830), (1e308, 1e-20, "vp", 0.3890), (1000.0, 1.0, "ve", 0.4475)],
)
def test_threshold_time_is_finite_where_the_snr_ratio_leaves_float_range(s0, gamma, mode, want):
    # gamma / s0 and e^{s0 / gamma} used to overflow, and the time read inf ("never crosses")
    sched = NoiseSchedule(a=0.1, b=1e4, c=4.0)
    t = snr_threshold_time(s0, gamma, sched, mode=mode)
    assert t == pytest.approx(kernel_crossing_time(s0, gamma, sched, mode), abs=1e-6)
    assert t == pytest.approx(want, abs=5e-5)


@given(
    s0=st.floats(1e-3, 1e3), gamma=st.floats(1e-3, 1e3), c=st.floats(1.0, 12.0),
    mode=st.sampled_from(["vp", "ve"]),
)
@settings(max_examples=300, deadline=None)
def test_threshold_time_is_where_the_sampled_kernel_reaches_gamma(s0, gamma, c, mode):
    # the closed form must agree with the kernel that apsd draws, in either mode; s0 / gamma
    # stays within 1e±6, as nearer t = 0 schedule.y_scaled's own rounding passes 1e-9 for c > 1
    sched = NoiseSchedule(c=c)
    t = snr_threshold_time(s0, gamma, sched, mode=mode)
    if 0 < t <= 1:
        mean, std = perturb_params(t, sched, mode)
        assert s0 * mean**2 / std**2 == pytest.approx(gamma, rel=1e-9)


@pytest.mark.parametrize("order", ["C", "F"])  # the apsd CLI concatenates into F order
def test_apsd_memory_is_one_noisy_matrix_plus_constant_scratch(rng, traced_peak, order):
    x = np.asarray(rng.normal(size=(65536, 16)), order=order)
    assert traced_peak(lambda: apsd([x], DEFAULTS, [0.0, 0.1, 0.5])) < 1.5 * x.nbytes
