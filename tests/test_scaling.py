import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctpipe.colorspace import SubsampledImage
from dctpipe.scaling import (
    ScalingBounds,
    estimate_ecs_bound,
    estimate_naive_bounds,
    load_bounds,
    reservoir_sample,
    save_bounds,
)
from dctpipe.tokenizer import dct_coefficient_matrices

from oracles import channel_percentile_bounds, explicit_bounds_json, percentile_sorted


def constant_dataset_dc(value, b, n_images=5):
    """Y-channel DC samples of a dataset of constant-value images."""
    samples = []
    for _ in range(n_images):
        s = SubsampledImage(
            np.full((4 * b, 4 * b), float(value)),
            np.full((2 * b, 2 * b), float(value)),
            np.full((2 * b, 2 * b), float(value)),
        )
        y, _, _ = dct_coefficient_matrices(s, b)
        samples.append(y[:, 0])
    return np.concatenate(samples)


def test_constant_image_bound_is_b_times_shift():
    dc = constant_dataset_dc(200, b=2)
    assert np.abs(dc - 144.0).max() < 1e-10
    for tau in (90.0, 98.25, 99.9):
        assert estimate_ecs_bound(dc, tau) == pytest.approx(144.0, abs=1e-9)


def test_bound_doubles_with_block_size():
    eta_2 = estimate_ecs_bound(constant_dataset_dc(200, b=2))
    eta_4 = estimate_ecs_bound(constant_dataset_dc(200, b=4))
    assert eta_4 == pytest.approx(2.0 * eta_2, rel=1e-12)
    assert eta_4 == pytest.approx(288.0, abs=1e-9)


def test_uniform_grid_matches_sort_oracle():
    samples = np.arange(1.0, 101.0)
    tau = 98.25
    expected = max(
        abs(percentile_sorted(samples, tau)), abs(percentile_sorted(samples, 100 - tau))
    )
    assert estimate_ecs_bound(samples, tau) == pytest.approx(expected, rel=1e-12)


@given(
    st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=2, max_size=200),
    st.floats(min_value=50.1, max_value=99.9),
)
@settings(max_examples=100, deadline=None)
def test_percentile_oracle_property(values, tau):
    arr = np.asarray(values)
    expected = max(
        abs(percentile_sorted(arr, tau)), abs(percentile_sorted(arr, 100 - tau))
    )
    if expected <= 0:
        return  # zero bound is rejected by design
    assert estimate_ecs_bound(arr, tau) == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_scale_equivariance(rng):
    samples = rng.normal(size=5000)
    eta = estimate_ecs_bound(samples)
    assert estimate_ecs_bound(samples * 3.5) == pytest.approx(3.5 * eta, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        estimate_ecs_bound([1.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="DC samples contain non-finite values"):
            estimate_ecs_bound([1.0, bad])
    with pytest.raises(ValueError):
        estimate_ecs_bound([1.0, 2.0], tau=50.0)
    with pytest.raises(ValueError):
        estimate_ecs_bound(np.zeros(10))


def test_naive_bounds_iid_ranks_agree(rng):
    mats = tuple(rng.normal(size=(20000, 4)) for _ in range(3))
    bounds = estimate_naive_bounds(mats, 98.25)
    assert bounds.shape == (12,)
    assert np.abs(bounds / bounds.mean() - 1.0).max() < 0.1


def test_naive_rank0_equals_ecs_bound(rng):
    y = rng.normal(size=(5000, 4)) * np.array([10.0, 3.0, 2.0, 1.0])
    mats = (y, rng.normal(size=(5000, 4)), rng.normal(size=(5000, 4)))
    tau = 98.25
    assert estimate_naive_bounds(mats, tau)[0] == pytest.approx(
        estimate_ecs_bound(y[:, 0], tau), rel=1e-12
    )


def test_naive_bounds_track_per_rank_scale(rng):
    sigma = np.array([8.0, 4.0, 2.0, 1.0])
    mats = tuple(rng.normal(size=(100000, 4)) * sigma for _ in range(3))
    bounds = estimate_naive_bounds(mats, 98.25).reshape(3, 4)
    for ch in range(3):
        ratios = bounds[ch] / bounds[ch, -1]
        assert np.abs(ratios / sigma - 1.0).max() < 0.05


def test_naive_broadens_high_frequencies_relative_to_ecs(rng):
    # the assertable form of the broadening claim: after per-rank scaling the
    # high-rank/DC spread ratio is >= the ECS (globally scaled) ratio
    y = rng.normal(size=(50000, 4)) * np.array([20.0, 5.0, 2.0, 0.5])
    mats = (y, y.copy(), y.copy())
    tau = 98.25
    naive = estimate_naive_bounds(mats, tau)[:4]
    eta = estimate_ecs_bound(y[:, 0], tau)
    naive_scaled = y / naive
    ecs_scaled = y / eta
    ratio_naive = naive_scaled[:, 3].std() / naive_scaled[:, 0].std()
    ratio_ecs = ecs_scaled[:, 3].std() / ecs_scaled[:, 0].std()
    assert ratio_naive >= ratio_ecs


def test_naive_rejects_degenerate_rank(rng):
    y = rng.normal(size=(100, 4))
    cb = y.copy()
    cb[:, 2] = 0.0
    with pytest.raises(ValueError, match="^rank 2 of channel Cb has zero spread$"):
        estimate_naive_bounds((y, cb, y), 98.25)


def test_reservoir_sample_deterministic(rng):
    x = rng.normal(size=10000)
    a = reservoir_sample(x, 512, seed=3)
    b = reservoir_sample(x, 512, seed=3)
    assert np.array_equal(a, b)
    assert a.size == 512
    c = reservoir_sample(x, 512, seed=4)
    assert not np.array_equal(a, c)
    assert np.array_equal(reservoir_sample(x, x.size + 1), x)


@pytest.mark.parametrize(
    "samples, limit, message",
    [
        # a matrix used to raise IndexError under its size, and came back whole above it
        (np.zeros((10, 3)), 5, "samples must be a 1-D vector, got shape (10, 3)"),
        (np.zeros((10, 3)), 50, "samples must be a 1-D vector, got shape (10, 3)"),
        (np.float64(2.0), 5, "samples must be a 1-D vector, got shape ()"),
        # a float limit used to raise TypeError from argpartition
        (np.zeros(10), 2.5, "limit must be an integer, got 2.5"),
        (np.zeros(10), 5.0, "limit must be an integer, got 5.0"),
        (np.zeros(10), np.float64(5), "limit must be an integer, got np.float64(5.0)"),
        (np.zeros(10), True, "limit must be an integer, got True"),
        (np.zeros(10), "5", "limit must be an integer, got '5'"),
        (np.zeros(10), None, "limit must be an integer, got None"),
        (np.zeros(10), 0, "limit must be >= 1, got 0"),
        (np.zeros(10), np.int64(-3), "limit must be >= 1, got -3"),
    ],
    ids=["matrix-under", "matrix-over", "scalar", "float", "whole-float", "numpy-float", "bool",
         "str", "none", "zero", "negative"],
)
def test_reservoir_sample_input_rule(samples, limit, message):
    with pytest.raises(ValueError) as info:
        reservoir_sample(samples, limit)
    assert str(info.value) == message


def test_reservoir_sample_takes_numpy_integer_limits():
    x = np.arange(100.0)
    want = reservoir_sample(x, 7, 2).tobytes()
    for limit in (np.int32(7), np.int64(7), np.uint16(7)):
        assert reservoir_sample(x, limit, 2).tobytes() == want, repr(limit)


@given(
    size=st.integers(0, 3000),
    limit=st.one_of(st.integers(1, 40), st.integers(1, 3500)),
    seed=st.integers(0, 2**63 - 1),
)
@settings(max_examples=80, deadline=None)
def test_reservoir_keeps_the_rows_it_picks_from_the_row_numbers(size, limit, seed):
    # the keys depend on (size, limit, seed) alone, so the rows can be picked before
    # the samples exist; bounds --mode naive relies on it
    x = np.random.default_rng(seed % 2**32).normal(size=size)
    picked = reservoir_sample(np.arange(size, dtype=np.int32), limit, seed)
    got = reservoir_sample(x, limit, seed)
    assert np.array_equal(got, x[picked])
    assert len(picked) == min(size, limit)
    assert np.all(np.diff(picked) > 0)  # sorted row numbers, each once


@given(
    rows=st.lists(st.integers(2, 400), min_size=3, max_size=3),
    width=st.integers(1, 9),
    tau=st.floats(min_value=50.1, max_value=99.9),
    seed=st.integers(0, 2**32 - 1),
    rounded=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_naive_bounds_per_column_have_the_bits_of_one_percentile_per_channel(
    rows, width, tau, seed, rounded
):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(n, width)) * rng.uniform(0.5, 300.0, width) for n in rows]
    if rounded:  # ties at the order statistics
        mats = [np.round(m) + 0.5 for m in mats]
    try:
        got = estimate_naive_bounds(mats, tau)
    except ValueError as exc:
        assert "zero spread" in str(exc)
        return
    assert np.array_equal(got, channel_percentile_bounds(mats, tau))


def test_bounds_json_roundtrip(tmp_path):
    ecs = ScalingBounds(mode="ecs", tau=98.25, block_size=4, eta=123.5)
    path = tmp_path / "ecs.json"
    save_bounds(path, ecs)
    assert load_bounds(path) == ecs

    naive = ScalingBounds(
        mode="naive", tau=97.0, block_size=2, naive_bounds=tuple(float(i + 1) for i in range(12))
    )
    path = tmp_path / "naive.json"
    save_bounds(path, naive)
    assert load_bounds(path) == naive


def test_bounds_with_numpy_fields_save_the_plain_bytes(tmp_path):
    # numpy scalars used to reach json.dumps, which cannot write them
    plain, numpy = tmp_path / "plain.json", tmp_path / "numpy.json"
    naive = tuple(float(i + 1) for i in range(12))
    for kind, fields in (("ecs", {"eta": 123.5}), ("naive", {"naive_bounds": naive})):
        save_bounds(plain, ScalingBounds(kind, 98.25, 2, **fields))
        for size, real in ((np.int64, np.float32), (np.uint16, np.float64)):
            wrapped = {k: real(v) if k == "eta" else tuple(map(real, v)) for k, v in fields.items()}
            save_bounds(numpy, ScalingBounds(kind, real(98.25), size(2), **wrapped))
            assert numpy.read_bytes() == plain.read_bytes(), (kind, size, real)


@st.composite
def valid_bounds(draw):
    """Any valid ScalingBounds, its fields Python or numpy scalars and its naive bounds a
    tuple, a list or an array."""
    real = draw(st.sampled_from([float, np.float64, np.float32]))
    size = draw(st.sampled_from([int, np.int64, np.uint16]))(draw(st.integers(1, 8)))
    tau = draw(st.floats(50, 100, exclude_min=True, exclude_max=True).map(real).filter(
        lambda t: 50 < t < 100))  # float32 may round an open end onto 50 or 100
    positive = st.floats(1e-30, 1e30).map(real)
    if draw(st.booleans()):
        return ScalingBounds("ecs", tau, size, eta=draw(positive))
    n = 3 * int(size) ** 2
    vector = draw(st.sampled_from([tuple, list, np.array]))
    return ScalingBounds("naive", tau, size, naive_bounds=vector(
        draw(st.lists(positive, min_size=n, max_size=n))))


@given(valid_bounds())
@settings(max_examples=150, deadline=None)
def test_bounds_file_round_trips_with_the_bytes_of_the_explicit_writer(bounds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "b.json"
        save_bounds(path, bounds)
        assert path.read_text() == explicit_bounds_json(bounds)
        assert load_bounds(path) == bounds


_ECS = {"mode": "ecs", "tau": 98.25, "block_size": 1, "eta": 2.0}
_NAIVE = {"mode": "naive", "tau": 98.25, "block_size": 1, "naive_bounds": [1.0, 2.0, 3.0]}


@pytest.mark.parametrize(
    "doc, message",
    [
        # each of these used to load: the unknown key dropped, the other mode's field kept
        (_ECS | {"extra": [1]},
         "malformed bounds file: TypeError: ScalingBounds.__init__() got an unexpected "
         "keyword argument 'extra'"),
        (_NAIVE | {"extra": [1]},
         "malformed bounds file: TypeError: ScalingBounds.__init__() got an unexpected "
         "keyword argument 'extra'"),
        (_ECS | {"naive_bounds": "junk"}, "ecs bounds take no naive bound vector"),
        (_ECS | {"naive_bounds": [1.0, 2.0, 3.0]}, "ecs bounds take no naive bound vector"),
        (_NAIVE | {"eta": "abc"}, "naive bounds take no eta"),
        (_NAIVE | {"eta": 2.0}, "naive bounds take no eta"),
        ({k: v for k, v in _ECS.items() if k != "mode"},
         "malformed bounds file: TypeError: ScalingBounds.__init__() missing 1 required "
         "positional argument: 'mode'"),
    ],
    ids=["ecs-extra", "naive-extra", "ecs-junk-vector", "ecs-vector", "naive-str-eta",
         "naive-eta", "missing-mode"],
)
def test_bounds_file_holds_exactly_its_modes_keys(tmp_path, doc, message):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_bounds(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "field, message",
    [
        ({"tau": True}, "tau must lie in (50, 100), got True"),
        ({"eta": True}, "ecs bounds require a positive finite eta"),
        ({"mode": "naive", "block_size": 1, "naive_bounds": [1.0, True, 1.0]},
         "all naive bounds must be positive and finite"),
    ],
)
def test_bounds_json_reals_are_numbers_not_true(tmp_path, field, message):
    # a JSON true used to load as the real 1.0
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"mode": "ecs", "tau": 98.25, "block_size": 4, "eta": 2.0} | field))
    with pytest.raises(ValueError) as info:
        load_bounds(path)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "doc",
    [
        [1, 2],
        "ecs",
        {"mode": "ecs", "block_size": 4, "eta": 1.0},
        {"mode": "ecs", "tau": "98", "block_size": 4, "eta": 1.0},
        {"mode": "ecs", "tau": 98.0, "block_size": 4, "eta": "1"},
        {"mode": "naive", "tau": 98.0, "block_size": 1, "naive_bounds": 3},
    ],
)
def test_malformed_bounds_json_is_value_error(tmp_path, doc):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed bounds"):
        load_bounds(path)


@pytest.mark.parametrize("block_size", [2.5, True, 4.0])
def test_bounds_json_block_size_must_be_an_integer(tmp_path, block_size):
    # json reads 4.0 as a float and true as a bool; both used to load as a block size
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"mode": "ecs", "tau": 98.25, "block_size": block_size, "eta": 1.0}))
    with pytest.raises(ValueError) as info:
        load_bounds(path)
    assert str(info.value) == f"block size must be an integer, got {block_size!r}"


def test_bounds_invariants():
    with pytest.raises(ValueError):
        ScalingBounds(mode="ecs", tau=98.25, block_size=2, eta=0.0)
    with pytest.raises(ValueError):
        ScalingBounds(mode="naive", tau=98.25, block_size=2, naive_bounds=(1.0,) * 11)
    with pytest.raises(ValueError):
        ScalingBounds(mode="other", tau=98.25, block_size=2, eta=1.0)
    with pytest.raises(ValueError):
        ScalingBounds(mode="ecs", tau=98.25, block_size=2, eta=np.inf)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ScalingBounds(mode="naive", tau=98.25, block_size=1, naive_bounds=(1.0, bad, 1.0))
