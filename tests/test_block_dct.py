import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dctpipe.block_dct import (
    _basis,
    avg_pool,
    blockify,
    dct2,
    from_zigzag,
    idct2,
    kept_ranks,
    to_zigzag,
    unblockify,
    zigzag_order,
)

from dctpipe.colorspace import SubsampledImage
from dctpipe.diffuse import counter_uniforms, derive_stream
from dctpipe.fd_metric import (
    GaussianStats, _check_grid, compression_ratio, gaussian_stats, scan_mstar,
)
from dctpipe.freq_stats import EntropyWeights, apsd, entropy_weights, power_law_fit
from dctpipe.scaling import ScalingBounds, estimate_ecs_bound, estimate_naive_bounds
from dctpipe.schedule import NoiseSchedule, discrete_schedule
from dctpipe.tokenizer import TokenArray, TokenConfig, detokenize

from oracles import (
    naive_dct2_loops,
    naive_dct2_stack,
    naive_idct2_loops,
    per_block_dct2,
    per_block_idct2,
    zigzag_by_diagonal_walk,
)


def test_constant_block_has_only_dc():
    d = dct2(np.ones((2, 2)))
    assert d[0, 0] == pytest.approx(2.0, abs=1e-12)
    off = d.copy()
    off[0, 0] = 0.0
    assert np.abs(off).max() < 1e-12


@pytest.mark.parametrize("b", [2, 4, 8])
def test_matches_naive_quadruple_loop(rng, b):
    block = rng.normal(size=(b, b))
    assert np.abs(dct2(block) - naive_dct2_loops(block)).max() < 1e-9
    coeffs = rng.normal(size=(b, b))
    assert np.abs(idct2(coeffs) - naive_idct2_loops(coeffs)).max() < 1e-9


def test_stack_oracle_agrees_with_loops(rng):
    blocks = rng.normal(size=(3, 4, 4))
    stacked = naive_dct2_stack(blocks)
    for i in range(3):
        assert np.abs(stacked[i] - naive_dct2_loops(blocks[i])).max() < 1e-12


def test_identity_coeffs_match_oracle(rng):
    d = np.eye(8)
    assert np.abs(idct2(d) - naive_idct2_loops(d)).max() < 1e-9


@pytest.mark.parametrize("b", [2, 4, 8])
def test_dc_only_coeffs_give_constant_block(b):
    c = 3.75
    d = np.zeros((b, b))
    d[0, 0] = b * c
    assert np.abs(idct2(d) - c).max() < 1e-12


@pytest.mark.parametrize("b", [2, 4, 8, 16])
def test_roundtrip_and_parseval(rng, b):
    blocks = rng.normal(size=(50, b, b))
    coeffs = dct2(blocks)
    assert np.abs(idct2(coeffs) - blocks).max() < 1e-9
    assert np.abs((coeffs**2).sum(axis=(1, 2)) - (blocks**2).sum(axis=(1, 2))).max() < 1e-9


def test_linearity(rng):
    a, c = rng.normal(size=(2, 8, 8))
    alpha, beta = 0.37, -2.5
    lhs = dct2(alpha * a + beta * c)
    rhs = alpha * dct2(a) + beta * dct2(c)
    assert np.abs(lhs - rhs).max() < 1e-9


@pytest.mark.parametrize("b", [2, 3, 4, 8, 16])
def test_orthonormality(b):
    t = _basis(b)
    assert np.abs(t.T @ t - np.eye(b)).max() < 1e-9


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _layouts(rng, b: int) -> dict[str, np.ndarray]:
    """One set of BxB tiles as a single block and as stacks in every layout the kernels meet."""
    view = blockify(rng.normal(size=(4 * b, 6 * b)) * 100, b)
    return {
        "2-D": view[1, 2].copy(),
        "3-D": view.reshape(24, b, b),
        "blockify view": view,
        "contiguous": np.ascontiguousarray(view),
        "fortran": np.asfortranarray(view),
        "5-D": np.ascontiguousarray(view).reshape(2, 2, 6, b, b),
    }


@pytest.mark.parametrize("b", range(1, 17))
def test_dct_pair_is_bitwise_the_per_block_product(rng, b):
    for name, x in _layouts(rng, b).items():
        for fast, per_block in ((dct2, per_block_dct2), (idct2, per_block_idct2)):
            got = fast(x)
            assert got.shape == x.shape, (name, fast.__name__)
            assert _bits(got) == _bits(per_block(x)), (name, fast.__name__)


@pytest.mark.parametrize("b", [*range(1, 17), 32])
def test_dct_pair_matches_direct_evaluation(rng, b):
    # a dot product of b^2 terms in float64, with room for every summation order
    tol = b**3 * np.finfo(float).eps
    for name, x in _layouts(rng, b).items():
        scale = np.abs(x).max()
        assert np.abs(dct2(x) - naive_dct2_stack(x)).max() <= tol * scale, name
        assert np.abs(naive_dct2_stack(idct2(x)) - x).max() <= tol * scale, name


@pytest.mark.parametrize("tile", [*range(1, 10), 16, 32])
def test_avg_pool_is_bitwise_numpys_mean(rng, tile):
    for bh, bw, tiles_wide in ((tile, tile, 2), (tile, tile, 5), (3, tile, 3), (tile, 2, 4)):
        grid = rng.normal(size=(3 * bh, tiles_wide * bw)) * 100
        want = blockify(grid, bh, bw).mean(axis=(2, 3))
        assert _bits(avg_pool(grid, bh, bw)) == _bits(want), (bh, bw, tiles_wide)


@pytest.mark.parametrize("tile", [2, 8, 32])
@pytest.mark.parametrize("size", [64, 256])
def test_avg_pool_bytes_do_not_depend_on_layout(rng, size, tile):
    grid = rng.normal(size=(size, size)) * 100
    spaced = np.zeros((size + 2, 2 * size))
    spaced[1:-1, ::2] = grid
    layouts = (grid, np.asfortranarray(grid), spaced[1:-1, ::2])
    assert len({_bits(avg_pool(g, tile)) for g in layouts}) == 1


def test_non_square_rejected():
    with pytest.raises(ValueError):
        dct2(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        idct2(np.zeros((4, 2)))


def test_zigzag_b2():
    assert zigzag_order(2).tolist() == [0, 1, 2, 3]


def test_zigzag_b3_hand_enumeration():
    coords = [(0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2), (1, 2), (2, 1), (2, 2)]
    assert zigzag_order(3).tolist() == [r * 3 + c for r, c in coords]


def test_zigzag_b8_jpeg_prefix():
    assert zigzag_order(8)[:10].tolist() == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]


@given(st.integers(min_value=1, max_value=16))
@settings(max_examples=16, deadline=None)
def test_zigzag_properties(b):
    perm = zigzag_order(b)
    assert sorted(perm.tolist()) == list(range(b * b))
    assert perm[0] == 0
    walk = zigzag_by_diagonal_walk(b)
    assert perm.tolist() == [r * b + c for r, c in walk]
    diag = [(idx // b) + (idx % b) for idx in perm]
    assert diag == sorted(diag)


def test_blockify_square_tiles_and_roundtrip(rng):
    grid = rng.normal(size=(12, 8))
    tiles = blockify(grid, 4)
    assert tiles.shape == (3, 2, 4, 4)
    for i in range(3):
        for j in range(2):
            assert np.array_equal(tiles[i, j], grid[4 * i : 4 * i + 4, 4 * j : 4 * j + 4])
    assert np.array_equal(unblockify(tiles), grid)


def test_blockify_rectangular_tiles(rng):
    grid = rng.normal(size=(6, 20))
    tiles = blockify(grid, 3, 5)
    assert tiles.shape == (2, 4, 3, 5)
    assert np.array_equal(tiles[1, 2], grid[3:6, 10:15])
    assert np.array_equal(unblockify(tiles), grid)
    # whole-plane pooling: one tile per output cell
    pooled = avg_pool(grid, 3, 5)
    assert pooled.shape == (2, 4)
    assert pooled[1, 3] == pytest.approx(grid[3:6, 15:20].mean(), abs=1e-12)


def test_blockify_carries_trailing_axes(rng):
    grid = rng.normal(size=(4, 6, 3, 2))
    tiles = blockify(grid, 2, 3)
    assert tiles.shape == (2, 2, 2, 3, 3, 2)
    assert np.array_equal(tiles[1, 0, :, :, 2, 1], grid[2:4, 0:3, 2, 1])
    assert np.array_equal(unblockify(tiles), grid)


@pytest.mark.parametrize(
    "shape,bh,bw", [((6, 8), 4, None), ((8, 6), 2, 4), ((4, 4), 0, None), ((2, 2), 4, None)]
)
def test_blockify_rejects_untiled_grid(shape, bh, bw):
    with pytest.raises(ValueError, match="not tiled"):
        blockify(np.zeros(shape), bh, bw)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 8])
def test_zigzag_gather_scatter_roundtrip(rng, b):
    blocks = rng.normal(size=(5, 3, b, b))
    coeffs = to_zigzag(blocks)
    assert coeffs.shape == (5, 3, b * b)
    assert np.array_equal(from_zigzag(coeffs, b), blocks)


@pytest.mark.parametrize("b", [2, 3, 4, 8])
def test_to_zigzag_follows_diagonal_walk(rng, b):
    block = rng.normal(size=(b, b))
    walk = zigzag_by_diagonal_walk(b)
    assert to_zigzag(block).tolist() == [block[r, c] for r, c in walk]


def test_from_zigzag_zero_fills_dropped_ranks(rng):
    b, k = 4, 9
    coeffs = rng.normal(size=(7, k))
    blocks = from_zigzag(coeffs, b)
    walk = zigzag_by_diagonal_walk(b)
    for rank, (r, c) in enumerate(walk):
        want = coeffs[:, rank] if rank < k else np.zeros(7)
        assert np.array_equal(blocks[:, r, c], want)
    assert np.array_equal(to_zigzag(blocks)[:, :k], coeffs)


def _rejects(fn) -> bool:
    try:
        fn()
    except ValueError as exc:
        # scan_mstar checks the dataset size only after the geometry
        return "at least 500 images" not in str(exc)
    return False


@given(st.integers(min_value=-2, max_value=12), st.integers(min_value=-2, max_value=150))
@settings(max_examples=300, deadline=None)
@example(-1, 0)
@example(0, 0)
@example(1, 0)
@example(4, 15)
@example(4, 16)
@example(12, 143)
@example(12, 144)
def test_geometry_rule_is_shared_by_its_consumers(b, m):
    valid = b >= 1 and 0 <= m <= b * b - 1
    if valid:
        assert kept_ranks(b, m) == b * b - m
    assert _rejects(lambda: kept_ranks(b, m)) == (not valid)
    size = 2 * max(b, 1)
    consumers = {
        "compression_ratio": lambda: compression_ratio(b, m),
        "TokenConfig": lambda: TokenConfig(b, m, 1.0, size, size),
        "EntropyWeights": lambda: EntropyWeights(np.ones(max(3 * (b * b - m), 0)), b, m),
        "scan_mstar": lambda: scan_mstar([], b, 1.0, [m]),
    }
    for name, fn in consumers.items():
        assert _rejects(fn) == (not valid), name


def _ramp(*shape):
    return np.linspace(1.0, 2.0, math.prod(shape)).reshape(shape)


def _detokenize(tokens):
    # tokens changed after TokenArray's own check reach detokenize's; at B = 1, eta = 1
    # every coefficient is its pixel less 128, so a finite token makes a finite plane
    t = TokenArray(TokenConfig(1, 0, 1.0, 2, 4), np.zeros(tokens.shape))
    t.tokens[...] = tokens
    return detokenize(t)


# every input check through block_dct._check_finite: (its whole message, finite values, call);
# frechet_distance's check of its own result is tested in test_fd_metric
_FINITENESS_CALLERS = [
    pytest.param("Y plane contains non-finite values", _ramp(2, 4),
                 lambda v: SubsampledImage(v, _ramp(1, 2), _ramp(1, 2)), id="SubsampledImage.y"),
    pytest.param("Cb plane contains non-finite values", _ramp(1, 2),
                 lambda v: SubsampledImage(_ramp(2, 4), v, _ramp(1, 2)), id="SubsampledImage.cb"),
    pytest.param("Cr plane contains non-finite values", _ramp(1, 2),
                 lambda v: SubsampledImage(_ramp(2, 4), _ramp(1, 2), v), id="SubsampledImage.cr"),
    pytest.param("token matrix contains non-finite values", _ramp(2, 6),
                 lambda v: TokenArray(TokenConfig(1, 0, 1.0, 2, 4), v), id="TokenArray"),
    pytest.param("tokens scaled by eta 1.0 overflow to non-finite coefficients", _ramp(2, 6),
                 _detokenize, id="detokenize"),
    pytest.param("Y samples contain non-finite values", _ramp(4, 2),
                 lambda v: estimate_naive_bounds((v, _ramp(4, 2), _ramp(4, 2))), id="samples.y"),
    pytest.param("Cb samples contain non-finite values", _ramp(4, 2),
                 lambda v: estimate_naive_bounds((_ramp(4, 2), v, _ramp(4, 2))), id="samples.cb"),
    pytest.param("Cr samples contain non-finite values", _ramp(4, 2),
                 lambda v: estimate_naive_bounds((_ramp(4, 2), _ramp(4, 2), v)), id="samples.cr"),
    pytest.param("coefficients contain non-finite values", _ramp(1000, 2),
                 lambda v: apsd([v], NoiseSchedule(), [0.0]), id="apsd"),
    pytest.param("powers contain non-finite values", _ramp(5),
                 lambda v: power_law_fit(np.r_[1.0, v]), id="power_law_fit"),
    pytest.param("DC samples contain non-finite values", _ramp(4),
                 estimate_ecs_bound, id="estimate_ecs_bound"),
    pytest.param("mean entries contain non-finite values", _ramp(3),
                 lambda v: GaussianStats(v, np.eye(3)), id="GaussianStats.mean"),
    pytest.param("covariance entries contain non-finite values", np.eye(3),
                 lambda v: GaussianStats(np.zeros(3), v), id="GaussianStats.cov"),
    pytest.param("features contain non-finite values", _ramp(4, 3),
                 gaussian_stats, id="gaussian_stats"),
    pytest.param("weights contain non-finite values", np.ones(3),
                 lambda v: EntropyWeights(v, 1, 0), id="EntropyWeights"),
]


@pytest.mark.parametrize("message, finite, call", _FINITENESS_CALLERS)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1.7e308, -1.7e308, 5e-324])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_every_finiteness_check_rejects_exactly_the_non_finite(message, finite, call, value, where):
    values = finite.copy()  # the middle entry of the 3x3 covariance is on its diagonal
    values.flat[{"first": 0, "middle": values.size // 2, "last": values.size - 1}[where]] = value
    if not math.isfinite(value):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(values)
        return
    try:
        call(values)
    except ValueError as exc:  # a later check may refuse it: power_law_fit's sign, an overflow
        assert str(exc) != message


# every integer check through block_dct._check_int: (its name, a whole value it takes, call);
# reservoir_sample's limit and discrete_schedule's steps are tested in their own modules,
# and the CLI's --threads and --max-samples only ever hand it a parsed int
_INTEGER_CALLERS = [
    pytest.param("block size", 4, lambda v: kept_ranks(v, 3), id="kept_ranks.B"),
    pytest.param("drop count", 4, lambda v: kept_ranks(3, v), id="kept_ranks.m"),
    pytest.param("drop count", 4, lambda v: _check_grid([1, v], 3), id="_check_grid"),
    pytest.param("bins", 16, lambda v: entropy_weights([_ramp(1000, 1)] * 3, 1, bins=v).weights,
                 id="entropy_weights.bins"),
    pytest.param("clamped rank", 4, lambda v: EntropyWeights(np.ones(12), 2, 0, (1, v)).clamped_ranks,
                 id="EntropyWeights.clamped_ranks"),
    pytest.param("height", 4, lambda v: TokenConfig(1, 0, 1.0, v, 2), id="TokenConfig.height"),
    pytest.param("width", 4, lambda v: TokenConfig(1, 0, 1.0, 2, v), id="TokenConfig.width"),
    pytest.param("seed", 4, lambda v: counter_uniforms(v, 3), id="counter_uniforms"),
    pytest.param("seed", 4, lambda v: derive_stream(v, 1), id="derive_stream.seed"),
    pytest.param("stream", 4, lambda v: derive_stream(1, v), id="derive_stream.stream"),
]


@pytest.mark.parametrize("name, whole, call", _INTEGER_CALLERS)
def test_every_integer_check_rejects_exactly_the_non_integers(name, whole, call):
    for value in (2.5, float(whole), np.float64(whole), True, str(whole), None):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == f"{name} must be an integer, got {value!r}"
    want = pickle.dumps(call(whole))
    for value in (np.int64(whole), np.uint16(whole)):
        assert pickle.dumps(call(value)) == want, repr(value)


def _schedule_message(**fields):
    fields = ", ".join(f"{k}={v!r}" for k, v in ({"a": 0.1, "b": 19.9, "c": 1.0} | fields).items())
    return f"a, b, c must all be positive and finite, got NoiseSchedule({fields})"


# every real check through block_dct._check_real: (its message for a value, the call,
# which returns the stored value, and the values that lie inside the caller's range)
_REALS = (3, 2.5, np.float32(2.5), np.int64(3))
_TAUS = (75, 60.5, np.float32(60.5), np.int64(75))
_REAL_CALLERS = [
    pytest.param(lambda v: f"eta must be a positive finite real, got {v}",
                 lambda v: TokenConfig(1, 0, v, 2, 2).eta, _REALS, id="TokenConfig.eta"),
    pytest.param(lambda v: f"tau must lie in (50, 100), got {v}",
                 lambda v: ScalingBounds("ecs", v, 4, eta=1.0).tau, _TAUS, id="ScalingBounds.tau"),
    pytest.param(lambda v: "ecs bounds require a positive finite eta",
                 lambda v: ScalingBounds("ecs", 98.25, 4, eta=v).eta, _REALS, id="ScalingBounds.eta"),
    pytest.param(lambda v: "all naive bounds must be positive and finite",
                 lambda v: ScalingBounds("naive", 98.25, 1, naive_bounds=(1.0, v, 1.0)).naive_bounds[1],
                 _REALS, id="ScalingBounds.naive_bounds"),
    pytest.param(lambda v: _schedule_message(a=v), lambda v: NoiseSchedule(a=v).a, _REALS,
                 id="NoiseSchedule.a"),
    pytest.param(lambda v: _schedule_message(b=v), lambda v: NoiseSchedule(b=v).b, _REALS,
                 id="NoiseSchedule.b"),
    pytest.param(lambda v: _schedule_message(c=v), lambda v: NoiseSchedule(c=v).c, _REALS,
                 id="NoiseSchedule.c"),
    pytest.param(lambda v: f"c must be positive and finite, got {v}",
                 lambda v: discrete_schedule(10, c=v).alpha_bar.tobytes(), _REALS,
                 id="discrete_schedule.c"),
]


@pytest.mark.parametrize("message, call, inside", _REAL_CALLERS)
def test_every_real_check_rejects_exactly_the_non_reals(message, call, inside):
    outside = [True, np.True_, 0, -1, math.nan, math.inf, -math.inf]
    for value in outside + ([50, 100] if inside is _TAUS else []):
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == message(value), repr(value)
    for value in inside:  # stored as the Python float, not as given
        assert pickle.dumps(call(value)) == pickle.dumps(call(float(value))), repr(value)
