import math

import numpy as np
import pytest

from dctpipe.diffuse import (
    counter_normals,
    counter_uniforms,
    derive_stream,
    noisy,
    perturb,
    perturb_params,
)
from dctpipe.freq_stats import apsd
from dctpipe.schedule import NoiseSchedule
from dctpipe.tokenizer import TokenArray, TokenConfig

from oracles import box_muller_normal, splitmix64_uniform

DEFAULTS = NoiseSchedule()
# counts around the 2^15-normal chunk of counter_normals, and starts past 32 bits
EDGE_COUNTS = (0, 1, 2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 5)
STARTS = (0, 7, 2**32 + 3)


def make_tokens(rng, h=32, w=32, b=4):
    cfg = TokenConfig(b, 0, 1.0, h, w)
    return TokenArray(cfg, rng.normal(size=(cfg.token_count, cfg.token_width)))


def test_params_at_zero_and_one():
    assert perturb_params(0.0, DEFAULTS) == (1.0, 0.0)
    assert perturb_params(0.0, NoiseSchedule(c=1e-300), "ve") == (1.0, 0.0)
    _, std = perturb_params(1.0, DEFAULTS)
    assert std == pytest.approx(math.sqrt(1.0 - math.exp(-10.05)), rel=1e-12)
    assert std == pytest.approx(0.999978, abs=1e-6)


def test_variance_preservation_identity():
    for t in np.linspace(0.0, 1.0, 1000):
        mean, std = perturb_params(float(t), NoiseSchedule(c=4.0))
        assert 0 < mean <= 1
        assert abs(mean**2 + std**2 - 1.0) < 1e-12


def test_params_validation():
    with pytest.raises(ValueError, match="mode"):
        perturb_params(0.5, DEFAULTS, mode="other")
    with pytest.raises(ValueError, match="mode"):
        perturb_params(0.0, DEFAULTS, mode="other")
    # the VP mean leaves (0, 1] when it underflows, or when y'(t) rounds below 0
    with pytest.raises(ValueError, match="mean coefficient"):
        perturb_params(0.5, NoiseSchedule(a=1e308, b=1e308))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(ValueError, match="mean"):
        perturb_params(1e-300, NoiseSchedule(c=1e-300))
    with pytest.raises(ValueError):
        perturb_params(float("nan"), DEFAULTS)


@pytest.mark.parametrize(
    "t, sched",
    [
        (1e-300, NoiseSchedule(c=1e-300)),  # y'(t) = -inf through log1p(-1)
        (1.0, NoiseSchedule(a=1.7e308, b=1.7e308)),  # y(t) overflows to inf
    ],
)
def test_ve_rejects_y_prime_outside_zero_to_inf(t, sched):
    message = r"y'\(t\) must lie in \[0, inf\)"
    with np.errstate(all="raise", under="ignore"), pytest.raises(ValueError, match=message):
        perturb_params(t, sched, "ve")


def test_t0_is_bitwise_identity(rng):
    x = make_tokens(rng)
    out = perturb(x, 0.0, DEFAULTS, seed=7)
    assert np.array_equal(out.tokens, x.tokens)
    assert out.tokens is not x.tokens


def test_deterministic_across_runs_and_chunkings(rng):
    x = make_tokens(rng)
    a = perturb(x, 0.4, DEFAULTS, seed=123)
    b = perturb(x, 0.4, DEFAULTS, seed=123)
    assert np.array_equal(a.tokens, b.tokens)
    c = perturb(x, 0.4, DEFAULTS, seed=124)
    assert not np.array_equal(a.tokens, c.tokens)

    # noise is counter-keyed: generating in pieces gives identical values
    n = x.tokens.size
    whole = counter_normals(123, n)
    split = np.concatenate([counter_normals(123, n // 3), counter_normals(123, n - n // 3, start=n // 3)])
    assert np.array_equal(whole, split)
    offsets = (0, 1, 2**15 - 1, 2**15 + 3)
    whole = counter_normals(123, max(offsets) + max(EDGE_COUNTS))
    for a in offsets:
        for n in EDGE_COUNTS:
            assert np.array_equal(whole[a : a + n], counter_normals(123, n, start=a))


def test_counter_uniforms_match_pure_python_splitmix64():
    # counters past 2^32 run the same _uniforms through counter_normals' oracle test below
    seed, n = 0xDC7, 2 * max(EDGE_COUNTS)
    assert np.array_equal(counter_uniforms(seed, n), [splitmix64_uniform(seed, c) for c in range(n)])


@pytest.mark.parametrize("start", STARTS)
def test_counter_noise_matches_pure_python_splitmix64(start):
    seed, n = 0xDC7, max(EDGE_COUNTS)
    # numpy's log and cos may differ from libm's in the last bits
    want = np.array([box_muller_normal(seed, start + i) for i in range(n)])
    ulp = np.array([math.ulp(w) for w in want])
    for count in EDGE_COUNTS:
        got = counter_normals(seed, count, start=start)
        assert got.shape == (count,)
        assert np.all(np.abs(got - want[:count]) <= 4 * ulp[:count])


def layouts(x):
    """x in C order, in F order and as a strided view."""
    wide = np.zeros((x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
    wide[:, ::2] = x
    return [np.ascontiguousarray(x), np.asfortranarray(x), wide[:, ::2]]


@pytest.mark.parametrize("mode", ["vp", "ve"])
def test_noisy_offset_draws_the_tail_of_a_longer_matrix(rng, mode):
    x = rng.normal(size=(3 * 2**15 // 4 + 9, 4))
    whole = noisy(x, 0.4, DEFAULTS, seed=3, mode=mode)
    for row in (1, 2, 2**13 - 1, 2**13 + 1, 3 * 2**13 + 2):  # first counter 4 * row: off a chunk edge
        tail = noisy(x[row:], 0.4, DEFAULTS, seed=3, mode=mode, offset=4 * row)
        assert tail.tobytes() == whole[row:].tobytes()


@pytest.mark.parametrize("mode", ["vp", "ve"])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_noisy_returns_c_ordered_float64_whatever_the_layout_of_x0(rng, t, mode):
    x = rng.normal(size=(1000, 16)).astype(np.float32).astype(np.float64)  # exact in float32
    want = noisy(x, t, DEFAULTS, seed=1, mode=mode).tobytes()
    for x0 in layouts(x) + layouts(x.astype(np.float32)):
        xt = noisy(x0, t, DEFAULTS, seed=1, mode=mode)
        assert xt.dtype == np.float64 and xt.flags.c_contiguous
        assert not np.shares_memory(xt, x0)
        assert xt.tobytes() == want


def test_apsd_bits_do_not_depend_on_the_layout_of_coeffs(rng):
    x = rng.normal(size=(2000, 16))
    runs = {apsd([c], DEFAULTS, [0.0, 0.1, 0.5], seed=2).tobytes() for c in layouts(x)}
    assert len(runs) == 1


@pytest.mark.parametrize("order", ["C", "F"])
def test_noisy_memory_is_its_output_plus_constant_scratch(rng, traced_peak, order):
    x = np.asarray(rng.normal(size=(65536, 16)), order=order)
    assert traced_peak(lambda: noisy(x, 0.5, DEFAULTS, seed=1)) < 1.5 * x.nbytes


def test_monte_carlo_moments(rng):
    t = 0.3
    mean, std = perturb_params(t, DEFAULTS)
    cfg = TokenConfig(2, 0, 1.0, 16, 16)
    n_draws = 100_000 // cfg.token_width + 1
    x0 = np.full((cfg.token_count, cfg.token_width), 2.0)
    samples = []
    for i in range(n_draws // cfg.token_count + 1):
        out = perturb(TokenArray(cfg, x0), t, DEFAULTS, seed=i)
        samples.append(out.tokens.ravel())
    xt = np.concatenate(samples)
    assert xt.size >= 100_000
    assert xt.mean() == pytest.approx(2.0 * mean, rel=0.01)
    assert xt.std() == pytest.approx(std, rel=0.01)


def test_counter_uniforms_are_open_interval_and_uniform():
    u = counter_uniforms(9, 200_000)
    assert u.min() > 0.0
    assert u.max() <= 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_standard_moments():
    z = counter_normals(5, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert abs(np.mean(z**3)) < 0.05  # symmetric


def test_isotropy_across_coefficients(rng):
    # per-coefficient noise variance is flat across the token width
    cfg = TokenConfig(2, 0, 1.0, 8, 8)
    x0 = TokenArray(cfg, np.zeros((cfg.token_count, cfg.token_width)))
    rows = np.stack(
        [perturb(x0, 0.5, DEFAULTS, seed=s).tokens.reshape(-1) for s in range(2000)]
    )
    _, std = perturb_params(0.5, DEFAULTS)
    per_coeff_var = rows.var(axis=0)
    assert np.abs(per_coeff_var / std**2 - 1.0).max() < 0.15


def test_derive_stream_distinct():
    seeds = {derive_stream(1, k) for k in range(100)}
    assert len(seeds) == 100
    assert derive_stream(1, 5) == derive_stream(1, 5)
    assert derive_stream(2, 5) != derive_stream(1, 5)


def kernel_oracle(t, sched, mode):
    # (mean, std) from the schedule's SNR alone: alpha' = c SNR / (1 + c SNR) with
    # SNR = e^-y / (1 - e^-y), y = a t + b t^2 / 2; vp is (sqrt(alpha'), sqrt(1 - alpha')),
    # ve is (1, sqrt(y')) with y' = -ln alpha'
    if t == 0:
        return 1.0, 0.0
    y = sched.a * t + 0.5 * sched.b * t * t
    snr_scaled = sched.c * math.exp(-y) / -math.expm1(-y)
    alpha = snr_scaled / (1.0 + snr_scaled)
    if mode == "vp":
        return math.sqrt(alpha), math.sqrt(1.0 / (1.0 + snr_scaled))
    return 1.0, math.sqrt(math.log1p(1.0 / snr_scaled))


@pytest.mark.parametrize("mode", ["vp", "ve"])
@pytest.mark.parametrize("c", [1.0, 4.0, 0.25])
def test_kernel_matches_schedule_oracle_and_apsd_samples_it(rng, mode, c):
    sched = NoiseSchedule(c=c)
    t_grid = [0.0, 0.01, 0.3, 1.0]
    x0 = rng.normal(size=(1000, 3)) * [4.0, 1.0, 0.25]
    powers = apsd([x0], sched, t_grid, seed=9, mode=mode)
    assert powers.shape == (len(t_grid), 3)
    for i, t in enumerate(t_grid):
        mean, std = perturb_params(t, sched, mode)
        want_mean, want_std = kernel_oracle(t, sched, mode)
        assert mean == pytest.approx(want_mean, rel=1e-9)
        assert std == pytest.approx(want_std, rel=1e-9)
        xt = noisy(x0, t, sched, seed=i, mode=mode)
        eps = counter_normals(i, x0.size).reshape(x0.shape)
        np.testing.assert_allclose(xt, want_mean * x0 + want_std * eps, rtol=1e-9, atol=1e-12)
        if t == 0:
            assert np.array_equal(xt, x0) and xt is not x0
        # row i of apsd is the mean square of the kernel under the sub-seed of time i
        xt = noisy(x0, t, sched, derive_stream(9, i), mode)
        assert np.array_equal(powers[i], np.mean(xt * xt, axis=0))
