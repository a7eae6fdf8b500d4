import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctpipe.schedule import (
    DiscreteSchedule,
    NoiseSchedule,
    beta_prime,
    discrete_schedule,
    lambda_of_t,
    snr,
    snr_factor_for_resolution,
    t_of_lambda,
    y_integral,
    y_scaled,
)

from oracles import decimal_beta_prime, decimal_t_of_lambda

DEFAULTS = NoiseSchedule()


def test_y_integral_values():
    assert y_integral(0.0) == 0.0
    assert y_integral(1.0) == pytest.approx(10.05, abs=1e-12)
    assert y_integral(0.5) == pytest.approx(2.5375, abs=1e-12)


def test_y_integral_domain():
    with pytest.raises(ValueError):
        y_integral(-0.01)
    with pytest.raises(ValueError):
        y_integral(1.01)


@pytest.mark.parametrize("fn", [y_integral, lambda_of_t, beta_prime])
@pytest.mark.parametrize("t", [np.nan, np.array([0.5, np.nan])])
def test_nan_time_is_rejected(fn, t):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fn(t)


def test_snr_scaling_is_exact_multiplication():
    t = np.linspace(1e-3, 1.0, 257)
    ratio = snr(t, NoiseSchedule(c=4.0)) / snr(t, DEFAULTS)
    assert np.abs(ratio - 4.0).max() < 1e-12


def test_snr_near_one():
    # e^{-10.05} / (1 - e^{-10.05}), evaluated independently
    expected = math.exp(-10.05) / (1.0 - math.exp(-10.05))
    assert snr(1.0, DEFAULTS) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(4.32e-5, rel=5e-3)
    assert snr(1.0, NoiseSchedule(c=3.0)) == pytest.approx(3 * expected, rel=1e-12)


def test_snr_is_strictly_decreasing():
    t = np.linspace(1e-4, 1.0, 1000)
    values = snr(t, NoiseSchedule(c=2.0))
    assert np.all(np.diff(values) < 0)


def test_snr_diverges_at_zero():
    assert snr(0.0, DEFAULTS) == math.inf


def test_beta_prime_degenerates_at_c1():
    t = np.linspace(0.0, 1.0, 101)
    assert np.abs(beta_prime(t, DEFAULTS) - (0.1 + 19.9 * t)).max() < 1e-12


def test_beta_prime_matches_the_decimal_oracle():
    # the form base + w (-base) / (1 + w) cancelled to 1.8e-10 relative at large c
    t = np.geomspace(1e-9, 1.0, 200)
    for c in (0.5, 4.0, 12.0, 1e6):
        sched = NoiseSchedule(c=c)
        want = np.array([decimal_beta_prime(v, sched) for v in t])
        assert np.abs(beta_prime(t, sched) / want - 1.0).max() < 1e-14, c


def test_beta_prime_at_zero_is_a_over_c():
    assert beta_prime(0.0, NoiseSchedule(c=4.0)) == pytest.approx(0.025, abs=1e-12)
    assert beta_prime(0.0, NoiseSchedule(c=12.0)) == pytest.approx(0.1 / 12.0, abs=1e-12)


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
def test_beta_prime_matches_finite_difference_of_y_scaled(c):
    sched = NoiseSchedule(c=c)
    h = 1e-6
    t = np.linspace(h, 1.0 - h, 1000)
    fd = (y_scaled(t + h, sched) - y_scaled(t - h, sched)) / (2.0 * h)
    assert np.abs(fd - beta_prime(t, sched)).max() < 1e-4


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
def test_y_scaled_zero_at_origin_and_integrates_beta_prime(c):
    sched = NoiseSchedule(c=c)
    assert y_scaled(0.0, sched) == pytest.approx(0.0, abs=1e-14)
    # trapezoid integration of beta' reproduces the closed form
    for t_end in (0.25, 0.7, 1.0):
        grid = np.linspace(0.0, t_end, 20001)
        integral = np.trapezoid(beta_prime(grid, sched), grid)
        assert integral == pytest.approx(float(y_scaled(t_end, sched)), abs=1e-6)


def test_lambda_monotone_and_shifts_with_c():
    t = np.linspace(1e-3, 1.0, 500)
    lam1 = lambda_of_t(t, DEFAULTS)
    assert np.all(np.diff(lam1) < 0)
    lam4 = lambda_of_t(t, NoiseSchedule(c=4.0))
    assert np.abs(lam4 - lam1 - 0.5 * math.log(4.0)).max() < 1e-12


def test_lambda_halfway_value():
    # 0.5 ln(e^{-y} / (1 - e^{-y})) at y = 2.5375, computed independently
    y = 2.5375
    expected = 0.5 * math.log(math.exp(-y) / (1.0 - math.exp(-y)))
    assert lambda_of_t(0.5, DEFAULTS) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-1.228, abs=1e-3)


def test_lambda_rejects_t0():
    with pytest.raises(ValueError):
        lambda_of_t(0.0, DEFAULTS)


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
def test_lambda_inverse_roundtrip_grid(c):
    sched = NoiseSchedule(c=c)
    t = np.linspace(1e-4, 1.0, 1000)
    back = t_of_lambda(lambda_of_t(t, sched), sched)
    assert np.abs(back - t).max() < 1e-9


def test_t_of_lambda_c1_degenerate_form():
    sched = DEFAULTS
    lam = np.linspace(-5.0, 5.0, 101)
    direct = (-sched.a + np.sqrt(
        sched.a**2 + 2 * sched.b * np.log((1.0 + np.exp(2 * lam)) / np.exp(2 * lam))
    )) / sched.b
    assert np.abs(t_of_lambda(lam, sched) - direct).max() < 1e-9


def test_t_of_lambda_hits_half_at_c4():
    sched = NoiseSchedule(c=4.0)
    assert t_of_lambda(lambda_of_t(0.5, sched), sched) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
@pytest.mark.parametrize("lam", [-1000.0, -1e6, -1e300, -1e308, -1.79e308])
def test_t_of_lambda_is_finite_where_e_to_the_minus_2_lambda_overflows(c, lam):
    # c e^{-2 lam} used to overflow to inf, with a RuntimeWarning, and t with it; from
    # lam = -0.9e308 on, -2 lam itself did
    sched = NoiseSchedule(c=c)
    assert t_of_lambda(lam, sched) == pytest.approx(decimal_t_of_lambda(lam, sched), rel=1e-12)


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
def test_t_of_lambda_is_finite_where_b_y_overflows(c):
    # y = ln c + 2e307, so b y passes the float max; t is sqrt(2 y / b) to double precision
    sched = NoiseSchedule(c=c)
    want = math.sqrt(2.0 * (math.log(c) + 2e307) / sched.b)
    assert t_of_lambda(-1e307, sched) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "sched",
    [DEFAULTS, NoiseSchedule(c=4.0), NoiseSchedule(c=12.0), NoiseSchedule(0.1, 1e4, 4.0),
     NoiseSchedule(c=1e-6), NoiseSchedule(c=1e-3), NoiseSchedule(c=0.5)],
    ids=["c1", "c4", "c12", "steep", "c1e-6", "c1e-3", "c0.5"],
)
def test_t_of_lambda_matches_the_decimal_oracle(sched):
    # (-a + sqrt(a^2 + 2 b y)) / b cancelled as t -> 0: 2.19 relative error at lam = 40
    lam = np.linspace(-20.0, 40.0, 241)
    want = np.array([decimal_t_of_lambda(v, sched) for v in lam])
    assert np.abs(t_of_lambda(lam, sched) / want - 1.0).max() < 1e-14


@pytest.mark.parametrize("lam", [math.nan, [0.0, math.nan]])
def test_t_of_lambda_rejects_nan(lam):
    # a NaN lambda used to give NaN with an `invalid value in logaddexp` warning
    with pytest.raises(ValueError, match="lambda must not be NaN"):
        t_of_lambda(lam)


@pytest.mark.parametrize("lam, want", [(math.inf, 0.0), (-math.inf, math.inf), (1.79e308, 0.0)])
def test_t_of_lambda_at_the_ends(lam, want):
    assert t_of_lambda(lam, NoiseSchedule(c=4.0)) == want


def test_t_of_lambda_keeps_a_tiny_time():
    # the cancelling form returned 0.0 here
    assert decimal_t_of_lambda(25.0, DEFAULTS) == pytest.approx(1.92875e-21, rel=1e-5, abs=0)
    assert t_of_lambda(25.0) == pytest.approx(decimal_t_of_lambda(25.0, DEFAULTS), rel=1e-14, abs=0)


@given(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1.0, max_value=64.0),
)
@settings(max_examples=200, deadline=None)
def test_lambda_roundtrip_property(t, c):
    sched = NoiseSchedule(c=c)
    assert abs(t_of_lambda(lambda_of_t(t, sched), sched) - t) < 1e-9


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=1.0, max_value=64.0))
@settings(max_examples=200, deadline=None)
def test_no_nans_in_stability_domain(t, c):
    sched = NoiseSchedule(c=c)
    assert np.isfinite(beta_prime(t, sched))
    assert np.isfinite(y_scaled(t, sched))
    if t > 0:
        # lambda may hit +inf when t underflows toward 0, but never NaN
        assert not np.isnan(lambda_of_t(t, sched))
    if t >= 1e-9:
        assert np.isfinite(lambda_of_t(t, sched))


def test_discrete_c1_reproduces_base_betas():
    sched = discrete_schedule(1000, 1e-4, 0.02, c=1.0)
    base = np.linspace(1e-4, 0.02, 1000)
    assert np.abs(sched.beta - base).max() < 1e-12


@pytest.mark.parametrize("c", [1.0, 4.0, 12.0])
def test_discrete_snr_ratio_per_step(c):
    base = discrete_schedule(1000, 1e-4, 0.02, c=1.0)
    scaled = discrete_schedule(1000, 1e-4, 0.02, c=c)
    lhs = scaled.alpha_bar / (1.0 - scaled.alpha_bar)
    rhs = c * base.alpha_bar / (1.0 - base.alpha_bar)
    assert np.abs(lhs / rhs - 1.0).max() < 1e-10


def test_discrete_forward_reconstruction_oracle():
    sched = discrete_schedule(1000, 1e-4, 0.02, c=4.0)
    rebuilt = np.cumprod(1.0 - sched.beta)
    assert np.abs(rebuilt / sched.alpha_bar - 1.0).max() < 1e-9


def test_discrete_validation():
    with pytest.raises(ValueError):
        discrete_schedule(1)
    with pytest.raises(ValueError):
        discrete_schedule(10, 0.5, 0.1)
    with pytest.raises(ValueError):
        DiscreteSchedule(np.array([0.1, 0.2]), np.array([0.5, 0.6]))  # not decreasing


@pytest.mark.parametrize(
    "steps", [2.5, 10.0, np.float64(10), "10", None, True],
    ids=["fraction", "whole float", "numpy float", "string", "none", "bool"],
)
def test_discrete_schedule_steps_must_be_an_integer(steps):
    with pytest.raises(ValueError) as info:
        discrete_schedule(steps)
    assert str(info.value) == f"steps must be an integer, got {steps!r}"


def test_discrete_schedule_takes_numpy_integer_steps():
    want = discrete_schedule(10, c=4.0)
    for steps in (np.int64(10), np.int32(10), np.uint16(10)):
        got = discrete_schedule(steps, c=4.0)
        assert got.beta.tobytes() == want.beta.tobytes()
        assert got.alpha_bar.tobytes() == want.alpha_bar.tobytes()


@pytest.mark.parametrize(
    "c, message",
    [
        (0.0, "c must be positive and finite, got 0.0"),
        (-1.0, "c must be positive and finite, got -1.0"),
        (math.nan, "c must be positive and finite, got nan"),
        (math.inf, "c must be positive and finite, got inf"),
        # c * SNR overflows to inf at the first steps, and inf / inf is NaN
        (1e308, "scaled schedule leaves (0, 1) for c=1e+308; reduce c or the beta range"),
    ],
)
def test_discrete_schedule_rejects_c_outside_zero_to_inf(c, message):
    with pytest.raises(ValueError) as info:
        discrete_schedule(10, c=c)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "beta, alpha_bar, message",
    [
        ([math.nan, math.nan], [math.nan, math.nan], "every beta step must lie in (0, 1)"),
        ([0.1, 0.2], [math.nan, 0.5], "alpha_bar must lie in (0, 1)"),
        ([0.1, 0.2], [0.9, math.nan], "alpha_bar must lie in (0, 1)"),
        ([0.0, 0.2], [0.9, 0.5], "every beta step must lie in (0, 1)"),
        ([0.1, 1.0], [0.9, 0.5], "every beta step must lie in (0, 1)"),
        ([0.1, 0.2], [1.0, 0.5], "alpha_bar must lie in (0, 1)"),
        ([0.1, 0.2], [0.9, 0.0], "alpha_bar must lie in (0, 1)"),
        ([0.1, 0.2], [0.5, 0.5], "alpha_bar must be strictly decreasing"),
    ],
)
def test_discrete_schedule_checks_hold_for_nan(beta, alpha_bar, message):
    with pytest.raises(ValueError) as info:
        DiscreteSchedule(np.array(beta), np.array(alpha_bar))
    assert str(info.value) == message


def test_schedule_invariants():
    with pytest.raises(ValueError):
        NoiseSchedule(a=0.0)
    with pytest.raises(ValueError):
        NoiseSchedule(c=-1.0)


@pytest.mark.parametrize("field", ["a", "b", "c"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_schedule_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        NoiseSchedule(**{field: value})


def test_resolution_keyed_factor():
    assert snr_factor_for_resolution(64) == 4.0
    assert snr_factor_for_resolution(256) == 4.0
    assert snr_factor_for_resolution(512) == 12.0
