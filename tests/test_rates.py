import math

import pytest

from majmux.rates import (EPSILON_PER_P, PhysicalNoise, bisect, derive_rates,
                          epsilon_of_p, jvn_stable_eta, single_triple_map)


def test_zero_noise_gives_zero_rates():
    noise, maj3, enc = derive_rates(0.0)
    assert noise.p == noise.p_c == noise.wire_prep == 0.0
    assert maj3.epsilon == maj3.epsilon_prime == maj3.epsilon_zero == 0.0
    assert enc.q_i == enc.q_o == enc.ap == 0.0


def test_component_shares_exact():
    for p in (1e-6, 0.004, 0.01, 0.028, 0.1, 0.3):
        noise, maj3, enc = derive_rates(p)
        assert noise.p_c == (8.0 / 9.0) * p
        assert noise.wire_prep == (2.0 / 3.0) * p
        assert maj3.epsilon == pytest.approx((148.0 / 63.0) * p, rel=1e-15)
        assert maj3.epsilon_prime == pytest.approx(maj3.epsilon / 2.0,
                                                   rel=1e-14)
        assert enc.q_i == pytest.approx((32.0 / 63.0) * p, rel=1e-15)
        assert enc.q_o == pytest.approx((4.0 / 3.0) * p + noise.p_c / 7.0,
                                        rel=1e-15)
        assert enc.ap == pytest.approx(enc.q_i + enc.q_o, rel=1e-15)
        assert enc.ap < 2.0 * p


def test_worked_values():
    _, maj3, _ = derive_rates(0.01)
    assert maj3.epsilon == pytest.approx(0.0234920634920635, abs=1e-12)
    _, _, enc = derive_rates(0.028)
    assert enc.ap == pytest.approx(0.0551, abs=5e-5)
    assert enc.q_i == pytest.approx(0.01422, abs=5e-6)


def test_epsilon_zero_near_published_ratio():
    _, maj3, enc = derive_rates(0.01)
    assert maj3.epsilon_zero == pytest.approx(enc.ap + (4.0 / 3.0) * 0.01,
                                              rel=1e-15)
    assert maj3.epsilon_zero / 0.01 == pytest.approx(3.30, abs=0.01)
    assert maj3.epsilon_zero / maj3.epsilon == pytest.approx(1.405, abs=0.01)


def test_alternate_constant_exposed():
    assert EPSILON_PER_P == 148.0 / 63.0
    assert epsilon_of_p(0.01) == derive_rates(0.01)[1].epsilon


def test_epsilon_linear_in_p():
    for p in (1e-5, 0.002, 0.05):
        assert epsilon_of_p(p) == pytest.approx(EPSILON_PER_P * p, rel=1e-15)


def test_epsilon_clamped_with_warning():
    with pytest.warns(UserWarning):
        _, maj3, _ = derive_rates(0.9)
    assert maj3.epsilon == 1.0


def test_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        derive_rates(-1e-12)
    with pytest.raises(ValueError):
        derive_rates(1.0000001)
    for bad in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            PhysicalNoise(bad)


def test_stable_eta_endpoints():
    assert jvn_stable_eta(0.0) == (0.0, 1.0)
    low, high = jvn_stable_eta(1.0 / 6.0)
    assert low == pytest.approx(0.5, abs=1e-12)
    assert high == pytest.approx(0.5, abs=1e-12)


def test_stable_eta_hand_value():
    low, high = jvn_stable_eta(0.1)
    assert low == pytest.approx(0.5 * (1.0 - math.sqrt(0.5)), rel=1e-14)
    assert low + high == pytest.approx(1.0, rel=1e-14)


def test_stable_eta_above_threshold_rejected():
    # NaN fails both range comparisons, so it must be refused on its own
    for bad in (1.0 / 6.0 + 1e-9, -0.01, math.nan, math.inf):
        with pytest.raises(ValueError):
            jvn_stable_eta(bad)


def test_both_branches_are_fixed_points():
    for k in range(16):
        eps = k / 100.0  # 0.00 .. 0.15 < 1/6
        for eta in jvn_stable_eta(eps):
            assert single_triple_map(eta, eps) == pytest.approx(eta,
                                                                abs=1e-12)


def test_map_trivial_points():
    assert single_triple_map(0.0, 0.0) == 0.0
    for eps in (0.0, 0.1, 0.3, 0.7):
        assert single_triple_map(0.5, eps) == pytest.approx(0.5, abs=1e-15)


def test_map_hand_value():
    assert single_triple_map(0.2, 0.1) == pytest.approx(0.1832, abs=1e-12)


def test_map_rejects_out_of_range_input():
    for eta, eps in ((-0.1, 0.1), (1.5, 0.1), (0.2, -0.1), (0.2, 1.5),
                     (math.nan, 0.1)):
        with pytest.raises(ValueError):
            single_triple_map(eta, eps)


def test_bisect_stops_at_float_resolution():
    # the root is bracketed by the two floats next to it, and sqrt(2) is
    # the correctly rounded root of x^2 - 2
    g = lambda x: x * x - 2.0
    r = bisect(g, 1.0, 2.0)
    assert g(math.nextafter(r, 0.0)) < 0.0 <= g(math.nextafter(r, 2.0))
    assert abs(r - math.sqrt(2.0)) <= math.ulp(r)


def test_bisect_terminates_on_nan_and_checks_the_bracket():
    # a NaN inside reads as not below zero, so the bracket still halves
    # down to two adjacent floats; a NaN end is no sign change
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.5 if x in (0.0, 1.0) else math.nan

    assert 0.0 <= bisect(g, 0.0, 1.0) <= 1.0
    assert len(calls) < 1100
    for end in (0.0, 1.0):
        with pytest.raises(RuntimeError, match="no sign change"):
            bisect(lambda x: math.nan if x == end else x - 0.5, 0.0, 1.0)
    with pytest.raises(RuntimeError, match="no sign change"):
        bisect(lambda x: x + 1.0, 0.0, 1.0)
