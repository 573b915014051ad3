import math
from fractions import Fraction

import numpy as np
import pytest

from majmux import netsim
from majmux.netsim import (CASCADE_DEPTH, Idealized, TrialStats, _CHUNK,
                           _amp_layer, _cascade_shard, cascade_mc)
from majmux.rates import (EncodeBound, PhysicalNoise, derive_rates,
                          epsilon_of_p, p_crit, pfail_bound)
from oracles import cascade_shard_bytes

MEAS_SLOPE = 32.0 / 63.0


def _sigma(q, n):
    return math.sqrt(q * (1.0 - q) / n)


def _noise(p):
    """The fan-out noise and corrector gates that cascade_mc gives a shard."""
    return PhysicalNoise(p), Idealized(epsilon_of_p(p))


def test_bound_slope_at_zero():
    h = 1e-8
    slope = pfail_bound(h).p_fail / h
    assert abs(slope - MEAS_SLOPE) < 1e-6


def test_bound_fields_consistent():
    b = pfail_bound(0.02)
    assert isinstance(b, EncodeBound)
    enc = derive_rates(0.02)[2]
    ap = enc.ap
    assert b.terms[0] == enc.q_i
    assert b.alpha == pytest.approx(3 * ap**2 - 2 * ap**3, rel=1e-13)
    keep = 1.0 - ap
    seed = 1 - keep**6 - 6 * ap * keep**5 - 3 * ap**2 * keep**4
    assert b.seed_to_logical == pytest.approx(seed, rel=1e-13)
    assert b.p_fail == pytest.approx(sum(b.terms), abs=1e-16)
    assert all(t >= 0.0 for t in b.terms)
    assert 0.0 < b.p_fail < 1.0


def test_bound_hand_value():
    p = 0.02
    enc = derive_rates(p)[2]
    q_i, ap = enc.q_i, enc.ap
    keep = 1.0 - ap
    alpha = 3 * ap**2 - 2 * ap**3
    seed = 1 - keep**6 - 6 * ap * keep**5 - 3 * ap**2 * keep**4
    expect = q_i + (1 - q_i) * (alpha + 3 * ap * keep**2 * seed
                                + keep**3 * (3 * alpha**2 - 2 * alpha**3))
    assert pfail_bound(p).p_fail == pytest.approx(expect, rel=1e-13)


def test_bound_monotone_in_p():
    grid = np.linspace(0.0, 0.2, 101)
    vals = [pfail_bound(p).p_fail for p in grid]
    assert vals[0] == 0.0
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bound_domain():
    with pytest.raises(ValueError):
        pfail_bound(-1e-9)
    with pytest.raises(ValueError):
        pfail_bound(0.2000001)


def test_crossing_point():
    pc = p_crit()
    assert pc == pytest.approx(0.0284619, abs=2e-6)
    assert pfail_bound(pc).p_fail == pytest.approx(pc, abs=1e-5)
    # below the crossing the bound beats bare preparation, above it loses
    assert pfail_bound(0.02).p_fail < 0.02
    assert pfail_bound(0.04).p_fail > 0.04


def _p_fail_exact(p: Fraction) -> Fraction:
    """pfail_bound(p).p_fail at a rational p in exact rationals, from the
    shares p_c = (8/9) p and wire = (2/3) p and the gate marginals 4/7
    and 1/7 of p_c."""
    p_c, wire = Fraction(8, 9) * p, Fraction(2, 3) * p
    q_i = Fraction(4, 7) * p_c
    ap = q_i + 2 * wire + Fraction(1, 7) * p_c
    keep = 1 - ap
    alpha = 3 * ap**2 - 2 * ap**3
    seed = 1 - keep**6 - 6 * ap * keep**5 - 3 * ap**2 * keep**4
    return q_i + (1 - q_i) * (alpha + 3 * ap * keep**2 * seed
                              + keep**3 * (3 * alpha**2 - 2 * alpha**3))


def test_printed_p_crit_is_certified_in_exact_rationals():
    # p_fail(p) - p, exactly, changes sign within four ulp of the printed
    # p_crit (the exact root lies two to three ulp above it), and the
    # float bound there is the exact one to a relative 1e-14
    pc = p_crit()
    ulp = math.ulp(pc)
    for p, sign in ((pc - 4 * ulp, -1), (pc + 4 * ulp, 1)):
        exact = _p_fail_exact(Fraction(p))
        assert (exact - Fraction(p)) * sign > 0, p
        assert abs(Fraction(pfail_bound(p).p_fail) - exact) <= (
            Fraction(1, 10**14) * exact)


def test_amp_layer_puts_top_branch_on_stride1_trit():
    # a noisy top level makes its three branches differ; noiseless lower
    # levels then copy each branch onto every position i with i % 3 == branch
    rng = np.random.default_rng(8)
    top = _amp_layer(np.zeros((1, 4000), np.uint8), derive_rates(0.2)[0], rng)
    assert (top != top[:1]).any()
    bits = top
    for _ in range(CASCADE_DEPTH - 1):
        bits = _amp_layer(bits, derive_rates(0.0)[0], rng)
    assert bits.shape == (81, 4000)
    assert np.array_equal(bits, top[np.arange(81) % 3])


def test_amp_layer_line_marginals():
    # line 0: fault class XOR wire; lines 1-2 add their prepared ancilla
    pn = derive_rates(0.02)[0]
    n = 10_000_000
    out = _amp_layer(np.zeros((1, n), np.uint8), pn, np.random.default_rng(6))
    cls = 4.0 / 7.0 * pn.p_c
    w = pn.wire_prep
    expect0 = cls * (1 - w) + (1 - cls) * w
    expect12 = expect0 * (1 - w) + (1 - expect0) * w
    for line, expect in ((0, expect0), (1, expect12), (2, expect12)):
        got = out[line].mean()
        assert abs(got - expect) <= 4 * _sigma(expect, n), (line, got, expect)


# a full shard, the last shard of 20,000 trials, and a size that is not a
# multiple of 8, so every packed row ends in pad bits; the shard encodes 0,
# and the replay of the input 1 on the same draws fails in the same trials
@pytest.mark.parametrize("size", [8192, 3616, 8229])
@pytest.mark.parametrize("input_bit", [0, 1])
def test_packed_phases_match_the_byte_replay(size, input_bit):
    for p in (0.02, 0.05):
        want = cascade_shard_bytes(p, 4, 2, size, 12, input_bit)
        assert want > 0
        assert _cascade_shard(*_noise(p), 4, 2, size) == want
    assert _cascade_shard(*_noise(0.0), 4, 2, size) == 0


def test_mc_validation():
    with pytest.raises(ValueError):
        cascade_mc(0.02, seed=1, trials=0)
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            cascade_mc(0.02, seed=1, trials=1000, workers=workers)


def test_mc_zero_noise_never_fails():
    stats = cascade_mc(0.0, seed=5, trials=5000)
    assert stats.flips == 0


def test_mc_stays_under_bound_at_low_p():
    p = 0.005
    stats = cascade_mc(p, seed=3, trials=200_000)
    bound = pfail_bound(p).p_fail
    assert stats.p_hat <= bound + 3 * _sigma(bound, stats.phases)


def test_mc_stays_under_bound_at_crossing_scale():
    p = 0.02
    stats = cascade_mc(p, seed=3, trials=200_000)
    bound = pfail_bound(p).p_fail
    assert stats.p_hat <= bound + 3 * _sigma(bound, stats.phases)


def test_mc_monotone_in_p():
    lo = cascade_mc(0.01, seed=7, trials=100_000)
    hi = cascade_mc(0.03, seed=7, trials=100_000)
    gap = 3 * (_sigma(max(lo.p_hat, 1e-4), 100_000)
               + _sigma(hi.p_hat, 100_000))
    assert hi.p_hat - lo.p_hat > gap


def _shards(p, seed, trials):
    """cascade_mc's stats from the shards it makes."""
    sizes = [min(_CHUNK, trials - i) for i in range(0, trials, _CHUNK)]
    return TrialStats(trials, sum(_cascade_shard(*_noise(p), seed, k, size)
                                  for k, size in enumerate(sizes)))


def test_shards_sum_to_cascade_mc():
    assert _shards(0.02, 11, 20_000) == cascade_mc(0.02, seed=11,
                                                   trials=20_000)


def test_mc_worker_invariant():
    one = cascade_mc(0.02, seed=21, trials=30_000, workers=1)
    many = cascade_mc(0.02, seed=21, trials=30_000, workers=3)
    assert one == many


def test_mc_phase_count_insensitive(monkeypatch):
    a = cascade_mc(0.02, seed=31, trials=100_000)
    monkeypatch.setattr(netsim, "_CASCADE_PHASES", 24)
    b = cascade_mc(0.02, seed=32, trials=100_000)
    sig = math.sqrt(2.0) * _sigma(a.p_hat, 100_000)
    assert abs(a.p_hat - b.p_hat) <= 3 * sig
