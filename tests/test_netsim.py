import numpy as np
import pytest

from majmux.chains import build_level2_chain, build_level3_chain, steady_state
from majmux.netsim import (Componentwise, Idealized, Schedule, TrialStats,
                           apply_maj3, estimate_logical_rate,
                           hypercube_schedule, randomized_schedule,
                           wilson_interval,
                           _gate_batch, _hypercube_phase, _randomized_phase)
from majmux.rates import epsilon_of_p


def test_noiseless_gate_is_majority_on_all_lines():
    rng = np.random.default_rng(0)
    noise = Idealized(0.0)
    assert apply_maj3((1, 1, 0), noise, rng) == (1, 1, 1)
    assert apply_maj3((0, 0, 1), noise, rng) == (0, 0, 0)
    assert apply_maj3((1, 0, 1), noise, rng) == (1, 1, 1)
    assert apply_maj3((0, 0, 0), noise, rng) == (0, 0, 0)


def test_certain_failure_inverts_majority():
    rng = np.random.default_rng(0)
    assert apply_maj3((1, 1, 0), Idealized(1.0), rng) == (0, 0, 0)
    assert apply_maj3((0, 1, 0), Idealized(1.0), rng) == (1, 1, 1)


def test_idealized_outputs_move_together():
    rng = np.random.default_rng(5)
    triples = rng.integers(0, 2, (20_000, 3)).astype(np.uint8)
    out = _gate_batch(triples, Idealized(0.3), rng)
    assert np.all(out[..., 0] == out[..., 1])
    assert np.all(out[..., 0] == out[..., 2])


def _odd_parity(probs):
    """P(odd number of independent events)."""
    q = 0.0
    for b in probs:
        q = q * (1 - b) + (1 - q) * b
    return q


def test_componentwise_line_marginals():
    p = 0.02
    noise = Componentwise.from_p(p)
    pn = noise.noise
    n = 10_000_000
    rng = np.random.default_rng(42)
    triples = np.zeros((n, 3), np.uint8)
    out = _gate_batch(triples, noise, rng)
    cls = 4.0 / 7.0 * pn.p_c  # marginal line hit of one gate-fault draw
    expect0 = _odd_parity([cls, cls, pn.wire_prep])
    expect12 = _odd_parity([cls, cls, pn.wire_prep, pn.wire_prep])
    for line, expect in ((0, expect0), (1, expect12), (2, expect12)):
        got = out[:, line].mean()
        sig = np.sqrt(expect * (1 - expect) / n)
        assert abs(got - expect) <= 4 * sig, (line, got, expect)
    # the analytic per-line budget is a first-order upper bound
    assert expect12 <= epsilon_of_p(p)
    assert expect0 <= expect12


def test_componentwise_lines_not_fully_correlated():
    rng = np.random.default_rng(9)
    triples = np.zeros((2_000_000, 3), np.uint8)
    out = _gate_batch(triples, Componentwise.from_p(0.05), rng)
    diff = (out[:, 0] != out[:, 1]).mean()
    assert diff > 0.01  # preps and wires act per line


def test_idealized_rejects_bad_epsilon():
    for bad in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueError):
            Idealized(bad)


def test_hypercube_schedule_cycles_axes():
    assert hypercube_schedule(2).axis_order == (0, 1, 2)
    assert randomized_schedule().axis_order == ()
    assert Schedule(kind="hypercube", axis_order=(2, 0, 1)).axis_order[0] == 2
    with pytest.raises(ValueError):
        Schedule(kind="hypercube", axis_order=(0, 0, 1))
    with pytest.raises(ValueError):
        Schedule(kind="hypercube", axis_order=(0, 2))
    with pytest.raises(ValueError):
        estimate_logical_rate(2, hypercube_schedule(1), Idealized(0.1), seed=0)


def test_unknown_schedule_kind_rejected():
    with pytest.raises(ValueError):
        Schedule(kind="bogus")


def _phase(ones, axis, eps):
    """One axis phase on a 9-bit register holding 1s at ``ones``."""
    bits = np.zeros((1, 9), np.uint8)
    bits[0, ones] = 1
    _hypercube_phase(bits, axis, 1, Idealized(eps), np.random.default_rng(0))
    return bits[0]


def test_single_error_cleared_by_one_noiseless_phase():
    for axis in (0, 1):
        for pos in range(9):
            assert not _phase([pos], axis, 0.0).any(), (axis, pos)


def test_aligned_triple_needs_the_other_axis():
    # indices 3,4,5 form one axis-0 gate: that phase keeps them, the
    # axis-1 phase splits them across gates and votes them out
    assert _phase([3, 4, 5], 0, 0.0).sum() == 3
    assert _phase([3, 4, 5], 1, 0.0).sum() == 0


def test_certain_failure_phase_flips_whole_register():
    assert _phase([], 0, 1.0).sum() == 9


def test_randomized_phase_clears_sparse_errors():
    rng = np.random.default_rng(33)
    bits = np.zeros((4, 9), np.uint8)
    bits[:, 0] = 1
    _randomized_phase(bits, Idealized(0.0), rng)
    assert bits.sum() == 0


def test_randomized_phase_size_must_be_triples():
    with pytest.raises(ValueError):
        _randomized_phase(np.zeros((1, 8), np.uint8), Idealized(0.0),
                          np.random.default_rng(0))


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 <= 1e-12 and 0.0 < hi0 < 0.05


def test_estimator_deterministic_in_seed():
    sched = hypercube_schedule(2)
    a = estimate_logical_rate(2, sched, Idealized(0.12), seed=7,
                              min_flips=40, max_phases=200_000)
    b = estimate_logical_rate(2, hypercube_schedule(2), Idealized(0.12),
                              seed=7, min_flips=40, max_phases=200_000)
    assert a == b
    c = estimate_logical_rate(2, hypercube_schedule(2), Idealized(0.12),
                              seed=8, min_flips=40, max_phases=200_000)
    assert (a.flips, a.phases) != (c.flips, c.phases)


def test_estimator_bound_flag_when_no_flips():
    stats = estimate_logical_rate(1, hypercube_schedule(1), Idealized(0.0),
                                  seed=1, min_flips=10, max_phases=500)
    assert stats.flips == 0
    assert stats.upper_bound_only
    assert stats.p_hat == 0.0
    assert stats.ci95[0] == 0.0


def test_estimator_rate_increases_with_noise():
    lo = estimate_logical_rate(2, hypercube_schedule(2), Idealized(0.08),
                               seed=11, min_flips=150)
    hi = estimate_logical_rate(2, hypercube_schedule(2), Idealized(0.14),
                               seed=11, min_flips=150)
    assert lo.ci95[1] < hi.ci95[0]


def test_estimator_tracks_level2_model():
    eps = 0.10
    stats = estimate_logical_rate(2, hypercube_schedule(2), Idealized(eps),
                                  seed=3, min_flips=250)
    analytic = steady_state(build_level2_chain(), eps).p_ss
    assert stats.p_hat <= analytic
    assert stats.p_hat >= analytic / 3.0


def test_estimator_below_level3_model():
    # the chain is an overestimate; at n=3 the observed margin is wide
    eps = 0.15
    stats = estimate_logical_rate(3, hypercube_schedule(3), Idealized(eps),
                                  seed=3, min_flips=150)
    analytic = steady_state(build_level3_chain(), eps).p_ss
    assert 0.0 < stats.p_hat <= analytic


def test_estimator_stats_are_consistent():
    stats = estimate_logical_rate(2, randomized_schedule(), Idealized(0.12),
                                  seed=19, min_flips=60)
    assert isinstance(stats, TrialStats)
    assert stats.flips >= 60
    assert stats.p_hat == pytest.approx(stats.flips / stats.phases)
    assert stats.ci95[0] <= stats.p_hat <= stats.ci95[1]
    assert not stats.upper_bound_only
