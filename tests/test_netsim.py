import copy
import math
import re
import types
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import chdtrc

import oracles
from majmux import netsim
from majmux.chains import build_level2_chain, build_level3_chain, steady_state
from majmux.netsim import (Componentwise, Idealized, TrialStats,
                           estimate_logical_rate, estimate_logical_rates,
                           wilson_interval,
                           _FAN_OUT_FLIPS, _fault_hits,
                           _gate_masks, _hypercube_phase, _maj3_layer,
                           _majority, _randomized_phase, _shuffle_rows)
from majmux.rates import PhysicalNoise, epsilon_of_p


class Shares(NamedTuple):
    """The two fan-out shares the gate kernels read, set apart from p so
    that a probe can use shares that no gate error probability gives."""

    p_c: float
    wire_prep: float


def _gates(triples, noise, rng):
    """Outputs of one noisy gate per row of an (n, 3) input array."""
    mask = _gate_masks(noise, rng, 1, len(triples))[0]
    _maj3_layer(triples[:, :, None], mask)
    return triples


def test_noiseless_gate_is_majority_on_all_lines():
    rng = np.random.default_rng(0)
    triples = np.array([(1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 0, 0)], np.uint8)
    out = _gates(triples, Idealized(0.0), rng)
    assert out.tolist() == [[1, 1, 1], [0, 0, 0], [1, 1, 1], [0, 0, 0]]


def test_certain_failure_inverts_majority():
    rng = np.random.default_rng(0)
    out = _gates(np.array([(1, 1, 0), (0, 1, 0)], np.uint8), Idealized(1.0),
                 rng)
    assert out.tolist() == [[0, 0, 0], [1, 1, 1]]


@pytest.mark.parametrize("n", [0, 1, 864, 221184])
@pytest.mark.parametrize("p", [0.0, 1e-4, 0.047, 0.5, 1.0])
def test_fault_hits_are_distinct_bernoulli_successes(p, n):
    # hits may repeat a slot; the distinct slots hit are the successes of
    # n independent Bernoulli(p) draws
    rng = np.random.default_rng(17)
    hits = _fault_hits(rng, p, n)
    assert np.all((hits >= 0) & (hits < n))
    distinct = np.unique(hits)
    if p == 0.0:
        assert hits.size == 0
    if p == 1.0:
        np.testing.assert_array_equal(distinct, np.arange(n))
    sig = np.sqrt(n * p * (1 - p))
    assert abs(len(distinct) - n * p) <= 4 * sig


@pytest.mark.parametrize("p", [0.047, 0.5])
def test_fault_hits_show_no_slot_bias(p):
    # over repeated draws each slot is hit in Binomial(draws, p) of them,
    # independently: a chi-square over the slots, both tails
    n, draws = 864, 4000
    rng = np.random.default_rng(19)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[np.unique(_fault_hits(rng, p, n))] += 1
    stat = ((counts - draws * p) ** 2).sum() / (draws * p * (1 - p))
    assert 1e-4 < chdtrc(n, stat) < 1 - 1e-4


def test_fan_out_fault_classes():
    # 21 equally likely draws: 9 flip one line, 9 flip two, 3 flip all
    # three (3/7, 3/7, 1/7), and every line is hit by 12 of them (4/7)
    per_draw = _FAN_OUT_FLIPS.sum(axis=1)
    assert [int((per_draw == k).sum()) for k in (1, 2, 3)] == [9, 9, 3]
    assert _FAN_OUT_FLIPS.sum(axis=0).tolist() == [12, 12, 12]


def test_idealized_outputs_move_together():
    rng = np.random.default_rng(5)
    triples = rng.integers(0, 2, (20_000, 3)).astype(np.uint8)
    expect = (triples.sum(axis=1) >= 2).astype(np.uint8)
    out = _gates(triples, Idealized(0.3), rng)
    assert np.all(out[..., 0] == out[..., 1])
    assert np.all(out[..., 0] == out[..., 2])
    wrong = (out[:, 0] != expect).mean()
    assert abs(wrong - 0.3) <= 4 * np.sqrt(0.3 * 0.7 / 20_000)


@pytest.mark.parametrize("blocks, gates", [(1, 12), (8, 6912), (3, 1)])
@pytest.mark.parametrize("eps", [0.0, 0.1, 1.0])
def test_idealized_mask_is_one_draw_per_gate(eps, blocks, gates):
    rng = np.random.Generator(np.random.Philox(23))
    ref = copy.deepcopy(rng)
    mask = _gate_masks(Idealized(eps), rng, blocks, gates)
    assert mask.shape == (blocks, 1, gates)
    want = np.zeros(blocks * gates, np.uint8)
    want[_fault_hits(ref, eps, blocks * gates)] = 1
    np.testing.assert_array_equal(mask.reshape(-1), want)
    assert rng.random() == ref.random()


@pytest.mark.parametrize("kind", ["hypercube", "randomized"])
def test_one_line_mask_acts_as_three_equal_lines(kind):
    rng = np.random.default_rng(29)
    for n in (1, 2, 3):
        size, r = 3 ** (n + 1), 5
        bits = rng.integers(0, 2, (size, r)).astype(np.uint8)
        for axis in range(n + 1):
            mask = _gate_masks(Idealized(0.3), rng, 1, size * r // 3)[0]
            assert mask.shape == (1, size * r // 3)
            one, three = bits.copy(), bits.copy()
            if kind == "hypercube":
                _hypercube_phase(one, axis, mask)
                _hypercube_phase(three, axis, np.repeat(mask, 3, axis=0))
            else:
                twin = copy.deepcopy(rng)
                keys = np.empty((r, size), np.uint32)
                _randomized_phase(one, mask, keys, rng)
                _randomized_phase(three, np.repeat(mask, 3, axis=0), keys,
                                  twin)
            np.testing.assert_array_equal(one, three)
            bits = one



@pytest.mark.parametrize("lines", [1, 3])
@pytest.mark.parametrize("shape", [(9, 3, 64), (1, 3, 243), (40, 3, 27),
                                   (3, 3, 100), (4, 3, 1)])
def test_maj3_layer_matches_a_gate_by_gate_loop(shape, lines):
    # hypercube axis views, the randomized wiring's 27-lane rows and wide
    # packed encoder rows; bytes of eight packed bits, so every bit counts
    rng = np.random.default_rng(31)
    g, _, width = shape
    gates = rng.integers(0, 256, shape, np.uint8)
    mask = rng.integers(0, 256, (lines, g * width), np.uint8)
    want = np.empty_like(gates)
    for gi in range(g):
        for lane in range(width):
            a, b, c = (int(x) for x in gates[gi, :, lane])
            vote = (a & b) | (b & c) | (a & c)
            for j in range(3):
                want[gi, j, lane] = vote ^ mask[j % lines, gi * width + lane]
    _maj3_layer(gates, mask)
    np.testing.assert_array_equal(gates, want)

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
    out = _gate_masks(noise, np.random.default_rng(42), 1, n)[0]
    cls = 4.0 / 7.0 * pn.p_c  # marginal line hit of one gate-fault draw
    expect0 = _odd_parity([cls, cls, pn.wire_prep])
    expect12 = _odd_parity([cls, cls, pn.wire_prep, pn.wire_prep])
    for line, expect in ((0, expect0), (1, expect12), (2, expect12)):
        got = out[line].mean()
        sig = np.sqrt(expect * (1 - expect) / n)
        assert abs(got - expect) <= 4 * sig, (line, got, expect)
    # the analytic per-line budget is a first-order upper bound
    assert expect12 <= epsilon_of_p(p)
    assert expect0 <= expect12


def test_componentwise_lines_not_fully_correlated():
    rng = np.random.default_rng(9)
    triples = np.zeros((2_000_000, 3), np.uint8)
    out = _gates(triples, Componentwise.from_p(0.05), rng)
    diff = (out[:, 0] != out[:, 1]).mean()
    assert diff > 0.01  # preps and wires act per line


def _pattern_law(flips):
    """Law over the 8 output patterns (bit j flips line j) of one part
    given as {pattern: probability}; pattern 0 takes the rest."""
    law = np.zeros(8)
    for pattern, prob in flips.items():
        law[pattern] += prob
    law[0] += 1.0 - law.sum()
    return law


def _xor_law(parts):
    """Pattern law of the XOR of independent parts."""
    law = _pattern_law({})
    for part in parts:
        law = np.array([sum(law[x] * part[x ^ y] for x in range(8))
                        for y in range(8)])
    return law


# at p = 0.3 one fan-out hit in seven repeats a gate; with p_c = 0.9 and
# no prep or wire flips most hit gates are hit again (Poisson mean 2.3),
# so the pattern law shows whether each gate keeps one class
@pytest.mark.parametrize("pn", [PhysicalNoise(0.02),
                                PhysicalNoise(0.3),
                                Shares(p_c=0.9, wire_prep=0.0)],
                         ids=["p0.02", "p0.3", "classes_only"])
def test_componentwise_mask_pattern_law(pn):
    # a vote fault on all three lines, one fan-out class row, a prep flip
    # on each of lines 1-2 and a wire flip on each line
    rows = _FAN_OUT_FLIPS @ np.array([1, 2, 4])
    parts = [_pattern_law({7: 4.0 / 7.0 * pn.p_c}),
             sum(_pattern_law({int(r): pn.p_c}) for r in rows) / len(rows)]
    parts += [_pattern_law({1 << j: pn.wire_prep}) for j in (1, 2, 0, 1, 2)]
    law = _xor_law(parts)
    masks = _gate_masks(Componentwise(pn), np.random.default_rng(43),
                        4, 250_000)
    got = np.bincount((masks[:, 0] | masks[:, 1] << 1
                       | masks[:, 2] << 2).ravel(), minlength=8)
    expect = got.sum() * law
    assert chdtrc(7, ((got - expect) ** 2 / expect).sum()) > 1e-4


def test_idealized_rejects_bad_epsilon():
    for bad in (-0.01, 1.5, float("nan")):
        with pytest.raises(ValueError):
            Idealized(bad)


@pytest.mark.parametrize("n, budget", [
    (-1, {}), (2, {"min_flips": 0}), (2, {"min_flips": -3}),
    (2, {"max_phases": 0})])
def test_estimator_rejects_an_empty_run(n, budget):
    with pytest.raises(ValueError, match="budget"):
        estimate_logical_rate(n, "hypercube", Idealized(0.1), 0,
                              **budget)


def test_unknown_wiring_rejected():
    # the error names the tag given and both tags taken
    for wiring in ("bogus", "Hypercube", "hypercube_mc", "vn_mc", ""):
        with pytest.raises(ValueError,
                           match=f"'{wiring}'; use hypercube or randomized"):
            estimate_logical_rate(2, wiring, Idealized(0.1), seed=0,
                                  max_phases=1)


def _phase(ones, axis, eps):
    """One axis phase on a 9-bit register holding 1s at ``ones``."""
    bits = np.zeros((9, 1), np.uint8)
    bits[ones, 0] = 1
    mask = _gate_masks(Idealized(eps), np.random.default_rng(0), 1, 3)[0]
    _hypercube_phase(bits, axis, mask)
    return bits[:, 0]


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
    bits = np.zeros((9, 4), np.uint8)
    bits[0] = 1
    _randomized_phase(bits, _gate_masks(Idealized(0.0), rng, 1, 12)[0],
                      np.empty((4, 9), np.uint32), rng)
    assert bits.sum() == 0


def _scripted(*draws):
    """A generator stand-in whose random_raw returns ``draws`` in turn."""
    words = iter(draws)
    return types.SimpleNamespace(bit_generator=types.SimpleNamespace(
        random_raw=lambda count: next(words)[:count].copy()))


def test_shuffle_redraws_a_tie():
    rows, size = 4, 9
    bits = np.random.default_rng(1).integers(0, 2, (rows, size), np.uint8)
    words = np.random.Generator(np.random.Philox(2)).bit_generator
    tied = words.random_raw(rows * size)
    tied[1] = tied[0]  # row 0 gets two keys with equal random parts
    second = words.random_raw(rows * size)
    keys = second.view(np.uint32)[:bits.size].reshape(rows, size) >> 1
    want = np.take_along_axis(bits, np.argsort(keys, axis=1), axis=1)
    got = bits.copy()
    _shuffle_rows(got, _scripted(tied, second),
                  np.empty((rows, size), np.uint32))
    np.testing.assert_array_equal(got, want)


def test_shuffle_refuses_32_bit_words():
    rng = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(ValueError, match="MT19937"):
        _shuffle_rows(np.zeros((4, 81), np.uint8), rng,
                      np.empty((4, 81), np.uint32))


@pytest.mark.parametrize("size", [255, 256, 729])
def test_majority_count_is_exact(size):
    # all-ones columns overflow a count type one bit too narrow
    cols = np.zeros((size, 5), np.uint8)
    cols[:, 0] = 1
    cols[:size // 2, 1] = 1
    cols[:size // 2 + 1, 2] = 1
    cols[size // 2:, 3] = 1
    want = cols.sum(axis=0, dtype=np.int64) > size // 2
    for layout in ("C", "F"):
        np.testing.assert_array_equal(
            _majority(np.asarray(cols, order=layout)), want)
    # stacks of two registers, as the estimator counts them: the
    # hypercube's (points, size, replicas) and the randomized wiring's
    # replica-major rows of both points, read as (size, replicas)
    rows = np.ascontiguousarray(cols.T)
    both = np.concatenate([want, want[::-1]])
    np.testing.assert_array_equal(
        _majority(np.stack([cols, cols[:, ::-1]])), both)
    np.testing.assert_array_equal(
        _majority(np.concatenate([rows, rows[::-1]]).T), both)


def test_randomized_phase_groups_two_ones_uniformly():
    # noiseless: two 1s share a triple with probability 2 / (size - 1)
    # and become three 1s; otherwise both are voted out
    rng = np.random.Generator(np.random.Philox(41))
    cols = 100_000
    for size, share in ((9, 1 / 4), (27, 1 / 13)):
        bits = np.zeros((size, cols), np.uint8)
        bits[:2] = 1
        _randomized_phase(bits, np.zeros((3, size * cols // 3), np.uint8),
                          np.empty((cols, size), np.uint32), rng)
        ones = bits.sum(axis=0)
        assert set(np.unique(ones)) <= {0, 3}
        sigma = math.sqrt(share * (1 - share) / cols)
        assert abs((ones == 3).mean() - share) <= 4 * sigma, size


def test_randomized_phase_size_must_be_triples():
    with pytest.raises(ValueError):
        _randomized_phase(np.zeros((8, 1), np.uint8), np.zeros((3, 2), np.uint8),
                          np.empty((1, 8), np.uint32),
                          np.random.default_rng(0))


def test_wilson_interval_basics():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 <= 1e-12 and 0.0 < hi0 < 0.05


def test_wilson_interval_endpoints_are_exact():
    # center -/+ half rounds to a tiny positive lower bound (4.3e-19 at
    # n = 500) or an upper bound just under 1 for thousands of n
    for n in range(1, 20_001):
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0 and 0.0 < hi < 1.0, n
        lo, hi = wilson_interval(n, n)
        assert 0.0 < lo < 1.0 and hi == 1.0, n


@pytest.mark.parametrize("successes, trials",
                         [(2, -5), (0, -1), (5, 3), (-1, 3)])
def test_wilson_interval_rejects_counts_outside_the_trials(successes, trials):
    with pytest.raises(ValueError, match=f"{successes=}, {trials=}"):
        wilson_interval(successes, trials)


def test_estimator_deterministic_in_seed():
    a = estimate_logical_rate(2, "hypercube", Idealized(0.12), seed=7,
                              min_flips=40, max_phases=200_000)
    b = estimate_logical_rate(2, "hypercube", Idealized(0.12),
                              seed=7, min_flips=40, max_phases=200_000)
    assert a == b
    c = estimate_logical_rate(2, "hypercube", Idealized(0.12),
                              seed=8, min_flips=40, max_phases=200_000)
    assert (a.flips, a.phases) != (c.flips, c.phases)


def test_estimator_without_flips_reports_a_zero_rate():
    stats = estimate_logical_rate(1, "hypercube", Idealized(0.0),
                                  seed=1, min_flips=10, max_phases=500)
    assert stats.flips == 0
    assert stats.p_hat == 0.0
    assert stats.ci95[0] == 0.0


@pytest.mark.parametrize("wiring", ["hypercube", "randomized"],
                         ids=["hypercube_schedule", "randomized_schedule"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_estimator_cap_is_exact(n, wiring):
    # budgets that are not multiples of the lockstep width
    for max_phases in (1, 500, 48_001):
        stats = estimate_logical_rate(
            n, wiring, Idealized(0.1), seed=n, min_flips=10 ** 9,
            max_phases=max_phases)
        assert stats.phases == max_phases


def test_estimator_mask_memory_is_bounded(monkeypatch):
    # each point's draw stays at the 8 phases x 81 x 256 three-line masks
    # of the n=3 lockstep, 165,888 bytes, however wide the register grows,
    # and a stack copies at most 8 (_STACK) points' draws into one buffer,
    # 1,327,104 bytes, however many points it is given
    drawn, stacked = [], []
    draw, run = netsim._gate_masks, netsim._run_stack

    def drawing(*args):
        masks = draw(*args)
        drawn.append(masks.nbytes)
        return masks

    def running(n, wiring, points, *budget):
        stacked.append(len(points))
        return run(n, wiring, points, *budget)

    monkeypatch.setattr(netsim, "_gate_masks", drawing)
    monkeypatch.setattr(netsim, "_run_stack", running)
    for n in range(1, 6):
        for noise in (Idealized(0.1), Componentwise.from_p(0.05)):
            for count in (1, 11):
                drawn.clear()
                stacked.clear()
                estimate_logical_rates(n, "hypercube",
                                       [(noise, s) for s in range(count)],
                                       min_flips=10 ** 9, max_phases=1)
                assert max(drawn) <= 165_888, (n, drawn)
                assert max(stacked) * max(drawn) <= 1_327_104, (n, stacked)


@pytest.mark.parametrize("blocks", [1, 8])
@pytest.mark.parametrize("noise", [
    Idealized(0.0), Idealized(0.05), Idealized(1.0),
    Componentwise.from_p(0.0), Componentwise.from_p(0.05),
    Componentwise.from_p(1.0), Componentwise(Shares(1.0, 1.0))],
    ids=["ideal0", "ideal0.05", "ideal1", "comp0", "comp0.05", "comp1",
         "comp_all_hit"])
def test_gate_masks_match_a_hit_by_hit_loop(noise, blocks):
    # the same draws written one hit at a time give the same bytes; p = 1
    # (and every share at 1) takes the arange path of _fault_hits
    got = _gate_masks(noise, np.random.default_rng(7), blocks, 300)
    want = oracles.gate_masks_loop(noise, np.random.default_rng(7), blocks,
                                   300)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_estimator_rate_increases_with_noise():
    lo = estimate_logical_rate(2, "hypercube", Idealized(0.08),
                               seed=11, min_flips=150)
    hi = estimate_logical_rate(2, "hypercube", Idealized(0.14),
                               seed=11, min_flips=150)
    assert lo.ci95[1] < hi.ci95[0]


def test_estimator_tracks_level2_model():
    eps = 0.10
    stats = estimate_logical_rate(2, "hypercube", Idealized(eps),
                                  seed=3, min_flips=250)
    analytic = steady_state(build_level2_chain(), eps).p_ss
    assert stats.p_hat <= analytic
    assert stats.p_hat >= analytic / 3.0


def test_estimator_below_level3_model():
    # the chain is an overestimate; at n=3 the observed margin is wide
    eps = 0.15
    stats = estimate_logical_rate(3, "hypercube", Idealized(eps),
                                  seed=3, min_flips=150)
    analytic = steady_state(build_level3_chain(), eps).p_ss
    assert 0.0 < stats.p_hat <= analytic


# exact renewal rates of the registers, from the small Markov chains of
# their phase kernels with the settle rule (stationary flip flux)
@pytest.mark.parametrize("n, wiring, noise, exact, phases", [
    (3, "hypercube", Idealized(0.10), 2.261e-3, 50_000),
    (2, "hypercube", Componentwise.from_p(0.06), 9.227e-3, 25_000),
    (3, "randomized", Idealized(0.10), 3.7572e-3, 50_000)],
    ids=["idealized_n3", "componentwise_n2", "randomized_n3"])
def test_pooled_rate_matches_the_exact_law(n, wiring, noise, exact, phases):
    # the 8 seeds run as one stack
    flips = sum(st.flips for st in estimate_logical_rates(
        n, wiring, [(noise, seed) for seed in range(8)], min_flips=10 ** 9,
        max_phases=phases))
    pooled = 8 * phases
    assert abs(flips - pooled * exact) <= 4 * math.sqrt(pooled * exact)


# n, noise, min_flips, max_phases: caps that end mid-phase (3001 is no
# multiple of n=1's 2304 or n=3's 256 replicas), caps below one phase's
# replicas, stops on the first flip and on a few; the 50 warm-up phases
# end inside a block of 8
@pytest.mark.parametrize("wiring", ["hypercube", "randomized"])
@pytest.mark.parametrize("n, noise, min_flips, max_phases", [
    (1, Idealized(0.12), 10 ** 9, 3001),
    (1, Componentwise.from_p(0.05), 10 ** 9, 1),
    (2, Idealized(0.05), 10 ** 9, 100),
    (2, Componentwise.from_p(0.05), 1, 10 ** 7),
    (3, Idealized(0.2), 10 ** 9, 3001),
    (3, Idealized(0.12), 1, 10 ** 7),
    (3, Componentwise.from_p(0.05), 5, 10 ** 7)],
    ids=["n1_mid_phase", "n1_cap1_componentwise", "n2_below_one_phase",
         "n2_first_flip_componentwise", "n3_mid_phase", "n3_first_flip",
         "n3_five_flips_componentwise"])
def test_block_settle_matches_the_per_phase_rule(n, wiring, noise, min_flips,
                                                 max_phases):
    for seed in (0, 1):
        got = estimate_logical_rate(n, wiring, noise, seed,
                                    min_flips=min_flips,
                                    max_phases=max_phases)
        assert (got.phases, got.flips) == oracles.logical_rate_per_phase(
            n, wiring, noise, seed, min_flips=min_flips,
            max_phases=max_phases)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_block_settle_matches_at_short_blocks(block, monkeypatch):
    # wide registers draw one or two phases of masks at a time; a block of
    # one carries history rows that overlap the rows it copies
    monkeypatch.setattr(netsim, "_MASK_BYTES", block * netsim._LANES)
    for wiring in ("hypercube", "randomized"):
        for min_flips, max_phases in ((10 ** 9, 3001), (3, 10 ** 7)):
            got = estimate_logical_rate(2, wiring, Idealized(0.12), 5,
                                        min_flips=min_flips,
                                        max_phases=max_phases)
            assert (got.phases, got.flips) == oracles.logical_rate_per_phase(
                2, wiring, Idealized(0.12), 5, min_flips=min_flips,
                max_phases=max_phases)


# the exact flip rates of the n=3 hypercube at eps 0.10 for a flip that
# needs L = 2, 3 or 6 settled phases, from its settle-product law
SETTLE_EXACT = {2: 2.755e-3, 3: 2.261e-3, 6: 1.989e-3}


def test_flip_rate_depends_on_the_settle_length():
    # the claims of estimate_logical_rate's docstring: at eps 0.10, L = 3
    # reads about 14 % above L = 6, and L = 2 about 22 % above L = 3; the
    # runs share their draws, so an independent-count sigma is wide
    noise, budget = Idealized(0.10), {"min_flips": 10 ** 9,
                                      "max_phases": 1_000_000}
    runs = {settle: oracles.logical_rate_per_phase(3, "hypercube", noise, 5,
                                                   settle=settle, **budget)
            for settle in SETTLE_EXACT}
    assert runs[3] == tuple(estimate_logical_rate(3, "hypercube", noise, 5,
                                                  **budget))
    for short, long in ((3, 6), (2, 3)):
        (phases, a), (_, b) = runs[short], runs[long]
        assert phases == 1_000_000
        ratio = a / b
        exact = SETTLE_EXACT[short] / SETTLE_EXACT[long]
        assert abs(ratio - exact) <= 4 * ratio * math.sqrt(1 / a + 1 / b), (
            short, long, ratio, exact)


# min_flips and max_phases: caps that end mid-phase (3001 is no multiple
# of any lockstep width), caps below one phase's replicas, and min_flips
# stops that make the points leave the stack in different blocks
_BUDGETS = [(10 ** 9, 3001), (10 ** 9, 1), (20, 60_000)]


@pytest.mark.parametrize("kind", ["idealized", "componentwise"])
@pytest.mark.parametrize("wiring", ["hypercube", "randomized"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_runs_match_one_point_runs(n, wiring, kind):
    # rates far apart: at every n the middle point stops early and the
    # first runs on
    noises = ([Idealized(x) for x in (0.01, 0.3, 0.1)] if kind == "idealized"
              else [Componentwise.from_p(p) for p in (0.005, 0.12, 0.05)])
    points = list(zip(noises, (3, 1, 2)))
    for min_flips, max_phases in _BUDGETS:
        got = estimate_logical_rates(n, wiring, points, min_flips=min_flips,
                                     max_phases=max_phases)
        assert got == [estimate_logical_rate(n, wiring, noise, seed,
                                             min_flips=min_flips,
                                             max_phases=max_phases)
                       for noise, seed in points]
        assert [(st.phases, st.flips) for st in got] == [
            oracles.logical_rate_per_phase(n, wiring, noise, seed,
                                           min_flips=min_flips,
                                           max_phases=max_phases)
            for noise, seed in points]
        if min_flips == 20:  # the points left the stack in different blocks
            # of 8 phases: a run stops at phase 49 + ceil(phases / replicas)
            replicas = netsim._LANES // 3 ** (n + 1)
            blocks = {(netsim._WARMUP - 1 - (-st.phases // replicas)) // 8
                      for st in got}
            assert len(blocks) > 1, got


@pytest.mark.parametrize("wiring", ["hypercube", "randomized"])
def test_any_split_into_stacks_gives_the_same_records(wiring, monkeypatch):
    # noisy points leave in different blocks while the others' majorities
    # still move, so the history each carries into the next block counts
    points = [(Idealized(x), seed) for seed, x in
              enumerate((0.12, 0.3, 0.16, 0.25, 0.2, 0.35, 0.14))]
    budget = dict(min_flips=1000, max_phases=60_000)
    whole = estimate_logical_rates(2, wiring, points, **budget)
    assert len(whole) == 7
    for cut in (1, 3, 6):
        assert whole == (estimate_logical_rates(2, wiring, points[:cut],
                                                **budget)
                         + estimate_logical_rates(2, wiring, points[cut:],
                                                  **budget))
    for stack in (1, 2, 3, 5):
        monkeypatch.setattr(netsim, "_STACK", stack)
        assert estimate_logical_rates(2, wiring, points, **budget) == whole


@pytest.mark.parametrize("bad", [0.1, None, PhysicalNoise(0.05)])
def test_estimator_refuses_unknown_noise_before_any_draw(bad, monkeypatch):
    def drawing(*args):
        raise AssertionError("drew masks")

    monkeypatch.setattr(netsim, "_gate_masks", drawing)
    with pytest.raises(ValueError, match="neither Idealized nor Componentwise"):
        estimate_logical_rate(2, "hypercube", bad, 1)
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        estimate_logical_rates(2, "hypercube",
                               [(Idealized(0.1), 0), (bad, 1)], max_phases=1)


@pytest.mark.parametrize("workers", [0, -2])
def test_run_parallel_refuses_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers"):
        netsim.run_parallel(abs, [(1,), (-2,)], workers)
    assert netsim.run_parallel(abs, [(1,), (-2,)], 1) == [1, 2]


def test_stack_refuses_mixed_noise_kinds():
    with pytest.raises(ValueError, match="one gate-noise kind"):
        estimate_logical_rates(2, "hypercube", [
            (Idealized(0.1), 0), (Componentwise.from_p(0.05), 1)],
            max_phases=1)
    assert estimate_logical_rates(2, "hypercube", []) == []


def test_estimator_stats_are_consistent():
    stats = estimate_logical_rate(2, "randomized", Idealized(0.12),
                                  seed=19, min_flips=60)
    assert isinstance(stats, TrialStats)
    assert stats.flips >= 60
    assert stats.p_hat == pytest.approx(stats.flips / stats.phases)
    assert stats.ci95[0] <= stats.p_hat <= stats.ci95[1]
