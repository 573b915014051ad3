"""Acceptance suite: the pinned end-to-end checks, one test per criterion.

Each test prints a single summary line with the measured values; run with
``pytest -v`` to get one pass/fail line per criterion.  Time limits are
asserted with wall-clock margins that hold on a loaded machine.
"""

import itertools
import math
import time

import numpy as np
import pytest

from majmux.analysis import (correction_threshold, p_crit, pfail_bound,
                             universal_threshold)
from majmux.chains import build_level2_chain, build_level3_chain, steady_state
from majmux.cli import main
from majmux.netsim import (Idealized, estimate_logical_rate,
                           hypercube_schedule, randomized_schedule)
from majmux.rates import epsilon_of_p, jvn_stable_eta, single_triple_map

import oracles

L2 = build_level2_chain()
L3 = build_level3_chain()


def _timed(fn):
    t0 = time.monotonic()
    out = fn()
    return out, time.monotonic() - t0


def test_c01_level3_steady_state_at_low_gate_error():
    (ss, dt) = _timed(lambda: steady_state(L3, 0.01).p_ss)
    assert 2e-11 <= ss <= 4.5e-11
    assert dt < 1.0
    print(f"[PASS] c01 p_ss(eps=0.01) = {ss:.6e} in [2e-11, 4.5e-11] "
          f"({dt:.3f}s)")


def test_c02_level3_steady_state_at_derived_gate_error():
    eps = epsilon_of_p(0.004)
    (ss, dt) = _timed(lambda: steady_state(L3, eps).p_ss)
    assert 1.0e-11 <= ss <= 2.3e-11
    assert dt < 1.0
    print(f"[PASS] c02 p_ss(eps(p=0.004)) = {ss:.6e} in [1.0e-11, 2.3e-11] "
          f"({dt:.3f}s)")


def test_c03_level3_correction_threshold():
    (star, dt) = _timed(lambda: correction_threshold(L3))
    assert 0.14 <= star <= 0.167
    assert dt < 5.0
    print(f"[PASS] c03 level3 threshold = {star:.6f} in [0.14, 0.167] "
          f"({dt:.2f}s)")


def test_c04_universal_computation_threshold():
    ((p_star, eps_star), dt) = _timed(universal_threshold)
    assert abs(p_star - 0.055) <= 0.0015
    assert abs(eps_star - 0.129) <= 0.003
    assert dt < 5.0
    print(f"[PASS] c04 p* = {p_star:.6f} (0.055 +- 0.0015), "
          f"eps* = {eps_star:.6f} (0.129 +- 0.003) ({dt:.2f}s)")


def test_c05_encoding_crossover_and_slope():
    def work():
        root = p_crit()
        slope = pfail_bound(1e-8).p_fail / 1e-8
        return root, slope

    ((root, slope), dt) = _timed(work)
    assert abs(root - 0.028) <= 0.001
    assert abs(slope - 32.0 / 63.0) <= 0.005 * (32.0 / 63.0)
    assert dt < 1.0
    print(f"[PASS] c05 p_crit = {root:.6f} (0.028 +- 0.001), "
          f"p_fail/p -> {slope:.6f} (32/63 +- 0.5%) ({dt:.2f}s)")


def test_c06_four_errors_make_two_square_failures_27_ways():
    def work():
        hits = 0
        for errs in itertools.combinations(range(9), 4):
            per_square = [0, 0, 0]
            for g in errs:
                per_square[g // 3] += 1
            if sum(c >= 2 for c in per_square) == 2:
                hits += 1
        return hits

    (hits, dt) = _timed(work)
    assert hits == 27
    assert dt < 1.0
    print(f"[PASS] c06 {hits}/126 placements give two square failures "
          f"(expected 27) ({dt:.2f}s)")


def test_c07_transition_matrix_matches_bundle_level_mc():
    reps = {0: (0, 0, 0), 1: (1, 0, 0), 2: (1, 1, 0), 3: (1, 1, 1),
            4: (2, 0, 0), 5: (2, 1, 0), 6: (2, 1, 1)}
    n = 10_000_000
    t0 = time.monotonic()
    worst = 0.0
    for eps in (0.05, 0.10):
        trans = L3.trans(eps)
        fail = L3.fail(eps)
        for ci, profile in reps.items():
            rng = np.random.default_rng(1000 + 7 * ci + int(eps * 100))
            freq = oracles.step_distribution(profile, eps, n, rng)
            expect = np.concatenate([trans[ci], [fail[ci]]])
            sig_cnt = np.sqrt(np.maximum(expect * n, 1.0) * (1.0 - expect))
            dev = np.abs(freq * n - expect * n)
            assert np.all(dev <= 4.0 * sig_cnt + 3.0), (eps, ci, dev, sig_cnt)
            worst = max(worst, float((dev / (sig_cnt + 1e-12)).max()))
    dt = time.monotonic() - t0
    assert dt < 600.0
    print(f"[PASS] c07 all 7 rows at eps in {{0.05, 0.10}} within 4 sigma "
          f"of 1e7-step MC (worst {worst:.2f} sigma) ({dt:.1f}s)")


def test_c08_level2_register_rate_vs_chain():
    eps = 0.10
    t0 = time.monotonic()
    stats = estimate_logical_rate(2, hypercube_schedule(2), Idealized(eps),
                                  seed=314, min_flips=300)
    dt = time.monotonic() - t0
    analytic = steady_state(L2, eps).p_ss
    assert stats.flips >= 300
    assert stats.p_hat <= analytic
    assert stats.p_hat >= analytic / 3.0
    assert dt < 600.0
    print(f"[PASS] c08 n=2 eps=0.10: simulated {stats.p_hat:.5f} <= "
          f"analytic {analytic:.5f}, ratio {stats.p_hat / analytic:.3f} "
          f"in [1/3, 1] ({dt:.1f}s)")


def test_c09_randomized_multiplexing_tracks_hypercube():
    t0 = time.monotonic()
    lines = []
    for eps in (0.08, 0.10, 0.12):
        hyp = estimate_logical_rate(3, hypercube_schedule(3),
                                    Idealized(eps), seed=202, min_flips=200)
        vn = estimate_logical_rate(3, randomized_schedule(),
                                   Idealized(eps), seed=202, min_flips=200)
        ratio = vn.p_hat / hyp.p_hat
        assert 0.1 <= ratio <= 10.0, (eps, ratio)
        lines.append(f"eps={eps}: {ratio:.2f}")
    dt = time.monotonic() - t0
    assert dt < 1800.0
    print(f"[PASS] c09 vn/hypercube rate ratios within 10x "
          f"({'; '.join(lines)}) ({dt:.1f}s)")


def test_c10_single_bundle_map_fixed_points():
    # below the cutoff: iteration settles on the stable lower branch
    eps = 0.05
    target = jvn_stable_eta(eps)[0]
    eta = 0.3
    iters = 0
    while abs(eta - target) > 1e-10:
        eta = single_triple_map(eta, eps)
        iters += 1
        assert iters <= 200
    # below the cutoff 1/2 repels nearby iterates
    assert abs(single_triple_map(0.49, eps) - 0.5) > abs(0.49 - 0.5)
    # above the cutoff the branches are gone and everything falls into 1/2
    hot = 1.0 / 6.0 + 0.02
    with pytest.raises(ValueError):
        jvn_stable_eta(hot)
    for start in (0.3, 0.05):
        eta = start
        for _ in range(400):
            eta = single_triple_map(eta, hot)
        assert abs(eta - 0.5) < 1e-10
    print(f"[PASS] c10 map converges to lower branch {target:.10f} "
          f"in {iters} iterations; 1/2 repels below 1/6 and attracts above")


def test_c11_monte_carlo_output_independent_of_workers(tmp_path):
    cases = [
        (["simulate", "--model", "hypercube_mc", "--level", "2",
          "--grid", "0.1:0.14:3", "--min-flips", "40", "--seed", "9"],
         ("1", "3")),
        (["simulate", "--model", "vn_mc", "--level", "2",
          "--eps", "0.12", "--min-flips", "40", "--seed", "5"],
         ("1", "2")),
        (["simulate", "--model", "vn_mc", "--level", "3",
          "--grid", "0.1:0.12:2", "--min-flips", "30", "--seed", "8"],
         ("1", "2")),
        (["compare-vn", "--grid", "0.1:0.12:2", "--min-flips", "30",
          "--seed", "3"],
         ("1", "4")),
        (["encode", "--p", "0.02", "--trials", "30000", "--seed", "4"],
         ("1", "4")),
    ]
    for idx, (base, (w_a, w_b)) in enumerate(cases):
        a = tmp_path / f"case{idx}_a.csv"
        b = tmp_path / f"case{idx}_b.csv"
        assert main(base + ["--workers", w_a, "--out", str(a)]) == 0
        assert main(base + ["--workers", w_b, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), base
    print("[PASS] c11 simulate, compare-vn, and encode artifacts "
          "byte-identical across worker counts")
