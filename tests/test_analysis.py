import math
from fractions import Fraction

import numpy as np
import pytest

from majmux import chains
from majmux.analysis import (MEASUREMENT_SLOPE, SweepRecord, concat_baseline,
                             correction_threshold, feedback_constants,
                             mc_point, p_target, sweep, universal_threshold)
from majmux.chains import (ErrorChain, build_level2_chain, build_level3_chain,
                           propagated_bit_error, steady_state)
from majmux.netsim import run_parallel
from majmux.rates import bisect, derive_rates, epsilon_of_p

L2 = build_level2_chain()
L3 = build_level3_chain()


def test_level3_threshold_frozen_value():
    assert correction_threshold(L3) == pytest.approx(0.1494145, abs=2e-6)


def test_level2_threshold_frozen_value():
    assert correction_threshold(L2) == pytest.approx(0.249297, abs=1e-5)


def test_threshold_separates_regimes():
    for chain in (L2, L3):
        x = correction_threshold(chain)
        assert steady_state(chain, x).p_ss == pytest.approx(x, abs=1e-5)
        below = 0.8 * x
        above = min(1.05 * x, 0.2499)
        assert steady_state(chain, below).p_ss < below
        assert steady_state(chain, above).p_ss > above


def test_dead_chain_has_no_threshold():
    # every step goes to state 0 and none fails, so p_ss(eps) - eps < 0
    zero, one = (0,) * 10, (1,) + (0,) * 9
    dead = ErrorChain("dead", L2.labels, [(one, zero, zero, zero)] * 2)
    with pytest.raises(RuntimeError):
        correction_threshold(dead)


@pytest.mark.parametrize("chain", [L2, L3], ids=["level2", "level3"])
def test_threshold_grid_has_one_bracket_and_the_root_is_its_bisection(chain):
    # p_ss(eps) - eps changes sign from below to above exactly once over a
    # 250-point grid of the search range, so bisecting the whole range
    # finds the one root a grid scan could bracket, bit for bit
    grid = [float(x) for x in np.linspace(1e-3, 0.25 - 1e-4, 250)]
    g = lambda e: steady_state(chain, e).p_ss - e
    vals = [g(x) for x in grid]
    brackets = [(a, b) for a, b, ga, gb in zip(grid, grid[1:], vals, vals[1:])
                if (ga < 0.0) != (gb < 0.0)]
    assert len(brackets) == 1 and vals[0] < 0.0 <= vals[-1]
    assert correction_threshold(chain).hex() == bisect(
        g, *brackets[0]).hex()


def test_universal_threshold_frozen_values():
    p_star, eps_star = universal_threshold()
    assert p_star == pytest.approx(0.055986, abs=5e-5)
    assert eps_star == pytest.approx(0.131522, abs=2e-4)
    assert eps_star == pytest.approx(epsilon_of_p(p_star), rel=1e-12)


def _p_target_exact(p: Fraction) -> Fraction:
    """p_target at a rational p in exact rationals: the rate shares as
    exact fractions, eps = (148/63) p, eps' = eps / 2, one wire at
    (2/3) p, and eta from the GTH solve of L3's seven classes and their
    marks polynomials on Fractions."""
    eps = Fraction(148, 63) * p
    eps_prime, wire = eps / 2, Fraction(2, 3) * p
    pi, _ = chains._stationary(L3.trans(eps))
    eta = sum(q * n / (1 - f) for q, n, f in zip(
        pi, chains._horner(L3.marks, eps), L3.fail(eps))) / 9
    p_in = eps_prime + (1 - eps_prime) * eta
    return 1 - (1 - p_in) ** 2 * (1 - eps) * (1 - wire)


def test_printed_universal_threshold_is_certified_in_exact_rationals():
    # p_target(p) - 1/2, exactly, changes sign between the floats next to
    # the printed p*, and the float p_target there is the exact one to a
    # relative 1e-13
    p_star = universal_threshold()[0]
    for p, sign in ((math.nextafter(p_star, 0.0), -1),
                    (math.nextafter(p_star, 1.0), 1)):
        exact = _p_target_exact(Fraction(p))
        assert type(exact) is Fraction
        assert (exact - Fraction(1, 2)) * sign > 0, p
        assert abs(Fraction(p_target(p)) - exact) <= (
            Fraction(1, 10**13) * exact)


def test_universal_threshold_inside_correction_margin():
    _, eps_star = universal_threshold()
    assert eps_star < correction_threshold(L3)


def test_p_target_formula():
    p = 0.03
    eps = epsilon_of_p(p)
    eps_prime = derive_rates(p)[1].epsilon_prime
    eta = propagated_bit_error(L3, eps)
    p_in = eps_prime + (1.0 - eps_prime) * eta
    expect = 1.0 - (1.0 - p_in) ** 2 * (1.0 - eps) * (1.0 - 2.0 / 3.0 * p)
    assert p_target(p) == pytest.approx(expect, rel=1e-12)


def test_p_target_anchors():
    assert p_target(0.0) == 0.0
    p_star, _ = universal_threshold()
    assert p_target(p_star) == pytest.approx(0.5, abs=1e-5)
    grid = np.linspace(0.0, 0.1, 21)
    vals = [p_target(p) for p in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_concat_baseline_values():
    assert concat_baseline(6, 2, 0.01) == pytest.approx(6**3 * 1e-8,
                                                        rel=1e-13)
    assert concat_baseline(7, 3, 0.1) == pytest.approx(7**7 * 1e-8,
                                                       rel=1e-13)
    assert concat_baseline(6, 4, 0.0) == 0.0


def test_concat_baseline_validation():
    with pytest.raises(ValueError):
        concat_baseline(5, 2, 0.01)
    with pytest.raises(ValueError):
        concat_baseline(6, 1, 0.01)
    with pytest.raises(ValueError):
        concat_baseline(6, 2, 1.5)


@pytest.mark.parametrize("t", [6, 7])
def test_concat_domain_ends_at_its_threshold(t):
    # at eps = 1/t the power law gives 1/t at every level; above it, a
    # "rate" that grows without bound
    edge, above = 1.0 / t, math.nextafter(1.0 / t, 1.0)
    for level in (2, 3, 4):
        assert concat_baseline(t, level, edge) == pytest.approx(edge,
                                                                rel=1e-13)
        with pytest.raises(ValueError):
            concat_baseline(t, level, above)
    inside, outside = sweep(f"concat({t},2)", [edge, above])
    assert inside.y == concat_baseline(t, 2, edge) and inside.note == ""
    assert math.isnan(outside.y) and math.isnan(outside.y_lo)
    assert outside.note == f"eps outside [0, 1/{t}]"


def test_feedback_constants():
    meas, act = feedback_constants(0.01)
    assert meas == pytest.approx(MEASUREMENT_SLOPE * 0.01, rel=1e-13)
    assert act == pytest.approx(0.01 + meas, rel=1e-13)
    assert feedback_constants(0.0) == (0.0, 0.0)
    assert feedback_constants(1.0) == (MEASUREMENT_SLOPE,
                                       1.0 + MEASUREMENT_SLOPE)
    for bad in (-0.01, math.nan, math.inf, 2.0):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            feedback_constants(bad)


def test_sweep_analytic_models():
    grid = [0.01, 0.05, 0.1]
    recs = sweep("level3", grid)
    assert [r.x for r in recs] == grid
    for r in recs:
        assert r.y == steady_state(L3, r.x).p_ss
        assert r.y_lo == r.y == r.y_hi
        assert r.model == "level3" and r.n == 3 and r.note == ""
    recs2 = sweep("level2", [0.1])
    assert recs2[0].n == 2
    assert recs2[0].y == pytest.approx(0.013320770977, rel=1e-9)


def test_sweep_flags_out_of_domain_points():
    recs = sweep("level2", [0.1, 0.3])
    assert math.isnan(recs[1].y)
    assert recs[1].note != ""
    assert not math.isnan(recs[0].y)


def test_sweep_concat_model():
    recs = sweep("concat(6,2)", [0.01, 0.02])
    assert recs[0].y == pytest.approx(6**3 * 1e-8, rel=1e-13)
    assert recs[0].model == "concat(6,2)"
    assert recs[0].n == 2
    recs_bad = sweep("concat(6,2)", [0.5, 1.5])
    assert math.isnan(recs_bad[1].y) and recs_bad[1].note != ""
    for t in (6, 7):
        for level in (2, 3, 4):
            rec, = sweep(f"concat({t},{level})", [0.03])
            assert rec.y == concat_baseline(t, level, 0.03)
            assert rec.n == level


def test_sweep_validates_grid_and_model():
    with pytest.raises(ValueError):
        sweep("level2", [0.1, 0.1])
    with pytest.raises(ValueError):
        sweep("level2", [0.2, 0.1])
    # a NaN orders against nothing, so it is refused by name, alone or
    # inside an increasing grid, as are both infinities
    for bad in (math.nan, math.inf, -math.inf):
        for grid in ([bad], [0.1, bad, 0.2], [0.1, 0.2, bad]):
            for model in ("level3", "concat(6,2)"):
                with pytest.raises(ValueError, match=f"{bad} is not finite"):
                    sweep(model, grid)
    # a concat tag outside t in 6, 7 and L in 2, 3, 4, or spelled with a
    # space, is no model: it raises rather than giving NaN rows
    for model in ("voodoo", "concat(5,2)", "concat(6,9)", "concat(6,1)",
                  "concat(6, 2)", "concat(06,2)"):
        with pytest.raises(ValueError, match="unknown analytic model"):
            sweep(model, [0.01, 0.02])
    for model in ("hypercube_mc", "vn_mc"):
        with pytest.raises(ValueError, match="simulate --level 3"):
            sweep(model, [0.1])


def test_mc_point_checks_tag_then_domain_then_budget():
    with pytest.raises(ValueError, match="unknown Monte Carlo model 'bogus'"):
        mc_point("bogus", 1, False, [(0.1, 0)], 0, 5, 1000)
    # an unknown tag is refused before an empty budget, and before a gate
    # error that would give a NaN row (0.7) or raise (1.5)
    with pytest.raises(ValueError, match="'bogus'"):
        mc_point("bogus", 1, False, [(0.1, 0)], 0, 0, 1000)
    for x in (0.7, 1.5):
        with pytest.raises(ValueError, match="'bogus'"):
            mc_point("bogus", 1, False, [(x, 0)], 0, 5, 1000)
    # a bad point anywhere in the list refuses the whole list, before an
    # empty budget
    with pytest.raises(ValueError, match="outside"):
        mc_point("vn_mc", 1, False, [(0.1, 0), (1.5, 1)], 0, 0, 1000)
    # an empty budget is refused on a known tag, at a NaN point too
    for x in (0.1, 0.7):
        for budget in ((0, 1000), (5, 0)):
            with pytest.raises(ValueError, match="budget"):
                mc_point("vn_mc", 1, False, [(x, 0)], 0, *budget)


def _mc_grid(model, grid, seed, min_flips, workers=1):
    """An 81-bit Idealized grid as `simulate --level 3 --grid` runs it,
    one point per job."""
    jobs = [(model, 3, False, [(x, i)], seed, min_flips, 10_000_000)
            for i, x in enumerate(grid)]
    return [r for recs in run_parallel(mc_point, jobs, workers) for r in recs]


def test_sweep_mc_worker_invariant_and_sorted():
    grid = [0.10, 0.13]
    a = _mc_grid("vn_mc", grid, seed=5, min_flips=60)
    b = _mc_grid("vn_mc", grid, seed=5, min_flips=60, workers=2)
    assert a == b
    assert [r.x for r in a] == grid
    for r in a:
        assert isinstance(r, SweepRecord)
        assert r.y_lo <= r.y <= r.y_hi
        assert r.model == "vn_mc" and r.n == 3 and r.seed == 5


def test_mc_point_list_gives_each_point_its_own_record():
    # NaN points between running ones leave the others' records alone
    points = [(0.1, 0), (0.7, 1), (0.12, 2), (0.0, 3), (0.14, 4)]
    for model in ("hypercube_mc", "vn_mc"):
        alone = [r for point in points
                 for r in mc_point(model, 2, False, [point], 6, 30, 50_000)]
        together = mc_point(model, 2, False, points, 6, 30, 50_000)
        assert repr(together) == repr(alone)
        assert [math.isnan(r.y) for r in together] == [0, 1, 0, 1, 0]


def test_sweep_mc_seed_matters_and_domain_noted():
    recs = _mc_grid("hypercube_mc", [0.0, 0.12], seed=1, min_flips=40)
    assert math.isnan(recs[0].y) and recs[0].note != ""
    other = _mc_grid("hypercube_mc", [0.12], seed=2, min_flips=40)
    assert other[0].y != recs[1].y
