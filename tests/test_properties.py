"""Properties of the analytic half over randomly drawn rates, and of the
Monte Carlo shuffle and driver over randomly drawn seeds, shapes and grids,
and of the command line's ``--grid`` against ``np.linspace``.

Derandomized, so every run draws the same examples, and with no deadline,
so a slow machine cannot fail them.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from majmux.analysis import mc_point, model_tags
from majmux.chains import build_level2_chain, build_level3_chain, steady_state
from majmux.cli import RunConfig, _parse_grid
from majmux.netsim import (_shuffle_rows, cascade_grid, cascade_mc,
                           run_parallel)
from majmux.rates import linspace, pfail_bound

L2 = build_level2_chain()
L3 = build_level3_chain()
CHAINS = pytest.mark.parametrize("chain", [L2, L3],
                                 ids=["level2", "level3"])
derandomized = settings(derandomize=True, deadline=None, database=None,
                        max_examples=50)

# two rates at least 1e-6 apart: a step of one ulp can round p_ss down
GAP = 1e-6


def _ordered(lo, hi):
    """Pairs a < b in [lo, hi] with b - a >= GAP."""
    return (st.floats(lo, hi - GAP)
            .flatmap(lambda a: st.tuples(st.just(a),
                                         st.floats(a + GAP, hi))))


@CHAINS
@derandomized
@given(eps=st.floats(0.0, 0.25))
def test_rows_are_substochastic(chain, eps):
    t, f = chain.trans(eps), chain.fail(eps)
    assert min(min(row) for row in t) >= 0.0 and min(f) >= 0.0
    assert all(math.fsum(row) + fi < 1.0 + 1e-12 for row, fi in zip(t, f))


@CHAINS
@derandomized
@given(pair=_ordered(0.0, 0.249))
def test_steady_state_rate_is_nondecreasing(chain, pair):
    a, b = pair
    assert steady_state(chain, a).p_ss <= steady_state(chain, b).p_ss


@derandomized
@given(pair=_ordered(0.0, 0.2))
def test_encoding_bound_is_nondecreasing(pair):
    a, b = pair
    assert pfail_bound(a).p_fail <= pfail_bound(b).p_fail


# each example starts a process pool, so a handful keeps the suite fast
few = settings(derandomized, max_examples=5)
SEEDS = st.integers(0, 2 ** 63)


@few
@given(seed=SEEDS, model=st.sampled_from(model_tags("mc")),
       level=st.integers(1, 3),
       grid=st.lists(st.floats(0.05, 0.2), min_size=2, max_size=3,
                     unique=True).map(sorted))
def test_mc_points_do_not_depend_on_workers(seed, model, level, grid):
    # one point per job on two workers, or the whole grid as one stack
    points = list(zip(grid, range(len(grid))))
    jobs = [(model, level, False, [point], seed, 20, 20_000)
            for point in points]
    alone = [r for recs in run_parallel(mc_point, jobs, 2) for r in recs]
    assert alone == mc_point(model, level, False, points, seed, 20, 20_000)


@few
@given(seed=SEEDS, ps=st.lists(st.floats(0.005, 0.05), min_size=2,
                               max_size=3),
       trials=st.integers(8_193, 20_000))
def test_cascade_does_not_depend_on_workers(seed, ps, trials):
    # at least two 8,192-trial shards per p, so two workers share the run;
    # a grid's rows are its points' one-point runs, at any worker count
    rows = [cascade_mc(p, seed, trials) for p in ps]
    assert cascade_mc(ps[0], seed, trials, workers=2) == rows[0]
    for workers in (1, 2):
        assert cascade_grid(ps, seed, trials, workers=workers) == rows


@derandomized
@given(seed=SEEDS, rows=st.integers(1, 300), size=st.integers(3, 729))
def test_shuffle_keeps_every_row_count(seed, rows, size):
    rng = np.random.Generator(np.random.Philox(seed))
    bits = rng.integers(0, 2, (rows, size), np.uint8)
    shuffled = bits.copy()
    _shuffle_rows(shuffled, rng)
    np.testing.assert_array_equal(shuffled.sum(axis=1), bits.sum(axis=1))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(lo=FINITE, hi=FINITE, steps=st.integers(2, 2000))
@example(lo=-5e-324, hi=1e-323, steps=2000)  # the step underflows to 0
@example(lo=-1.7e308, hi=1.7e308, steps=5)    # hi - lo overflows
@example(lo=0.001, hi=0.2, steps=28)
@example(lo=0.001, hi=0.25 - 1e-4, steps=250)  # the one-bracket check's grid
def test_grid_equals_numpy_linspace_bit_for_bit(lo, hi, steps):
    # artifacts are compared as bytes, and the benchmark checks the x
    # column against np.linspace with !=
    assume(lo < hi)
    spec = f"{lo!r}:{hi!r}:{steps}"
    grid = _parse_grid(RunConfig(command="sweep", grid=spec))
    with np.errstate(over="ignore", invalid="ignore"):
        want = [float(x) for x in np.linspace(lo, hi, steps)]
    bits = lambda xs: [struct.pack("<d", x) for x in xs]
    assert bits(grid) == bits(linspace(lo, hi, steps)) == bits(want)

