"""Properties of the analytic half over randomly drawn rates.

Derandomized, so every run draws the same examples, and with no deadline,
so a slow machine cannot fail them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majmux.analysis import pfail_bound
from majmux.chains import build_level2_chain, build_level3_chain, steady_state

L2 = build_level2_chain()
L3 = build_level3_chain()
CHAINS = pytest.mark.parametrize("chain", [L2, L3, L3.refined],
                                 ids=["level2", "level3", "level3_refined"])
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
    assert t.min() >= 0.0 and f.min() >= 0.0
    np.testing.assert_array_less(t.sum(axis=1) + f, 1.0 + 1e-12)


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


@CHAINS
@derandomized
@given(grid=st.lists(st.floats(0.0, 0.25), min_size=1, max_size=8))
def test_batched_solve_equals_per_float_calls(chain, grid):
    batch = steady_state(chain, np.array(grid))
    for i, eps in enumerate(grid):
        one = steady_state(chain, eps)
        assert batch.p_ss[i] == one.p_ss
        assert batch.residual[i] == one.residual
        np.testing.assert_array_equal(batch.pi[i], one.pi)
