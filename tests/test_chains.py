import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from majmux import chains
from majmux.analysis import correction_threshold
from majmux.chains import (REFINED_CLASS, REFINED_MARKS, REFINED_PROFILES,
                           ErrorChain, build_level2_chain, build_level3_chain,
                           pattern_class, propagated_bit_error,
                           serialize_chain, steady_state)
from majmux.rates import linspace

import oracles

L2 = build_level2_chain()
L3 = build_level3_chain()


def _gamma(eps):
    return 3.0 * eps**2 - 2.0 * eps**3


def test_level2_matches_closed_form():
    rng = np.random.default_rng(7)
    for eps in rng.uniform(0.0, 0.25, size=40):
        g = _gamma(eps)
        t = L2.trans(eps)
        f = L2.fail(eps)
        assert t[0][1] == pytest.approx(3.0 * g * (1.0 - g) ** 2, abs=1e-13)
        assert f[0] == pytest.approx(3.0 * g**2 - 2.0 * g**3, abs=1e-13)
        assert t[1][0] == pytest.approx((1.0 - eps) ** 6, abs=1e-13)
        assert t[1][1] == pytest.approx(
            6.0 * eps * (1.0 - eps) ** 5 + 3.0 * eps**2 * (1.0 - eps) ** 4,
            abs=1e-13)
    # and exactly: the closed forms' integer coefficients, expanded by
    # sympy, constant term first, zero-padded to the chain's ten
    import sympy
    e = sympy.Symbol("e")
    g = 3 * e**2 - 2 * e**3
    p_ba, fail_a = 3 * g * (1 - g) ** 2, 3 * g**2 - 2 * g**3
    p_ab, p_bb = (1 - e) ** 6, 6 * e * (1 - e) ** 5 + 3 * e**2 * (1 - e) ** 4

    def coeffs(expr):
        c = [int(x) for x in sympy.Poly(sympy.expand(expr), e).all_coeffs()]
        return tuple(c[::-1] + [0] * (10 - len(c)))

    # exact Python ints, in tuples, as tuple equality below also checks
    for chain in (L2, L3, L3.refined):
        assert {type(c) for row in chain.trans_coeffs for p in row
                for c in p} == {int}
        assert {type(c) for p in chain.fail_coeffs for c in p} == {int}
    assert L2.trans_coeffs == (
        (coeffs(1 - p_ba - fail_a), coeffs(p_ba)),
        (coeffs(p_ab), coeffs(p_bb)))
    assert L2.fail_coeffs == (coeffs(fail_a), coeffs(1 - p_ab - p_bb))


def test_level2_failure_is_quartic_at_low_noise():
    for eps in (1e-3, 1e-4, 1e-5):
        assert L2.fail(eps)[0] / eps**4 == pytest.approx(27.0, rel=30 * eps)


def test_level2_steady_state_anchors():
    assert steady_state(L2, 0.10).p_ss == pytest.approx(0.013320770977,
                                                        rel=1e-9)
    assert steady_state(L2, 0.15).p_ss == pytest.approx(0.056658372864,
                                                        rel=1e-9)


def test_level3_steady_state_anchor():
    # the 50-digit value of the same definition (oracles.stationary_reference)
    assert steady_state(L3, 0.01).p_ss == pytest.approx(
        2.7344090258511613e-11, rel=1e-13, abs=0)


@pytest.mark.parametrize("eps", [0.005, 0.01, 0.05, 0.149])
def test_steady_state_matches_50_digit_reference(eps):
    for chain in (L2, L3):
        _, p_ss = oracles.stationary_reference(chain.trans_coeffs,
                                               chain.fail_coeffs, eps)
        assert steady_state(chain, eps).p_ss == pytest.approx(
            float(p_ss), rel=1e-13, abs=0)
    pi, _ = oracles.stationary_reference(L3.refined.trans_coeffs,
                                         L3.refined.fail_coeffs, eps)
    eta = sum(p * m for p, m in zip(pi, L3.refined.marks)) / 9
    assert propagated_bit_error(L3, eps) == pytest.approx(
        float(eta), rel=1e-13, abs=0)


def test_steady_state_reports_small_residual():
    for chain in (L2, L3):
        for eps in np.linspace(0.001, 0.25, 60):
            ss = steady_state(chain, eps)
            m = np.array(chain.trans(eps))
            m /= m.sum(axis=1)[:, None]
            assert ss.residual == np.max(
                np.abs((np.array(ss.pi)[:, None] * m).sum(axis=0) - ss.pi))
            assert ss.residual <= 1e-15


def test_level3_low_noise_scaling():
    eps = 1e-4
    ratio = steady_state(L3, eps).p_ss / eps**8
    assert 6**7 / 3 < ratio < 6**7 * 3


def test_level3_refined_transitions_closed_form():
    eps = 0.1
    prop = 2.0 * eps - eps**2
    idle = _gamma(eps)
    t = np.array(L3.refined.trans_coeffs) @ eps ** np.arange(28)
    i000 = REFINED_PROFILES.index((0, 0, 0))
    i100 = REFINED_PROFILES.index((1, 0, 0))
    assert t[i000, i000] == pytest.approx((1.0 - idle) ** 9, abs=1e-13)
    assert t[i100, i000] == pytest.approx(
        (1.0 - prop) ** 3 * (1.0 - idle) ** 6, abs=1e-13)


def test_rows_substochastic_and_nonnegative():
    rng = np.random.default_rng(11)
    for chain in (L2, L3):
        for eps in rng.uniform(0.0, 0.25, size=200):
            t = np.array(chain.trans(eps))
            f = np.array(chain.fail(eps))
            assert np.all(t >= -1e-14) and np.all(t <= 1.0 + 1e-14)
            assert np.all(f >= -1e-14) and np.all(f <= 1.0 + 1e-14)
            np.testing.assert_allclose(t.sum(axis=1) + f,
                                       np.ones(chain.n_states), atol=1e-12)


def test_refined_rows_substochastic():
    rng = np.random.default_rng(13)
    k = len(REFINED_PROFILES)
    for eps in rng.uniform(0.0, 0.25, size=200):
        powers = eps ** np.arange(28)
        t = np.array(L3.refined.trans_coeffs) @ powers
        f = np.array(L3.refined.fail_coeffs) @ powers
        np.testing.assert_allclose(t.sum(axis=1) + f, np.ones(k), atol=1e-12)


def test_refined_lumping_reproduces_class_chain():
    # summing refined columns by class must give a row of the 7-state
    # matrix whenever the class has a single refined representative
    eps = 0.17
    rt = np.array(L3.refined.trans_coeffs) @ eps ** np.arange(28)
    t = L3.trans(eps)
    cls = np.array(REFINED_CLASS)
    for ci in range(4):  # classes 0..3 have one refined state each
        ri = list(cls).index(ci)
        for cj in range(7):
            assert t[ci][cj] == pytest.approx(rt[ri, cls == cj].sum(),
                                              abs=1e-12)


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(3, 20)])
def test_refined_rows_equal_exact_census_of_gate_failure_patterns(eps):
    def exact(coeffs):
        return sum(int(c) * eps ** i for i, c in enumerate(coeffs))

    r = L3.refined
    for i, prof in enumerate(REFINED_PROFILES):
        got = {q: exact(r.trans_coeffs[i][j])
               for j, q in enumerate(REFINED_PROFILES)}
        got[None] = exact(r.fail_coeffs[i])
        assert got == oracles.level3_step_exact(prof, eps), prof


def test_square_law_is_invariant_under_permuting_counts():
    # the level-3 builder reads one law per profile, so every ordering of
    # every count vector must give its profile's law exactly
    for counts in itertools.product(range(4), repeat=3):
        law = chains._square_law(counts)
        for perm in itertools.permutations(counts):
            assert chains._square_law(perm) == law, perm


def test_pattern_class_examples():
    def cls(rows):
        return pattern_class(np.array(rows, dtype=int))

    assert cls([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0
    assert cls([[1, 0, 0], [0, 0, 0], [0, 0, 0]]) == 1
    assert cls([[1, 0, 0], [0, 1, 0], [0, 0, 0]]) == 2
    assert cls([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert cls([[1, 1, 0], [0, 0, 0], [0, 0, 0]]) == 4
    assert cls([[1, 1, 1], [0, 0, 0], [0, 0, 0]]) == 4
    assert cls([[1, 1, 0], [0, 0, 1], [0, 0, 0]]) == 5
    assert cls([[1, 1, 1], [1, 0, 0], [0, 1, 0]]) == 6
    assert cls([[1, 1, 0], [1, 1, 0], [0, 0, 0]]) is None
    assert cls([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) is None


def test_pattern_class_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = (rng.random((3, 3)) < 0.4).astype(int)
        base = pattern_class(g)
        pr = rng.permutation(3)
        pc = rng.permutation(3)
        assert pattern_class(g[pr][:, pc]) == base


def test_one_step_distribution_matches_oracle():
    # light version of the full acceptance check: one state, one noise level
    eps = 0.12
    rng = np.random.default_rng(21)
    n = 400_000
    freq = oracles.step_distribution((1, 1, 0), eps, n, rng)
    powers = eps ** np.arange(28)
    row = np.concatenate([np.array(L3.trans_coeffs[2]) @ powers,
                          [np.array(L3.fail_coeffs[2]) @ powers]])
    sig = np.sqrt(row * (1.0 - row) / n)
    assert np.all(np.abs(freq - row) <= 5.0 * sig + 5.0 / n)


def test_steady_state_at_zero_noise():
    # the GTH solve itself, no special case: every state drains into 0
    for chain in (L2, L3, L3.refined):
        ss = steady_state(chain, 0.0)
        assert ss.pi == (1.0,) + (0.0,) * (chain.n_states - 1)
        assert ss.p_ss == 0.0 and ss.residual == 0.0


def test_steady_state_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        steady_state(L2, -0.01)
    with pytest.raises(ValueError):
        steady_state(L2, 1.01)
    for bad in (-1e-3, 1.0, math.nan):
        with pytest.raises(ValueError,
                           match=r"epsilon must lie in \[0, 1\)"):
            steady_state(L3, bad)


def test_horner_error_within_stated_bound():
    # |fl(p(eps)) - p(eps)| <= gamma_2d sum_k |c_k| eps^k, with p(eps) and
    # the bound evaluated exactly in rationals at the float eps
    u = Fraction(1, 2**53)
    for chain in (L2, L3, L3.refined):
        polys = [*(p for row in chain.trans_coeffs for p in row),
                 *chain.fail_coeffs]
        two_d = 2 * (len(polys[0]) - 1)
        gamma = two_d * u / (1 - two_d * u)
        for eps in (0.0, 0.005, 0.01, 0.06, 0.1494, 0.25):
            values = [*(v for row in chain.trans(eps) for v in row),
                      *chain.fail(eps)]
            assert {type(v) for v in values} == {float}
            x = Fraction(eps)
            for n, (coeffs, value) in enumerate(zip(polys, values,
                                                    strict=True)):
                exact = scale = Fraction(0)
                for c in reversed(coeffs):
                    exact = exact * x + c
                    scale = scale * x + abs(c)
                err = abs(Fraction(value) - exact)
                assert err <= gamma * scale, (chain.name, eps, n)


@pytest.mark.parametrize("chain", [L2, L3],
                         ids=["level2", "level3"])
def test_printed_threshold_is_certified_in_exact_rationals(chain):
    # the same Horner and GTH code on Fractions: p_ss(eps) - eps, exactly,
    # changes sign within 1e-6 of the printed root, and the float solve
    # there is within a relative 1e-13 of the exact rate
    root = Fraction(correction_threshold(chain))
    for eps, sign in ((root - Fraction(1, 10**6), -1),
                      (root + Fraction(1, 10**6), 1)):
        trans, fail = chain.trans(eps), chain.fail(eps)
        assert {type(v) for v in (*trans[0], *fail)} == {Fraction}
        pi, residual = chains._stationary(trans)
        assert residual == 0 and sum(pi) == 1
        p_ss = sum(p * f for p, f in zip(pi, fail))
        assert (p_ss - eps) * sign > 0, (chain.name, float(eps))
        approx = steady_state(chain, float(eps)).p_ss
        assert abs(Fraction(approx) - p_ss) <= Fraction(1, 10**13) * p_ss


def _strided(a):
    """An equal copy of ``a`` that is a non-contiguous view."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


@pytest.mark.parametrize("layout", [np.asfortranarray, _strided],
                         ids=["fortran", "strided"])
@pytest.mark.parametrize("chain", [L2, L3, L3.refined],
                         ids=["level2", "level3", "level3_refined"])
def test_solve_is_bitwise_independent_of_coefficient_layout(chain, layout):
    # the solve reads each coefficient as an int, so the same coefficients
    # as int64 arrays, in any memory layout, give the tuples' bits (repr
    # round-trips every float); and p_ss is the correctly rounded sum of
    # pi * fail
    copy = ErrorChain(
        chain.name, chain.labels,
        trans_coeffs=layout(np.array(chain.trans_coeffs)),
        fail_coeffs=layout(np.array(chain.fail_coeffs)),
        marks=chain.marks, refined=chain.refined)
    for eps in linspace(1e-3, 0.25, 40):
        want = steady_state(chain, eps)
        assert repr(steady_state(copy, eps)) == repr(want)
        assert want.p_ss == math.fsum(
            p * f for p, f in zip(want.pi, chain.fail(eps)))
    if chain.marks is not None:
        assert (propagated_bit_error(copy, 0.05)
                == propagated_bit_error(chain, 0.05))


ZERO = (0,) * 10  # the zero polynomial, as long as L2's


def test_solve_rejects_a_dead_or_reducible_point():
    # state 1 of a two-state chain keeps mass 1 - 10 eps toward state 0,
    # which is exactly 0.0 at eps = 0.1; the rest of its row goes to
    # failure (dead) or stays in state 1 (reducible)
    to_zero, ten_eps = (1, -10, *ZERO[2:]), (0, 10, *ZERO[2:])
    dead = ErrorChain(name="dead", labels=L2.labels,
                      trans_coeffs=(L2.trans_coeffs[0], (to_zero, ZERO)),
                      fail_coeffs=L2.fail_coeffs)
    stuck = ErrorChain(name="stuck", labels=L2.labels,
                       trans_coeffs=(L2.trans_coeffs[0], (to_zero, ten_eps)),
                       fail_coeffs=(ZERO, ZERO))
    with pytest.raises(ValueError, match="no survivors"):
        steady_state(dead, 0.1)
    with pytest.raises(ValueError, match="reducible"):
        steady_state(stuck, 0.1)
    for chain in (dead, stuck):
        for eps in (0.02, 0.05):
            assert steady_state(chain, eps).residual <= 1e-15


@pytest.mark.parametrize("half", [Fraction(1, 2), 0.5],
                         ids=["Fraction", "float"])
def test_chain_refuses_a_coefficient_that_is_not_an_integer(half):
    # int() would read 1/2 as 0, and the solve would then see a chain
    # whose every row is dead
    row = (half, half, *ZERO[2:])
    with pytest.raises(TypeError):
        ErrorChain(name="halves", labels=L2.labels,
                   trans_coeffs=((row, ZERO), (ZERO, row)),
                   fail_coeffs=(row, row))


def test_propagated_bit_error_monotone():
    vals = [propagated_bit_error(L3, e) for e in np.linspace(0.0, 0.14, 15)]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_propagated_bit_error_level2_is_one_mark_in_nine():
    assert propagated_bit_error(L2, 0.0) == 0.0
    for eps in (0.01, 0.1, 0.2):
        assert propagated_bit_error(L2, eps) == \
            steady_state(L2, eps).pi[1] / 9.0


def test_propagated_bit_error_needs_mark_counts():
    bare = ErrorChain(name="x", labels=L2.labels, trans_coeffs=L2.trans_coeffs,
                      fail_coeffs=L2.fail_coeffs)
    with pytest.raises(ValueError, match="chain 'x' has no mark counts"):
        propagated_bit_error(bare, 0.1)


def test_propagated_bit_error_matches_trajectory_oracle():
    eps = 0.05
    analytic = propagated_bit_error(L3, eps)
    rng = np.random.default_rng(17)
    mean, stderr = oracles.trajectory_mark_fraction(eps, 2000, rng,
                                                    batches=50)
    assert abs(mean - analytic) <= 4.0 * stderr + 1e-4


def test_refined_marks_consistent_with_profiles():
    assert REFINED_MARKS == tuple(sum(q) for q in REFINED_PROFILES)
    assert len(REFINED_CLASS) == len(REFINED_PROFILES) == 10


def test_serialized_level3_matches_golden_file(tmp_path):
    import pathlib
    golden = pathlib.Path(__file__).parent / "data" / "level3_chain.txt"
    assert serialize_chain(L3) == golden.read_text()


def test_parse_round_trip():
    # each line of the text, read back, is the chain's own entry
    for chain in (L2, L3):
        lines = [line.split(" ", 1)
                 for line in serialize_chain(chain).splitlines()
                 if not line.startswith("#")]

        def rows(tag):
            return [rest for t, rest in lines if t == tag]

        assert rows("chain") == [chain.name]
        assert rows("states") == [str(chain.n_states)]
        assert rows("degree") == [str(len(chain.trans_coeffs[0][0]) - 1)]
        tags = {"chain", "states", "degree", "label", "trans", "fail"}
        views = [("", chain.labels, chain.trans_coeffs, chain.fail_coeffs)]
        if chain.refined is not None:
            tags |= {"refined_states", "refined_label", "refined_trans",
                     "refined_fail", "refined_marks"}
            views.append(("refined_", chain.refined.labels,
                          chain.refined.trans_coeffs,
                          chain.refined.fail_coeffs))
            assert rows("refined_states") == [str(len(chain.refined.labels))]
            assert rows("refined_marks") == [
                f"{i} {m}" for i, m in enumerate(chain.refined.marks)]
        assert {t for t, _ in lines} == tags
        for prefix, labels, trans, fail in views:
            k = len(labels)
            assert rows(prefix + "label") == [
                f"{i} {lab}" for i, lab in enumerate(labels)]
            t = [tuple(map(int, r.split())) for r in rows(prefix + "trans")]
            assert [r[:2] for r in t] == list(itertools.product(range(k),
                                                                repeat=2))
            assert [r[2:] for r in t] == [p for row in trans for p in row]
            f = [tuple(map(int, r.split())) for r in rows(prefix + "fail")]
            assert [r[0] for r in f] == list(range(k))
            assert [r[1:] for r in f] == list(fail)


def test_dead_chain_has_zero_failure():
    dead = ErrorChain(name="dead", labels=L2.labels,
                      trans_coeffs=L2.trans_coeffs,
                      fail_coeffs=(ZERO, ZERO))
    assert steady_state(dead, 0.1).p_ss == 0.0


def test_reducible_chain_is_rejected():
    # both states are absorbing, so the stationary law is not unique
    one = (1, *ZERO[1:])
    stuck = ErrorChain(name="stuck", labels=L2.labels,
                       trans_coeffs=((one, ZERO), (ZERO, one)),
                       fail_coeffs=(ZERO, ZERO))
    with pytest.raises(ValueError, match="reducible"):
        steady_state(stuck, 0.1)
