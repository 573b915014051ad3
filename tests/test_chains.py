import numpy as np
import pytest

from majmux.chains import (REFINED_CLASS, REFINED_MARKS, REFINED_PROFILES,
                           ErrorChain, build_level2_chain, build_level3_chain,
                           parse_chain_text, pattern_class,
                           propagated_bit_error, serialize_chain,
                           steady_state)

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
        assert t[0, 1] == pytest.approx(3.0 * g * (1.0 - g) ** 2, abs=1e-13)
        assert f[0] == pytest.approx(3.0 * g**2 - 2.0 * g**3, abs=1e-13)
        assert t[1, 0] == pytest.approx((1.0 - eps) ** 6, abs=1e-13)
        assert t[1, 1] == pytest.approx(
            6.0 * eps * (1.0 - eps) ** 5 + 3.0 * eps**2 * (1.0 - eps) ** 4,
            abs=1e-13)


def test_level2_failure_is_quartic_at_low_noise():
    for eps in (1e-3, 1e-4, 1e-5):
        assert L2.fail(eps)[0] / eps**4 == pytest.approx(27.0, rel=30 * eps)


def test_level2_steady_state_anchors():
    assert steady_state(L2, 0.10).p_ss == pytest.approx(0.013320770977,
                                                        rel=1e-9)
    assert steady_state(L2, 0.15).p_ss == pytest.approx(0.056658372864,
                                                        rel=1e-9)


def test_level3_steady_state_anchor():
    assert steady_state(L3, 0.01).p_ss == pytest.approx(
        2.7344090266792545e-11, rel=1e-10)


def test_level3_low_noise_scaling():
    eps = 1e-4
    ratio = steady_state(L3, eps).p_ss / eps**8
    assert 6**7 / 3 < ratio < 6**7 * 3


def test_level3_refined_transitions_closed_form():
    eps = 0.1
    prop = 2.0 * eps - eps**2
    idle = _gamma(eps)
    powers = eps ** np.arange(L3.refined_trans_coeffs.shape[2])
    t = L3.refined_trans_coeffs @ powers
    i000 = REFINED_PROFILES.index((0, 0, 0))
    i100 = REFINED_PROFILES.index((1, 0, 0))
    assert t[i000, i000] == pytest.approx((1.0 - idle) ** 9, abs=1e-13)
    assert t[i100, i000] == pytest.approx(
        (1.0 - prop) ** 3 * (1.0 - idle) ** 6, abs=1e-13)


def test_rows_substochastic_and_nonnegative():
    rng = np.random.default_rng(11)
    for chain in (L2, L3):
        for eps in rng.uniform(0.0, 0.25, size=200):
            t = chain.trans(eps)
            f = chain.fail(eps)
            assert np.all(t >= -1e-14) and np.all(t <= 1.0 + 1e-14)
            assert np.all(f >= -1e-14) and np.all(f <= 1.0 + 1e-14)
            np.testing.assert_allclose(t.sum(axis=1) + f,
                                       np.ones(chain.n_states), atol=1e-12)


def test_refined_rows_substochastic():
    rng = np.random.default_rng(13)
    k = len(REFINED_PROFILES)
    for eps in rng.uniform(0.0, 0.25, size=200):
        powers = eps ** np.arange(L3.refined_trans_coeffs.shape[2])
        t = L3.refined_trans_coeffs @ powers
        f = L3.refined_fail_coeffs @ powers
        np.testing.assert_allclose(t.sum(axis=1) + f, np.ones(k), atol=1e-12)


def test_refined_lumping_reproduces_class_chain():
    # summing refined columns by class must give a row of the 7-state
    # matrix whenever the class has a single refined representative
    eps = 0.17
    powers = eps ** np.arange(L3.refined_trans_coeffs.shape[2])
    rt = L3.refined_trans_coeffs @ powers
    t = L3.trans(eps)
    cls = np.array(REFINED_CLASS)
    for ci in range(4):  # classes 0..3 have one refined state each
        ri = list(cls).index(ci)
        for cj in range(7):
            assert t[ci, cj] == pytest.approx(rt[ri, cls == cj].sum(),
                                              abs=1e-12)


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
    powers = eps ** np.arange(L3.trans_coeffs.shape[2])
    row = np.concatenate([L3.trans_coeffs[2] @ powers,
                          [L3.fail_coeffs[2] @ powers]])
    sig = np.sqrt(row * (1.0 - row) / n)
    assert np.all(np.abs(freq - row) <= 5.0 * sig + 5.0 / n)


def test_steady_state_at_zero_noise():
    for chain in (L2, L3):
        ss = steady_state(chain, 0.0)
        assert ss.pi[0] == 1.0
        assert ss.p_ss == 0.0
        assert ss.pi.sum() == pytest.approx(1.0, abs=1e-14)


def test_steady_state_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        steady_state(L2, -0.01)
    with pytest.raises(ValueError):
        steady_state(L2, 1.01)


def test_propagated_bit_error_monotone():
    vals = [propagated_bit_error(L3, e) for e in np.linspace(0.0, 0.14, 15)]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_propagated_bit_error_level2_is_one_mark_in_nine():
    assert propagated_bit_error(L2, 0.0) == 0.0
    for eps in (0.01, 0.1, 0.2):
        assert propagated_bit_error(L2, eps) == \
            steady_state(L2, eps).pi[1] / 9.0


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
    d = parse_chain_text(serialize_chain(L3))
    assert d["name"] == L3.name
    assert d["states"] == L3.n_states
    assert tuple(d["labels"][i] for i in range(7)) == L3.labels
    np.testing.assert_array_equal(d["trans_coeffs"], L3.trans_coeffs)
    np.testing.assert_array_equal(d["fail_coeffs"], L3.fail_coeffs)
    np.testing.assert_array_equal(d["refined_trans_coeffs"],
                                  L3.refined_trans_coeffs)
    np.testing.assert_array_equal(d["refined_fail_coeffs"],
                                  L3.refined_fail_coeffs)
    assert tuple(d["refined_marks"]) == L3.refined_marks

    d2 = parse_chain_text(serialize_chain(L2))
    assert d2["states"] == 2
    np.testing.assert_array_equal(d2["trans_coeffs"], L2.trans_coeffs)


def test_dead_chain_has_zero_failure():
    dead = ErrorChain(name="dead", labels=L2.labels,
                      trans_coeffs=L2.trans_coeffs,
                      fail_coeffs=np.zeros_like(L2.fail_coeffs))
    assert steady_state(dead, 0.1).p_ss == 0.0
