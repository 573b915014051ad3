import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from majmux import chains
from majmux.analysis import correction_threshold
from majmux.chains import (ErrorChain, build_level2_chain, build_level3_chain,
                           propagated_bit_error, serialize_chain,
                           steady_state)
from majmux.rates import linspace

import oracles

L2 = build_level2_chain()
L3 = build_level3_chain()


def _rows(chain):
    """The chain's table back from its three column blocks."""
    return [(*t, f, n) for t, f, n
            in zip(chain.trans_coeffs, chain.fail_coeffs, chain.marks)]


def _gamma(eps):
    return 3.0 * eps**2 - 2.0 * eps**3


def _eta_exact(chain, eps):
    """eta of the chain at a Fraction eps, exactly: one surviving step of
    the exact stationary law, weighted by the marks polynomials."""
    pi, residual = chains._stationary(chain.trans(eps))
    assert residual == 0
    return sum(p * n / (1 - f) for p, n, f in zip(
        pi, chains._horner(chain.marks, eps), chain.fail(eps))) / 9


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
    for chain in (L2, L3):
        assert {type(c) for row in chain.trans_coeffs for p in row
                for c in p} == {int}
        assert {type(c) for p in (*chain.fail_coeffs, *chain.marks)
                for c in p} == {int}
    assert L2.trans_coeffs == (
        (coeffs(1 - p_ba - fail_a), coeffs(p_ba)),
        (coeffs(p_ab), coeffs(p_bb)))
    assert L2.fail_coeffs == (coeffs(fail_a), coeffs(1 - p_ab - p_bb))
    # a step leaves one mark exactly when it leads to B
    assert L2.marks == (coeffs(p_ba), coeffs(p_bb))


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
        assert propagated_bit_error(chain, eps) == pytest.approx(
            float(_eta_exact(chain, Fraction(eps))), rel=1e-13, abs=0)


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


def test_level3_transitions_closed_form():
    # classes 0 and 1 are the profiles (0, 0, 0) and (1, 0, 0)
    eps = 0.1
    prop = 2.0 * eps - eps**2
    idle = _gamma(eps)
    t = np.array(L3.trans_coeffs) @ eps ** np.arange(28)
    assert t[0, 0] == pytest.approx((1.0 - idle) ** 9, abs=1e-13)
    assert t[1, 0] == pytest.approx(
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


def test_refined_lumping_reproduces_class_chain():
    # exactly, as integer polynomials, for each of the ten line-count
    # profiles, 3-mark ones included: the row built from its own square
    # law is its class's trans row, fail polynomial and marks polynomial
    # (a line with 2 or 3 marks fails with certainty, so the two share a
    # row and a mean mark count alike); each class row plus its fail
    # polynomial sums to the constant 1
    one = (1,) + (0,) * (len(L3.fail_coeffs[0]) - 1)
    for prof, c in zip(oracles.PROFILES, oracles.CLASS_OF, strict=True):
        built = tuple(map(tuple,
                          chains._level3_row(chains._square_law(prof))))
        assert built == (*L3.trans_coeffs[c], L3.fail_coeffs[c],
                         L3.marks[c]), prof
    for row, f in zip(L3.trans_coeffs, L3.fail_coeffs, strict=True):
        assert chains._padd((*row, f)) == one


def test_every_count_vector_has_a_profile_or_is_a_logical_failure():
    # the three squares' failure counts are the next line counts: each
    # vector is None exactly when two or more lines hold >= 2 marks, and
    # otherwise the class of its sorted counts among the ten profiles
    for counts in itertools.product(range(4), repeat=3):
        cls = chains._class_or_none(counts)
        if sum(c >= 2 for c in counts) >= 2:
            assert cls is None, counts
        else:
            prof = tuple(sorted(counts, reverse=True))
            assert cls == oracles.CLASS_OF[oracles.PROFILES.index(prof)]


def _exact(coeffs, eps):
    return sum(int(c) * eps ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(3, 20)])
def test_refined_rows_equal_exact_census_of_gate_failure_patterns(eps):
    # every profile's census, summed by the class of each next profile,
    # is its class's row; its fail entry is the class's fail polynomial,
    # and its mark count, weighted over the surviving next profiles, the
    # class's marks polynomial
    for prof, c in zip(oracles.PROFILES, oracles.CLASS_OF, strict=True):
        law = oracles.level3_step_exact(prof, eps)
        by_class = [sum(law[q] for q, cq in zip(oracles.PROFILES,
                                                oracles.CLASS_OF) if cq == j)
                    for j in range(7)]
        assert by_class == [_exact(p, eps) for p in L3.trans_coeffs[c]], prof
        assert law[None] == _exact(L3.fail_coeffs[c], eps), prof
        assert sum(law[q] * sum(q) for q in oracles.PROFILES) == _exact(
            L3.marks[c], eps), prof


@pytest.mark.parametrize("eps", [Fraction(1, 100), Fraction(1, 10),
                                 Fraction(3, 20), Fraction(1, 5)])
def test_eta_is_the_ten_profile_census_eta_exactly(eps):
    # the ten-profile chain of the census, with its own mark counts and
    # no lumping, solved exactly: its stationary mark share is one
    # surviving step of the seven classes
    laws = [oracles.level3_step_exact(q, eps) for q in oracles.PROFILES]
    trans = [[law[q] for q in oracles.PROFILES] for law in laws]
    pi, residual = chains._stationary(trans)
    assert residual == 0 and type(pi[0]) is Fraction
    want = sum(p * sum(q) for p, q in zip(pi, oracles.PROFILES)) / 9
    assert _eta_exact(L3, eps) == want


def test_square_law_is_invariant_under_permuting_counts():
    # the level-3 builder reads one law per profile, so every ordering of
    # every count vector must give its profile's law exactly
    for counts in itertools.product(range(4), repeat=3):
        law = chains._square_law(counts)
        for perm in itertools.permutations(counts):
            assert chains._square_law(perm) == law, perm


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
    for chain in (L2, L3):
        ss = steady_state(chain, 0.0)
        assert ss.pi == (1.0,) + (0.0,) * (chain.n_states - 1)
        assert ss.p_ss == 0.0 and ss.residual == 0.0


def test_steady_state_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        steady_state(L2, -0.01)
    with pytest.raises(ValueError):
        steady_state(L2, 1.01)
    # above 1/2 a gate is wrong more often than right; at 0.95 the float
    # level-3 rows no longer read as the irreducible chain they are
    for bad in (-1e-3, 0.5000000000000001, 0.8, 0.95, 1.0, math.nan):
        with pytest.raises(ValueError,
                           match=r"epsilon must lie in \[0, 1/2\]"):
            steady_state(L3, bad)
        with pytest.raises(ValueError,
                           match=r"epsilon must lie in \[0, 1/2\]"):
            propagated_bit_error(L3, bad)
    assert steady_state(L3, 0.5).residual <= 1e-15


def test_horner_error_within_stated_bound():
    # |fl(p(eps)) - p(eps)| <= gamma_2d sum_k |c_k| eps^k, with p(eps) and
    # the bound evaluated exactly in rationals at the float eps
    u = Fraction(1, 2**53)
    for chain in (L2, L3):
        polys = [*(p for row in chain.trans_coeffs for p in row),
                 *chain.fail_coeffs, *chain.marks]
        two_d = 2 * (len(polys[0]) - 1)
        gamma = two_d * u / (1 - two_d * u)
        for eps in (0.0, 0.005, 0.01, 0.06, 0.1494, 0.25):
            values = [*(v for row in chain.trans(eps) for v in row),
                      *chain.fail(eps), *chains._horner(chain.marks, eps)]
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


@pytest.mark.parametrize("chain", [L2, L3], ids=["level2", "level3"])
def test_float_eps_evaluates_bit_for_bit_as_on_the_integers(chain):
    # a float eps runs on float64 copies of the integer blocks; a float
    # plus an int converts the int to that same double, so every Horner
    # step rounds alike, numpy.float64 eps included
    def bits(values):
        return [float.hex(v) for v in values]

    for i in range(501):
        for eps in (i / 1000, np.float64(i / 1000)):
            got = [*(v for row in chain.trans(eps) for v in row),
                   *chain.fail(eps),
                   *chains._horner(chain._blocks(eps)[2], eps)]
            want = [*(v for row in chain.trans_coeffs
                      for v in chains._horner(row, eps)),
                    *chains._horner(chain.fail_coeffs, eps),
                    *chains._horner(chain.marks, eps)]
            assert bits(got) == bits(want), (chain.name, eps)
    # any other number type runs on the integers: a Fraction entry mixed
    # with a float coefficient would come out a float
    eps = Fraction(3, 20)
    t, f = chain.trans(eps), chain.fail(eps)
    assert {type(v) for row in t for v in row} | {type(v) for v in f} == {
        Fraction}
    assert t == [chains._horner(row, eps) for row in chain.trans_coeffs]
    assert f == chains._horner(chain.fail_coeffs, eps)


@pytest.mark.parametrize("chain, n_ss, n_eta", [(L2, 6, 8), (L3, 56, 63)],
                         ids=["level2", "level3"])
@pytest.mark.parametrize("eps", [0.1, Fraction(1, 10)], ids=str)
def test_a_solve_evaluates_each_polynomial_once(monkeypatch, chain, n_ss,
                                                n_eta, eps):
    # p_ss reads the k*k transitions and k failures; eta adds the k marks
    # and takes its conditioning 1 - fail_i from the solve's own column
    count = 0
    horner = chains._horner

    def counting(polys, epsilon):
        nonlocal count
        count += len(polys)
        return horner(polys, epsilon)

    monkeypatch.setattr(chains, "_horner", counting)
    for solve, want in ((steady_state, n_ss), (propagated_bit_error, n_eta)):
        count = 0
        solve(chain, eps)
        assert count == want, solve.__name__


@pytest.mark.parametrize("chain", [L2, L3],
                         ids=["level2", "level3"])
def test_printed_threshold_is_certified_in_exact_rationals(chain):
    # the same Horner and GTH code on Fractions: p_ss(eps) - eps, exactly,
    # changes sign within one ulp of the printed root, and the float solve
    # there is within a relative 1e-13 of the exact rate
    root = correction_threshold(chain)
    ulp = Fraction(math.ulp(root))
    for eps, sign in ((Fraction(root) - ulp, -1), (Fraction(root) + ulp, 1)):
        trans, fail = chain.trans(eps), chain.fail(eps)
        assert {type(v) for v in (*trans[0], *fail)} == {Fraction}
        pi, residual = chains._stationary(trans)
        assert residual == 0 and sum(pi) == 1
        p_ss = sum(p * f for p, f in zip(pi, fail))
        assert (p_ss - eps) * sign > 0, (chain.name, float(eps))
        approx = steady_state(chain, float(eps)).p_ss
        assert abs(Fraction(approx) - p_ss) <= Fraction(1, 10**13) * p_ss


def _leading_coefficients(chain, lead):
    """The first three series coefficients of p_ss in eps, from lead on.

    One exact solve at eps = 1e-40: p_ss / eps**lead = c0 + c1 eps +
    c2 eps**2 + eps**3 r, and each round peels one integer off.  The
    remainder r is returned too; a small r makes every round exact."""
    eps = Fraction(1, 10**40)
    pi, _ = chains._stationary(chain.trans(eps))
    x = sum(p * f for p, f in zip(pi, chain.fail(eps))) / eps**lead
    out = []
    for _ in range(3):
        out.append(round(x))
        x = (x - out[-1]) / eps
    return out, x


@pytest.mark.parametrize("chain, lead, want", [
    (L2, 4, [135, 288, -2466]), (L3, 8, [218943, 4857408, 59523984])],
    ids=["level2", "level3"])
def test_p_ss_leading_series_coefficients_are_exact_integers(chain, lead,
                                                             want):
    got, rest = _leading_coefficients(chain, lead)
    assert got == want
    assert abs(rest) < 10**12


def test_level2_series_matches_the_two_state_closed_form():
    # sympy's series of the closed form in build_level2_chain's docstring:
    # the row-normalized two-state chain has pi_B / pi_A = M_AB / M_BA
    import sympy
    e = sympy.Symbol("e")
    g = 3 * e**2 - 2 * e**3
    p_ba, fail_a = 3 * g * (1 - g) ** 2, 3 * g**2 - 2 * g**3
    p_ab, p_bb = (1 - e) ** 6, 6 * e * (1 - e) ** 5 + 3 * e**2 * (1 - e) ** 4
    m_ab, m_ba = p_ba / (1 - fail_a), p_ab / (p_ab + p_bb)
    pi_a = m_ba / (m_ab + m_ba)
    p_ss = pi_a * fail_a + (1 - pi_a) * (1 - p_ab - p_bb)
    series = sympy.series(p_ss, e, 0, 7).removeO()
    assert [series.coeff(e, k) for k in range(7)] == [
        0, 0, 0, 0, *_leading_coefficients(L2, 4)[0]]


def _strided(a):
    """An equal copy of ``a`` that is a non-contiguous view."""
    wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


@pytest.mark.parametrize("layout", [np.asfortranarray, _strided],
                         ids=["fortran", "strided"])
@pytest.mark.parametrize("chain", [L2, L3], ids=["level2", "level3"])
def test_solve_is_bitwise_independent_of_coefficient_layout(chain, layout):
    # the solve reads each coefficient as an int, so the same coefficients
    # as int64 arrays, in any memory layout, give the tuples' bits (repr
    # round-trips every float); and p_ss is the correctly rounded sum of
    # pi * fail
    copy = ErrorChain(chain.name, chain.labels,
                      layout(np.array(_rows(chain), dtype=np.int64)))
    for eps in linspace(1e-3, 0.25, 40):
        want = steady_state(chain, eps)
        assert repr(steady_state(copy, eps)) == repr(want)
        assert want.p_ss == math.fsum(
            p * f for p, f in zip(want.pi, chain.fail(eps)))
    assert (propagated_bit_error(copy, 0.05)
            == propagated_bit_error(chain, 0.05))


ZERO = (0,) * 10  # the zero polynomial, as long as L2's
ONE = (1, *ZERO[1:])


def test_solve_rejects_a_dead_or_reducible_point():
    # state 1 of a two-state chain keeps mass 1 - 10 eps toward state 0,
    # which is exactly 0.0 at eps = 0.1; the rest of its row goes to
    # failure (dead) or stays in state 1 (reducible)
    to_zero, ten_eps = (1, -10, *ZERO[2:]), (0, 10, *ZERO[2:])
    dead = ErrorChain("dead", L2.labels,
                      [_rows(L2)[0], (to_zero, ZERO, ten_eps, ZERO)])
    stuck = ErrorChain("stuck", L2.labels,
                       [_rows(L2)[0], (to_zero, ten_eps, ZERO, ZERO)])
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
        ErrorChain("halves", L2.labels,
                   [(row, ZERO, row, ZERO), (ZERO, row, row, ZERO)])


def test_chain_refuses_a_coefficient_float64_cannot_hold():
    # float(2**53 + 1) is 2**53: the float copies a float eps runs on would
    # no longer be the table, and Horner's error bound assumes them exact
    zero, one = (0, 0), (1, 0)
    for i, c in ((0, 2**53), (1, -2**53)):
        rows = [(one, zero, zero, zero), (zero, one, zero, zero)]
        rows[i] = ((1, c), zero, (0, -c), zero)  # still sums to one
        with pytest.raises(ValueError, match=(
                rf"chain 'big': row {i} has a coefficient of magnitude "
                r"2\*\*53 or more")):
            ErrorChain("big", L2.labels, rows)
    # the largest exact coefficient builds, and stays exact
    top = 2**53 - 1
    chain = ErrorChain("top", L2.labels, [((1, top), zero, (0, -top), zero),
                                          (zero, one, zero, zero)])
    assert chain.trans(1.0)[0][0] == 2**53 and chain.fail(1.0)[0] == -top


def test_chain_refuses_a_table_of_the_wrong_shape():
    # a row one polynomial short would otherwise read its marks as its
    # failure, and three labels would read a 3-state chain out of a
    # 2-state table
    short = [row[:-1] for row in _rows(L2)]
    uneven = [_rows(L2)[0], tuple(p[:-1] for p in _rows(L2)[1])]
    for labels, rows in ((L2.labels, short), (L2.labels, _rows(L2)[:1]),
                         (L2.labels + ("extra",), _rows(L2)),
                         (L2.labels, uneven), ((), [])):
        with pytest.raises(ValueError, match="rows of .* polynomials of "
                           "one length"):
            ErrorChain("bad", labels, rows)


def test_chain_refuses_a_row_that_does_not_sum_to_one():
    for chain in (L2, L3):
        rows = _rows(chain)
        last = rows[-1]
        rows[-1] = (*last[:-2], (0,) * len(last[0]), last[-1])  # no failure
        with pytest.raises(ValueError, match=(
                rf"chain 'bad': the transitions and failure of row "
                rf"{len(rows) - 1} do not sum to one")):
            ErrorChain("bad", chain.labels, rows)


def test_propagated_bit_error_monotone():
    vals = [propagated_bit_error(L3, e) for e in np.linspace(0.0, 0.14, 15)]
    assert vals[0] == 0.0
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_propagated_bit_error_level2_is_one_mark_in_nine():
    # exactly, in rationals: a step leaves one mark when it leads to B,
    # so one step of pi = pi M leaves pi_B marks in nine
    assert propagated_bit_error(L2, 0.0) == 0.0
    for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 5)):
        pi, _ = chains._stationary(L2.trans(eps))
        assert _eta_exact(L2, eps) == pi[1] / 9


def test_propagated_bit_error_matches_trajectory_oracle():
    eps = 0.05
    analytic = propagated_bit_error(L3, eps)
    rng = np.random.default_rng(17)
    mean, stderr = oracles.trajectory_mark_fraction(eps, 2000, rng,
                                                    batches=50)
    assert abs(mean - analytic) <= 4.0 * stderr + 1e-4


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
        assert {t for t, _ in lines} == {"chain", "states", "degree",
                                         "label", "trans", "fail", "marks"}
        k = chain.n_states
        assert rows("label") == [
            f"{i} {lab}" for i, lab in enumerate(chain.labels)]
        t = [tuple(map(int, r.split())) for r in rows("trans")]
        assert [r[:2] for r in t] == list(itertools.product(range(k),
                                                            repeat=2))
        assert [r[2:] for r in t] == [p for row in chain.trans_coeffs
                                      for p in row]
        for tag, polys in (("fail", chain.fail_coeffs),
                           ("marks", chain.marks)):
            f = [tuple(map(int, r.split())) for r in rows(tag)]
            assert [r[0] for r in f] == list(range(k))
            assert [r[1:] for r in f] == list(polys)


def test_dead_chain_has_zero_failure():
    # every step goes to state 0 and none fails
    dead = ErrorChain("dead", L2.labels,
                      [(ONE, ZERO, ZERO, ZERO), (ONE, ZERO, ZERO, ZERO)])
    assert steady_state(dead, 0.1).p_ss == 0.0


def test_reducible_chain_is_rejected():
    # both states are absorbing, so the stationary law is not unique
    stuck = ErrorChain("stuck", L2.labels,
                       [(ONE, ZERO, ZERO, ZERO), (ZERO, ONE, ZERO, ZERO)])
    with pytest.raises(ValueError, match="reducible"):
        steady_state(stuck, 0.1)
