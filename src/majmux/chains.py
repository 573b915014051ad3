"""Jump-process models of propagated errors in majority-vote correctors.

The 27-bit corrector (nine 3-bit bundles in a 3x3 square) and the 81-bit
corrector (three such squares) are modeled as finite Markov chains over
classes of propagated-error configurations.  One chain step is one
restorative phase: a 3-input majority gate is applied to every line of
every square, fresh (incipient) per-bundle errors arrive at rate eps, and
a gate that fails plants a propagated bundle error at the next step.

Gate failure rules, with m = number of propagated errors among a gate's
three input bundles:

    m = 0 :  fails with I = 3 eps^2 - 2 eps^3  (at least two incipient hits)
    m = 1 :  fails with P = 2 eps - eps^2      (any incipient hit on the rest)
    m >= 2:  fails with certainty

Incipient hits are never allowed to cancel a propagated error, so each
chain is a one-sided overestimate of the bit-level simulation.

For the 81-bit corrector the propagated pattern is a 3x3 grid of marked
positions, identical in all three squares.  Rows of the grid are the lines
the gates act along at the current step (each square gets one gate per
line), and a failure of the line-k gate of square l marks position
(line k, square l) for the next step, where gates act along the other
direction; re-reading the new grid with squares as lines makes every step
look the same.  A configuration whose grid has two or more lines carrying
two or more marks is a logical failure.

All transition probabilities are exact integer-coefficient polynomials in
eps, built once from the square law as tuples of Python ints: a square's
three gates fail independently, so its failure count has one
Poisson-binomial law.  A chain is one table of such polynomials, a row per
state, and ``ErrorChain`` checks it when built: each row's transitions
plus failure are exactly the constant 1.  The 27-bit chain steps on one
square's count; in the 81-bit chain the three squares' counts are the next
line counts.  Evaluation is Horner's rule on those coefficients, one eps
at a time, so the leading-order cancellations are exact and failure rates
stay accurate down to ~1e-16.  The chain picks its table once per eps: a
float runs on exact float64 copies of the integers (each below 2**53 in
magnitude), rounded step for step alike, and any other number type on the
integers; a solve evaluates each polynomial once.  Building, evaluating
and solving use plain Python numbers and no numpy, so the analytic
commands never load it; the same evaluation and solve run in exact
rationals on a ``fractions.Fraction``.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index
from typing import NamedTuple

Poly = tuple[int, ...]  # integer coefficients in eps, constant term first

# --- exact integer polynomial helpers ---------------------------------------


def _pmul(*polys: Poly) -> Poly:
    """The product of integer polynomials, one convolution per factor."""
    out = (1,)
    for q in polys:
        terms = [(j, b) for j, b in enumerate(q) if b]
        prod = [0] * (len(out) + len(q) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in terms:
                    prod[i + j] += a * b
        out = tuple(prod)
    return out


def _padd(polys) -> Poly:
    """The coefficientwise sum of integer polynomials of one length."""
    return tuple(map(sum, zip(*polys)))


def _floats(p: Poly) -> tuple[float, ...]:
    """p as floats without its high zero coefficients, which Horner
    skips; exact for coefficients below 2**53 in magnitude."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(map(float, p[:n]))


def _horner(polys, epsilon) -> list:
    """Integer polynomials evaluated at eps by Horner's rule, in order.

    Each polynomial (constant term first) is acc * eps + c_k from the top
    coefficient down, every step rounded as written; a float eps gives
    floats, a ``fractions.Fraction`` exact Fractions.  High zero
    coefficients may be cut beforehand: they add exact zeros.  Exact
    float64 copies of the ints give a float eps the same floats: float +
    int converts the int to that same double before it adds.

    Error: the coefficients are integers below 2**53, exact in float64,
    and Horner's rule on a degree-d polynomial (d = D - 1 for D
    coefficients, uncut) satisfies |fl(p(eps)) - p(eps)| <= gamma_2d *
    sum_k |c_k| eps**k, with gamma_n = n u / (1 - n u) and u = 2**-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 5.1).
    """
    out = []
    for cs in polys:
        acc = 0 * epsilon
        for c in reversed(cs):
            acc = acc * epsilon + c
        out.append(acc)
    return out


_ONE: Poly = (1,)

# gate failure probability by propagated-input count m (see module docstring)
_POLY_I: Poly = (0, 0, 3, -2)   # 3 e^2 - 2 e^3
_POLY_P: Poly = (0, 2, -1)      # 2 e - e^2
_FAIL_BY_COUNT = {0: _POLY_I, 1: _POLY_P, 2: _ONE, 3: _ONE}


# --- configuration classes for the 81-bit corrector --------------------------

# A state is the multiset of per-line mark counts of the 3x3 grid.  At most
# one line may hold >= 2 marks (two such lines are already a logical error).
# A line with 2 or 3 marks fails with certainty either way, so the two
# counts behave identically and one class holds both: the seven classes are
# the sorted count profiles with each count capped at 2.

_CLASS_PROFILES: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 0),
    (2, 1, 1))
_CLASS_INDEX = {q: i for i, q in enumerate(_CLASS_PROFILES)}

LEVEL3_LABELS: tuple[str, ...] = (
    "no propagated errors",
    "one propagated error",
    "two propagated errors in distinct lines",
    "three propagated errors in distinct lines",
    "one saturated line (2 or 3 in-line errors), nothing else",
    "one saturated line plus one stray error",
    "one saturated line plus two strays in distinct lines",
)

LEVEL2_LABELS: tuple[str, ...] = (
    "no propagated errors",
    "one propagated bundle error",
)


def _class_or_none(counts) -> int | None:
    """Class of a grid's line counts, or None for a logical failure."""
    if sum(c >= 2 for c in counts) >= 2:
        return None
    return _CLASS_INDEX[tuple(sorted((min(c, 2) for c in counts),
                                     reverse=True))]


# --- chain container ----------------------------------------------------------


class ErrorChain:
    """A substochastic jump process over propagated-error classes.

    ``rows`` is its table: k rows, one per state, of k + 2 integer
    polynomials in eps of one length D, constant term first.  Row i holds
    the transitions T_i0 .. T_i(k-1) among non-failure states, the
    logical-failure probability fail_i and the marks polynomial N_i: the
    probability of each surviving step out of state i times the number of
    marked (erroneous-bundle) positions it leaves, summed over those
    steps, so N_i / rowsum_i(T) is the mean mark count one surviving step
    after state i.  The table is checked here, once: a coefficient that
    is not an integer (a float, a Fraction) raises TypeError; a table of
    another shape, or a row whose transitions plus failure are not the
    constant 1 as exact integer polynomials, raises ValueError, as does
    a coefficient of magnitude 2**53 or more, inexact in float64.
    ``trans_coeffs``, ``fail_coeffs`` and ``marks`` are its three column
    blocks as int tuples; ``_blocks`` alone picks what an eps runs on: a
    float (``numpy.float64`` too) their exact float64 copies, bit for bit
    as on the ints, any other number type the ints.  A chain is immutable
    and equal only to itself.
    """

    def __init__(self, name: str, labels: tuple[str, ...], rows):
        k = len(labels)
        table = tuple(tuple(tuple(map(index, p)) for p in row)
                      for row in rows)
        lengths = {len(p) for row in table for p in row}
        if (len(table) != k or len(lengths) != 1
                or any(len(row) != k + 2 for row in table)):
            raise ValueError(f"chain {name!r} needs {k} rows of {k + 2} "
                             "polynomials of one length")
        one = (1,) + (0,) * (lengths.pop() - 1)
        for i, row in enumerate(table):
            if any(abs(c) >= 2**53 for p in row for c in p):
                raise ValueError(f"chain {name!r}: row {i} has a "
                                 "coefficient of magnitude 2**53 or more")
            if _padd(row[:k + 1]) != one:
                raise ValueError(f"chain {name!r}: the transitions and "
                                 f"failure of row {i} do not sum to one")
        trans = tuple(row[:k] for row in table)
        fail = tuple(row[k] for row in table)
        marks = tuple(row[k + 1] for row in table)
        vars(self).update(name=name, labels=labels, trans_coeffs=trans,
                          fail_coeffs=fail, marks=marks,
                          _float64=(tuple(tuple(map(_floats, row))
                                          for row in trans),
                                    tuple(map(_floats, fail)),
                                    tuple(map(_floats, marks))))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"ErrorChain(name={self.name!r}, labels={self.labels!r})"

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def _blocks(self, epsilon) -> tuple:
        """The (trans, fail, marks) blocks that eps is evaluated on: their
        float64 copies for a float, the integers for any other type."""
        if isinstance(epsilon, float):
            return self._float64
        return self.trans_coeffs, self.fail_coeffs, self.marks

    def trans(self, epsilon) -> list[list]:
        """Transition matrix T(eps) among non-failure states, k rows of k."""
        return [_horner(row, epsilon) for row in self._blocks(epsilon)[0]]

    def fail(self, epsilon) -> list:
        """Per-state logical failure probabilities, k of them."""
        return _horner(self._blocks(epsilon)[1], epsilon)


class SteadyState(NamedTuple):
    """Stationary occupancies conditioned on no logical failure."""

    pi: tuple        # k floats over non-failure states, sums to 1
    p_ss: float      # per-phase logical failure, pi . fail
    residual: float  # max |pi M - pi|, M row-normalized


# --- chain builders -----------------------------------------------------------


@lru_cache(maxsize=1)
def build_level2_chain() -> ErrorChain:
    """Two-state chain of the 27-bit corrector.

    States: no propagated errors (A); one propagated bundle error (B).
    With gamma = 3 eps^2 - 2 eps^3 the transitions are

        P(B|A) = 3 gamma (1-gamma)^2         P(fail|A) = 3 gamma^2 - 2 gamma^3
        P(A|B) = (1-eps)^6                   P(B|B) = 6 eps (1-eps)^5
                                                      + 3 eps^2 (1-eps)^4
        P(fail|B) = 1 - P(A|B) - P(B|B)

    Both rows are square laws q(c) (see _square_law), c the number of the
    three gates that fail: c = 0 leads to A, c = 1 to B, and c >= 2 is a
    logical failure.  A reads counts (0, 0, 0).  B reads (1, 1, 1): its one
    propagated bundle is an input to all three gates, as the closed form
    P(A|B) = (1-eps)^6 = (1 - P)^3 says, P = 2 eps - eps^2.
    """
    # state B holds one erroneous bundle out of the nine in the square, so
    # a step's mark count is one exactly when it leads to B
    laws = [_square_law((0, 0, 0)), _square_law((1, 1, 1))]
    return ErrorChain("level2", LEVEL2_LABELS,
                      [(q[0], q[1], _padd(q[2:]), q[1]) for q in laws])


def _square_law(counts: tuple[int, int, int]) -> tuple[Poly, ...]:
    """The ten coefficients of q(c), c = 0..3: the chance that c of one
    square's three gates fail, the line-k gate failing with f(m_k).  Built
    gate by gate as q'(c) = q(c) - f q(c) + f q(c - 1), one convolution
    per gate; a gate adds at most three degrees, so cutting products to
    ten coefficients drops zeros."""
    zero = (0,) * 10
    law = [(1,) + zero[1:], zero, zero, zero]
    for m in counts:
        fq = [_pmul(q, _FAIL_BY_COUNT[m])[:10] for q in law]
        law = [tuple(q - f + g for q, f, g in zip(law[c], fq[c], below))
               for c, below in enumerate([zero, *fq[:-1]])]
    return tuple(law)


def _level3_row(law: tuple[Poly, ...]) -> list[list[int]]:
    """Transition row of a grid whose squares follow ``law``.

    The three squares fail independently, and their failure counts
    (c0, c1, c2) are the line counts of the next step.  Returns 9 lists
    of 28 polynomial coefficients: entries 0..6 are the class targets,
    entry 7 is logical failure and entry 8 the marks polynomial.  Each
    multiset of counts adds its number of orderings times
    q(c0) q(c1) q(c2) to its target and, when it survives, that times
    its mark count c0 + c1 + c2 to the marks.
    """
    row = [[0] * 28 for _ in range(9)]
    for c0, c1, c2 in itertools.combinations_with_replacement(range(4), 3):
        cls = _class_or_none((c0, c1, c2))
        orderings = len(set(itertools.permutations((c0, c1, c2))))
        target = row[7 if cls is None else cls]
        marks = 0 if cls is None else c0 + c1 + c2
        for d, c in enumerate(_pmul(law[c0], law[c1], law[c2])):
            target[d] += orderings * c
            row[8][d] += orderings * marks * c
    return row


@lru_cache(maxsize=1)
def build_level3_chain() -> ErrorChain:
    """Seven-state chain of the 81-bit corrector, from one square's law.

    Each class's row is built once, from its own profile.  A line that
    holds 2 or 3 marks fails with certainty, so the 2-mark and 3-mark
    grids of a class have the same square law and the same row: the ten
    line-count profiles lump exactly into the seven classes (Kemeny &
    Snell, Finite Markov Chains, 1960), and only their mark counts
    differ, which the marks polynomials carry.  One law also stands
    for every ordering of a profile's line counts: the square law is a
    product of one factor per gate, so their order cannot change it.
    """
    return ErrorChain("level3", LEVEL3_LABELS,
                      [_level3_row(_square_law(q)) for q in _CLASS_PROFILES])


# --- steady state -------------------------------------------------------------


def _stationary(trans) -> tuple[list, object]:
    """Stationary law of a k x k substochastic matrix (k rows of k),
    row-normalized first.

    Grassmann-Taksar-Heyman state reduction (Oper. Res. 33:1107, 1985):
    states k-1..1 are censored out one at a time, and the column of each is
    divided by its row's mass to the states still kept, never by one minus
    its diagonal, so no step subtracts and the relative accuracy holds as
    eps -> 0.  Back-substitution from pi_0 = 1 then gives pi.  Every sum
    runs in index order, with each product and sum rounded as written, as
    does the residual max |pi M - pi| for the row-normalized M.  A float
    matrix gives floats, a Fraction one exact Fractions.  Returns pi (a
    list of k) and the residual.
    """
    k = len(trans)
    m = []
    for row in trans:
        total = row[0]
        for x in row[1:]:
            total += x
        if total <= 0:
            raise ValueError("a row of the transition matrix has no "
                             "survivors; cannot condition on non-failure")
        m.append([x / total for x in row])
    a = [row[:] for row in m]
    for n in range(k - 1, 0, -1):
        an = a[n]
        s = an[0]
        for x in an[1:n]:
            s += x
        if s <= 0:
            raise ValueError(f"state {n} cannot reach a lower state; "
                             "the chain is reducible")
        for ai in a[:n]:
            ain = ai[n] = ai[n] / s
            for j in range(n):
                ai[j] += ain * an[j]
    pi = [1]
    for j in range(1, k):
        acc = pi[0] * a[0][j]
        for i in range(1, j):
            acc += pi[i] * a[i][j]
        pi.append(acc)
    total = pi[0]
    for x in pi[1:]:
        total += x
    pi = [x / total for x in pi]
    residual = 0 * total
    for j in range(k):
        acc = pi[0] * m[0][j]
        for i in range(1, k):
            acc += pi[i] * m[i][j]
        residual = max(residual, abs(acc - pi[j]))
    return pi, residual


def _solve(chain: ErrorChain, epsilon) -> tuple[list, object, list]:
    """pi, residual and fail(eps) of one solve at eps in [0, 1/2]."""
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 1/2], got {epsilon}")
    return (*_stationary(chain.trans(epsilon)), chain.fail(epsilon))


def steady_state(chain: ErrorChain, epsilon: float) -> SteadyState:
    """Stationary state of the chain at eps, conditioned on survival.

    Convention: pi is the stationary law of the row-normalized transition
    matrix M = T / rowsum(T), the chain whose every step is conditioned on
    that step's survival; it is not the quasi-stationary (Perron)
    distribution of T.  pi comes from a direct GTH solve (no iteration),
    p_ss = pi . fail(eps) is the per-phase logical failure probability,
    summed by ``math.fsum`` so its last bit depends on no summation order,
    and residual is max |pi M - pi|.  eps = 0 goes through the same solve,
    which returns pi = e_0, p_ss = 0 and residual 0 exactly.

    Args:
        chain: a chain from build_level2_chain or build_level3_chain.
        epsilon: per-bundle incipient error probability, 0 <= eps <= 1/2
            (above 1/2 a gate is wrong more often than right), or
            ValueError, NaN included.
    """
    pi, residual, fail = _solve(chain, epsilon)
    p_ss = math.fsum(p * f for p, f in zip(pi, fail))
    return SteadyState(pi=tuple(pi), p_ss=p_ss, residual=residual)


def propagated_bit_error(chain: ErrorChain, epsilon: float) -> float:
    """Stationary erroneous-bit fraction eta of the corrected code.

    eta = (1/9) sum_i pi_i N_i / rowsum_i(T), with N_i the chain's marks
    polynomials and rowsum_i(T) = 1 - fail_i exactly: the mean share of
    marked positions, out of nine, one surviving step after the
    stationary law.  Every grid that a class holds steps by the class's
    row, so the grids' stationary law is one step of the row-normalized
    chain M from pi = pi M, and eta is its mark share (Kemeny & Snell,
    Finite Markov Chains, 1960); for the level-2 chain it is pi_B / 9.
    Inside the chain's own model a marked position is a wrong bundle in
    every square, and a wrong bundle is wrong in all three bits, so there
    the bundle fraction and the bit fraction coincide; the universal
    threshold p* (``analysis.p_target``) rests on that convention.  The
    simulated register's wrong-bit share is not eta: on the exact 27-bit
    hypercube law the share of gates whose noiseless vote is wrong is 3.0
    to 4.5 times L2's eta at eps 0.01 to 0.13.  eps takes steady_state's
    domain, [0, 1/2]; the solve's failure column gives 1 - fail_i, so each
    polynomial of the table is evaluated once.
    """
    pi, _, fail = _solve(chain, epsilon)
    marks = _horner(chain._blocks(epsilon)[2], epsilon)
    return math.fsum(p * n / (1.0 - f)
                     for p, n, f in zip(pi, marks, fail)) / 9.0


# --- serialization ------------------------------------------------------------


def serialize_chain(chain: ErrorChain) -> str:
    """Render a chain as a line-oriented text table.

    Format: one ``chain``/``states``/``degree`` header; ``label i text``
    lines; then ``trans i j c0 c1 ...``, ``fail i c0 c1 ...`` and
    ``marks i c0 c1 ...`` rows of integer polynomial coefficients in eps,
    constant term first.
    """
    k = chain.n_states
    rows = [(f"trans {i} {j}", chain.trans_coeffs[i][j])
            for i in range(k) for j in range(k)]
    for tag, polys in (("fail", chain.fail_coeffs), ("marks", chain.marks)):
        rows += [(f"{tag} {i}", p) for i, p in enumerate(polys)]
    return "\n".join([
        "# majmux error chain; integer polynomial coefficients in eps,",
        "# constant term first",
        f"chain {chain.name}",
        f"states {k}",
        f"degree {len(chain.trans_coeffs[0][0]) - 1}",
        *(f"label {i} {lab}" for i, lab in enumerate(chain.labels)),
        *(" ".join(map(str, (head, *p))) for head, p in rows),
    ]) + "\n"
