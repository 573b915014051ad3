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
eps, built once from the square law: a square's three gates fail
independently, so its failure count has one Poisson-binomial law.  The
27-bit chain steps on one square's count; in the 81-bit chain the three
squares' counts are the next line counts.  Evaluation is Horner's rule on
those coefficients, so the leading-order cancellations are exact and
failure rates stay accurate down to ~1e-16.  Evaluation and the
steady-state solve take a whole eps grid at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from ._numpy import np

# --- exact integer polynomial helpers ---------------------------------------


def _pmul(*polys: np.ndarray) -> np.ndarray:
    out = np.array([1], dtype=np.int64)
    for q in polys:
        out = np.convolve(out, np.asarray(q, dtype=np.int64))
    return out


def _horner(coeffs: np.ndarray, epsilon) -> np.ndarray:
    """Integer polynomials evaluated in float64 at eps by Horner's rule.

    coeffs is (..., D), constant term first; epsilon is a float or an
    array, and the result has shape epsilon.shape + coeffs.shape[:-1].
    Every step is acc * eps + c_k on the whole grid, so a grid costs one
    pass of D - 1 steps.

    Error: the coefficients are integers below 2**53, exact in float64,
    and Horner's rule on a degree-d polynomial (d = D - 1) satisfies
    |fl(p(eps)) - p(eps)| <= gamma_2d * sum_k |c_k| eps**k, with
    gamma_n = n u / (1 - n u) and u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 5.1).
    """
    x = np.asarray(epsilon, dtype=float)
    c = coeffs.reshape(-1, coeffs.shape[-1]).T.astype(float)
    xs = x.reshape(-1, 1)
    acc = c[-1] + 0.0 * xs
    for ck in c[-2::-1]:
        acc *= xs
        acc += ck
    return acc.reshape(x.shape + coeffs.shape[:-1])


_ONE = np.array([1], dtype=np.int64)

# gate failure probability by propagated-input count m (see module docstring)
_POLY_I = np.array([0, 0, 3, -2], dtype=np.int64)   # 3 e^2 - 2 e^3
_POLY_P = np.array([0, 2, -1], dtype=np.int64)      # 2 e - e^2
_FAIL_BY_COUNT = {0: _POLY_I, 1: _POLY_P, 2: _ONE, 3: _ONE}


# --- configuration classes for the 81-bit corrector --------------------------

# A state is the multiset of per-line mark counts of the 3x3 grid.  At most
# one line may hold >= 2 marks (two such lines are already a logical error),
# which leaves ten distinct count profiles.  Profiles that differ only in
# whether the heavy line holds 2 or 3 marks behave identically (the gate on
# that line fails with certainty either way), so they lump pairwise into the
# seven coarse classes; the refined split is kept because the expected number
# of marked positions differs between the two.

REFINED_PROFILES: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (1, 1, 1),
    (2, 0, 0), (3, 0, 0),
    (2, 1, 0), (3, 1, 0),
    (2, 1, 1), (3, 1, 1),
)
REFINED_CLASS: tuple[int, ...] = (0, 1, 2, 3, 4, 4, 5, 5, 6, 6)
REFINED_MARKS: tuple[int, ...] = tuple(sum(q) for q in REFINED_PROFILES)
_PROFILE_INDEX = {q: i for i, q in enumerate(REFINED_PROFILES)}

LEVEL3_LABELS: tuple[str, ...] = (
    "no propagated errors",
    "one propagated error",
    "two propagated errors in distinct lines",
    "three propagated errors in distinct lines",
    "one saturated line (2 or 3 in-line errors), nothing else",
    "one saturated line plus one stray error",
    "one saturated line plus two strays in distinct lines",
)
LEVEL3_REFINED_LABELS: tuple[str, ...] = tuple(
    f"line counts {q}" for q in REFINED_PROFILES
)

LEVEL2_LABELS: tuple[str, ...] = (
    "no propagated errors",
    "one propagated bundle error",
)


def _profile_or_none(counts) -> tuple[int, int, int] | None:
    """Sorted line-count profile of a grid, or None for a logical failure."""
    if sum(c >= 2 for c in counts) >= 2:
        return None
    prof = tuple(sorted(counts, reverse=True))
    if prof not in _PROFILE_INDEX:
        raise RuntimeError(
            f"line counts {counts} fit no known configuration class; "
            "the state enumeration is incomplete")
    return prof


def pattern_class(pattern) -> int | None:
    """Coarse class index (0..6) of a 3x3 mark pattern, None if logical.

    Rows of ``pattern`` are the lines the gates act along at this step.
    """
    grid = np.asarray(pattern, dtype=int).reshape(3, 3)
    prof = _profile_or_none(tuple(int(c) for c in grid.sum(axis=1)))
    return None if prof is None else REFINED_CLASS[_PROFILE_INDEX[prof]]


# --- chain container ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ErrorChain:
    """A substochastic jump process over propagated-error classes.

    trans(eps) is the row-substochastic transition matrix among non-failure
    states, fail(eps) the per-state logical-failure probabilities; for every
    eps in [0, 1] each row of trans plus its fail entry sums to one exactly
    (the underlying integer polynomials sum to the constant 1).  marks
    counts the marked (erroneous-bundle) positions of each state, None
    where a state lumps different counts; refined is the finer chain that
    resolves them, None for chains that need no splitting.
    """

    name: str
    labels: tuple[str, ...]
    trans_coeffs: np.ndarray = field(repr=False)   # (k, k, D) int64
    fail_coeffs: np.ndarray = field(repr=False)    # (k, D) int64
    marks: tuple[int, ...] | None = None
    refined: ErrorChain | None = field(default=None, repr=False)

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def trans(self, epsilon) -> np.ndarray:
        """Transition matrix T(eps) among non-failure states.

        (k, k) for a float eps, (G, k, k) for a grid of G values.
        """
        return _horner(self.trans_coeffs, epsilon)

    def fail(self, epsilon) -> np.ndarray:
        """Per-state logical failure probabilities, (k,) or (G, k)."""
        return _horner(self.fail_coeffs, epsilon)


@dataclass(frozen=True)
class SteadyState:
    """Stationary occupancies conditioned on no logical failure.

    For a float eps pi is (k,) and p_ss, residual are floats; for a grid
    of G values pi is (G, k) and p_ss, residual are (G,) arrays.
    """

    pi: np.ndarray               # over non-failure states, sums to 1
    p_ss: float | np.ndarray     # per-phase logical failure, pi . fail
    residual: float | np.ndarray  # max |pi M - pi|, M row-normalized


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
    laws = [_square_law((0, 0, 0)), _square_law((1, 1, 1))]
    trans = np.stack([law[:2] for law in laws])
    fail = np.stack([law[2] + law[3] for law in laws])
    _check_substochastic_identity(trans, fail)
    # state B holds one erroneous bundle out of the nine in the square
    return ErrorChain(name="level2", labels=LEVEL2_LABELS, trans_coeffs=trans,
                      fail_coeffs=fail, marks=(0, 1))


def _square_law(counts: tuple[int, int, int]) -> np.ndarray:
    """(4, 10) coefficients of q(c), c = 0..3: the chance that c of one
    square's three gates fail, the line-k gate failing with f(m_k).  Built
    gate by gate as q'(c) = q(c) - f q(c) + f q(c - 1), one convolution
    per gate; a gate adds at most three degrees, so cutting products to
    ten coefficients drops zeros."""
    law = np.zeros((4, 10), dtype=np.int64)
    law[0, 0] = 1
    for m in counts:
        fq = np.array([np.convolve(q, _FAIL_BY_COUNT[m])[:10] for q in law])
        law -= fq
        law[1:] += fq[:-1]
    return law


def _level3_row(law: np.ndarray) -> np.ndarray:
    """Refined transition row of a grid whose squares follow ``law``.

    The three squares fail independently, and their failure counts
    (c0, c1, c2) are the line counts of the next step.  Returns an
    (11, 28) int64 array of polynomial coefficients: entries 0..9 are the
    refined-profile targets, entry 10 is logical failure.  Each multiset
    of counts adds its number of orderings times q(c0) q(c1) q(c2).
    """
    row = np.zeros((11, 28), dtype=np.int64)
    for c0, c1, c2 in itertools.combinations_with_replacement(range(4), 3):
        prof = _profile_or_none((c0, c1, c2))  # raises if unclassifiable
        orderings = len(set(itertools.permutations((c0, c1, c2))))
        row[10 if prof is None else _PROFILE_INDEX[prof]] += (
            orderings * _pmul(law[c0], law[c1], law[c2]))
    return row


@lru_cache(maxsize=1)
def build_level3_chain() -> ErrorChain:
    """Seven-state chain of the 81-bit corrector, from one square's law.

    Builds the refined ten-profile chain first, one square law per
    profile, checks the substochastic identity exactly, and lumps the
    saturated-line profiles pairwise into the seven coarse states.  One
    law stands for every ordering of a profile's line counts: the square
    law is a product of one factor per gate, so their order cannot change
    it.

    Raises:
        RuntimeError: if a reachable configuration falls outside the
            enumerated classes, or if two lumped profiles disagree.
    """
    rows = np.stack([_level3_row(_square_law(q)) for q in REFINED_PROFILES])

    refined_trans = rows[:, :10, :]
    refined_fail = rows[:, 10, :]
    _check_substochastic_identity(refined_trans, refined_fail)

    # saturated-line profiles with 2 vs 3 in-line marks must behave alike
    for a, b in ((4, 5), (6, 7), (8, 9)):
        if not np.array_equal(rows[a], rows[b]):
            raise RuntimeError(
                f"profiles {REFINED_PROFILES[a]} and {REFINED_PROFILES[b]} "
                "are not lumpable; class structure is wrong")

    # each class keeps its first profile's row, columns summed by class
    reps = [REFINED_CLASS.index(c) for c in range(7)]
    lump = np.eye(7, dtype=np.int64)[list(REFINED_CLASS)]
    trans = np.einsum("ijd,jc->icd", refined_trans[reps], lump)
    fail = refined_fail[reps]
    _check_substochastic_identity(trans, fail)

    return ErrorChain(
        name="level3",
        labels=LEVEL3_LABELS,
        trans_coeffs=trans,
        fail_coeffs=fail,
        refined=ErrorChain(
            name="level3 refined",
            labels=LEVEL3_REFINED_LABELS,
            trans_coeffs=refined_trans,
            fail_coeffs=refined_fail,
            marks=REFINED_MARKS,
        ),
    )


def _check_substochastic_identity(trans: np.ndarray, fail: np.ndarray) -> None:
    """Assert rowsum(T) + fail == 1 as exact integer polynomials."""
    total = trans.sum(axis=1) + fail
    want = np.zeros_like(total)
    want[:, 0] = 1
    if not np.array_equal(total, want):
        raise RuntimeError("transition rows plus failure do not sum to one")


# --- steady state -------------------------------------------------------------


def _stationary(trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary laws of a (G, k, k) stack of substochastic matrices,
    each row-normalized first.

    Grassmann-Taksar-Heyman state reduction (Oper. Res. 33:1107, 1985):
    states k-1..1 are censored out one at a time, and the column of each is
    divided by its row's mass to the states still kept, never by one minus
    its diagonal, so no step subtracts and the relative accuracy holds as
    eps -> 0.  Back-substitution from pi_0 = 1 then gives pi.  Every step
    acts on the whole stack.  The back-substitution sums elementwise
    products in numpy, not in BLAS, as does the residual max |pi M - pi|
    for the row-normalized M, so no last bit depends on the BLAS build.
    Returns pi (G, k) and the residuals (G,).
    """
    rowsums = trans.sum(axis=2)
    if (rowsums <= 0.0).any():
        raise ValueError("a row of the transition matrix has no survivors; "
                         "cannot condition on non-failure")
    m = trans / rowsums[:, :, None]
    a = m.copy()
    k = a.shape[1]
    for n in range(k - 1, 0, -1):
        s = a[:, n, :n].sum(axis=1)
        if (s <= 0.0).any():
            raise ValueError(f"state {n} cannot reach a lower state; "
                             "the chain is reducible")
        a[:, :n, n] /= s[:, None]
        a[:, :n, :n] += a[:, :n, n, None] * a[:, None, n, :n]
    pi = np.ones(a.shape[:2])
    for j in range(1, k):
        pi[:, j] = (pi[:, :j] * a[:, :j, j]).sum(axis=1)
    pi /= pi.sum(axis=1, keepdims=True)
    residual = np.abs((pi[:, :, None] * m).sum(axis=1) - pi).max(axis=1)
    return pi, residual


def steady_state(chain: ErrorChain, epsilon) -> SteadyState:
    """Stationary state of the chain at eps, conditioned on survival.

    Convention: pi is the stationary law of the row-normalized transition
    matrix M = T / rowsum(T), the chain whose every step is conditioned on
    that step's survival; it is not the quasi-stationary (Perron)
    distribution of T.  pi comes from a direct GTH solve (no iteration),
    p_ss = pi . fail(eps) is the per-phase logical failure probability,
    summed by ``math.fsum`` so its last bit depends on no BLAS, and
    residual is max |pi M - pi|.  eps = 0 goes through the same solve,
    which returns pi = e_0, p_ss = 0 and residual 0 exactly.

    A 1-D array of eps values is one batched solve over the grid, with the
    same bits per point as a call per float; a float is a grid of one.

    Args:
        chain: a chain from build_level2_chain or build_level3_chain, or
            the refined view of one.
        epsilon: per-bundle incipient error probability, 0 <= eps < 1, as
            a float or a 1-D array.
    """
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim > 1:
        raise ValueError(f"epsilon must be a float or a 1-D array, "
                         f"got shape {eps.shape}")
    grid = eps.reshape(-1)
    inside = (grid >= 0.0) & (grid < 1.0)
    if not inside.all():
        raise ValueError(f"epsilon must lie in [0, 1), got {grid[~inside][0]}")
    # T and fail side by side, (G, k, k + 1), in one Horner pass
    k = chain.n_states
    tf = _horner(np.concatenate([chain.trans_coeffs,
                                 chain.fail_coeffs[:, None]], axis=1), grid)
    pi, residual = _stationary(tf[:, :, :k])
    p_ss = np.array([math.fsum(row) for row in pi * tf[:, :, k]])
    if eps.ndim == 0:
        return SteadyState(pi=pi[0], p_ss=float(p_ss[0]),
                           residual=float(residual[0]))
    return SteadyState(pi=pi, p_ss=p_ss, residual=residual)


def propagated_bit_error(chain: ErrorChain, epsilon: float) -> float:
    """Stationary erroneous-bit fraction eta of the corrected code.

    Weights the stationary occupancies of the refined view (of the chain
    itself when it has none) by each state's count of marked positions
    out of nine.  (A marked position is a wrong bundle in every square,
    and a wrong bundle is wrong in all three bits, so bundle fraction and
    bit fraction coincide.)  A view without mark counts is a ValueError.
    """
    view = chain.refined or chain
    if view.marks is None:
        raise ValueError(f"chain {view.name!r} has no mark counts")
    return math.fsum(steady_state(view, epsilon).pi * view.marks) / 9.0


# --- serialization ------------------------------------------------------------


def _rows(prefix: str, labels, trans: np.ndarray, fail: np.ndarray
          ) -> list[str]:
    """The label, trans and fail lines of one view of a chain."""
    k = len(labels)
    return ([f"{prefix}label {i} {lab}" for i, lab in enumerate(labels)]
            + [f"{prefix}trans {i} {j} " + " ".join(map(str, trans[i, j]))
               for i in range(k) for j in range(k)]
            + [f"{prefix}fail {i} " + " ".join(map(str, fail[i]))
               for i in range(k)])


def serialize_chain(chain: ErrorChain) -> str:
    """Render a chain as a line-oriented text table.

    Format: one ``chain``/``states``/``degree`` header; ``label i text``
    lines; then ``trans i j c0 c1 ...`` and ``fail i c0 c1 ...`` rows of
    integer polynomial coefficients in eps, constant term first.  Chains
    with a refined view repeat the sections with a ``refined_`` prefix plus
    ``refined_marks i m`` rows.
    """
    lines = [
        "# majmux error chain; integer polynomial coefficients in eps,",
        "# constant term first",
        f"chain {chain.name}",
        f"states {chain.n_states}",
        f"degree {chain.trans_coeffs.shape[2] - 1}",
        *_rows("", chain.labels, chain.trans_coeffs, chain.fail_coeffs),
    ]
    if chain.refined is not None:
        r = chain.refined
        lines.append(f"refined_states {r.n_states}")
        lines += _rows("refined_", r.labels, r.trans_coeffs, r.fail_coeffs)
        lines += [f"refined_marks {i} {mk}" for i, mk in enumerate(r.marks)]
    return "\n".join(lines) + "\n"
