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
eps, built once by exhaustive enumeration of configurations.  Evaluation is
Horner's rule on those coefficients, so the leading-order cancellations are
exact and failure rates stay accurate down to ~1e-16.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

# --- exact integer polynomial helpers ---------------------------------------


def _pmul(*polys: np.ndarray) -> np.ndarray:
    out = np.array([1], dtype=np.int64)
    for q in polys:
        out = np.convolve(out, np.asarray(q, dtype=np.int64))
    return out


def _padd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n, dtype=np.int64)
    out[: len(a)] += np.asarray(a, dtype=np.int64)
    out[: len(b)] += np.asarray(b, dtype=np.int64)
    return out


def _psub(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _padd(a, -np.asarray(b, dtype=np.int64))


def _ppad(a: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros(width, dtype=np.int64)
    out[: len(a)] = a
    return out


_ONE = np.array([1], dtype=np.int64)
_ZERO = np.array([0], dtype=np.int64)
_EPS = np.array([0, 1], dtype=np.int64)

# gate failure probability by propagated-input count m (see module docstring)
_POLY_I = np.array([0, 0, 3, -2], dtype=np.int64)   # 3 e^2 - 2 e^3
_POLY_P = np.array([0, 2, -1], dtype=np.int64)      # 2 e - e^2
_FAIL_BY_COUNT = {0: _POLY_I, 1: _POLY_P, 2: _ONE, 3: _ONE}
_OK_BY_COUNT = {m: _psub(_ONE, f) for m, f in _FAIL_BY_COUNT.items()}


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
    (the underlying integer polynomials sum to the constant 1).
    refined_marks counts the marked (erroneous-bundle) positions of each
    state of the refined view, or of the chain's own states when it needs
    no refined view.
    """

    name: str
    labels: tuple[str, ...]
    trans_coeffs: np.ndarray = field(repr=False)   # (k, k, D) int64
    fail_coeffs: np.ndarray = field(repr=False)    # (k, D) int64
    # refined view (None for chains that need no splitting)
    refined_labels: tuple[str, ...] | None = None
    refined_trans_coeffs: np.ndarray | None = field(default=None, repr=False)
    refined_fail_coeffs: np.ndarray | None = field(default=None, repr=False)
    refined_marks: tuple[int, ...] | None = None

    @property
    def n_states(self) -> int:
        return len(self.labels)

    def trans(self, epsilon: float) -> np.ndarray:
        """Transition matrix T(eps) among non-failure states."""
        return npoly.polyval(epsilon, self.trans_coeffs.transpose(2, 0, 1))

    def fail(self, epsilon: float) -> np.ndarray:
        """Per-state logical failure probabilities at eps."""
        return npoly.polyval(epsilon, self.fail_coeffs.transpose(1, 0))


@dataclass(frozen=True)
class SteadyState:
    """Stationary occupancies conditioned on no logical failure."""

    pi: np.ndarray  # over non-failure states, sums to 1
    p_ss: float     # per-phase logical failure probability, pi . fail


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
    """
    g = _POLY_I  # gamma coincides with the m=0 gate failure probability
    one_m_g = _psub(_ONE, g)
    p_ba = _pmul(np.array([3], np.int64), g, one_m_g, one_m_g)
    fail_a = _psub(3 * _pmul(g, g), 2 * _pmul(g, g, g))
    p_aa = _psub(_psub(_ONE, p_ba), fail_a)

    one_m_e = _psub(_ONE, _EPS)
    p_ab = _pmul(*([one_m_e] * 6))
    p_bb = _padd(
        _pmul(np.array([0, 6], np.int64), *([one_m_e] * 5)),
        _pmul(np.array([0, 0, 3], np.int64), *([one_m_e] * 4)),
    )
    fail_b = _psub(_psub(_ONE, p_ab), p_bb)

    width = max(len(q) for q in (p_aa, p_ba, fail_a, p_ab, p_bb, fail_b))
    trans = np.stack([
        np.stack([_ppad(p_aa, width), _ppad(p_ba, width)]),
        np.stack([_ppad(p_ab, width), _ppad(p_bb, width)]),
    ])
    fail = np.stack([_ppad(fail_a, width), _ppad(fail_b, width)])

    _check_substochastic_identity(trans, fail)

    # state B holds one erroneous bundle out of the nine in the square
    return ErrorChain(
        name="level2",
        labels=LEVEL2_LABELS,
        trans_coeffs=trans,
        fail_coeffs=fail,
        refined_marks=(0, 1),
    )


@lru_cache(maxsize=1)
def _level3_failure_groups() -> dict[tuple[int, int, int], np.ndarray]:
    """Outcome census of the 512 joint gate-failure patterns.

    A failure pattern F marks F[l][k] = 1 when the line-k gate of square l
    fails.  Its probability depends only on the per-line failure counts
    b_k = sum_l F[l][k]; the next configuration depends only on the
    per-square counts c_l = sum_k F[l][k], which become the line counts of
    the next step.  Returns, per b-vector, the number of patterns landing
    in each refined profile (indices 0..9) or logical failure (index 10).
    """
    groups: dict[tuple[int, int, int], np.ndarray] = {}
    for bits in itertools.product((0, 1), repeat=9):
        f = np.array(bits, dtype=np.int64).reshape(3, 3)
        b = tuple(int(x) for x in f.sum(axis=0))
        c = tuple(int(x) for x in f.sum(axis=1))
        prof = _profile_or_none(c)
        outcome = 10 if prof is None else _PROFILE_INDEX[prof]
        groups.setdefault(b, np.zeros(11, dtype=np.int64))[outcome] += 1
    return groups


_L3_WIDTH = 28  # nine gates, each contributing a factor of degree <= 3


def _level3_row(counts: tuple[int, int, int]) -> np.ndarray:
    """Refined transition row for a grid with the given per-line mark counts.

    Returns an (11, 28) int64 array of polynomial coefficients: entries 0..9
    are the refined-profile targets, entry 10 is logical failure.
    """
    # f(m)^b (1-f(m))^(3-b) for each line, precombined per b-vector
    fpow = {}
    for slot, m in enumerate(counts):
        fp, op = _FAIL_BY_COUNT[m], _OK_BY_COUNT[m]
        fpow[slot] = [_pmul(*([fp] * b + [op] * (3 - b))) for b in range(4)]
    row = np.zeros((11, _L3_WIDTH), dtype=np.int64)
    for b, census in _level3_failure_groups().items():
        poly = _pmul(fpow[0][b[0]], fpow[1][b[1]], fpow[2][b[2]])
        for outcome in np.nonzero(census)[0]:
            row[outcome, : len(poly)] += census[outcome] * poly
    return row


@lru_cache(maxsize=1)
def build_level3_chain() -> ErrorChain:
    """Seven-state chain of the 81-bit corrector, by exhaustive enumeration.

    Builds the refined ten-profile chain first, proves on all 512 grid
    patterns that the row polynomials depend only on the profile (so the
    class lumping is exact), checks the substochastic identity exactly, and
    lumps the saturated-line profiles pairwise into the seven coarse states.

    Raises:
        RuntimeError: if a reachable configuration falls outside the
            enumerated classes, or if two configurations of one class
            disagree on their transition polynomials.
    """
    rows = np.stack([_level3_row(q) for q in REFINED_PROFILES])

    # exhaustive self-check: every one of the 512 patterns is either logical
    # or reproduces its profile's row exactly
    for bits in itertools.product((0, 1), repeat=9):
        grid = np.array(bits, dtype=np.int64).reshape(3, 3)
        counts = tuple(int(c) for c in grid.sum(axis=1))
        prof = _profile_or_none(counts)  # raises if unclassifiable
        if prof is None:
            continue
        got = _level3_row(counts)
        want = rows[_PROFILE_INDEX[prof]]
        if not np.array_equal(got, want):
            raise RuntimeError(
                f"configuration {bits} disagrees with its class row "
                f"(profile {prof}); enumeration is inconsistent")

    refined_trans = rows[:, :10, :]
    refined_fail = rows[:, 10, :]
    _check_substochastic_identity(refined_trans, refined_fail)

    # saturated-line profiles with 2 vs 3 in-line marks must behave alike
    for a, b in ((4, 5), (6, 7), (8, 9)):
        if not np.array_equal(rows[a], rows[b]):
            raise RuntimeError(
                f"profiles {REFINED_PROFILES[a]} and {REFINED_PROFILES[b]} "
                "are not lumpable; class structure is wrong")

    reps = [REFINED_CLASS.index(c) for c in range(7)]
    trans = np.zeros((7, 7, _L3_WIDTH), dtype=np.int64)
    fail = np.zeros((7, _L3_WIDTH), dtype=np.int64)
    for ci, ri in enumerate(reps):
        fail[ci] = refined_fail[ri]
        for rj in range(10):
            trans[ci, REFINED_CLASS[rj]] += refined_trans[ri, rj]
    _check_substochastic_identity(trans, fail)

    return ErrorChain(
        name="level3",
        labels=LEVEL3_LABELS,
        trans_coeffs=trans,
        fail_coeffs=fail,
        refined_labels=LEVEL3_REFINED_LABELS,
        refined_trans_coeffs=refined_trans,
        refined_fail_coeffs=refined_fail,
        refined_marks=REFINED_MARKS,
    )


def _check_substochastic_identity(trans: np.ndarray, fail: np.ndarray) -> None:
    """Assert rowsum(T) + fail == 1 as exact integer polynomials."""
    total = trans.sum(axis=1) + fail
    want = np.zeros_like(total)
    want[:, 0] = 1
    if not np.array_equal(total, want):
        raise RuntimeError("transition rows plus failure do not sum to one")


# --- steady state -------------------------------------------------------------


def _stationary(trans: np.ndarray, tol: float = 1e-15,
                max_iter: int = 10 ** 6) -> np.ndarray:
    """Stationary distribution of the row-normalized substochastic matrix."""
    rowsums = trans.sum(axis=1)
    if np.any(rowsums <= 0.0):
        raise ValueError("a row of the transition matrix has no survivors; "
                         "cannot condition on non-failure")
    m = trans / rowsums[:, None]
    k = m.shape[0]
    v = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        w = v @ m
        w /= w.sum()
        if np.max(np.abs(w - v)) < tol:
            return w
        v = w
    raise RuntimeError(
        f"power iteration did not converge; residual {np.max(np.abs(w - v)):.3e}")


def steady_state(chain: ErrorChain, epsilon: float) -> SteadyState:
    """Stationary state of the chain at eps, conditioned on survival.

    Power-iterates the row-normalized transition matrix until the occupancy
    vector changes by less than 1e-15 in max norm, then reports
    p_ss = pi . fail(eps), the per-phase logical failure probability.

    Args:
        chain: a chain from build_level2_chain or build_level3_chain.
        epsilon: per-bundle incipient error probability, 0 <= eps < 1.
    """
    if epsilon == 0.0:
        pi = np.zeros(chain.n_states)
        pi[0] = 1.0
        return SteadyState(pi=pi, p_ss=0.0)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in [0, 1), got {epsilon}")
    pi = _stationary(chain.trans(epsilon))
    return SteadyState(pi=pi, p_ss=float(pi @ chain.fail(epsilon)))


def propagated_bit_error(chain: ErrorChain, epsilon: float) -> float:
    """Stationary erroneous-bit fraction eta of the corrected code.

    Weights the stationary occupancies of the refined view (of the chain
    itself when it has none) by each state's count of marked positions
    out of nine.  (A marked position is a wrong bundle in every square,
    and a wrong bundle is wrong in all three bits, so bundle fraction and
    bit fraction coincide.)
    """
    if epsilon == 0.0:
        return 0.0
    if chain.refined_trans_coeffs is not None:
        t = npoly.polyval(epsilon, chain.refined_trans_coeffs.transpose(2, 0, 1))
    else:
        t = chain.trans(epsilon)
    pi = _stationary(t)
    return float(pi @ np.array(chain.refined_marks, dtype=float)) / 9.0


# --- serialization ------------------------------------------------------------


def serialize_chain(chain: ErrorChain) -> str:
    """Render a chain as a line-oriented text table.

    Format: one ``chain``/``states``/``degree`` header; ``label i text``
    lines; then ``trans i j c0 c1 ...`` and ``fail i c0 c1 ...`` rows of
    integer polynomial coefficients in eps, constant term first.  Chains
    with a refined view repeat the sections with a ``refined_`` prefix plus
    ``refined_marks i m`` rows.
    """
    k = chain.n_states
    width = chain.trans_coeffs.shape[2]
    lines = [
        "# majmux error chain; integer polynomial coefficients in eps,",
        "# constant term first",
        f"chain {chain.name}",
        f"states {k}",
        f"degree {width - 1}",
    ]
    for i, lab in enumerate(chain.labels):
        lines.append(f"label {i} {lab}")
    for i in range(k):
        for j in range(k):
            coeffs = " ".join(str(c) for c in chain.trans_coeffs[i, j])
            lines.append(f"trans {i} {j} {coeffs}")
    for i in range(k):
        lines.append(f"fail {i} " + " ".join(str(c) for c in chain.fail_coeffs[i]))
    if chain.refined_trans_coeffs is not None:
        r = len(chain.refined_labels)
        lines.append(f"refined_states {r}")
        for i, lab in enumerate(chain.refined_labels):
            lines.append(f"refined_label {i} {lab}")
        for i in range(r):
            for j in range(r):
                coeffs = " ".join(str(c) for c in chain.refined_trans_coeffs[i, j])
                lines.append(f"refined_trans {i} {j} {coeffs}")
        for i in range(r):
            lines.append(f"refined_fail {i} "
                         + " ".join(str(c) for c in chain.refined_fail_coeffs[i]))
        for i, mk in enumerate(chain.refined_marks):
            lines.append(f"refined_marks {i} {mk}")
    return "\n".join(lines) + "\n"


def parse_chain_text(text: str) -> dict:
    """Parse serialize_chain output back into arrays (for round-trip tests)."""
    out: dict = {"labels": {}, "refined_labels": {}}
    trans: dict = {}
    fail: dict = {}
    rtrans: dict = {}
    rfail: dict = {}
    rmarks: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        tag, rest = line.split(" ", 1)
        if tag in ("chain",):
            out["name"] = rest
        elif tag in ("states", "degree", "refined_states"):
            out[tag] = int(rest)
        elif tag == "label":
            i, lab = rest.split(" ", 1)
            out["labels"][int(i)] = lab
        elif tag == "refined_label":
            i, lab = rest.split(" ", 1)
            out["refined_labels"][int(i)] = lab
        elif tag in ("trans", "refined_trans"):
            i, j, *cs = rest.split(" ")
            (trans if tag == "trans" else rtrans)[(int(i), int(j))] = \
                np.array([int(c) for c in cs], dtype=np.int64)
        elif tag in ("fail", "refined_fail"):
            i, *cs = rest.split(" ")
            (fail if tag == "fail" else rfail)[int(i)] = \
                np.array([int(c) for c in cs], dtype=np.int64)
        elif tag == "refined_marks":
            i, mk = rest.split(" ")
            rmarks[int(i)] = int(mk)
        else:
            raise ValueError(f"unknown line tag {tag!r}")
    k = out["states"]
    width = out["degree"] + 1
    out["trans_coeffs"] = np.zeros((k, k, width), dtype=np.int64)
    for (i, j), cs in trans.items():
        out["trans_coeffs"][i, j] = cs
    out["fail_coeffs"] = np.zeros((k, width), dtype=np.int64)
    for i, cs in fail.items():
        out["fail_coeffs"][i] = cs
    if rtrans:
        r = out["refined_states"]
        out["refined_trans_coeffs"] = np.zeros((r, r, width), dtype=np.int64)
        for (i, j), cs in rtrans.items():
            out["refined_trans_coeffs"][i, j] = cs
        out["refined_fail_coeffs"] = np.zeros((r, width), dtype=np.int64)
        for i, cs in rfail.items():
            out["refined_fail_coeffs"][i] = cs
        out["refined_marks"] = tuple(rmarks[i] for i in range(r))
    return out
