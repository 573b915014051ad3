"""Noise-rate bookkeeping for the MAJ3 gate network.

Everything downstream is driven by a single physical error probability ``p``
assigned to each 3-bit gate (MAJ1 and AMP).  This module maps ``p`` to every
derived per-location rate, and evaluates the classic single-triple majority
fixed point used by randomized multiplexing.  With no numpy, it also holds
the package's one grid rule (``linspace``, numpy's arithmetic), its one
bisection root finder, the fan-out encoder's failure bound and its
crossover rate p_crit, and ``SweepRecord``, the artifact row.

Rate conventions
----------------
* ``p_c = (8/9) p`` is the share of gate faults that act as classical bit
  flips on the gate's outputs.
* Each wire and each prepared-ancilla location contributes ``(2/3) p``.
* A gate fault flips exactly 1 / 2 / 3 of the three output lines with
  probabilities ``(3/7) p_c``, ``(3/7) p_c``, ``(1/7) p_c``; the marginal
  per-line error is therefore ``(4/7) p_c``.
* The per-output error budget of one full MAJ3 (MAJ1 + AMP + preps + wires)
  is ``epsilon = (2/3)p + (2/3)p + (4/7 + 4/7) p_c = (148/63) p``.  This sum
  is a strict overestimate of the exact marginal, which is what makes the
  analytic chains one-sided.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

# --- exact rate constants -------------------------------------------------

#: canonical per-output MAJ3 error budget, epsilon = EPSILON_PER_P * p
EPSILON_PER_P = 148.0 / 63.0

_CLASSICAL_SHARE = 8.0 / 9.0      # p_c / p
_WIRE_PREP_SHARE = 2.0 / 3.0      # per wire or prep location
_GATE_MARGINAL = 4.0 / 7.0        # per-line marginal of one gate fault, in p_c
_BISECT_TOL = 1e-6                # root tolerance of every bisection


def _clamp01(x: float, name: str) -> float:
    """Project x onto [0, 1], warning if the projection actually bites."""
    if x < 0.0 or x > 1.0:
        warnings.warn(f"{name} = {x:.6g} clamped to [0, 1]", stacklevel=3)
        return min(1.0, max(0.0, x))
    return x


# --- rate records -----------------------------------------------------------


class _PhysicalNoise(NamedTuple):
    p: float  # per 3-bit gate


class PhysicalNoise(_PhysicalNoise):
    """Base gate error probability; every per-location share is fixed by p."""

    __slots__ = ()

    def __new__(cls, p: float):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p={p} outside [0, 1]")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, fields) -> "PhysicalNoise":  # so _replace checks too
        return cls(*fields)

    @property
    def p_c(self) -> float:  # classical bit-flip share, (8/9) p
        return _CLASSICAL_SHARE * self.p

    @property
    def wire_prep(self) -> float:  # per wire or preparation location, (2/3) p
        return _WIRE_PREP_SHARE * self.p


class Maj3Rates(NamedTuple):
    """Per-output error budgets of the composite MAJ3 gate."""

    epsilon: float        # full restorative-phase budget, (148/63) p
    epsilon_prime: float  # computational-phase budget, exactly epsilon / 2
    epsilon_zero: float   # encoding-equivalent incipient rate, (208/63) p


class EncodingRates(NamedTuple):
    """Per-location rates of the AMP fan-out used by the encoder."""

    q_i: float  # correlated control-input error, (4/7) p_c
    q_o: float  # independent per-output error, (4/3) p + (1/7) p_c
    ap: float   # combined per-location rate, q_i + q_o


# --- operations -------------------------------------------------------------


def derive_rates(p: float) -> tuple[PhysicalNoise, Maj3Rates, EncodingRates]:
    """Map the single gate error probability p to every derived rate.

    Args:
        p: per-gate error probability, in [0, 1].

    Returns:
        (PhysicalNoise, Maj3Rates, EncodingRates) with all fields pure
        functions of p.  epsilon is clamped to [0, 1] (with a warning) for
        the handful of p where the linear budget exceeds 1.

    Raises:
        ValueError: if p is outside [0, 1].
    """
    noise = PhysicalNoise(p)
    p_c, wire_prep = noise.p_c, noise.wire_prep
    epsilon = _clamp01(_epsilon(noise), "epsilon")
    # the computational phase drops one wire/prep location and one gate
    # marginal, which happens to halve the budget exactly
    epsilon_prime = epsilon - wire_prep - _GATE_MARGINAL * p_c

    q_i = _GATE_MARGINAL * p_c
    q_o = 2.0 * wire_prep + (1.0 / 7.0) * p_c
    ap = q_i + q_o

    epsilon_zero = _clamp01(ap + 2.0 * wire_prep, "epsilon_zero")

    maj3 = Maj3Rates(epsilon=epsilon, epsilon_prime=epsilon_prime,
                     epsilon_zero=epsilon_zero)
    enc = EncodingRates(q_i=q_i, q_o=q_o, ap=ap)
    return noise, maj3, enc


def _epsilon(noise: PhysicalNoise) -> float:
    """Two wire/prep locations plus the per-line marginal of both gates."""
    return 2.0 * noise.wire_prep + 2.0 * _GATE_MARGINAL * noise.p_c


def epsilon_of_p(p: float) -> float:
    """The canonical per-output MAJ3 budget epsilon(p), as derive_rates
    clamps it, without forming (or warning about) any other rate."""
    return _clamp01(_epsilon(PhysicalNoise(p)), "epsilon")


def jvn_stable_eta(epsilon: float) -> tuple[float, float]:
    """Fixed points of the single-triple majority map, when they exist.

    For per-gate error epsilon <= 1/6 the map eta -> single_triple_map(eta,
    epsilon) has a pair of fixed points symmetric about 1/2:

        eta = 1/2 * (1 -+ sqrt((1 - 6 eps) / (1 - 2 eps)))

    The lower branch is the attracting error level a multiplexed bundle
    settles at; the upper branch is its mirror image for an inverted bundle.

    Args:
        epsilon: per-gate error probability, in [0, 1/6].

    Returns:
        (eta_low, eta_high), with eta_low <= eta_high, both in [0, 1].

    Raises:
        ValueError: if epsilon > 1/6 (above the fixed-point threshold the
            only real fixed point is 1/2) or epsilon < 0.
    """
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if epsilon > 1.0 / 6.0:
        raise ValueError(
            f"epsilon = {epsilon:.6g} is above the fixed-point threshold 1/6; "
            "no stable pair exists")
    root = math.sqrt((1.0 - 6.0 * epsilon) / (1.0 - 2.0 * epsilon))
    return 0.5 * (1.0 - root), 0.5 * (1.0 + root)


def single_triple_map(eta: float, epsilon: float) -> float:
    """One majority-restoration step for a bundle with error fraction eta.

    Three lines are drawn independently wrong with probability eta and fed to
    a majority gate whose three (identical) outputs are wrong with
    probability epsilon given a correct vote, or correct with probability
    epsilon given a wrong vote:

        eta' = (1 - eps) * g + eps * (1 - g),   g = 3 eta^2 - 2 eta^3

    Args:
        eta: input per-line error probability, in [0, 1].
        epsilon: gate error probability, in [0, 1].

    Returns:
        The per-line error probability after one restoration step.

    Raises:
        ValueError: if eta or epsilon is outside [0, 1].
    """
    if not (0.0 <= eta <= 1.0 and 0.0 <= epsilon <= 1.0):
        raise ValueError(f"eta={eta}, epsilon={epsilon}: both must be in [0, 1]")
    g = 3.0 * eta * eta - 2.0 * eta ** 3
    return (1.0 - epsilon) * g + epsilon * (1.0 - g)


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` evenly spaced points from lo to hi inclusive, each equal
    bit for bit to ``numpy.linspace(lo, hi, steps)``, whose arithmetic
    this is: lo + i * step, step = (hi - lo) / (steps - 1), with a step
    that underflows to 0 formed as (i / (steps - 1)) * (hi - lo), and the
    last point set to hi.  steps >= 2."""
    delta, div = hi - lo, steps - 1
    step = delta / div
    pts = [(i * step if step != 0 else i / div * delta) + lo
           for i in range(steps)]
    pts[-1] = hi
    return pts


def bisect(g, lo: float, hi: float) -> float:
    """Root of g on [lo, hi] given g(lo) < 0 < g(hi), to within 1e-6."""
    if not (g(lo) < 0.0 < g(hi)):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class EncodeBound(NamedTuple):
    """Closed-form overestimate of the encoded failure probability.

    alpha is the chance that a majority of one bundle's three feed lines
    are wrong when each is wrong independently at the per-edge rate.
    seed_to_logical is the chance that a lone wrong line entering a
    block's sub-cascade grows into a logical error of that block.  terms
    are the four addends of the bound; p_fail is their sum.
    """

    p: float
    alpha: float
    seed_to_logical: float
    terms: tuple[float, float, float, float]
    p_fail: float


def pfail_bound(p: float) -> EncodeBound:
    """Upper bound on the probability the cascade output is logically wrong.

    The cascade fans one bit out into an 81-bit register in four levels
    (``netsim.cascade_mc``).  Valid for physical rates p in [0, 0.2].  The
    bound charges the voted root line once (q_i), then groups every later
    fan-out edge at the per-edge rate ap: a majority of wrong top
    branches, one wrong top branch whose sub-cascade goes logical, or
    clean top branches whose lower levels independently go majority-wrong.

    For small p the bound behaves as (32/63) p, so encoding beats bare
    preparation by roughly a factor two until p approaches p_crit.
    """
    if not 0.0 <= p <= 0.2:
        raise ValueError(f"p={p} outside [0, 0.2]")
    enc = derive_rates(p)[2]
    q_i, ap = enc.q_i, enc.ap
    keep = 1.0 - ap
    alpha = 3.0 * ap ** 2 - 2.0 * ap ** 3
    seed = 1.0 - keep ** 6 - 6.0 * ap * keep ** 5 - 3.0 * ap ** 2 * keep ** 4
    terms = (
        q_i,
        (1.0 - q_i) * alpha,
        (1.0 - q_i) * 3.0 * ap * keep ** 2 * seed,
        (1.0 - q_i) * keep ** 3 * (3.0 * alpha ** 2 - 2.0 * alpha ** 3),
    )
    return EncodeBound(p=p, alpha=alpha, seed_to_logical=seed, terms=terms,
                       p_fail=terms[0] + terms[1] + terms[2] + terms[3])


def p_crit() -> float:
    """Physical rate where the encoding bound stops beating bare preparation.

    Bisects p_fail(p) - p on (1e-6, 0.2).  Below the root the cascade's
    failure bound is smaller than the raw preparation error; above it the
    correlated build-up during amplification dominates.
    """
    return bisect(lambda p: pfail_bound(p).p_fail - p, 1e-6, 0.2)


class SweepRecord(NamedTuple):
    """One evaluated grid point of a model sweep.

    For analytic models y_lo == y == y_hi and seed is carried only for
    provenance.  For Monte Carlo models (y_lo, y_hi) is the 95% Wilson
    interval, which treats every replica-phase as an independent trial;
    flips are not independent, so at randomized n=3, eps 0.10 it covers
    only about 90% (ROADMAP item 14).  A point outside the model's domain
    yields NaN values and a non-empty note instead of being silently
    dropped.
    """

    x: float
    y: float
    y_lo: float
    y_hi: float
    model: str
    n: int
    seed: int
    note: str = ""
