"""Noise-rate bookkeeping for the MAJ3 gate network.

Everything downstream is driven by a single physical error probability ``p``
assigned to each 3-bit gate (MAJ1 and AMP).  This module maps ``p`` to every
derived per-location rate, and evaluates the classic single-triple majority
fixed point used by randomized multiplexing.

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
from dataclasses import dataclass

# --- exact rate constants -------------------------------------------------

#: canonical per-output MAJ3 error budget, epsilon = EPSILON_PER_P * p
EPSILON_PER_P = 148.0 / 63.0

_CLASSICAL_SHARE = 8.0 / 9.0      # p_c / p
_WIRE_PREP_SHARE = 2.0 / 3.0      # per wire or prep location
_GATE_MARGINAL = 4.0 / 7.0        # per-line marginal of one gate fault, in p_c


def _clamp01(x: float, name: str) -> float:
    """Project x onto [0, 1], warning if the projection actually bites."""
    if x < 0.0 or x > 1.0:
        warnings.warn(f"{name} = {x:.6g} clamped to [0, 1]", stacklevel=3)
        return min(1.0, max(0.0, x))
    return x


# --- rate records -----------------------------------------------------------


@dataclass(frozen=True)
class PhysicalNoise:
    """Base gate error probability and its fixed per-location shares."""

    p: float          # per 3-bit gate
    p_c: float        # classical bit-flip share, (8/9) p
    wire_prep: float  # per wire or preparation location, (2/3) p

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p={self.p} outside [0, 1]")

    @classmethod
    def from_p(cls, p: float) -> "PhysicalNoise":
        """The shares of p alone; no derived rate is formed or clamped."""
        return cls(p, _CLASSICAL_SHARE * p, _WIRE_PREP_SHARE * p)


@dataclass(frozen=True)
class Maj3Rates:
    """Per-output error budgets of the composite MAJ3 gate."""

    epsilon: float        # full restorative-phase budget, (148/63) p
    epsilon_prime: float  # computational-phase budget, exactly epsilon / 2
    epsilon_zero: float   # encoding-equivalent incipient rate, (208/63) p


@dataclass(frozen=True)
class EncodingRates:
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
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")

    noise = PhysicalNoise.from_p(p)
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
    return _clamp01(_epsilon(PhysicalNoise.from_p(p)), "epsilon")


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
