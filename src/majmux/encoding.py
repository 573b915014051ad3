"""Fan-out cascade encoder: analytic failure bound and bit-level Monte Carlo.

A single prepared bit is amplified through four levels of noisy fan-out
gates into an 81-bit register, which is then handed to the corrector.
This module provides the closed-form upper bound on the probability that
the encoded value is already logically wrong when correction begins, the
critical physical rate below which encoding beats bare preparation, and a
direct Monte Carlo of the whole cascade-plus-correction pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _bisect
from .netsim import (Idealized, TrialStats, _fan_out, _hypercube_phase,
                     run_parallel, substream, wilson_interval)
from .rates import derive_rates, epsilon_of_p

CASCADE_DEPTH = 4
_CHUNK = 8192  # trials per RNG substream; fixed so results never depend on workers


@dataclass(frozen=True)
class EncodeBound:
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

    Valid for physical rates p in [0, 0.2].  The bound charges the voted
    root line once (q_i), then groups every later fan-out edge at the
    per-edge rate ap: a majority of wrong top branches, one wrong top
    branch whose sub-cascade goes logical, or clean top branches whose
    lower levels independently go majority-wrong.

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


def p_crit(tol: float = 1e-6) -> float:
    """Physical rate where the encoding bound stops beating bare preparation.

    Bisects p_fail(p) - p on (1e-6, 0.2).  Below the root the cascade's
    failure bound is smaller than the raw preparation error; above it the
    correlated build-up during amplification dominates.
    """
    return _bisect(lambda p: pfail_bound(p).p_fail - p, 1e-6, 0.2, tol)


def _amp_layer(bits: np.ndarray, pn, rng: np.random.Generator) -> np.ndarray:
    """One fan-out level: (R, C) -> (R, 3C), new branch trit on the high digit.

    Per gate: a fault-class draw over the three output lines, preparation
    flips on the two copy targets, and a wire flip per output.  Draw count
    is fixed, so shards replay identically for a fixed substream.  Since
    each level adds the high digit, the first (top) level's branch ends up
    on the stride-1 trit: every stride-1 triple {3k, 3k+1, 3k+2} holds one
    leaf from each top branch, and the first correction phase votes across
    the three independently amplified thirds of the code.
    """
    r, c = bits.shape
    u = rng.random(bits.shape)
    pick = rng.integers(0, 3, bits.shape)
    prep = (rng.random((2, r, c)) < pn.wire_prep).astype(np.uint8)
    wire = (rng.random((3, r, c)) < pn.wire_prep).astype(np.uint8)
    lines = _fan_out(bits, u, pick, prep, wire, pn.p_c)
    return np.stack(lines, axis=1).reshape(r, 3 * c)


def _cascade_shard(p: float, seed: int, shard: int, size: int, phases: int,
                   input_bit: int) -> int:
    """Failures among ``size`` trials on the shard's own RNG substream."""
    rng = np.random.Generator(np.random.Philox(substream(seed, shard)))
    pn = derive_rates(p)[0]
    corrector = Idealized(epsilon_of_p(p)) if p > 0 else Idealized(0.0)
    # the bit to encode is a given input, not a fresh preparation; its own
    # history is outside the encoder's failure budget
    bits = np.full((size, 1), input_bit, np.uint8)
    for _ in range(CASCADE_DEPTH):
        bits = _amp_layer(bits, pn, rng)
    n = CASCADE_DEPTH - 1
    for k in range(phases):
        _hypercube_phase(bits, k % (n + 1), n, corrector, rng)
    half = bits.shape[1] // 2
    maj = (bits.sum(axis=1, dtype=np.int64) > half).astype(np.uint8)
    return int((maj != input_bit).sum())


def cascade_mc(p: float, seed: int, trials: int, *, phases: int = 12,
               input_bit: int = 0, workers: int = 1) -> TrialStats:
    """Monte Carlo of the full encode-then-correct pipeline.

    Each trial amplifies ``input_bit`` through the four fan-out levels
    with componentwise noise at physical rate p, runs ``phases``
    correction phases (idealized gates at the derived per-output rate,
    cycling the register's four axes starting with the cross-block one),
    and scores a failure when the final strict majority disagrees with
    the input.  Twelve phases, three full axis cycles, are enough for the
    propagated-error population to relax; the estimate moves by well
    under a standard deviation between 8 and 24 phases.

    Trials are processed in fixed-size shards, each on its own counter
    substream of ``seed``, so the result is identical for any ``workers``
    and any shard execution order.  In the returned stats ``phases``
    counts scored trials and ``flips`` counts failures.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if input_bit not in (0, 1):
        raise ValueError("input_bit must be 0 or 1")
    jobs = [(p, seed, i, min(_CHUNK, trials - i * _CHUNK), phases, input_bit)
            for i in range((trials + _CHUNK - 1) // _CHUNK)]
    fails = sum(run_parallel(_cascade_shard, jobs, workers))
    return TrialStats(phases=trials, flips=fails, p_hat=fails / trials,
                      ci95=wilson_interval(fails, trials),
                      upper_bound_only=(fails == 0))
