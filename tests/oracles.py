"""Independent Monte Carlo oracles for the analytic chains.

These re-implement the bundle-level correction rules directly from their
verbal statement, with numpy draws instead of polynomial algebra, so the
chain construction and the oracle share no code paths.  A square's three
gates are independent, so ``step_distribution`` draws each square's
failure count at once from their convolved (Poisson-binomial) law.

Rules (81-bit corrector, one step):
  * the propagated state is a 3x3 grid of marks, identical in all squares;
    line k of the grid carries m_k marks;
  * the line-k gate of square l fails with probability f(m_k), where
    f(0) = 3 e^2 - 2 e^3, f(1) = 2 e - e^2, f(m >= 2) = 1, independently
    over the nine gates;
  * the per-square failure counts become the line counts of the next grid;
  * two or more squares with two or more failures is a logical error.

``level3_step_exact`` is the exact counterpart of one step: it sums the
probabilities of all 512 gate-failure patterns in rationals.

``stationary_reference`` is the exact-arithmetic counterpart for the
steady state: it evaluates a chain's integer coefficients at 50 digits and
solves the stationary equations with mpmath.

``cascade_shard_bytes``, ``gate_masks_loop`` and ``logical_rate_per_phase``
are of another kind: each replays a product function's own draws through
another route.  ``cascade_shard_bytes`` runs the encoder shard's
correction phases on one byte per trial bit, the register that the
bit-packed phases of ``netsim._cascade_shard`` stand for.
``gate_masks_loop`` writes the gate masks of ``netsim._gate_masks`` one
fault hit at a time.  ``logical_rate_per_phase`` applies the settle rule
phase by phase, where ``netsim.estimate_logical_rate`` resolves it once
per mask block, in one scan over the block's held phases.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

from majmux import netsim
from majmux.rates import PhysicalNoise, epsilon_of_p

PROFILES = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (3, 0, 0),
            (2, 1, 0), (3, 1, 0), (2, 1, 1), (3, 1, 1))
CLASS_OF = (0, 1, 2, 3, 4, 4, 5, 5, 6, 6)
LOGICAL = 7
_PROFILE_TO_CLASS = {q: c for q, c in zip(PROFILES, CLASS_OF)}


def fail_prob(m: int, eps):
    """Gate failure probability given m propagated errors on its line; a
    float for a float eps, exact for a ``Fraction``."""
    if m == 0:
        return 3 * eps ** 2 - 2 * eps ** 3
    if m == 1:
        return 2 * eps - eps ** 2
    return 1


def _outcome(counts: tuple[int, int, int]) -> int:
    """Class 0..6 or LOGICAL of one step's per-square failure counts."""
    if sum(c >= 2 for c in counts) >= 2:
        return LOGICAL
    return _PROFILE_TO_CLASS[tuple(sorted(counts, reverse=True))]


# outcome of per-square failure counts (c0, c1, c2), at 16 c0 + 4 c1 + c2
_OUTCOME = np.array([_outcome((c // 16, c // 4 % 4, c % 4))
                     for c in range(64)])


def _square_failures(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Failure count of a square whose three gates fail independently
    with ``probs``, by inverting its 4-point Poisson-binomial law at the
    uniforms ``u``."""
    law = np.array([1.0])
    for q in probs:
        law = np.convolve(law, [1.0 - q, q])
    return np.searchsorted(np.cumsum(law)[:3], u, side="right")


def step_distribution(profile: tuple[int, int, int], eps: float, steps: int,
                      rng: np.random.Generator,
                      chunk: int = 1_000_000) -> np.ndarray:
    """Empirical one-step outcome frequencies from a given line profile.

    Each step draws the three squares' failure counts, one uniform per
    square.  Returns length-8 frequencies over (class 0..6, logical).
    """
    probs = np.array([fail_prob(m, eps) for m in profile])
    counts = np.zeros(8, dtype=np.int64)
    left = steps
    while left > 0:
        n = min(chunk, left)
        c = _square_failures(probs, rng.random((n, 3)))
        counts += np.bincount(_OUTCOME[16 * c[:, 0] + 4 * c[:, 1] + c[:, 2]],
                              minlength=8)
        left -= n
    return counts / steps


def level3_step_exact(profile: tuple[int, int, int], eps: Fraction) -> dict:
    """Exact one-step law of the grid process from a line profile.

    Enumerates all 512 gate-failure patterns in rationals: bit 3 l + k of
    a pattern set means the line-k gate of square l fails.  Returns the
    probability of each next profile (all ten keys present), with logical
    failure under the key None.
    """
    f = [fail_prob(m, eps) for m in profile]
    law = dict.fromkeys([*PROFILES, None], Fraction(0))
    for pattern in range(512):
        prob, counts = Fraction(1), [0, 0, 0]
        for bit in range(9):
            square, line = divmod(bit, 3)
            if pattern >> bit & 1:
                prob *= f[line]
                counts[square] += 1
            else:
                prob *= 1 - f[line]
        logical = sum(c >= 2 for c in counts) >= 2
        law[None if logical else tuple(sorted(counts, reverse=True))] += prob
    return law


def trajectory_mark_fraction(eps: float, steps: int,
                             rng: np.random.Generator,
                             batches: int = 100) -> tuple[float, float]:
    """Stationary erroneous-bundle fraction of the grid process.

    Runs ``batches`` independent grid chains in lockstep; a chain that hits
    a logical failure restarts from the clear grid (a negligible-bias
    stand-in for survival conditioning at small eps).  Returns the mean
    marks/9 over all post-warmup steps and its batch-means standard error.
    """
    state = np.zeros((batches, 3), dtype=np.int64)  # per-line mark counts
    warm = max(50, steps // 100)
    sums = np.zeros(batches)
    tallied = 0
    for t in range(warm + steps):
        p0 = 3.0 * eps ** 2 - 2.0 * eps ** 3
        p1 = 2.0 * eps - eps ** 2
        probs = np.where(state == 0, p0, np.where(state == 1, p1, 1.0))
        fails = rng.random((batches, 3, 3)) < probs[:, None, :]
        counts = fails.sum(axis=2)
        logical = (counts >= 2).sum(axis=1) >= 2
        counts[logical] = 0
        state = counts
        if t >= warm:
            sums += state.sum(axis=1) / 9.0
            tallied += 1
    means = sums / tallied
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(batches))


def stationary_reference(trans_coeffs, fail_coeffs, eps: float):
    """Stationary law and failure rate of a chain, to 50 digits.

    Same definition as the product: pi is the stationary law of the
    row-normalized transition matrix M = T / rowsum(T), and the rate is
    pi . fail.  T and fail are evaluated from the integer coefficients at
    the exact binary value of ``eps``; pi solves pi (M - I) = 0 with its
    last equation replaced by sum(pi) = 1.  Returns (pi, p_ss) as mpf.
    """
    with mpmath.workdps(50):
        e = mpmath.mpf(eps)

        def poly(cs):
            return mpmath.fsum(int(c) * e ** i for i, c in enumerate(cs))

        k = len(trans_coeffs)
        t = [[poly(trans_coeffs[i][j]) for j in range(k)] for i in range(k)]
        a = mpmath.matrix(k, k)
        for i in range(k):
            rowsum = mpmath.fsum(t[i])
            for j in range(k):
                a[j, i] = t[i][j] / rowsum - (1 if i == j else 0)
        for i in range(k):
            a[k - 1, i] = 1
        b = mpmath.matrix(k, 1)
        b[k - 1] = 1
        pi = mpmath.lu_solve(a, b)
        p_ss = mpmath.fsum(pi[i] * poly(fail_coeffs[i]) for i in range(k))
        return [pi[i] for i in range(k)], p_ss


def cascade_shard_bytes(p: float, seed: int, shard: int, size: int,
                        phases: int, input_bit: int) -> int:
    """Failures of ``netsim._cascade_shard`` with the same draws in the same
    order, every phase on the (81, size) uint8 register."""
    rng = netsim._generator(netsim.substream(seed, shard))
    pn = PhysicalNoise(p)
    corrector = netsim.Idealized(epsilon_of_p(p))
    bits = np.full((1, size), input_bit, np.uint8)
    for _ in range(netsim.CASCADE_DEPTH):
        bits = netsim._amp_layer(bits, pn, rng)
    for k in range(phases):
        mask = netsim._gate_masks(corrector, rng, 1, bits.size // 3)[0]
        netsim._hypercube_phase(bits, k % netsim.CASCADE_DEPTH, mask)
    return int((netsim._majority(bits) != input_bit).sum())


def gate_masks_loop(noise, rng, blocks: int, gates: int) -> np.ndarray:
    """``netsim._gate_masks`` with the same draws in the same order, each
    hit written on its own in a Python loop: a slot hit more than once
    flips once, and a fan-out gate hit more than once keeps its last class
    draw.  Class v = 3 slot + pick flips line ``pick`` (slot < 3), every
    line but ``pick`` (slot 3-5) or all three (slot 6)."""
    ideal = isinstance(noise, netsim.Idealized)
    masks = np.zeros((blocks, 1 if ideal else 3, gates), np.uint8)
    vote = noise.epsilon if ideal else 4.0 / 7.0 * noise.p_c
    for f in netsim._fault_hits(rng, vote, blocks * gates).tolist():
        masks[f // gates, :, f % gates] = 1
    if ideal:
        return masks
    hits = netsim._fault_hits(rng, noise.p_c, blocks * gates).tolist()
    classes = dict(zip(hits, rng.integers(0, 21, len(hits)).tolist()))
    for f, v in classes.items():
        slot, pick = divmod(v, 3)
        for j in range(3):
            if slot == 6 or (slot < 3) == (j == pick):
                masks[f // gates, j, f % gates] ^= 1
    preps = netsim._fault_hits(rng, noise.wire_prep, blocks * 2 * gates)
    for f in dict.fromkeys(preps.tolist()):
        b, r = divmod(f, 2 * gates)
        masks[b, 1 + r // gates, r % gates] ^= 1
    wires = netsim._fault_hits(rng, noise.wire_prep, blocks * 3 * gates)
    for f in dict.fromkeys(wires.tolist()):
        b, r = divmod(f, 3 * gates)
        masks[b, r // gates, r % gates] ^= 1
    return masks


def logical_rate_per_phase(n: int, wiring: str, noise, seed: int, *,
                           min_flips: int, max_phases: int,
                           settle: int = 3) -> tuple[int, int]:
    """(phases, flips) of ``netsim.estimate_logical_rate`` with the same
    draws in the same order, the settle rule applied after every phase: a
    flip is ``settle`` consecutive majorities that differ from the carried
    reference (the estimator's rule is ``settle=3``)."""
    size = 3 ** (n + 1)
    replicas = max(1, netsim._LANES // size)
    block = max(1, netsim._MASK_BYTES // (size * replicas))
    rng = netsim._generator(seed)
    bits = np.zeros((size, replicas), np.uint8,
                    order="F" if wiring == "randomized" else "C")
    keys = np.empty((replicas, size), np.uint32)
    logical = np.zeros(replicas, np.uint8)
    prev = np.zeros(replicas, np.uint8)
    streak = np.zeros(replicas, np.int64)  # phases at the current majority
    phases = flips = phase_idx = 0
    while True:
        if phase_idx % block == 0:
            masks = netsim._gate_masks(noise, rng, block, bits.size // 3)
        mask = masks[phase_idx % block]
        if wiring == "hypercube":
            netsim._hypercube_phase(bits, phase_idx % (n + 1), mask)
        else:
            netsim._randomized_phase(bits, mask, keys, rng)
        maj = netsim._majority(bits)
        streak = np.where(maj == prev, streak + 1, 1)
        prev = maj
        settled = (streak >= settle) & (maj != logical)
        logical = np.where(settled, maj, logical)
        if phase_idx >= netsim._WARMUP:
            tally = min(replicas, max_phases - phases)
            phases += tally
            flips += int(settled[:tally].sum())
            if flips >= min_flips or phases >= max_phases:
                return phases, flips
        phase_idx += 1
