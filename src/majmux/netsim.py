"""Seeded bit-level Monte Carlo of repetition-code majority correction.

A register of 3^(n+1) bits is repeatedly restored by layers of noisy MAJ3
gates under one of two wirings:

* ``hypercube``: the bits form an (n+1)-dimensional ternary cube; each
  restorative phase applies 3^n parallel MAJ3 gates along one axis, and the
  axes cycle in order 0..n.
* ``randomized``: each phase shuffles all bits afresh and applies MAJ3 to
  triples of the shuffled order (classic multiplexing).  Sorting 32-bit
  keys, 31 random bits above the bit itself, shuffles exactly uniformly,
  redrawn on a tie.  Outputs stay in shuffled order, with no write-back:
  the next phase shuffles afresh and the majority ignores order.

Two gate-noise models are provided.  ``Idealized`` treats the MAJ3 as a
black box whose three identical outputs are all flipped together with
probability eps.  ``Componentwise`` builds the MAJ3 from its parts: the
vote gate and the fan-out gate each draw an error class flipping exactly
1 / 2 / 3 of their output lines with probabilities (3/7) p_c, (3/7) p_c,
(1/7) p_c, and every prepared ancilla and output wire flips independently
with probability (2/3) p.

Gate noise is sampled sparsely: a gate layer is its noiseless bitwise
majority XOR a uint8 mask, one line of it for Idealized gates (a fault
flips all three outputs alike) and one per output line for Componentwise
gates.  The masks are built from the Bernoulli successes alone, so their
cost grows with the number of faults, not with the number of gates.

A logical flip is a change of the register's strict majority relative to
the tracked reference value; after each flip the reference is updated so
the chain keeps running (the rate measured is per-phase flips of the
carried majority, matching the analytic chains).

The fan-out encoder cascade (``cascade_mc``) reuses these kernels: fan-out
faults in its amplification, hypercube phases and the majority after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .rates import PhysicalNoise, epsilon_of_p

# --- domain types -------------------------------------------------------------


@dataclass(frozen=True)
class Idealized:
    """MAJ3 as one unit: all three outputs flip together with probability eps."""

    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon={self.epsilon} outside [0, 1]")


@dataclass(frozen=True)
class Componentwise:
    """MAJ3 assembled from vote + fan-out gates, preps and wires (see module
    docstring); per-output marginal error is at most epsilon(p)."""

    noise: PhysicalNoise

    @classmethod
    def from_p(cls, p: float) -> "Componentwise":
        return cls(noise=PhysicalNoise.from_p(p))


GateNoise = Idealized | Componentwise


def hypercube_schedule(n: int) -> str:
    """The ``"hypercube"`` wiring tag, whatever ``n`` (perfbench only)."""
    return "hypercube"


def randomized_schedule() -> str:
    """The ``"randomized"`` wiring tag (perfbench only)."""
    return "randomized"


@dataclass(frozen=True)
class TrialStats:
    """Monte Carlo tallies, flips over phases (or trials), and their rate."""

    phases: int
    flips: int

    @property
    def p_hat(self) -> float:
        return self.flips / self.phases

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.flips, self.phases)

    @property
    def upper_bound_only(self) -> bool:  # p_hat is 0, the interval one-sided
        return self.flips == 0


_Z95 = 1.959963984540054  # two-sided 95% standard normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Raises ValueError unless 0 <= successes <= trials.
    """
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials: {successes=}, "
                         f"{trials=}")
    if trials == 0:
        return (0.0, 1.0)
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # at 0 or all successes center -/+ half is 0 or 1 up to rounding
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


# --- gate kernels -------------------------------------------------------------

_VOTE_LINE0 = 4.0 / 7.0  # share of vote-gate faults that hit line 0
# Fan-out fault classes: row v = 3 * slot + pick of 21 equally likely draws.
# Slots 0-2 flip line ``pick`` only, slots 3-5 every line but ``pick``, and
# slot 6 all three: classes of 3/7, 3/7 and 1/7 of p_c with a uniform pick.
_FAN_OUT_FLIPS = np.array(
    [[(slot < 3 and j == pick) or (3 <= slot < 6 and j != pick) or slot == 6
      for j in range(3)] for slot in range(7) for pick in range(3)],
    np.uint8)


def _fault_hits(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Distinct flat indices of the successes among n Bernoulli(p) slots.

    Draws the success count from Binomial(n, p), then that many distinct
    slots uniformly: exactly the law of n independent Bernoulli(p) draws,
    at a cost that grows with p * n rather than n.
    """
    return rng.choice(n, rng.binomial(n, p), replace=False, shuffle=False)


def _flip_gates(mask: np.ndarray, hits: np.ndarray, lines) -> None:
    """XOR ``lines[j]`` into line j of the gates at ``hits`` (flat indices
    over blocks * gates) of ``mask`` (blocks, 3, gates)."""
    gates = mask.shape[2]
    flat = mask.reshape(-1)
    line0 = hits + 2 * gates * (hits // gates)
    for j, flip in enumerate(lines):
        flat[line0 + j * gates] ^= flip


def _fan_out_faults(mask: np.ndarray, pn: PhysicalNoise,
                    rng: np.random.Generator) -> None:
    """XOR the faults of noisy fan-out gates into ``mask`` (blocks, 3, gates).

    Per gate: a fault class with probability p_c (see _FAN_OUT_FLIPS), a
    flip of the ancilla prepared for each of lines 1 and 2, and a flip of
    each output wire, the last two with probability wire_prep each.
    """
    blocks, _, gates = mask.shape
    flat = mask.reshape(-1)
    hits = _fault_hits(rng, pn.p_c, blocks * gates)
    _flip_gates(mask, hits, _FAN_OUT_FLIPS[rng.integers(0, 21, hits.size)].T)
    preps = _fault_hits(rng, pn.wire_prep, blocks * 2 * gates)
    flat[preps + (preps // (2 * gates) + 1) * gates] ^= 1
    flat[_fault_hits(rng, pn.wire_prep, flat.size)] ^= 1


def _gate_masks(noise: GateNoise, rng: np.random.Generator, blocks: int,
                gates: int) -> np.ndarray:
    """Output XOR masks of ``blocks`` layers of ``gates`` noisy MAJ3 gates.

    An Idealized fault flips all three lines together, so its mask has
    one line, shape (blocks, 1, gates): entry [b, 0, g] flips every output
    of gate g in layer b, one draw per gate.  A Componentwise mask has
    shape (blocks, 3, gates) and entry [b, j, g] flips output line j.  Its
    gate is a vote gate whose line 0 feeds a fan-out gate: a vote fault on
    that line (4/7 of its faults) is copied to all three lines, then the
    fan-out adds its own faults.
    """
    if isinstance(noise, Idealized):
        mask = np.zeros((blocks, 1, gates), np.uint8)
        mask.reshape(-1)[_fault_hits(rng, noise.epsilon, blocks * gates)] = 1
        return mask
    mask = np.zeros((blocks, 3, gates), np.uint8)
    _flip_gates(mask, _fault_hits(rng, _VOTE_LINE0 * noise.noise.p_c,
                                  blocks * gates), (1, 1, 1))
    _fan_out_faults(mask, noise.noise, rng)
    return mask


def _maj3_layer(lines, mask: np.ndarray) -> None:
    """Noisy MAJ3 gates in place on three equal-shape line views.

    Gate k reads ``lines[0][k], lines[1][k], lines[2][k]``; line j then
    holds their majority XOR ``mask[j]``.  mask has shape (3, gates), or
    (1, gates) when one line flips all three outputs (see _gate_masks).
    """
    a, b, c = lines
    m = (a & b) | (c & (a | b))
    for j, line in enumerate(lines):
        np.bitwise_xor(m, mask[j % len(mask)].reshape(m.shape), out=line)


def _majority(bits: np.ndarray) -> np.ndarray:
    """Strict majority of each replica (column) of a 0/1 register, as
    uint8, counted in the narrowest type that holds the size, exactly."""
    count = bits.sum(axis=0, dtype=np.min_scalar_type(bits.shape[0]))
    return (count > bits.shape[0] // 2).astype(np.uint8)


# --- phase kernels ------------------------------------------------------------


def _hypercube_phase(bits: np.ndarray, axis: int, mask: np.ndarray) -> None:
    """One layer of parallel MAJ3 gates along a cube axis, in place.

    bits has shape (3^(n+1), replicas), replicas on the fast axis; trit
    ``axis`` of the bit index (stride 3^axis) selects the position within
    each gate's triple.  mask is the layer's (3, bits.size // 3) or
    (1, bits.size // 3) output mask (see _gate_masks).
    """
    size, r = bits.shape
    low = 3 ** axis
    view = bits.reshape(size // (3 * low), 3, low * r)
    _maj3_layer([view[:, j] for j in range(3)], mask)


def _shuffle_rows(rows: np.ndarray, rng: np.random.Generator) -> None:
    """Shuffle each row of a 0/1 uint8 array in place, exactly uniformly.

    Each bit rides in bit 0 of a 32-bit key under 31 random bits, half of
    one raw 64-bit word; sorting a row's keys shuffles its bits, and
    ``keys & 1`` reads them back.  If two keys of any row share their
    random bits (one row in about 7e5 at 81 bits, 8e3 at 729), all keys
    are redrawn: distinct i.i.d. keys come in uniformly random order.  The
    bit generator must emit 64-bit words (PCG64, Philox, SFC64): MT19937's
    zero high halves would tie forever, so it raises ValueError.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("MT19937 emits 32-bit words; use a 64-bit bit "
                         "generator (PCG64, Philox, SFC64)")
    while True:
        raw = rng.bit_generator.random_raw(-(-rows.size // 2))
        keys = raw.view(np.uint32)[:rows.size].reshape(rows.shape)
        keys &= np.uint32(0xFFFF_FFFE)
        keys |= rows
        keys.sort(axis=1)
        if (keys[:, 1:] ^ keys[:, :-1]).min() > 1:
            break
    np.bitwise_and(keys, 1, out=rows, casting="unsafe")


def _randomized_phase(bits: np.ndarray, mask: np.ndarray,
                      rng: np.random.Generator) -> None:
    """One multiplexing phase, in place on the (size, replicas) register.

    Each replica (column) is shuffled (_shuffle_rows), then MAJ3 acts on
    its triples (k, k + size/3, k + 2 size/3), with mask the layer's (3,
    bits.size // 3) or (1, bits.size // 3) output mask (see _gate_masks).
    The outputs stay in shuffled order: the next phase shuffles afresh and
    the majority ignores order, so the law of every tally is unchanged.
    Any layout works; ``order="F"`` keeps each replica contiguous.
    """
    size, r = bits.shape
    if size % 3:
        raise ValueError(f"register size {size} is not divisible by 3")
    _shuffle_rows(bits.T, rng)
    lines = bits.T.reshape(r, 3, size // 3)
    _maj3_layer([lines[:, j] for j in range(3)], mask)


# --- logical rate estimation ----------------------------------------------------


_WARMUP = 50          # phases discarded per replica before tallying
_LANES = 20_736       # register bits stepped per phase (81 bits x 256)
_SETTLE = 3           # phases a new majority must hold to count as a flip
_MASK_BYTES = 165_888  # 3-line mask bytes per draw: 8 phases of 81 x 256


def check_budget(n: int, min_flips: int, max_phases: int) -> None:
    """Raise ValueError unless n >= 0 and both run budgets are >= 1."""
    if n < 0 or min_flips < 1 or max_phases < 1:
        raise ValueError(f"need n >= 0 and a budget >= 1: {n=}, "
                         f"{min_flips=}, {max_phases=}")


def estimate_logical_rate(n: int, wiring: str, noise: GateNoise,
                          seed: int, *, min_flips: int = 100,
                          max_phases: int = 10_000_000) -> TrialStats:
    """Per-phase logical flip rate of the corrected register.

    The register is wired by ``wiring``, ``"hypercube"`` or
    ``"randomized"`` (see the module docstring), or ValueError.  Runs
    independent registers in lockstep, as many as fill 20,736 bits (at
    least one): 256 at n=3, 768 at n=2, 85 at n=4.  All start from the
    all-zero state, each with its own logical reference.  The first 50
    phases of each are discarded; then phases and logical flips are
    tallied until at least ``min_flips`` flips are pooled or the pooled
    phase count reaches ``max_phases`` (n >= 0 and both budgets >= 1, or
    ValueError).  The cap is exact: the last phase tallies only as many
    replicas, in column order, as the cap has room for.  ``min_flips`` can
    be overshot by the flips of one phase of all replicas.

    A flip is recorded when the strict majority differs from the carried
    reference and has held for 3 consecutive phases; the reference then
    becomes the new majority and the chain keeps running.  The settling
    rule exists because a register passing through the half-way point can
    cross the majority boundary several times within a single transition;
    raw boundary crossings would overcount logical events (and would exceed
    the analytic chains, which bound settled transitions).  The measured
    rate is flat in the settling length over 2..6.

    The run is a single deterministic stream: fixed (seed, parameters)
    reproduce the result bit for bit regardless of how callers schedule it.
    """
    check_budget(n, min_flips, max_phases)
    if wiring not in ("hypercube", "randomized"):
        raise ValueError(f"unknown wiring {wiring!r}; use hypercube or "
                         "randomized")
    size = 3 ** (n + 1)
    replicas = max(1, _LANES // size)
    # mask memory, not the width, bounds how many phases are drawn at
    # once; the count is sized for 3-line masks, so an Idealized draw (one
    # line per gate) fills a third of _MASK_BYTES
    block = max(1, _MASK_BYTES // (size * replicas))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # replica state is one column of each array; the randomized wiring
    # shuffles within columns, so it keeps them contiguous
    bits = np.zeros((size, replicas), np.uint8,
                    order="F" if wiring == "randomized" else "C")
    logical = np.zeros(replicas, np.uint8)
    prev = np.zeros(replicas, np.uint8)
    streak = np.zeros(replicas, np.int64)  # consecutive phases at current majority
    phases = flips = phase_idx = 0
    while True:
        if phase_idx % block == 0:
            masks = _gate_masks(noise, rng, block, bits.size // 3)
        mask = masks[phase_idx % block]
        if wiring == "hypercube":
            _hypercube_phase(bits, phase_idx % (n + 1), mask)
        else:
            _randomized_phase(bits, mask, rng)
        maj = _majority(bits)
        streak = np.where(maj == prev, streak + 1, 1)
        prev = maj
        settled = (streak >= _SETTLE) & (maj != logical)
        logical = np.where(settled, maj, logical)
        if phase_idx >= _WARMUP:
            tally = min(replicas, max_phases - phases)
            phases += tally
            flips += int(settled[:tally].sum())
            if flips >= min_flips or phases >= max_phases:
                break
        phase_idx += 1
    return TrialStats(phases=phases, flips=flips)


# --- parallel driver ------------------------------------------------------------


def substream(seed: int, index: int) -> np.random.SeedSequence:
    """RNG substream of work item ``index`` (a grid point or a trial
    shard), fixed by (seed, index) alone."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def run_parallel(fn, jobs: list[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, on a process pool when workers > 1.

    Every job seeds itself from its own substream, so the results are the
    same for any worker count and any execution order.  The pool module
    is imported only here, so a one-worker run never loads it.
    """
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


# --- fan-out encoder cascade ------------------------------------------------------

CASCADE_DEPTH = 4
_CHUNK = 8192  # trials per RNG substream; fixed so results never depend on workers


def _amp_layer(bits: np.ndarray, pn: PhysicalNoise,
               rng: np.random.Generator) -> np.ndarray:
    """One fan-out level: (C, R) -> (3C, R), new branch trit on the high digit.

    Each of the C * R gates copies its bit onto three lines, XOR the
    fan-out faults of _fan_out_faults, drawn for the whole level at once.
    Since each level adds the high digit, the first (top) level's branch
    ends up on the stride-1 trit: every stride-1 triple {3k, 3k+1, 3k+2}
    holds one leaf from each top branch, and the first correction phase
    votes across the three independently amplified thirds of the code.
    """
    c, r = bits.shape
    mask = np.zeros((1, 3, c * r), np.uint8)
    _fan_out_faults(mask, pn, rng)
    lines = mask.reshape(3, c, r)
    lines ^= bits
    return lines.reshape(3 * c, r)


def _cascade_shard(p: float, seed: int, shard: int, size: int, phases: int,
                   input_bit: int) -> int:
    """Failures among ``size`` trials on the shard's own RNG substream."""
    rng = np.random.Generator(np.random.Philox(substream(seed, shard)))
    pn = PhysicalNoise.from_p(p)
    corrector = Idealized(epsilon_of_p(p))
    # the bit to encode is a given input, not a fresh preparation; its own
    # history is outside the encoder's failure budget
    bits = np.full((1, size), input_bit, np.uint8)
    for _ in range(CASCADE_DEPTH):
        bits = _amp_layer(bits, pn, rng)
    for k in range(phases):
        mask = _gate_masks(corrector, rng, 1, bits.size // 3)[0]
        _hypercube_phase(bits, k % CASCADE_DEPTH, mask)
    return int((_majority(bits) != input_bit).sum())


def cascade_mc(p: float, seed: int, trials: int, *, phases: int = 12,
               input_bit: int = 0, workers: int = 1) -> TrialStats:
    """Monte Carlo of the full encode-then-correct pipeline.

    Each trial amplifies ``input_bit`` through four levels of fan-out
    gates into an 81-bit register, with componentwise noise at physical
    rate p, runs ``phases`` correction phases (idealized gates at the
    derived per-output rate, cycling the register's four axes starting
    with the cross-block one), and scores a failure when the final strict
    majority disagrees with the input.  Twelve phases, three full axis
    cycles, are enough for the propagated-error population to relax; the
    estimate moves by well under a standard deviation between 8 and 24
    phases.

    Trials are processed in fixed-size shards, each on its own counter
    substream of ``seed``, so the result is identical for any ``workers``
    and any shard execution order.  In the returned stats ``phases``
    counts scored trials and ``flips`` counts failures.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if phases < 1:
        raise ValueError("phases must be >= 1")
    if input_bit not in (0, 1):
        raise ValueError("input_bit must be 0 or 1")
    jobs = [(p, seed, i, min(_CHUNK, trials - i * _CHUNK), phases, input_bit)
            for i in range((trials + _CHUNK - 1) // _CHUNK)]
    return TrialStats(phases=trials,
                      flips=sum(run_parallel(_cascade_shard, jobs, workers)))
