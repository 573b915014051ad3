"""Seeded bit-level Monte Carlo of repetition-code majority correction.

A register of 3^(n+1) bits is repeatedly restored by layers of noisy MAJ3
gates under one of two wirings:

* ``hypercube``: the bits form an (n+1)-dimensional ternary cube; each
  restorative phase applies 3^n parallel MAJ3 gates along one axis, and the
  axes cycle in order 0..n.
* ``randomized``: each phase shuffles all bits afresh and applies MAJ3 to
  triples of the shuffled order (classic multiplexing).  Sorting 32-bit
  keys, 31 random bits above the bit itself, shuffles exactly uniformly,
  redrawn on a tie; the keys are the draw's own words, and their low bits
  go straight back into the register.  Outputs stay in shuffled order,
  with no write-back: the next phase shuffles afresh and the majority
  ignores order.

Two gate-noise models are provided.  ``Idealized`` treats the MAJ3 as a
black box whose three identical outputs are all flipped together with
probability eps.  ``Componentwise`` builds the MAJ3 from its parts: the
vote gate and the fan-out gate each draw an error class flipping exactly
1 / 2 / 3 of their output lines with probabilities (3/7) p_c, (3/7) p_c,
(1/7) p_c, and every prepared ancilla and output wire flips independently
with probability (2/3) p.

Gate noise is sampled sparsely: a gate layer is its noiseless bitwise
majority XOR a uint8 mask, one line XORed once and copied onto the three
outputs, or three lines XORed one output line each (_maj3_layer).  Every
gate first draws its vote line, whose fault flips all three outputs
alike.  That line is an Idealized gate's whole mask; a Componentwise
gate feeds it to a noisy fan-out layer (_fan_out), which copies it onto
three output lines and adds its own faults.  The masks are built from a
Poisson number of uniform hits, which by Poisson splitting hit every
slot independently with exactly its Bernoulli probability (_fault_hits),
so their cost grows with the number of faults, not of gates.

A logical flip is a change of the register's strict majority relative to
the tracked reference value; after each flip the reference is updated so
the chain keeps running (the rate measured is per-phase flips of the
carried majority, matching the analytic chains).

Grid points step together: ``estimate_logical_rates`` stacks up to 8
points' registers into one array, so each phase is one gate-kernel call
for all of them, while every point keeps its own random stream, draws and
tallies, and so the record it would give alone.

The fan-out encoder cascade (``cascade_mc``) reuses these kernels: the
fan-out layer, hypercube phases and the majority after it.
Its phases run the same gate kernel on trials packed eight to a byte.

Every estimator run and every encoder shard draws from its own PCG64
stream (O'Neill, 2014), built in one place (_generator); the shuffle
reads its raw 64-bit words.  The command line seeds every stream by one
rule, PCG64(substream(seed, index)), with index the grid point or the
encoder shard.
"""

from __future__ import annotations

import math
import os
import sys
from typing import NamedTuple

from .rates import GATE_MARGINAL, PhysicalNoise, epsilon_of_p

# The package's one numpy import.  Unless the caller has set
# OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS, or has imported
# numpy already, numpy is imported with OpenBLAS pinned to one thread, and
# os.environ is then restored as it was, so child processes that the
# caller starts are left alone.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_PIN = "numpy" not in sys.modules and not any(v in os.environ
                                               for v in _THREAD_VARS)
if _PIN:  # OpenBLAS sizes its thread pool once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    import numpy as np
finally:
    if _PIN:
        del os.environ["OPENBLAS_NUM_THREADS"]

# --- domain types -------------------------------------------------------------


class _Idealized(NamedTuple):
    epsilon: float


class Idealized(_Idealized):
    """MAJ3 as one unit: all three outputs flip together with probability eps."""

    __slots__ = ()

    def __new__(cls, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon={epsilon} outside [0, 1]")
        return super().__new__(cls, epsilon)

    @classmethod
    def _make(cls, fields) -> "Idealized":  # so _replace checks too
        return cls(*fields)


class Componentwise(PhysicalNoise):
    """MAJ3 as a vote gate feeding a fan-out layer (_fan_out), with preps
    and wires (see module docstring), at the checked gate error p;
    per-output marginal error is at most epsilon(p)."""

    __slots__ = ()

    @classmethod
    def from_p(cls, p: float) -> "Componentwise":
        """``Componentwise(p)`` (perfbench only)."""
        return cls(p)


GateNoise = Idealized | Componentwise


def hypercube_schedule(n: int) -> str:
    """The ``"hypercube"`` wiring tag, whatever ``n`` (perfbench only)."""
    return "hypercube"


def randomized_schedule() -> str:
    """The ``"randomized"`` wiring tag (perfbench only)."""
    return "randomized"


class TrialStats(NamedTuple):
    """Monte Carlo tallies, flips over phases (or trials), and their rate."""

    phases: int
    flips: int

    @property
    def p_hat(self) -> float:
        return self.flips / self.phases

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.flips, self.phases)


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

# Fan-out fault classes: row v = 3 * slot + pick of 21 equally likely draws.
# Slots 0-2 flip line ``pick`` only, slots 3-5 every line but ``pick``, and
# slot 6 all three: classes of 3/7, 3/7 and 1/7 of p_c with a uniform pick.
_FAN_OUT_FLIPS = np.array(
    [[(slot < 3 and j == pick) or (3 <= slot < 6 and j != pick) or slot == 6
      for j in range(3)] for slot in range(7) for pick in range(3)],
    np.uint8)


def _fault_hits(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Flat indices hitting each of n slots independently with probability p.

    Draws M ~ Poisson(-n log(1 - p)) slots uniformly with replacement.  By
    Poisson splitting (Kingman, Poisson Processes, 1993) each slot is then
    hit a Poisson(-log(1 - p)) number of times, independently, so it is hit
    at least once with probability exactly p (p >= 1 hits every slot once).
    A slot may repeat, so every write through the hits must give a repeated
    slot the same value (``mask[hits] = 1``, ``flat[hits] ^= 1``).  The cost
    grows with p * n rather than n.
    """
    if p >= 1.0:
        return np.arange(n)
    return rng.integers(0, n, rng.poisson(-n * math.log1p(-p)))


def _fan_out(line: np.ndarray, pn: PhysicalNoise,
             rng: np.random.Generator) -> np.ndarray:
    """Noisy fan-out gates: entry [b, 0, g] of the (blocks, 1, gates) line
    copied onto entries [b, j, g] of the (blocks, 3, gates) outputs.

    Per gate: a fault class with probability p_c (see _FAN_OUT_FLIPS), a
    flip of the ancilla prepared for each of lines 1 and 2, and a flip of
    each output wire, the last two with probability wire_prep each.  A
    gate hit more than once (see _fault_hits) keeps one class: the class
    draws are written into a per-gate array and read back at every hit.
    """
    blocks, _, gates = line.shape
    out = line.repeat(3, axis=1)
    flat = out.reshape(-1)
    hits = _fault_hits(rng, pn.p_c, blocks * gates)
    cls = np.zeros(blocks * gates, np.int8)
    cls[hits] = rng.integers(0, 21, hits.size)
    line0 = hits + 2 * gates * (hits // gates)
    for j, flip in enumerate(_FAN_OUT_FLIPS[cls[hits]].T):
        flat[line0 + j * gates] ^= flip
    preps = _fault_hits(rng, pn.wire_prep, blocks * 2 * gates)
    flat[preps + (preps // (2 * gates) + 1) * gates] ^= 1
    flat[_fault_hits(rng, pn.wire_prep, blocks * 3 * gates)] ^= 1
    return out


def _gate_masks(noise: GateNoise, rng: np.random.Generator, blocks: int,
                gates: int) -> np.ndarray:
    """Output XOR masks of ``blocks`` layers of ``gates`` noisy MAJ3 gates.

    Every gate first draws its vote line, one (blocks, 1, gates) line hit
    with probability eps.  An Idealized fault flips all three outputs
    alike, so its mask is that line: entry [b, 0, g] flips every output of
    gate g in layer b.  A Componentwise gate is a vote gate whose line 0
    feeds a fan-out gate, and a vote fault on that line (4/7 of its
    faults, the per-line gate marginal) reaches all three outputs: its
    mask is the fan-out layer (_fan_out) on the Idealized vote mask at
    eps = GATE_MARGINAL * p_c.
    """
    if not isinstance(noise, Idealized):
        return _fan_out(_gate_masks(Idealized(GATE_MARGINAL * noise.p_c), rng,
                                    blocks, gates), noise, rng)
    vote = np.zeros((blocks, 1, gates), np.uint8)
    vote.reshape(-1)[_fault_hits(rng, noise.epsilon, blocks * gates)] = 1
    return vote


def _maj3_layer(gates: np.ndarray, mask: np.ndarray) -> None:
    """Noisy MAJ3 gates in place on a (G, 3, L) view of a register.

    Gate (g, l) reads ``gates[g, :, l]``; its output line j then holds
    their majority XOR ``mask[j, g * L + l]``.  mask has shape (3, G * L),
    or (1, G * L) when one line flips all three outputs (see _gate_masks):
    that line is XORed once into the majority, which is then copied onto
    the three lines.  A three-line mask is XORed in line by line, in one
    call that walks the (line, G, L) view of the outputs, so each line's
    mask is read in order even where L is short (27 lanes on the
    randomized wiring's replica-major rows).
    """
    a, b, c = gates[:, 0], gates[:, 1], gates[:, 2]
    m = a & b
    either = a | b
    either &= c
    m |= either
    g, _, width = gates.shape
    lines = mask.reshape(len(mask), g, width)
    if len(lines) == 1:
        m ^= lines[0]
        gates[...] = m[:, None]
    else:
        np.bitwise_xor(m, lines, out=gates.transpose(1, 0, 2))


def _majority(bits: np.ndarray) -> np.ndarray:
    """Strict majority of each replica of a 0/1 register, as uint8, counted
    in the narrowest type that holds the size, exactly.

    bits is one register (size, replicas) or a stack of them (points,
    size, replicas), in any memory layout: the hypercube stack, the
    randomized wiring's replica-major rows read transposed, the encoder's
    unpacked register.  One ``np.einsum`` counts down the size axis; the
    majorities come back flat, point by point.
    """
    size = bits.shape[-2]
    count = np.einsum("...ij->...j", bits, dtype=np.min_scalar_type(size))
    return (count > size // 2).astype(np.uint8).reshape(-1)


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
    _maj3_layer(bits.reshape(size // (3 * low), 3, low * r), mask)


def _shuffle_rows(rows: np.ndarray, rng: np.random.Generator) -> None:
    """Shuffle each row of a 0/1 uint8 array in place, exactly uniformly.

    Each bit rides in bit 0 of a 32-bit key under 31 random bits, half of
    one raw 64-bit word: the keys are the draw's own words, viewed as
    uint32 in the row's shape.  Sorting a row's keys shuffles its bits,
    and ``keys & 1`` writes them back into ``rows``.  If two keys of any
    row share their random bits (one row in about 7e5 at 81 bits, 8e3 at
    729), all keys are redrawn: distinct i.i.d. keys come in uniformly
    random order.

    The tie check compares neighbours across the whole sorted array in one
    flat pass.  A pair that crosses a row end is one row's largest key
    next to the next row's smallest, and whether their XOR is at most 1
    depends only on their random parts.  So the redraw event is a function
    of each row's set of random parts, whatever bit each part carries, and
    a draw that is kept still places the bits uniformly; the extra redraws
    are rarer than ties within a row.  The bit generator must emit 64-bit
    words (PCG64, SFC64): MT19937's zero high halves would tie forever, so
    it raises ValueError.
    """
    if isinstance(rng.bit_generator, np.random.MT19937):
        raise ValueError("MT19937 emits 32-bit words; use a 64-bit bit "
                         "generator (PCG64, SFC64)")
    while True:
        raw = rng.bit_generator.random_raw(-(-rows.size // 2))
        flat = raw.view(np.uint32)[:rows.size]
        keys = flat.reshape(rows.shape)
        keys &= np.uint32(0xFFFF_FFFE)
        keys |= rows
        keys.sort(axis=1)
        if (flat[1:] ^ flat[:-1]).min() > 1:
            break
    np.bitwise_and(keys, 1, out=rows, casting="unsafe")


def _randomized_phase(bits: np.ndarray, mask: np.ndarray,
                      *rngs: np.random.Generator) -> None:
    """One multiplexing phase, in place on the (size, replicas) register.

    The replicas (columns) fall into ``len(rngs)`` equal runs, and each
    run is shuffled from its own stream (_shuffle_rows, whose keys are the
    stream's own draw), so a stack of registers shuffles each one as it
    would alone.  Then MAJ3 acts on each replica's triples (k, k + size/3,
    k + 2 size/3), with mask the layer's (3, bits.size // 3) or
    (1, bits.size // 3) output mask (see _gate_masks).  The outputs stay
    in shuffled order: the next phase shuffles afresh and the majority
    ignores order, so the law of every tally is unchanged.  Any layout
    works; ``order="F"`` keeps each replica contiguous.
    """
    size, r = bits.shape
    rows = bits.T
    for run, rng in zip(rows.reshape(len(rngs), -1, size), rngs):
        _shuffle_rows(run, rng)
    _maj3_layer(rows.reshape(r, 3, size // 3), mask)


# --- logical rate estimation ----------------------------------------------------


_WARMUP = 50          # phases discarded per replica before tallying
_LANES = 20_736       # register bits stepped per phase (81 bits x 256)
_MASK_BYTES = 165_888  # 3-line mask bytes per draw: 8 phases of 81 x 256
_STACK = 8            # points stepped together, at most


def estimate_logical_rate(n: int, wiring: str, noise: GateNoise,
                          seed: int | np.random.SeedSequence, *,
                          min_flips: int = 100,
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
    rate depends on the settling length L (ROADMAP item 12, where the
    exact laws are).  Over L = 3..6 it is flat within 3.5 % only on the
    81-bit hypercube at eps <= 0.05.  At eps 0.10 that register reads
    about 14 % higher at L = 3 than at L = 6 (2.26e-3 against 1.99e-3),
    and 22 % higher again at L = 2.

    The phases run in blocks, one per draw of masks, and the settle rule
    is resolved once per block, in one scan over the block's majorities
    and the last two before it.  A block may run past the stop, but the
    tallies are those of stopping at the exact phase: the extra phases
    are not counted.

    The run is a single deterministic stream, PCG64 seeded by ``seed``,
    an int or a ``SeedSequence`` handed to it as is: fixed (seed,
    parameters) reproduce the result bit for bit regardless of how callers
    schedule it and whichever points share its stack (see
    estimate_logical_rates, whose one-point call this is).  The record of
    grid point i of ``simulate`` or ``compare-vn`` is this call with
    ``substream(seed, i)``.
    """
    return estimate_logical_rates(n, wiring, [(noise, seed)],
                                  min_flips=min_flips,
                                  max_phases=max_phases)[0]


def estimate_logical_rates(n: int, wiring: str, points, *,
                           min_flips: int = 100,
                           max_phases: int = 10_000_000) -> list[TrialStats]:
    """``estimate_logical_rate`` of each (noise, seed) of ``points``, in
    order, the points stepped together in stacks of at most 8 (_STACK).
    Each seed, an int or a ``SeedSequence``, seeds its point's PCG64.

    A stack is one register array: the hypercube registers lie one after
    another on the bit axis, (points * 3^(n+1), replicas), and a phase
    along an axis never straddles two of them, since 3^(axis+1) divides
    3^(n+1); the randomized ones lie on the replica axis, each point's
    replicas shuffled from its own stream.  So each phase is one call of
    the gate kernel for the whole stack.  Each point draws its own
    contiguous masks from its own stream, as a run alone does
    (_gate_masks), and the draws are concatenated into the stack's masks,
    each point's in its own columns, at most _STACK * 165,888 bytes; the
    majority, the block settle rule and the tallies each run once over the
    stack, and a point leaves the stack when its run stops.  Every record
    is therefore bit for bit the one-point call's.  The run budget is
    checked here alone, first, then that every point's noise is Idealized
    or Componentwise, all of one kind: ValueError before any draw.
    """
    if n < 0 or min_flips < 1 or max_phases < 1:
        raise ValueError(f"need n >= 0 and a budget >= 1: {n=}, "
                         f"{min_flips=}, {max_phases=}")
    if wiring not in ("hypercube", "randomized"):
        raise ValueError(f"unknown wiring {wiring!r}; use hypercube or "
                         "randomized")
    points = list(points)
    for noise, _ in points:
        if not isinstance(noise, GateNoise):
            raise ValueError(f"gate noise {noise!r} is neither Idealized nor "
                             "Componentwise")
    if len({isinstance(noise, Idealized) for noise, _ in points}) > 1:
        raise ValueError("a stack's points must share one gate-noise kind, "
                         "Idealized or Componentwise")
    return [stats for k in range(0, len(points), _STACK)
            for stats in _run_stack(n, wiring, points[k:k + _STACK],
                                    min_flips, max_phases)]


def _run_stack(n: int, wiring: str, points: list, min_flips: int,
               max_phases: int) -> list[TrialStats]:
    """The records of one stack of (noise, seed) points (see
    estimate_logical_rates)."""
    size = 3 ** (n + 1)
    replicas = max(1, _LANES // size)
    gates = size * replicas // 3  # per point and phase
    # mask memory, not the width, bounds how many phases are drawn at
    # once; the count is sized for 3-line masks, so an Idealized draw (one
    # line per gate) fills a third of _MASK_BYTES
    block = max(1, _MASK_BYTES // (size * replicas))
    streams = [(noise, _generator(seed)) for noise, seed in points]
    live = list(range(len(points)))  # the points still running, in order
    # stack[j] holds live[j]'s replicas: (size, replicas), or (replicas,
    # size) for the randomized wiring, which shuffles within replicas
    stack = np.zeros((len(points), *((size, replicas) if wiring == "hypercube"
                                     else (replicas, size))), np.uint8)
    # row 2 + i: the (points, replicas) majorities after phase i of the
    # block; rows 0 and 1 carry the block before's last two (zero at the
    # start, which holds no new majority against the zero references)
    maj = np.zeros((block + 2, len(points), replicas), np.uint8)
    logical = np.zeros((len(points), replicas), np.uint8)
    phases, flips = [0] * len(points), [0] * len(points)
    records = [None] * len(points)
    phase_idx = 0
    while live:
        k = len(live)
        # (block, 1 or 3 lines, k * gates): each live point's masks in its
        # own columns
        masks = np.concatenate([_gate_masks(*streams[p], block, gates)
                                for p in live], axis=2)
        rngs = [streams[p][1] for p in live]
        for i, mask in enumerate(masks):
            if wiring == "hypercube":
                _hypercube_phase(stack.reshape(-1, replicas),
                                 (phase_idx + i) % (n + 1), mask)
                bits = stack
            else:
                bits = stack.reshape(-1, size).T
                _randomized_phase(bits, mask, *rngs)
            maj[2 + i] = _majority(bits).reshape(k, replicas)
        # a phase holds when its majority matches the two before it; a
        # held phase settles when its majority differs from the reference,
        # which then flips to it: one scan over the block's phases
        new = maj[2:]
        settled = (new == maj[1:-1]) & (new == maj[:-2])
        for held, m in zip(settled, new):
            held &= m != logical
            logical ^= held
        per_phase = settled.sum(axis=2).tolist()
        keep = []
        for j, p in enumerate(live):
            for i in range(max(0, _WARMUP - phase_idx), block):
                tally = min(replicas, max_phases - phases[p])
                phases[p] += tally
                flips[p] += (per_phase[i][j] if tally == replicas
                             else int(settled[i, j, :tally].sum()))
                if flips[p] >= min_flips or phases[p] >= max_phases:
                    records[p] = TrialStats(phases=phases[p], flips=flips[p])
                    break
            else:
                keep.append(j)
        phase_idx += block
        maj[:2] = maj[-2:]
        if len(keep) < k:  # the stopped points leave the stack
            live = [live[j] for j in keep]
            stack, maj, logical = stack[keep], maj[:, keep], logical[keep]
    return records


# --- parallel driver ------------------------------------------------------------


def _generator(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """The random stream of a run or a shard: PCG64 seeded by ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


def substream(seed: int, index: int) -> np.random.SeedSequence:
    """RNG substream of work item ``index`` (a grid point or a trial
    shard), fixed by (seed, index) alone."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def run_parallel(fn, jobs: list[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, on a pool of min(workers, jobs)
    processes when that is more than one (workers >= 1, or ValueError).

    Every job seeds itself from its own substream, so the results are the
    same for any worker count and any execution order.  The pool module
    is imported only here, so a one-worker run never loads it.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    workers = min(workers, len(jobs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]


# --- fan-out encoder cascade ------------------------------------------------------

CASCADE_DEPTH = 4
_CASCADE_PHASES = 12  # correction phases after the fan-out: three axis cycles
_CHUNK = 8192  # trials per RNG substream; fixed so results never depend on workers


def _amp_layer(bits: np.ndarray, pn: PhysicalNoise,
               rng: np.random.Generator) -> np.ndarray:
    """One fan-out level: (C, R) -> (3C, R), new branch trit on the high digit.

    One fan-out layer (_fan_out) of the C * R bits, output line j becoming
    rows jC to jC + C - 1.  Since each level adds the high digit, the first
    (top) level's branch ends up on the stride-1 trit: every stride-1
    triple {3k, 3k+1, 3k+2} holds one leaf from each top branch, and the
    first correction phase votes across the three independently amplified
    thirds of the code.
    """
    c, r = bits.shape
    return _fan_out(bits.reshape(1, 1, c * r), pn, rng).reshape(3 * c, r)


def _cascade_shard(pn: PhysicalNoise, corrector: Idealized, seed: int,
                   shard: int, size: int) -> int:
    """Failures of ``size`` trials of the input 0 on the shard's stream."""
    rng = _generator(substream(seed, shard))
    # the bit to encode is a given input, not a fresh preparation; its own
    # history is outside the encoder's failure budget
    bits = np.zeros((1, size), np.uint8)
    for _ in range(CASCADE_DEPTH):
        bits = _amp_layer(bits, pn, rng)
    rows = bits.shape[0] // 3  # gate rows per phase
    bits = np.packbits(bits, axis=1)  # frees the byte register
    for k in range(_CASCADE_PHASES):
        mask = _gate_masks(corrector, rng, 1, rows * size).reshape(rows, size)
        _hypercube_phase(bits, k % CASCADE_DEPTH,
                         np.packbits(mask, axis=1).reshape(1, -1))
    bits = np.unpackbits(bits, axis=1, count=size)
    return int(_majority(bits).sum())


def cascade_mc(p: float, seed: int, trials: int, *,
               workers: int = 1) -> TrialStats:
    """Monte Carlo of the full encode-then-correct pipeline.

    Each trial amplifies the input 0 through four levels of fan-out gates
    into an 81-bit register, with componentwise noise at physical rate p,
    runs twelve correction phases (idealized gates at the derived
    per-output rate, cycling the register's four axes starting with the
    cross-block one), and scores a failure when the final strict majority
    is 1.  The phases act on the register packed along the trial axis,
    eight trials per byte, with the masks packed alike; the draws are
    those of a register of one byte per bit, so the failure count is that
    register's, bit for bit.  Twelve phases, three full axis cycles, are
    enough for the propagated-error population to relax; the estimate
    moves by well under a standard deviation between 8 and 24 phases.  On
    the same draws the input 1 fails in exactly the same trials: MAJ3 is
    self-dual and every fault an XOR, so its register is the complement.

    Trials are processed in fixed-size shards, each on its own PCG64
    stream seeded by a substream of ``seed``, so the result is identical
    for any ``workers`` and any shard execution order.  In the returned
    stats ``phases`` counts scored trials and ``flips`` counts failures.
    """
    return cascade_grid([p], seed, trials, workers=workers)[0]


def cascade_grid(ps, seed: int, trials: int, *,
                 workers: int = 1) -> list[TrialStats]:
    """``cascade_mc`` at each p of ``ps``, in order.  Every p's noise is
    built, and so checked, before any draw; then all the p's shards run
    as one ``run_parallel`` job list, shard i on ``substream(seed, i)``."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sizes = [min(_CHUNK, trials - i) for i in range(0, trials, _CHUNK)]
    noises = [(PhysicalNoise(p), Idealized(epsilon_of_p(p))) for p in ps]
    jobs = [(*noise, seed, i, size) for noise in noises
            for i, size in enumerate(sizes)]
    fails = run_parallel(_cascade_shard, jobs, workers)
    return [TrialStats(phases=trials, flips=sum(fails[k:k + len(sizes)]))
            for k in range(0, len(fails), len(sizes))]
