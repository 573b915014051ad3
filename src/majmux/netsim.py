"""Seeded bit-level Monte Carlo of repetition-code majority correction.

A register of 3^(n+1) bits is repeatedly restored by layers of noisy MAJ3
gates under one of two wirings:

* ``hypercube``: the bits form an (n+1)-dimensional ternary cube; each
  restorative phase applies 3^n parallel MAJ3 gates along one axis, and the
  axes cycle in a fixed order.
* ``randomized``: each phase draws a fresh uniform permutation of all bits
  and applies MAJ3 to consecutive triples (classic multiplexing).

Two gate-noise models are provided.  ``Idealized`` treats the MAJ3 as a
black box whose three identical outputs are all flipped together with
probability eps.  ``Componentwise`` builds the MAJ3 from its parts: the
vote gate and the fan-out gate each draw an error class flipping exactly
1 / 2 / 3 of their output lines with probabilities (3/7) p_c, (3/7) p_c,
(1/7) p_c, and every prepared ancilla and output wire flips independently
with probability (2/3) p.

A logical flip is a change of the register's strict majority relative to
the tracked reference value; after each flip the reference is updated so
the chain keeps running (the rate measured is per-phase flips of the
carried majority, matching the analytic chains).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rates import PhysicalNoise, derive_rates

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
        return cls(noise=derive_rates(p)[0])


GateNoise = Idealized | Componentwise


@dataclass(frozen=True)
class Schedule:
    """Wiring plan for restorative phases; hypercube schedules carry the
    cyclic axis order."""

    kind: str                          # "hypercube" | "randomized"
    axis_order: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("hypercube", "randomized"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if sorted(self.axis_order) != list(range(len(self.axis_order))):
            raise ValueError(f"axis_order {self.axis_order} is not a "
                             "permutation of the cube axes")


def hypercube_schedule(n: int) -> Schedule:
    """Deterministic schedule cycling the n+1 cube axes in order 0..n."""
    return Schedule(kind="hypercube", axis_order=tuple(range(n + 1)))


def randomized_schedule() -> Schedule:
    """Fresh uniform permutation into triples at every phase."""
    return Schedule(kind="randomized")


@dataclass(frozen=True)
class TrialStats:
    """Monte Carlo tallies: flips observed over tallied phases (or trials)."""

    phases: int
    flips: int
    p_hat: float
    ci95: tuple[float, float]
    upper_bound_only: bool = False  # set when no flips were seen at the cap


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054
                    ) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


# --- gate kernels -------------------------------------------------------------

_CLASS1 = 3.0 / 7.0  # exactly one line wrong, share of p_c
_CLASS2 = 6.0 / 7.0  # cumulative: one or two lines wrong


def _class_line_flip(u: np.ndarray, pick: np.ndarray, line: int,
                     p_c: float) -> np.ndarray:
    """Whether a gate-fault class draw flips the given output line.

    u is the class uniform: exactly-one wrong on [0, 3/7 p_c), exactly-two
    on [3/7 p_c, 6/7 p_c), all-three on [6/7 p_c, p_c).  pick selects which
    single line (class one) or which spared line (class two).
    """
    one = u < _CLASS1 * p_c
    two = (u >= _CLASS1 * p_c) & (u < _CLASS2 * p_c)
    three = (u >= _CLASS2 * p_c) & (u < p_c)
    hit = (one & (pick == line)) | (two & (pick != line)) | three
    return hit.astype(np.uint8)


def _gate_batch(inputs: np.ndarray, noise: GateNoise,
                rng: np.random.Generator) -> np.ndarray:
    """Apply noisy MAJ3 gates to a (..., 3) batch of input triples.

    Every gate consumes a fixed number of random draws for its noise model,
    so schedules replay identically for a fixed seed.
    """
    m = (inputs.sum(axis=-1, dtype=np.int64) >= 2).astype(np.uint8)
    if isinstance(noise, Idealized):
        flip = (rng.random(m.shape) < noise.epsilon).astype(np.uint8)
        return np.repeat((m ^ flip)[..., None], 3, axis=-1)

    pn = noise.noise
    # vote gate: only its first line feeds the fan-out
    u_vote = rng.random(m.shape)
    pick_vote = rng.integers(0, 3, m.shape)
    m = m ^ _class_line_flip(u_vote, pick_vote, 0, pn.p_c)
    # fan-out gate: prepared ancillas, class fault, output wires
    prep = (rng.random(m.shape + (2,)) < pn.wire_prep).astype(np.uint8)
    u_amp = rng.random(m.shape)
    pick_amp = rng.integers(0, 3, m.shape)
    wire = (rng.random(m.shape + (3,)) < pn.wire_prep).astype(np.uint8)
    lines = _fan_out(m, u_amp, pick_amp, (prep[..., 0], prep[..., 1]),
                     (wire[..., 0], wire[..., 1], wire[..., 2]), pn.p_c)
    return np.stack(lines, axis=-1)


def _fan_out(bits: np.ndarray, u: np.ndarray, pick: np.ndarray, prep, wire,
             p_c: float) -> list[np.ndarray]:
    """The three output lines of a noisy fan-out gate copying ``bits``.

    u and pick are the gate's fault-class draws (see _class_line_flip);
    prep[j - 1] flips the ancilla prepared for copy line j > 0 and wire[j]
    flips output line j.  Callers draw these in their own order and
    layout, so each keeps its per-seed stream.
    """
    return [bits ^ _class_line_flip(u, pick, j, p_c)
            ^ (prep[j - 1] if j else 0) ^ wire[j] for j in range(3)]


def apply_maj3(inputs, noise: GateNoise, rng: np.random.Generator
               ) -> tuple[int, int, int]:
    """One noisy MAJ3 application to a triple of bits.

    Args:
        inputs: three 0/1 values.
        noise: Idealized(epsilon) or Componentwise(PhysicalNoise).
        rng: numpy Generator; a fixed number of draws is consumed.

    Returns:
        The three output bits.
    """
    arr = np.asarray(inputs, dtype=np.uint8).reshape(1, 3)
    out = _gate_batch(arr, noise, rng)[0]
    return (int(out[0]), int(out[1]), int(out[2]))


# --- phase kernels ------------------------------------------------------------


def _hypercube_phase(bits: np.ndarray, axis: int, n: int, noise: GateNoise,
                     rng: np.random.Generator) -> None:
    """One layer of 3^n parallel MAJ3 gates along a cube axis, in place.

    bits has shape (replicas, 3^(n+1)); trit ``axis`` of the flat index
    (stride 3^axis) selects the position within each gate's triple.
    """
    r, size = bits.shape
    low = 3 ** axis
    high = size // (3 * low)
    view = bits.reshape(r, high, 3, low)
    triples = np.ascontiguousarray(view.transpose(0, 1, 3, 2))
    out = _gate_batch(triples, noise, rng)
    view[:] = out.transpose(0, 1, 3, 2)


def _randomized_phase(bits: np.ndarray, noise: GateNoise,
                      rng: np.random.Generator) -> None:
    """One multiplexing phase: fresh permutation, MAJ3 on each triple."""
    r, size = bits.shape
    if size % 3:
        raise ValueError(f"register size {size} is not divisible by 3")
    perm = np.argsort(rng.random((r, size)), axis=1)
    shuffled = np.take_along_axis(bits, perm, axis=1)
    out = _gate_batch(shuffled.reshape(r, size // 3, 3), noise, rng)
    np.put_along_axis(bits, perm, out.reshape(r, size), axis=1)


# --- logical rate estimation ----------------------------------------------------


_WARMUP = 50    # phases discarded per replica before tallying
_REPLICAS = 32  # registers run in lockstep
_SETTLE = 3     # phases a new majority must hold to count as a flip


def estimate_logical_rate(n: int, sched: Schedule, noise: GateNoise,
                          seed: int, *, min_flips: int = 100,
                          max_phases: int = 10_000_000) -> TrialStats:
    """Per-phase logical flip rate of the corrected register.

    Runs 32 independent registers in lockstep (all starting from the
    all-zero state, each with its own logical reference), discards the
    first 50 phases of each, then tallies phases and logical flips until
    at least ``min_flips`` flips are pooled or the pooled phase count
    reaches ``max_phases``.

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

    Returns:
        TrialStats; ``upper_bound_only`` is set when the phase budget was
        exhausted with no flips at all (p_hat = 0, interval is one-sided).
    """
    size = 3 ** (n + 1)
    if sched.kind == "hypercube" and len(sched.axis_order) != n + 1:
        raise ValueError("schedule axis count does not match the code level")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    bits = np.zeros((_REPLICAS, size), np.uint8)
    logical = np.zeros(_REPLICAS, np.uint8)
    prev = np.zeros(_REPLICAS, np.uint8)
    streak = np.zeros(_REPLICAS, np.int64)  # consecutive phases at current majority
    half = size // 2
    phases = 0
    flips = 0
    phase_idx = 0
    while True:
        if sched.kind == "hypercube":
            axis = sched.axis_order[phase_idx % len(sched.axis_order)]
            _hypercube_phase(bits, axis, n, noise, rng)
        else:
            _randomized_phase(bits, noise, rng)
        maj = (bits.sum(axis=1, dtype=np.int64) > half).astype(np.uint8)
        streak = np.where(maj == prev, streak + 1, 1)
        prev = maj
        settled = (streak >= _SETTLE) & (maj != logical)
        logical = np.where(settled, maj, logical)
        if phase_idx >= _WARMUP:
            phases += _REPLICAS
            flips += int(settled.sum())
            if flips >= min_flips or phases >= max_phases:
                break
        phase_idx += 1
    p_hat = flips / phases
    return TrialStats(phases=phases, flips=flips, p_hat=p_hat,
                      ci95=wilson_interval(flips, phases),
                      upper_bound_only=(flips == 0))


# --- parallel driver ------------------------------------------------------------


def substream(seed: int, index: int) -> np.random.SeedSequence:
    """RNG substream of work item ``index`` (a grid point or a trial
    shard), fixed by (seed, index) alone."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def run_parallel(fn, jobs: list[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, on a process pool when workers > 1.

    Every job seeds itself from its own substream, so the results are the
    same for any worker count and any execution order.
    """
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, *zip(*jobs)))
    return [fn(*job) for job in jobs]
