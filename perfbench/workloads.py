"""The benchmark's workloads: which ``majmux`` CLI commands each one runs,
how much work each command does, how its artifact is checked, and how the
same command is replayed in-process through the public API for the traced
run.

Every Monte Carlo command is cap-terminated: ``--min-flips`` is out of
reach and ``--max-phases`` fixes the number of register-phases, so the work
does not depend on the RNG stream (which later changes may alter).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

UNREACHABLE_FLIPS = 10 ** 9

# Pinned analytic values (README / acceptance suite) and the tolerance they
# are checked to: half a unit in their last stated digit.
PINNED = {"level3": 0.1494, "level2": 0.2493, "p_star": 0.0560,
          "eps_star": 0.1315, "p_crit": 0.0285}
PIN_TOL = 5e-5
# Sweep and bound rows against the same functions called in-harness.
ANALYTIC_RTOL = 1e-9
# steady_state(level-3 chain, eps).p_ss pinned from the power-iteration
# solver, so a different solver is checked against fixed values too, down
# at small eps where p_ss is tiny.  Every analytic sweep grid holds these
# eps, and its rows there must match to PIN_P_SS_RTOL.
PINNED_P_SS = {0.01: 2.7344090266792545e-11, 0.05: 2.322084565053734e-05,
               0.10: 0.009551780084828543, 0.149: 0.14733043785181582}
PIN_P_SS_RTOL = 1e-6
SWEEP_STEP = 0.0002  # divides the gaps between the pinned eps


def _grid(lo: float, hi: float, steps: int) -> str:
    return f"{lo!r}:{hi!r}:{steps}"


def grid_points(spec: str) -> list[float]:
    lo, hi, steps = spec.split(":")
    return [float(x) for x in np.linspace(float(lo), float(hi), int(steps))]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Oracle:
    """Reference values computed in the harness from the tree under test."""

    def __init__(self, m):
        self.m = m
        self._l3 = m.build_level3_chain()
        self._p_ss: dict[float, float] = {}

    def p_ss(self, eps: float) -> float:
        if eps not in self._p_ss:
            self._p_ss[eps] = self.m.steady_state(self._l3, eps).p_ss
        return self._p_ss[eps]


# --- command kinds ------------------------------------------------------------


@dataclass(frozen=True)
class Threshold:
    model: str  # level2 | level3 | universal

    @property
    def work(self) -> int:
        return 1

    def argv(self, seed: int) -> list[str]:
        return ["threshold", "--model", self.model, "--seed", str(seed),
                "--workers", "1"]

    def check(self, records, oracle) -> list[str]:
        if len(records) != 1:
            return [f"expected 1 row, got {len(records)}"]
        r = records[0]
        if self.model == "universal":
            want = [("p*", r.x, PINNED["p_star"]),
                    ("eps*", r.y, PINNED["eps_star"])]
        else:
            want = [(self.model, r.x, PINNED[self.model])]
        return [f"{name} = {got!r}, pinned {pin}" for name, got, pin in want
                if not abs(got - pin) <= PIN_TOL]

    def replay(self, m, tr, seed: int) -> None:
        if self.model == "universal":
            tr.call("analysis.universal_threshold", m.universal_threshold)
            return
        build = (m.build_level2_chain if self.model == "level2"
                 else m.build_level3_chain)
        chain = tr.call(f"chains.build_{self.model}_chain", build)
        tr.call("analysis.correction_threshold", m.correction_threshold, chain)


@dataclass(frozen=True)
class Sweep:
    grid: str

    @property
    def work(self) -> int:
        return len(grid_points(self.grid))

    def argv(self, seed: int) -> list[str]:
        return ["sweep", "--model", "level3", "--grid", self.grid,
                "--seed", str(seed), "--workers", "1"]

    def check(self, records, oracle) -> list[str]:
        xs = grid_points(self.grid)
        if [r.x for r in records] != xs:
            return ["sweep rows do not match the requested grid"]
        bad = [f"sweep eps={r.x!r}: {r.y!r} != steady_state "
               f"{oracle.p_ss(r.x)!r}" for r in records
               if not _close(r.y, oracle.p_ss(r.x), ANALYTIC_RTOL)]
        for eps, pin in PINNED_P_SS.items():
            at = [r.y for r in records if abs(r.x - eps) <= 1e-12]
            if len(at) != 1 or not _close(at[0], pin, PIN_P_SS_RTOL):
                bad.append(f"sweep eps={eps}: p_ss {at!r}, pinned {pin!r}")
        return bad

    def replay(self, m, tr, seed: int) -> None:
        tr.call("analysis.sweep", m.sweep, "level3", grid_points(self.grid),
                seed=seed)


@dataclass(frozen=True)
class PCrit:
    @property
    def work(self) -> int:
        return 1

    def argv(self, seed: int) -> list[str]:
        return ["encode", "--pcrit", "--seed", str(seed), "--workers", "1"]

    def check(self, records, oracle) -> list[str]:
        if len(records) != 1:
            return [f"expected 1 row, got {len(records)}"]
        r = records[0]
        bad = []
        if not abs(r.x - PINNED["p_crit"]) <= PIN_TOL:
            bad.append(f"p_crit = {r.x!r}, pinned {PINNED['p_crit']}")
        if not _close(r.y, oracle.m.pfail_bound(r.x).p_fail, ANALYTIC_RTOL):
            bad.append(f"p_crit row bound {r.y!r} != pfail_bound")
        return bad

    def replay(self, m, tr, seed: int) -> None:
        root = tr.call("encoding.p_crit", m.p_crit)
        tr.call("encoding.pfail_bound", m.pfail_bound, root)


@dataclass(frozen=True)
class Bound:
    grid: str

    @property
    def work(self) -> int:
        return len(grid_points(self.grid))

    def argv(self, seed: int) -> list[str]:
        return ["encode", "--bound", "--grid", self.grid, "--seed", str(seed),
                "--workers", "1"]

    def check(self, records, oracle) -> list[str]:
        xs = grid_points(self.grid)
        if [r.x for r in records] != xs:
            return ["bound rows do not match the requested grid"]
        return [f"bound p={r.x!r}: {r.y!r} != pfail_bound"
                for r in records
                if not _close(r.y, oracle.m.pfail_bound(r.x).p_fail,
                              ANALYTIC_RTOL)]

    def replay(self, m, tr, seed: int) -> None:
        for x in grid_points(self.grid):
            tr.call("encoding.pfail_bound", m.pfail_bound, x)


@dataclass(frozen=True)
class Simulate:
    """Cap-terminated level-3 register simulation over an eps grid
    (Idealized gates) or at one physical rate ``p`` (Componentwise).

    ``max_phases`` is a multiple of the estimator's 32 replicas, so a run
    stopped by the cap tallies exactly ``max_phases`` register-phases.
    """

    model: str              # hypercube_mc | vn_mc
    max_phases: int
    grid: str | None = None
    p: float | None = None

    @property
    def points(self) -> list[float]:
        return grid_points(self.grid) if self.grid else [self.p]

    @property
    def work(self) -> int:
        return len(self.points) * self.max_phases

    def argv(self, seed: int) -> list[str]:
        where = (["--grid", self.grid] if self.grid else ["--p", repr(self.p)])
        return ["simulate", "--model", self.model, "--level", "3", *where,
                "--min-flips", str(UNREACHABLE_FLIPS),
                "--max-phases", str(self.max_phases), "--seed", str(seed),
                "--workers", "1"]

    def check(self, records, oracle) -> list[str]:
        if [r.x for r in records] != self.points:
            return ["simulate rows do not match the requested points"]
        bad = []
        for r in records:
            eps = r.x if self.grid else oracle.m.epsilon_of_p(r.x)
            flips = r.y * self.max_phases
            if r.model != self.model or r.n != 3:
                bad.append(f"row tagged {r.model}/n={r.n}")
            if not (abs(flips - round(flips)) < 1e-6 and round(flips) >= 1):
                bad.append(f"x={r.x!r}: not a cap-terminated run with a flip "
                           f"(y * max_phases = {flips!r})")
            if not r.y_lo <= oracle.p_ss(eps):
                bad.append(f"x={r.x!r}: y_lo {r.y_lo!r} above analytic "
                           f"p_ss {oracle.p_ss(eps)!r}")
        return bad

    def replay(self, m, tr, seed: int) -> None:
        for i, x in enumerate(self.points):
            sched = (m.hypercube_schedule(3) if self.model == "hypercube_mc"
                     else m.randomized_schedule())
            noise = (m.Componentwise.from_p(x) if self.p is not None
                     else m.Idealized(x))
            sub = np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(2)
            tr.call("netsim.estimate_logical_rate", m.estimate_logical_rate,
                    3, sched, noise, int(sub[0]) << 32 | int(sub[1]),
                    min_flips=UNREACHABLE_FLIPS, max_phases=self.max_phases)


@dataclass(frozen=True)
class Encode:
    p: float
    trials: int

    @property
    def work(self) -> int:
        return self.trials

    def argv(self, seed: int) -> list[str]:
        return ["encode", "--p", repr(self.p), "--trials", str(self.trials),
                "--seed", str(seed), "--workers", "1"]

    def check(self, records, oracle) -> list[str]:
        if [r.x for r in records] != [self.p]:
            return ["encode rows do not match the requested p"]
        r = records[0]
        bound = oracle.m.pfail_bound(r.x).p_fail
        fails = r.y * self.trials
        bad = []
        if not (abs(fails - round(fails)) < 1e-6 and round(fails) >= 1):
            bad.append(f"y * trials = {fails!r} is not a positive count")
        if not r.y_lo <= bound:
            bad.append(f"y_lo {r.y_lo!r} above pfail_bound {bound!r}")
        return bad

    def replay(self, m, tr, seed: int) -> None:
        tr.call("encoding.cascade_mc", m.cascade_mc, self.p, seed=seed,
                trials=self.trials, workers=1)


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    work_name: str   # what the workload's throughput counts
    build: Callable[[random.Random], list]

    def commands(self, seed: int) -> list:
        return self.build(random.Random(seed))


def level3_sweep_grid(below: int, above: int) -> str:
    """Grid with SWEEP_STEP spacing from ``below`` steps under eps 0.01 to
    ``above`` steps over eps 0.149, so it holds every PINNED_P_SS eps."""
    lo, hi = min(PINNED_P_SS), max(PINNED_P_SS)
    steps = round((hi - lo) / SWEEP_STEP) + 1 + below + above
    return _grid(round(lo - below * SWEEP_STEP, 6),
                 round(hi + above * SWEEP_STEP, 6), steps)


def _analytic(rng: random.Random) -> list:
    # eps from 0.005-0.01 up to 0.149-0.16: 696-776 solves
    return [Threshold("level3"), Threshold("level2"), Threshold("universal"),
            Sweep(level3_sweep_grid(rng.randrange(26), rng.randrange(56))),
            PCrit(),
            Bound(_grid(round(0.001 + 0.0005 * rng.random(), 6), 0.028, 28))]


def _mc_grid(rng: random.Random) -> str:
    return _grid(round(0.08 + 0.002 * rng.random(), 6),
                 round(0.12 - 0.002 * rng.random(), 6), 5)


def _p_point(rng: random.Random) -> float:
    # eps(p) ~ 0.14: Componentwise noise flips the register often enough
    # that every capped run sees flips
    return round(0.06 + 0.002 * (rng.random() - 0.5), 6)


def _hypercube(rng: random.Random) -> list:
    return [Simulate("hypercube_mc", 128_000, grid=_mc_grid(rng)),
            Simulate("hypercube_mc", 48_000, p=_p_point(rng))]


def _multiplex(rng: random.Random) -> list:
    return [Simulate("vn_mc", 48_000, grid=_mc_grid(rng)),
            Simulate("vn_mc", 16_000, p=_p_point(rng))]


def _encode(rng: random.Random) -> list:
    return [Encode(0.02, 16 * 8192)]


# Why each workload exists: see BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("analytic", "rows", _analytic),
    Workload("hypercube", "register-phases", _hypercube),
    Workload("multiplex", "register-phases", _multiplex),
    Workload("encode", "trials", _encode),
)}
