"""Threshold finders, parameter sweeps, and concatenation baselines.

Everything here is a thin consumer of the analytic chains and the derived
rates: bisection roots of the self-consistency conditions (storage and
computation thresholds), the power-law baselines for conventional code
concatenation, the measurement and feedback error constants, and a grid
sweep that turns any of the supported models into plot-ready records.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chains import (ErrorChain, build_level2_chain, build_level3_chain,
                     propagated_bit_error, steady_state)
from .netsim import (Componentwise, Idealized, estimate_logical_rate,
                     hypercube_schedule, randomized_schedule, run_parallel,
                     substream)
from .rates import derive_rates

_CHAIN_EPS_MAX = 0.25  # self-consistency scan range for the analytic chains
_BISECT_TOL = 1e-6

MEASUREMENT_SLOPE = 32.0 / 63.0


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated grid point of a model sweep.

    For analytic models y_lo == y == y_hi and seed is carried only for
    provenance.  For Monte Carlo models (y_lo, y_hi) is the 95% confidence
    interval.  A point outside the model's domain yields NaN values and a
    non-empty note instead of being silently dropped.
    """

    x: float
    y: float
    y_lo: float
    y_hi: float
    model: str
    n: int
    seed: int
    note: str = ""


def _bisect(g, lo: float, hi: float, tol: float = _BISECT_TOL) -> float:
    """Root of g on [lo, hi] given g(lo) < 0 < g(hi)."""
    if not (g(lo) < 0.0 < g(hi)):
        raise RuntimeError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def correction_threshold(chain: ErrorChain) -> float:
    """Largest eps below which the corrector suppresses its own noise.

    Scans p_ss(eps) - eps on a grid over (0, 0.25), brackets the last sign
    change, and bisects it to 1e-6.  Below the returned point the
    per-phase logical failure rate is smaller than the per-gate rate
    feeding it, so adding the corrector is a net win.

    Raises:
        RuntimeError: if p_ss(eps) - eps never changes sign in range.
    """
    g = lambda e: steady_state(chain, e).p_ss - e
    grid = np.linspace(1e-3, _CHAIN_EPS_MAX - 1e-4, 250)
    vals = [g(e) for e in grid]
    bracket = None
    for (a, ga), (b, gb) in zip(zip(grid, vals), zip(grid[1:], vals[1:])):
        if ga < 0.0 <= gb:
            bracket = (a, b)
    if bracket is None:
        raise RuntimeError("no crossing of p_ss(eps) = eps in (0, 0.25)")
    return _bisect(g, *bracket)


def p_target(p: float) -> float:
    """Per-output error of one fault-tolerant computation step at rate p.

    A computation step votes three corrected registers into one: the two
    register inputs each arrive wrong with p_in = eps' + (1 - eps') eta,
    where eta is the stationary erroneous-bit fraction of the 81-bit
    corrector, and the vote itself contributes one gate and one wire.
    """
    noise, maj3, _ = derive_rates(p)
    eps = maj3.epsilon
    eta = propagated_bit_error(build_level3_chain(), eps)
    p_in = maj3.epsilon_prime + (1.0 - maj3.epsilon_prime) * eta
    return 1.0 - (1.0 - p_in) ** 2 * (1.0 - eps) * (1.0 - noise.wire_prep)


def universal_threshold() -> tuple[float, float]:
    """Largest physical rate at which computation steps stay correctable.

    Bisects p_target(p) = 1/2 on (1e-6, 0.2) to 1e-6.  Returns the root
    and the per-output gate error it maps to.  Above the root a single
    computation step scrambles its output faster than the correctors can
    clean it, regardless of code size.
    """
    p_star = _bisect(lambda p: p_target(p) - 0.5, 1e-6, 0.2)
    return p_star, derive_rates(p_star)[1].epsilon


def concat_baseline(t: int, level: int, epsilon: float) -> float:
    """Failure rate t**(2**L - 1) * eps**(2**L) of conventional concatenation.

    t is the inverse-threshold constant (6 or 7) and L the number of
    concatenation levels (2, 3, or 4).  Serves as the yardstick the
    hypercube corrector is compared against.
    """
    if t not in (6, 7):
        raise ValueError(f"t must be 6 or 7, got {t}")
    if level not in (2, 3, 4):
        raise ValueError(f"level must be 2, 3, or 4, got {level}")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon={epsilon} outside [0, 1]")
    m = 2 ** level
    return float(t) ** (m - 1) * epsilon ** m


def feedback_constants(p: float) -> tuple[float, float]:
    """Error added by measuring a bit, and by feeding the result back.

    Measurement inherits the encoder's small-p slope, (32/63) p; acting on
    the outcome costs one more gate, p + (32/63) p.
    """
    if p < 0.0:
        raise ValueError(f"p must be nonnegative, got {p}")
    meas = MEASUREMENT_SLOPE * p
    return meas, p + meas


_CONCAT_TAG = re.compile(r"^concat\((\d+),\s*(\d+)\)$")
_MC_LEVEL = 3  # both Monte Carlo sweep models run the 81-bit register


def mc_point(model: str, level: int, use_p: bool, x: float, seed: int,
             index: int, min_flips: int, max_phases: int) -> SweepRecord:
    """Simulated logical rate of one grid point, as a record.

    Runs the 3^(level+1)-bit register wired by ``model`` (``hypercube_mc``
    or ``vn_mc``) with Idealized(x) gates, or Componentwise gates at
    physical rate x when ``use_p`` is set, on substream ``index`` of
    ``seed``.
    """
    sched = (hypercube_schedule(level) if model == "hypercube_mc"
             else randomized_schedule())
    noise = Componentwise.from_p(x) if use_p else Idealized(x)
    sub = substream(seed, index).generate_state(2)
    st = estimate_logical_rate(level, sched, noise,
                               int(sub[0]) << 32 | int(sub[1]),
                               min_flips=min_flips, max_phases=max_phases)
    return SweepRecord(x=x, y=st.p_hat, y_lo=st.ci95[0], y_hi=st.ci95[1],
                       model=model, n=level, seed=seed)


def sweep(model: str, grid: Sequence[float], *, seed: int = 0,
          min_flips: int = 100, max_phases: int = 10_000_000,
          workers: int = 1) -> list[SweepRecord]:
    """Evaluate a model over a strictly increasing parameter grid.

    Supported models: ``level2`` and ``level3`` (stationary logical rate
    of the analytic chains, eps in [0, 0.25]), ``concat(t,L)`` (the
    concatenation baseline, eps in [0, 1]), and ``hypercube_mc`` /
    ``vn_mc`` (bit-level estimates on the 81-bit register with idealized
    gates, eps in (0, 0.5)).  Off-domain points come back as NaN records
    with an explanatory note.

    Monte Carlo points run on independent substreams derived from (seed,
    point index), so records are identical for any ``workers`` value and
    any execution order.
    """
    xs = list(grid)
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be strictly increasing")
    concat = _CONCAT_TAG.match(model)
    records: list[SweepRecord] = []

    if model in ("level2", "level3"):
        chain = build_level2_chain() if model == "level2" else build_level3_chain()
        n = 2 if model == "level2" else 3
        for x in xs:
            if not 0.0 <= x <= _CHAIN_EPS_MAX:
                records.append(SweepRecord(x, math.nan, math.nan, math.nan,
                                           model, n, seed,
                                           note="eps outside [0, 0.25]"))
                continue
            y = steady_state(chain, x).p_ss
            records.append(SweepRecord(x, y, y, y, model, n, seed))
        return records

    if concat:
        t, level = int(concat.group(1)), int(concat.group(2))
        for x in xs:
            try:
                y = concat_baseline(t, level, x)
            except ValueError as err:
                records.append(SweepRecord(x, math.nan, math.nan, math.nan,
                                           model, level, seed, note=str(err)))
                continue
            records.append(SweepRecord(x, y, y, y, model, level, seed))
        return records

    if model in ("hypercube_mc", "vn_mc"):
        todo = []
        for i, x in enumerate(xs):
            if not 0.0 < x < 0.5:
                records.append(SweepRecord(x, math.nan, math.nan, math.nan,
                                           model, _MC_LEVEL, seed,
                                           note="eps outside (0, 0.5)"))
            else:
                todo.append((model, _MC_LEVEL, False, x, seed, i, min_flips,
                             max_phases))
        records.extend(run_parallel(mc_point, todo, workers))
        records.sort(key=lambda r: r.x)
        return records

    raise ValueError(f"unknown model {model!r}")
