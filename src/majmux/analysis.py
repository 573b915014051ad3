"""Threshold finders, parameter sweeps, and concatenation baselines.

Everything here is a thin consumer of the analytic chains and the derived
rates: bisection roots of the self-consistency conditions (storage and
computation thresholds), the power-law baselines for conventional code
concatenation, the measurement and feedback error constants, a grid
sweep that turns an analytic model into plot-ready records, and the Monte
Carlo point function behind ``simulate`` and ``compare-vn``.  ``MODELS``
is the one table of the CLI's model tags.  The fan-out encoder's bound
needs no chain and lives in ``rates``.  ``chains`` is imported only by
the functions that build or solve a chain, so a Monte Carlo run never
loads it, and nothing here uses numpy, so an analytic run never loads
that.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .rates import SweepRecord, bisect, derive_rates, linspace

if TYPE_CHECKING:
    from .chains import ErrorChain

_CHAIN_EPS_MAX = 0.25  # self-consistency scan range for the analytic chains

MEASUREMENT_SLOPE = 32.0 / 63.0

# every model tag, as (kind, level, detail): an analytic "chain" of code
# level n and its builder's name in ``chains``, the "concat" baseline of L
# levels and its t, or a Monte Carlo ("mc") register wiring, whose level
# the run picks
MODELS = {
    "level2": ("chain", 2, "build_level2_chain"),
    "level3": ("chain", 3, "build_level3_chain"),
    **{f"concat({t},{level})": ("concat", level, t)
       for t in (6, 7) for level in (2, 3, 4)},
    "hypercube_mc": ("mc", None, "hypercube"),
    "vn_mc": ("mc", None, "randomized"),
}


def model_tags(kind: str) -> list[str]:
    """The MODELS tags of one kind, in table order."""
    return [tag for tag, row in MODELS.items() if row[0] == kind]


def chain_of(model: str) -> ErrorChain:
    """The analytic chain of a ``"chain"`` tag of MODELS."""
    from . import chains
    return getattr(chains, MODELS[model][2])()


def correction_threshold(chain: ErrorChain) -> float:
    """Largest eps below which the corrector suppresses its own noise.

    Scans p_ss(eps) - eps down a 250-point grid over (0, 0.25) from the
    top, brackets the highest sign change from below to above, and
    bisects it to 1e-6.  Below the returned point the per-phase logical
    failure rate is smaller than the per-gate rate feeding it, so adding
    the corrector is a net win.

    Raises:
        RuntimeError: if p_ss(eps) - eps never changes sign in range.
    """
    from .chains import steady_state
    g = lambda e: steady_state(chain, e).p_ss - e
    grid = linspace(1e-3, _CHAIN_EPS_MAX - 1e-4, 250)
    above = g(grid[-1])
    for a, b in zip(grid[-2::-1], grid[::-1]):
        below = g(a)
        if below < 0.0 <= above:
            return bisect(g, a, b)
        above = below
    raise RuntimeError("no crossing of p_ss(eps) = eps in (0, 0.25)")


def p_target(p: float) -> float:
    """Per-output error of one fault-tolerant computation step at rate p.

    A computation step votes three corrected registers into one: the two
    register inputs each arrive wrong with p_in = eps' + (1 - eps') eta,
    where eta is the stationary erroneous-bit fraction of the 81-bit
    corrector, and the vote itself contributes one gate and one wire.
    """
    from .chains import build_level3_chain, propagated_bit_error
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
    p_star = bisect(lambda p: p_target(p) - 0.5, 1e-6, 0.2)
    return p_star, derive_rates(p_star)[1].epsilon


def concat_baseline(t: int, level: int, epsilon: float) -> float:
    """Failure rate t**(2**L - 1) * eps**(2**L) of conventional concatenation.

    t is the inverse-threshold constant (6 or 7) and L the number of
    concatenation levels (2, 3, or 4); the law holds up to the threshold,
    eps in [0, 1/t], or ValueError.  Serves as the yardstick the hypercube
    corrector is compared against.
    """
    if t not in (6, 7):
        raise ValueError(f"t must be 6 or 7, got {t}")
    if level not in (2, 3, 4):
        raise ValueError(f"level must be 2, 3, or 4, got {level}")
    if not 0.0 <= epsilon <= 1.0 / t:
        raise ValueError(f"epsilon={epsilon} outside [0, 1/{t}]")
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


def mc_point(model: str, level: int, use_p: bool, points, seed: int,
             min_flips: int, max_phases: int) -> list[SweepRecord]:
    """Simulated logical rates of grid points, as records, in order.

    Runs the 3^(level+1)-bit register wired by ``model`` (an ``"mc"`` tag
    of ``MODELS``) at each (x, index) of ``points``: with Idealized(x)
    gates, or Componentwise gates at physical rate x when ``use_p`` is
    set, each seeded by ``substream(seed, index)``.  The points run as
    stacks (``netsim.estimate_logical_rates``), and each record is the
    one-point ``estimate_logical_rate`` with that seed.  A gate error x
    outside (0, 0.5) gives a NaN record with a note.  An empty run
    budget, then an unknown tag, then a gate error outside [0, 1] or a
    physical rate outside its domain raises ValueError.  It alone loads
    ``netsim``, which no analytic run needs.
    """
    from .netsim import (Componentwise, Idealized, check_budget,
                         estimate_logical_rates, substream)
    check_budget(level, min_flips, max_phases)
    if model not in model_tags("mc"):
        raise ValueError(f"unknown Monte Carlo model {model!r}; use "
                         + "|".join(model_tags("mc")))
    runs = {}  # position in points -> (noise, seed) of each point that runs
    for k, (x, index) in enumerate(points):
        noise = Componentwise.from_p(x) if use_p else Idealized(x)
        if use_p or 0.0 < x < 0.5:
            runs[k] = (noise, substream(seed, index))
    stats = dict(zip(runs, estimate_logical_rates(
        level, MODELS[model][2], runs.values(), min_flips=min_flips,
        max_phases=max_phases)))
    return [SweepRecord(x, stats[k].p_hat, *stats[k].ci95, model, level, seed)
            if k in stats else
            SweepRecord(x, math.nan, math.nan, math.nan, model, level, seed,
                        note="eps outside (0, 0.5)")
            for k, (x, _) in enumerate(points)]


def sweep(model: str, grid: Sequence[float], *,
          seed: int = 0) -> list[SweepRecord]:
    """Evaluate an analytic model over a strictly increasing grid.

    ``model`` is a ``"chain"`` tag of ``MODELS``, ``level2`` or ``level3``
    (stationary logical rate of the analytic chain, eps in [0, 0.25], one
    solve per point), or a ``"concat"`` tag, ``concat(t,L)``
    for t in 6, 7 and L in 2, 3, 4 (the concatenation baseline, eps in
    [0, 1/t]).  Off-domain points come back as NaN records with an
    explanatory note; ``seed`` is carried only for provenance.  A grid
    that is not strictly increasing or any other tag raises ValueError.
    Monte Carlo grids (the ``"mc"`` tags) are ``mc_point`` runs,
    ``majmux simulate --level 3`` on the command line.
    """
    xs = list(grid)
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("grid must be strictly increasing")
    analytic = model_tags("chain") + model_tags("concat")
    if model not in analytic:
        raise ValueError(f"unknown analytic model {model!r}; use "
                         + "|".join(analytic) + ", or simulate --level 3 "
                         "for a Monte Carlo grid")
    kind, n, t = MODELS[model]
    hi, edge = ((_CHAIN_EPS_MAX, f"{_CHAIN_EPS_MAX:g}") if kind == "chain"
                else (1.0 / t, f"1/{t}"))
    if kind == "chain":
        from .chains import steady_state
        chain = chain_of(model)
    records = []
    for x in xs:
        if 0.0 <= x <= hi:
            y = (steady_state(chain, x).p_ss if kind == "chain"
                 else concat_baseline(t, n, x))
            records.append(SweepRecord(x, y, y, y, model, n, seed))
        else:
            records.append(SweepRecord(x, math.nan, math.nan, math.nan,
                                       model, n, seed,
                                       note=f"eps outside [0, {edge}]"))
    return records
