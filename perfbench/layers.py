"""Traced run: the public API of each majmux layer, called with the
parameters the workloads' CLI commands use, one span per call (or per
batch of calls, for calls of a few microseconds, where a span per call
would cost as much as the call).

Every metric is read back from the spans' self times, as a median over
repeats.
"""

from __future__ import annotations

import functools
import statistics
import time

from spans import Tracer
from workloads import UNREACHABLE_FLIPS, grid_points, level3_sweep_grid

IDEALIZED_EPS = 0.10     # middle of the workloads' eps grid
COMPONENTWISE_P = 0.06   # the workloads' --p point
# register-phases per cap-terminated call, sized to ~0.1-0.4 s each on a
# 2-vCPU Xeon guest
NETSIM_PHASES = {
    ("hypercube", "idealized"): {2: 96_000, 3: 64_000, 4: 19_200},
    ("hypercube", "componentwise"): {2: 19_200, 3: 16_000, 4: 4_800},
    ("randomized", "idealized"): {2: 38_400, 3: 25_600, 4: 9_600},
    ("randomized", "componentwise"): {2: 12_800, 3: 9_600, 4: 3_200},
}
CASCADE_TRIALS = 4 * 8192


def cold(m) -> None:
    """Drop every memoised chain, as a fresh CLI process starts without them."""
    for obj in vars(m.chains).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def _median_time(tr, name: str, fn, *args, repeat: int, prepare=None,
                 calls: int = 1, **kwargs) -> float:
    """Median seconds per call of ``fn``: ``repeat`` spans of ``calls`` calls."""
    times = []
    for _ in range(repeat):
        if prepare is not None:
            prepare()
        with tr.span(name, calls=calls) as span:
            for _ in range(calls):
                fn(*args, **kwargs)
        times.append(tr.self_time(span) / calls)
    return statistics.median(times)


def measure(m, tr, seed: int) -> dict[str, float]:
    """Per-layer metrics (name -> value in the unit its name states)."""
    out: dict[str, float] = {}
    t = functools.partial(_median_time, tr)

    out["rates.derive_rates_us"] = 1e6 * t(
        "rates.derive_rates", m.derive_rates, 0.02, repeat=5, calls=2000)

    clear = functools.partial(cold, m)
    out["chains.build_level3_s"] = t(
        "chains.build_level3_chain", m.build_level3_chain, repeat=3,
        prepare=clear)
    out["chains.build_level2_ms"] = 1e3 * t(
        "chains.build_level2_chain", m.build_level2_chain, repeat=20,
        prepare=clear)
    l3, l2 = m.build_level3_chain(), m.build_level2_chain()
    for tag, eps in (("eps0.01", 0.01), ("eps0.10", 0.10),
                     ("eps0.149", 0.149)):
        out[f"chains.steady_state_ms.{tag}"] = 1e3 * t(
            "chains.steady_state", m.steady_state, l3, eps, repeat=30)
    out["chains.propagated_bit_error_ms"] = 1e3 * t(
        "chains.propagated_bit_error", m.propagated_bit_error, l3,
        IDEALIZED_EPS, repeat=30)

    out["analysis.correction_threshold_l3_s"] = t(
        "analysis.correction_threshold", m.correction_threshold, l3, repeat=3)
    out["analysis.correction_threshold_l2_s"] = t(
        "analysis.correction_threshold", m.correction_threshold, l2, repeat=3)
    out["analysis.universal_threshold_s"] = t(
        "analysis.universal_threshold", m.universal_threshold, repeat=3)
    grid = grid_points(level3_sweep_grid(25, 55))  # the widest CLI sweep
    out["analysis.sweep_level3_s"] = t(
        "analysis.sweep", m.sweep, "level3", grid, seed=seed, repeat=1)

    for (kind, noise_kind), by_n in NETSIM_PHASES.items():
        for n, max_phases in by_n.items():
            sched = (m.hypercube_schedule(n) if kind == "hypercube"
                     else m.randomized_schedule())
            noise = (m.Idealized(IDEALIZED_EPS) if noise_kind == "idealized"
                     else m.Componentwise.from_p(COMPONENTWISE_P))
            st = tr.call("netsim.estimate_logical_rate",
                         m.estimate_logical_rate, n, sched, noise, seed,
                         min_flips=UNREACHABLE_FLIPS, max_phases=max_phases)
            out[f"netsim.phases_per_s.{kind}.{noise_kind}.n{n}"] = (
                st.phases / tr.self_time(tr.spans[-1]))

    out["encoding.cascade_trials_per_s"] = CASCADE_TRIALS / t(
        "encoding.cascade_mc", m.cascade_mc, 0.02, seed=seed,
        trials=CASCADE_TRIALS, workers=1, repeat=1)
    out["encoding.pfail_bound_us"] = 1e6 * t(
        "encoding.pfail_bound", m.pfail_bound, 0.02, repeat=5, calls=500)
    out["encoding.p_crit_ms"] = 1e3 * t(
        "encoding.p_crit", m.p_crit, repeat=10)
    return out


def replay(m, tr, cmd, seed: int) -> dict:
    """Replay one CLI command in-process from a cold chain cache, like a
    fresh CLI process: a root span with one child span per public call."""
    cold(m)
    with tr.span("cli " + " ".join(cmd.argv(seed))) as root:
        cmd.replay(m, tr, seed)
    return root


def span_cost(run_id: str, calls: int = 20_000, repeat: int = 5) -> float:
    """Seconds one span adds to a call: no-op calls timed through the tracer
    and called directly, alternately, median difference."""
    diffs = []
    for _ in range(repeat):
        tr = Tracer(run_id)
        t0 = time.perf_counter()
        for _ in range(calls):
            tr.call("noop", int)
        t1 = time.perf_counter()
        for _ in range(calls):
            int()
        t2 = time.perf_counter()
        diffs.append((t1 - t0 - (t2 - t1)) / calls)
    return statistics.median(diffs)
