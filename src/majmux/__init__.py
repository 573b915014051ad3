"""Reliability laboratory for noisy majority-vote computation.

Simulates repetition-code error correction built from noisy 3-bit
majority gates (deterministic hypercube wiring or randomized
multiplexing), and computes logical error rates, correction and
computation thresholds, and encoding failure bounds from exact
jump-process models of the propagated errors.

Every computation here runs on one thread per process, so unless the
caller has set ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``, or has imported numpy already, numpy is first
imported with OpenBLAS pinned to one thread, and ``os.environ`` is then
restored as it was: child processes that the caller starts are left alone.
"""

import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ
                                           for v in _THREAD_VARS):
    # OpenBLAS sizes its thread pool once, when numpy loads it
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .analysis import (EncodeBound, SweepRecord, concat_baseline,
                       correction_threshold, feedback_constants, p_crit,
                       p_target, pfail_bound, sweep, universal_threshold)
from .chains import (LEVEL2_LABELS, LEVEL3_LABELS, ErrorChain, SteadyState,
                     build_level2_chain, build_level3_chain, pattern_class,
                     propagated_bit_error, serialize_chain, steady_state)
from .netsim import (Componentwise, GateNoise, Idealized, TrialStats,
                     cascade_mc, estimate_logical_rate, hypercube_schedule,
                     randomized_schedule, wilson_interval)
from .rates import (EPSILON_PER_P, EncodingRates, Maj3Rates, PhysicalNoise,
                    derive_rates, epsilon_of_p, jvn_stable_eta,
                    single_triple_map)

__version__ = "0.1.0"

__all__ = [
    "Componentwise", "GateNoise", "Idealized", "TrialStats",
    "ErrorChain", "SteadyState", "EncodeBound",
    "SweepRecord", "EncodingRates", "Maj3Rates", "PhysicalNoise",
    "EPSILON_PER_P", "LEVEL2_LABELS", "LEVEL3_LABELS",
    "build_level2_chain", "build_level3_chain",
    "cascade_mc", "concat_baseline", "correction_threshold", "derive_rates",
    "epsilon_of_p", "estimate_logical_rate", "feedback_constants",
    "hypercube_schedule", "jvn_stable_eta", "p_crit", "p_target",
    "pattern_class", "pfail_bound", "propagated_bit_error",
    "randomized_schedule", "serialize_chain",
    "single_triple_map", "steady_state", "sweep", "universal_threshold",
    "wilson_interval",
]
