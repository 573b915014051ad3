"""Reliability laboratory for noisy majority-vote computation.

Simulates repetition-code error correction built from noisy 3-bit
majority gates (deterministic hypercube wiring or randomized
multiplexing), and computes logical error rates, correction and
computation thresholds, and encoding failure bounds from exact
jump-process models of the propagated errors.
"""

from .analysis import (SweepRecord, concat_baseline, correction_threshold,
                       feedback_constants, p_target, sweep,
                       universal_threshold)
from .chains import (LEVEL2_LABELS, LEVEL3_LABELS, ErrorChain, SteadyState,
                     build_level2_chain, build_level3_chain, pattern_class,
                     propagated_bit_error, serialize_chain, steady_state)
from .encoding import EncodeBound, cascade_mc, p_crit, pfail_bound
from .netsim import (Componentwise, GateNoise, Idealized, Schedule,
                     TrialStats, apply_maj3, estimate_logical_rate,
                     hypercube_schedule, randomized_schedule,
                     wilson_interval)
from .rates import (EPSILON_PER_P, EPSILON_PER_P_ALT, EncodingRates,
                    Maj3Rates, PhysicalNoise, derive_rates, epsilon_of_p,
                    jvn_stable_eta, single_triple_map)

__version__ = "0.1.0"

__all__ = [
    "Componentwise", "GateNoise", "Idealized", "Schedule", "TrialStats",
    "ErrorChain", "SteadyState", "EncodeBound",
    "SweepRecord", "EncodingRates", "Maj3Rates", "PhysicalNoise",
    "EPSILON_PER_P", "EPSILON_PER_P_ALT", "LEVEL2_LABELS", "LEVEL3_LABELS",
    "apply_maj3", "build_level2_chain", "build_level3_chain",
    "cascade_mc", "concat_baseline", "correction_threshold", "derive_rates",
    "epsilon_of_p", "estimate_logical_rate", "feedback_constants",
    "hypercube_schedule", "jvn_stable_eta", "p_crit", "p_target",
    "pattern_class", "pfail_bound", "propagated_bit_error",
    "randomized_schedule", "serialize_chain",
    "single_triple_map", "steady_state", "sweep", "universal_threshold",
    "wilson_interval",
]
