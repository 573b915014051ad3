"""Reliability laboratory for noisy majority-vote computation.

Simulates repetition-code error correction built from noisy 3-bit
majority gates (deterministic hypercube wiring or randomized
multiplexing), and computes logical error rates, correction and
computation thresholds, and encoding failure bounds from exact
jump-process models of the propagated errors.

``import majmux`` loads no submodule: a public name is imported from its
module on first use (PEP 562), so a command loads only the layers it runs,
and numpy only through ``majmux.netsim``, which pins OpenBLAS to one thread.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_HOME = {name: module for module, names in (
    ("rates", "EPSILON_PER_P EncodeBound PhysicalNoise SweepRecord "
     "derive_rates epsilon_of_p jvn_stable_eta p_crit pfail_bound "
     "single_triple_map"),
    ("chains", "ErrorChain build_level2_chain build_level3_chain "
     "pattern_class propagated_bit_error serialize_chain steady_state"),
    ("netsim", "Componentwise Idealized TrialStats cascade_mc "
     "estimate_logical_rate estimate_logical_rates hypercube_schedule "
     "randomized_schedule wilson_interval"),
    ("analysis", "concat_baseline correction_threshold feedback_constants "
     "p_target sweep universal_threshold"),
) for name in names.split()}
_MODULES = ("analysis", "chains", "cli", "netsim", "rates")

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import a public name, or a submodule, the first time it is read."""
    if name not in _HOME and name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    value = getattr(module, name) if name in _HOME else module
    globals()[name] = value  # later reads do not come back here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
