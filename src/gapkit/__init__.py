"""gapkit: numerical toolkit for spectral-gap characteristics of discrete
real point sequences.

The main entry points are the names in `__all__`, listed with their modules
in `_EXPORTS`. Importing the package loads none of the modules: each name is
imported from its module on first use (PEP 562), so `gapkit gen` loads
seqcore alone.
"""

import importlib

__version__ = "0.1.0"

# name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["AtomicMeasure", "ParameterError", "Partition", "PointSequence",
                     "fourier_eval", "generate"], "seqcore"),
    **dict.fromkeys(["energy_condition_report", "total_energy"], "energy"),
    **dict.fromkeys(["greedy_density_partition", "is_valid_paper_partition",
                     "shortness"], "partitions"),
    **dict.fromkeys(["bm_density", "density_estimate", "density_lower"], "density"),
    **dict.fromkeys(["regularize_gaps", "spread_points"], "regularize"),
    **dict.fromkeys(["fekete_optimize", "jacobi_zeros"], "fekete"),
    **dict.fromkeys(["estimate_gap_characteristic", "gram_matrix", "sigma_min_sweep",
                     "synthesize_gap_measure", "with_gram_crossing"], "gapnum"),
    **dict.fromkeys(["residue_weights", "theta_derivative_profile"], "clarknum"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
