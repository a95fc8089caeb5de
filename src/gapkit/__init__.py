"""gapkit: numerical toolkit for spectral-gap characteristics of discrete
real point sequences.

Main entry points:

- seqcore: PointSequence, Interval, Partition, AtomicMeasure, generate
- energy: total_energy, energy_condition_report, log_kernel_integral
- partitions: shortness, greedy_density_partition
- density: density_estimate, density_lower, density_upper_d4, bm_density
- regularize: spread_points, regularize_gaps
- fekete: fekete_optimize, jacobi_zeros, key_example_check
- gapnum: gram_matrix, sigma_min_sweep, synthesize_gap_measure,
  estimate_gap_characteristic, with_gram_sweep
- clarknum: residue_weights, theta_derivative_profile
"""

from .seqcore import (AtomicMeasure, Interval, ParameterError, Partition,
                      PointSequence, fourier_eval, generate)
from .energy import (energy_condition_report, interval_energy,
                     log_kernel_integral, total_energy)
from .partitions import (greedy_density_partition, is_valid_paper_partition,
                         shortness)
from .density import bm_density, density_estimate, density_lower, density_upper_d4
from .regularize import regularize_gaps, spread_points
from .fekete import fekete_optimize, jacobi_zeros, key_example_check
from .gapnum import (estimate_gap_characteristic, gram_matrix, sigma_min_sweep,
                     synthesize_gap_measure, with_gram_sweep)
from .clarknum import residue_weights, theta_derivative_profile

__version__ = "0.1.0"

__all__ = [
    "AtomicMeasure", "Interval", "ParameterError", "Partition",
    "PointSequence", "fourier_eval", "generate",
    "energy_condition_report", "interval_energy", "log_kernel_integral",
    "total_energy",
    "greedy_density_partition", "is_valid_paper_partition", "shortness",
    "bm_density", "density_estimate", "density_lower", "density_upper_d4",
    "regularize_gaps", "spread_points",
    "fekete_optimize", "jacobi_zeros", "key_example_check",
    "estimate_gap_characteristic", "gram_matrix", "sigma_min_sweep",
    "synthesize_gap_measure", "with_gram_sweep",
    "residue_weights", "theta_derivative_profile",
]
