"""LMI certificates and observer-based state recovery for boundary-observed
semilinear wave equations on the unit hypercube.

The package certifies exponential decay and exact observability of the
boundary-damped error dynamics by checking small symmetric matrix
inequalities, searches tuning parameters (minimal observation time, regional
radius), and validates certificates in simulation with an iterative
forward/backward boundary observer.
"""

from .certificates import (Certificate, CertificateError, DecisionVars,
                           ProblemParams, certificate_from_dict,
                           certificate_to_dict, check_observability,
                           check_stability, compute_alpha_beta,
                           compute_iss_gain, compute_regional_radius,
                           make_certificate)
from .observer import (ContractionReport, IssReport, IterationRecord,
                       RecoveryConfig, RecoveryRun, contraction_report,
                       perturbed_recover, recover, run_to_dict, run_to_json)
from .pde import (ZERO_F, BoundaryTrace, DivergenceError, Grid, Nonlinearity,
                  WaveField, boundary_node_count, energy, hnorm, lyapunov,
                  make_grid, read_trajectory_csv, run, snapshot_csv,
                  sobolev_check, step, trace_check, trajectory_csv,
                  wirtinger_check)
from .search import (Infeasible, SearchConfig, SweepResult, SweepRow,
                     chi_min_stability, delta_margin, find_feasible_vars,
                     maximize_regional_radius, minimal_observability_time,
                     sweep)
from .smallmat import SymMatrix, eigenvalues

__version__ = "0.1.0"
