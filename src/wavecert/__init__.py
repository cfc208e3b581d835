"""LMI certificates and observer-based state recovery for boundary-observed
semilinear wave equations on the unit hypercube.

The package certifies exponential decay and exact observability of the
boundary-damped error dynamics by checking small symmetric matrix
inequalities, searches tuning parameters (minimal observation time, regional
radius), and validates certificates in simulation with an iterative
forward/backward boundary observer.

`import wavecert` runs `certificates` and `smallmat` at once, both pure
Python.  `search` and the simulation layer, `pde` and `observer`, which
import numpy, are registered in sys.modules and bound here from the start,
but each body runs on the first attribute access: checking a certificate
loads no numpy, and the certificate searches never compile the simulation
layer.  The names re-exported from those three modules resolve through
the module `__getattr__` below, each to the module's own object.
"""

import importlib.util as _importlib_util
import sys as _sys

from . import certificates, smallmat
from .certificates import (Certificate, CertificateError, DecisionVars,
                           Infeasible, ProblemParams, certificate_from_dict,
                           certificate_to_dict, check_observability,
                           check_stability, compute_alpha_beta,
                           compute_iss_gain, compute_regional_radius,
                           make_certificate)

__version__ = "0.1.0"


def _lazy_submodule(name):
    """wavecert.<name>, in sys.modules, with its body deferred to first use."""
    spec = _importlib_util.find_spec("%s.%s" % (__name__, name))
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


search = _lazy_submodule("search")
pde = _lazy_submodule("pde")
observer = _lazy_submodule("observer")

# re-exported name -> the lazily loaded module that defines it
_LAZY_NAMES = {
    **dict.fromkeys(
        ("SweepResult", "SweepRow", "chi_min_stability", "delta_margin",
         "find_feasible_vars", "maximize_regional_radius",
         "minimal_observability_time", "sweep"), "search"),
    **dict.fromkeys(
        ("ZERO_F", "BoundaryTrace", "DivergenceError", "Grid", "Nonlinearity",
         "WaveField", "boundary_node_count", "energy", "hnorm", "lyapunov",
         "make_grid", "read_trajectory_csv", "run", "sobolev_check", "step",
         "trace_check", "trace_sq_integral", "trajectory_csv",
         "wirtinger_check", "zero_trace"), "pde"),
    **dict.fromkeys(
        ("ContractionReport", "IssReport", "IterationRecord", "RecoveryConfig",
         "RecoveryRun", "contraction_report", "perturbed_recover", "recover",
         "run_to_json"), "observer"),
}

__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + list(_LAZY_NAMES))


def __getattr__(name):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_NAMES))
