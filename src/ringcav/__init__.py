"""Mirror-mirror entanglement in a laser-driven ring cavity.

Two movable mirrors of an optical ring resonator couple to the
circulating field through radiation pressure.  Driving the cavity with
a laser and feeding its input with squeezed vacuum transfers the
optical two-photon correlations onto the mirrors; this package computes
the classical steady states, their stability, the quantum-noise spectra
of the mechanical quadratures and the resulting continuous-variable
entanglement criteria, and exposes the same machinery on the command
line (``ringcav --help``).
"""

from .constants import C_LIGHT, HBAR, KB
from .errors import (ConfigError, InternalInconsistency, InvalidParameter,
                     NoStablePoint, NumericalFailure, ParseError,
                     RingCavError, UnknownKey, UnstableOperatingPoint,
                     ValidationError)
from .model import (DerivedParams, Geometry, PhysicalParams,
                    baseline_params, derive_params, validate)
from .quadrature import QuadResult, integrate_adaptive
from .spectra import (EntanglementResult, IntegrandTerms, QuadratureConfig,
                      d_of_omega, entanglement_result, integrand_terms,
                      momentum_variance, q_plus_variance)
from .stability import (StabilityVerdict, drift_matrix, eigenvalues,
                        routh_hurwitz_stable, stability_verdict)
from .steady import (SteadyState, find_steady_branches,
                     steady_state_at_detuning)
from .sweep import (MinimizeResult, SweepAxis, SweepRow, SweepSpec,
                    minimize_over_detuning, run_sweep)
from .cli import RunConfig, main, parse_config, serialize_config

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT", "HBAR", "KB",
    "RingCavError", "InvalidParameter", "ConfigError", "ParseError",
    "UnknownKey", "ValidationError", "NumericalFailure",
    "UnstableOperatingPoint", "NoStablePoint", "InternalInconsistency",
    "Geometry", "PhysicalParams", "DerivedParams", "validate",
    "derive_params", "baseline_params",
    "SteadyState", "steady_state_at_detuning", "find_steady_branches",
    "StabilityVerdict", "drift_matrix", "eigenvalues",
    "routh_hurwitz_stable", "stability_verdict",
    "QuadResult", "integrate_adaptive",
    "QuadratureConfig", "IntegrandTerms", "EntanglementResult",
    "d_of_omega", "integrand_terms", "momentum_variance",
    "q_plus_variance", "entanglement_result",
    "SweepAxis", "SweepSpec", "SweepRow", "MinimizeResult", "run_sweep",
    "minimize_over_detuning",
    "RunConfig", "parse_config", "serialize_config", "main",
    "__version__",
]
