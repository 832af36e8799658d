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
from .spectra import (EntanglementResult, QuadratureConfig,
                      entanglement_result, momentum_variance,
                      q_plus_variance)
from .stability import (StabilityVerdict, drift_matrix, eigenvalues,
                        routh_hurwitz_stable, stability_verdict)
from .steady import (SteadyState, find_steady_branches,
                     steady_state_at_detuning)
from .sweep import (MinimizeResult, SweepAxis, SweepRow, SweepSpec,
                    minimize_over_detuning, run_sweep)

__version__ = "0.1.0"

# the command line loads on first use: ``python -m ringcav.cli`` then
# runs the module once, as __main__, without a copy imported before it
_CLI_NAMES = ("RunConfig", "main", "parse_config", "serialize_config")


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        import importlib
        cli = importlib.import_module(".cli", __name__)
        globals().update((n, getattr(cli, n)) for n in _CLI_NAMES)
        return cli if name == "cli" else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "QuadratureConfig", "EntanglementResult",
    "momentum_variance", "q_plus_variance", "entanglement_result",
    "SweepAxis", "SweepSpec", "SweepRow", "MinimizeResult", "run_sweep",
    "minimize_over_detuning",
    "RunConfig", "parse_config", "serialize_config", "main",
    "__version__",
]
