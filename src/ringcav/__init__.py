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

# each module's __all__ is its public interface; all are republished
# but that of quadrature, which no production code calls
from . import constants, errors, model, spectra, stability, steady, sweep
from .constants import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .spectra import *  # noqa: F403
from .stability import *  # noqa: F403
from .steady import *  # noqa: F403
from .sweep import *  # noqa: F403

__version__ = "0.1.0"

# the command line loads on first use: ``python -m ringcav.cli`` then
# runs the module once, as __main__, without a copy imported before it
_CLI_NAMES = ("RunConfig", "parse_config", "serialize_config", "main")


def __getattr__(name):
    if name == "cli" or name in _CLI_NAMES:
        import importlib
        cli = importlib.import_module(".cli", __name__)
        globals().update((n, getattr(cli, n)) for n in _CLI_NAMES)
        return cli if name == "cli" else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for module in (constants, errors, model, steady, stability,
                               spectra, sweep)
           for name in module.__all__] + [*_CLI_NAMES, "__version__"]
