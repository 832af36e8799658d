"""Exception hierarchy.

Everything raised by this package derives from RingCavError, so callers
can catch one base type.  Configuration problems (bad files, bad values)
are kept separate from numerical problems (divergent integrals, unstable
operating points) because the command line maps them to different exit
codes.
"""

from __future__ import annotations

__all__ = ["RingCavError", "InvalidParameter", "ConfigError", "ParseError",
           "UnknownKey", "ValidationError", "NumericalFailure",
           "UnstableOperatingPoint", "NoStablePoint", "InternalInconsistency"]


class RingCavError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(RingCavError):
    """A physical parameter is outside its admissible range."""

    def __init__(self, field: str, value, bound: str):
        self.field = field
        self.value = value
        self.bound = bound
        super().__init__(f"{field} = {value!r} violates {bound}")


class ConfigError(RingCavError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """The config text is not well formed."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class UnknownKey(ConfigError):
    """A config key or section is not recognised (typos are not ignored)."""

    def __init__(self, key: str, where: str = ""):
        self.key = key
        loc = f" in {where}" if where else ""
        super().__init__(f"unknown key {key!r}{loc}")


class ValidationError(ConfigError):
    """A config value parsed fine but violates a constraint."""

    def __init__(self, field: str, bound: str):
        self.field = field
        self.bound = bound
        super().__init__(f"{field}: {bound}")


class NumericalFailure(RingCavError):
    """A numerical routine could not reach its accuracy target."""


class UnstableOperatingPoint(RingCavError):
    """Spectra were requested at a point where the linearised dynamics diverge.

    ``margin`` is the stability margin of the point (rad/s), minus the
    largest eigenvalue real part of the drift matrix: zero or negative.
    """

    def __init__(self, message: str, margin: float):
        self.margin = margin
        super().__init__(message)


class NoStablePoint(RingCavError):
    """An optimisation window contains no stable operating point at all."""


class InternalInconsistency(RingCavError):
    """Two independent routes to the same answer disagree; indicates a bug."""
