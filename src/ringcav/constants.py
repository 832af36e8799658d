"""Physical constants (SI, CODATA 2018)."""

__all__ = ["C_LIGHT", "HBAR", "KB"]

HBAR = 1.054571817e-34  # reduced Planck constant, J s
KB = 1.380649e-23  # Boltzmann constant, J/K
C_LIGHT = 299792458.0  # speed of light, m/s
