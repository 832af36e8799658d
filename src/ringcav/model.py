"""Physical parameters of the driven ring cavity and derived quantities.

The system is an optical ring resonator in which two of the mirrors can
oscillate, pumped by a laser through the input coupler and fed with
broadband squeezed vacuum.  ``PhysicalParams`` collects everything a user
can choose; ``derive_params`` turns it into the quantities the dynamics
actually depend on (optomechanical coupling, drive amplitude, squeezed
bath moments, ...).

Units are SI throughout: lengths in metres, rates and angular frequencies
in rad/s, masses in kg, temperatures in kelvin, powers in watts.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace

from .constants import C_LIGHT, HBAR, KB
from .errors import InvalidParameter

__all__ = [
    "Geometry",
    "PhysicalParams",
    "DerivedParams",
    "validate",
    "derive_params",
    "baseline_params",
]


class Geometry(enum.Enum):
    """Which pair of mirror coordinates couples to the light.

    In the three-mirror ring the field couples to the *relative*
    displacement of the two movable mirrors, in the four-mirror ring to
    the *total* displacement.  Both lead to the same equations up to a
    relabelling of centre-of-mass and relative coordinates, so every
    number computed by this package is identical for the two settings;
    only the interpretation of the mechanical quadratures swaps.
    """

    THREE_MIRROR_RELATIVE = "3ring"
    FOUR_MIRROR_TOTAL = "4ring"


@dataclass(frozen=True)
class PhysicalParams:
    """User-chosen parameters of the cavity and its drives.

    Attributes
    ----------
    wavelength:
        Drive laser wavelength (m).
    cavity_length:
        Round-trip defining length of the ring (m).
    mirror_mass:
        Mass of each movable mirror (kg).
    cavity_decay:
        Amplitude decay rate of the cavity field, kappa (rad/s).
    mech_freq:
        Mechanical resonance frequency of each movable mirror (rad/s).
    mech_quality:
        Mechanical quality factor; damping is mech_freq / mech_quality.
    fold_angle:
        Folding angle theta of the ring at the movable mirrors (rad).
        Radiation pressure enters through chi = cos^2(theta / 2).
    bath_temp:
        Temperature of the mechanical bath (K); zero is allowed.
    laser_power:
        Input laser power (W); zero is allowed.
    squeeze_r:
        Squeezing parameter r of the injected broadband squeezed vacuum.
    squeeze_phase:
        Phase of the squeezing correlation (rad).
    geometry:
        Mirror arrangement; see Geometry.
    """

    wavelength: float
    cavity_length: float
    mirror_mass: float
    cavity_decay: float
    mech_freq: float
    mech_quality: float
    fold_angle: float
    bath_temp: float
    laser_power: float
    squeeze_r: float
    squeeze_phase: float = 0.0
    geometry: Geometry = Geometry.THREE_MIRROR_RELATIVE


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from PhysicalParams that the dynamics use.

    Attributes
    ----------
    omega_laser:
        Laser angular frequency 2 pi c / wavelength (rad/s).  The cavity
        is assumed driven near resonance, so this also stands in for the
        cavity frequency wherever only their ratio-free product matters.
    gamma_m:
        Mechanical damping rate (rad/s).
    chi:
        Geometric factor cos^2(fold_angle / 2).
    coupling_g:
        Single-photon optomechanical coupling
        (omega_laser / cavity_length) * sqrt(hbar / (m * omega_m)) (rad/s).
    drive_eps:
        Classical drive amplitude sqrt(2 kappa P / (hbar omega_laser)).
    n_squeeze:
        Thermal-like photon number of the squeezed bath, sinh^2 r.
    m_squeeze:
        Two-photon correlation sinh r cosh r exp(i phase).
    thermal_ratio:
        hbar omega_m / (kB T); +inf at T = 0.
    """

    omega_laser: float
    gamma_m: float
    chi: float
    coupling_g: float
    drive_eps: float
    n_squeeze: float
    m_squeeze: complex
    thermal_ratio: float


def validate(p: PhysicalParams) -> list[InvalidParameter]:
    """Return the list of constraint violations in p (empty if valid)."""
    out: list[InvalidParameter] = []

    def positive(field: str) -> None:
        v = getattr(p, field)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
            out.append(InvalidParameter(field, v, "> 0 and finite"))

    def nonnegative(field: str) -> None:
        v = getattr(p, field)
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0):
            out.append(InvalidParameter(field, v, ">= 0 and finite"))

    for f in ("wavelength", "cavity_length", "mirror_mass", "cavity_decay",
              "mech_freq", "mech_quality"):
        positive(f)
    for f in ("bath_temp", "laser_power", "squeeze_r"):
        nonnegative(f)
    if not (isinstance(p.fold_angle, (int, float))
            and 0.0 <= p.fold_angle <= math.pi):
        out.append(InvalidParameter("fold_angle", p.fold_angle,
                                    "in [0, pi]"))
    if not (isinstance(p.squeeze_phase, (int, float))
            and math.isfinite(p.squeeze_phase)):
        out.append(InvalidParameter("squeeze_phase", p.squeeze_phase,
                                    "finite"))
    if not isinstance(p.geometry, Geometry):
        out.append(InvalidParameter("geometry", p.geometry,
                                    "a Geometry member"))
    return out


def derive_params(p: PhysicalParams) -> DerivedParams:
    """Compute the derived quantities for p.

    Raises
    ------
    InvalidParameter
        If p fails validation, the first violation; or if an input is
        so large that a derived quantity is not finite.
    """
    violations = validate(p)
    if violations:
        raise violations[0]

    omega_laser = 2.0 * math.pi * C_LIGHT / p.wavelength
    gamma_m = p.mech_freq / p.mech_quality
    chi = math.cos(0.5 * p.fold_angle) ** 2
    coupling_g = (omega_laser / p.cavity_length) * math.sqrt(
        HBAR / (p.mirror_mass * p.mech_freq))
    drive_eps = math.sqrt(
        2.0 * p.cavity_decay * p.laser_power / (HBAR * omega_laser))
    try:
        sh = math.sinh(p.squeeze_r)
        ch = math.cosh(p.squeeze_r)
    except OverflowError:
        sh = ch = math.inf
    n_squeeze = sh * sh
    m_squeeze = sh * ch * cmath.exp(1j * p.squeeze_phase)
    if p.bath_temp > 0.0:
        thermal_ratio = HBAR * p.mech_freq / (KB * p.bath_temp)
    else:
        thermal_ratio = math.inf
    out = DerivedParams(
        omega_laser=omega_laser,
        gamma_m=gamma_m,
        chi=chi,
        coupling_g=coupling_g,
        drive_eps=drive_eps,
        n_squeeze=n_squeeze,
        m_squeeze=m_squeeze,
        thermal_ratio=thermal_ratio,
    )
    for name, value in vars(out).items():
        # thermal_ratio is +inf at T = 0 by definition
        if not cmath.isfinite(value) and name != "thermal_ratio":
            raise InvalidParameter(name, value,
                                   "finite: an input parameter is too large")
    return out


def baseline_params(**overrides) -> PhysicalParams:
    """The package's default demonstration parameter set.

    A millimetre-scale ring cavity with nanogram mirrors at tens of
    microkelvin, driven by a few milliwatts of 1064 nm light with unit
    squeezing on the input vacuum.  Any field can be overridden by
    keyword, e.g. ``baseline_params(squeeze_r=0.5)``.
    """
    base = PhysicalParams(
        wavelength=1064e-9,
        cavity_length=25e-3,
        mirror_mass=145e-12,
        cavity_decay=2.0 * math.pi * 215e3,
        mech_freq=2.0 * math.pi * 947e3,
        mech_quality=6700.0,
        fold_angle=math.pi / 3.0,
        bath_temp=41.4e-6,
        laser_power=3.8e-3,
        squeeze_r=1.0,
        squeeze_phase=0.0,
        geometry=Geometry.THREE_MIRROR_RELATIVE,
    )
    return replace(base, **overrides) if overrides else base
