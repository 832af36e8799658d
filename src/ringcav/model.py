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
import sys
from dataclasses import dataclass, replace

import numpy as np

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


def _check(field: str, value, bound: str, ok) -> None:
    """Raise InvalidParameter unless the real field is an int or a float
    (a float32 would carry its precision on) and not a bool, in the
    double range (every bound is finite), for which ok holds."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameter(field, value, "an int or float")
    if not (abs(value) <= sys.float_info.max and ok(value)):
        raise InvalidParameter(field, value, bound)


# (field, bound, test) for each real field of PhysicalParams; a test
# runs on a float or, for a swept field, elementwise on a column
_REAL_FIELDS = (
    *((f, "> 0 and finite", lambda v: (v > 0) & (v < math.inf))
      for f in ("wavelength", "cavity_length", "mirror_mass", "cavity_decay",
                "mech_freq", "mech_quality")),
    *((f, ">= 0 and finite", lambda v: (v >= 0) & (v < math.inf))
      for f in ("bath_temp", "laser_power", "squeeze_r")),
    ("fold_angle", "in [0, pi]", lambda v: (v >= 0.0) & (v <= math.pi)),
    ("squeeze_phase", "finite", lambda v: abs(v) < math.inf),
)


def validate(p: PhysicalParams) -> list[InvalidParameter]:
    """Return the list of constraint violations in p (empty if valid)."""
    out = []
    for f, bound, ok in _REAL_FIELDS:
        try:
            _check(f, getattr(p, f), bound, ok)
        except InvalidParameter as err:
            out.append(err)
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
        so large that a derived quantity is not finite, or so far out
        that a denominator underflows to zero.
    """
    violations = validate(p)
    if violations:
        raise violations[0]
    return _derive(p)[0]


_RANGE = "the double range: a rate derived from it underflows or overflows"
_TOO_LARGE = "finite: an input parameter is too large"
# the domain band, measured (README, "Input domain"): rates that the
# eigenvalues resolve, with finite products, and finite criteria; (lo,
# hi, bound) for omega_m, kappa, Q, g and T in turn
_BAND = tuple((lo, hi, f"the domain band {lo:g} <= {label} <= {hi:g}")
              for label, lo, hi in (("omega_m in rad/s", 1e-20, 1e20),
                                    ("kappa / omega_m", 1e-6, 1e6),
                                    ("1 / Q", 1e-12, 1e4),
                                    ("g / omega_m", 0, 1e6),
                                    ("kB T / hbar omega_m", 0, 1e150)))


def _derive(p: PhysicalParams) -> tuple[DerivedParams, np.ndarray | bool]:
    """derive_params' arithmetic and checks on a valid p whose fields are
    floats, or one of bath_temp, laser_power and squeeze_r a column of
    them (an array).  The same operations run on a float and on a column,
    a math function of the swept field per entry (_each), so that each
    entry gets the bits of its row alone.  Returns the DerivedParams and
    the rows that pass every check that is a column (True if none is); a
    check that is not raises InvalidParameter where it fails."""
    omega_laser = 2.0 * math.pi * C_LIGHT / p.wavelength
    kt = KB * p.bath_temp
    thermal_ratio = _each(_ratio, kt, HBAR * p.mech_freq)
    # a denominator that underflows to 0 (or kB T / hbar that overflows)
    # would divide by zero here or in the spectra
    rate = kt / HBAR
    rows = True
    for name, ok in (
            ("wavelength", HBAR * omega_laser != 0.0),
            ("mirror_mass", p.mirror_mass * p.mech_freq != 0.0),
            ("bath_temp",
             (p.bath_temp <= 0.0) | ((rate > 0.0) & (rate < math.inf))),
            ("mech_freq", thermal_ratio != 0.0)):
        if ok is not True:
            rows = _passing(rows, ok, name, getattr(p, name), _RANGE)
    gamma_m = p.mech_freq / p.mech_quality
    chi = math.cos(0.5 * p.fold_angle) ** 2
    coupling_g = (omega_laser / p.cavity_length) * math.sqrt(
        HBAR / (p.mirror_mass * p.mech_freq))
    drive_eps = _each(math.sqrt, 2.0 * p.cavity_decay * p.laser_power
                      / (HBAR * omega_laser))
    sh, ch = _each(_sinh_cosh, p.squeeze_r)
    n_squeeze = sh * sh
    m_squeeze = sh * ch * cmath.exp(1j * p.squeeze_phase)
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
        # thermal_ratio is +inf at T = 0 by definition; v - v is 0 where
        # v is finite, NaN at inf and NaN
        ok = name == "thermal_ratio" or value - value == 0.0
        if ok is not True:
            rows = _passing(rows, ok, name, value, _TOO_LARGE)
    wm = p.mech_freq
    for (name, value, ratio), (lo, hi, bound) in zip((
            ("mech_freq", wm, wm),
            ("cavity_decay", p.cavity_decay, p.cavity_decay / wm),
            ("mech_quality", p.mech_quality, 1.0 / p.mech_quality),
            ("coupling_g", coupling_g, coupling_g / wm),
            ("bath_temp", p.bath_temp, 1.0 / thermal_ratio)), _BAND):
        ok = (ratio >= lo) & (ratio <= hi)
        if ok is not True:
            rows = _passing(rows, ok, name, value, bound)
    return out, rows


def _passing(rows, ok, field: str, value, bound: str):
    """rows & ok where the check ok is a column, else rows; raises
    InvalidParameter where ok is false (a bool, or a numpy bool)."""
    if isinstance(ok, np.ndarray):
        return rows & ok
    if not ok:
        raise InvalidParameter(field, value, bound)
    return rows


def _each(f, x, *args):
    """f(x, *args) on a float x; on a column, f at each of its entries,
    as a column (a tuple-valued f gives one column per item)."""
    if type(x) is np.ndarray:
        return np.array([f(v, *args) for v in x.tolist()]).T
    return f(x, *args)


def _ratio(kt: float, hw: float) -> float:
    """hbar omega_m / kB T from hw = hbar omega_m and kt = kB T; +inf at
    T = 0."""
    return hw / kt if kt else math.inf


def _sinh_cosh(r: float) -> tuple[float, float]:
    """sinh r and cosh r, both +inf where math overflows."""
    try:
        return math.sinh(r), math.cosh(r)
    except OverflowError:
        return math.inf, math.inf


def _derive_column(p: PhysicalParams, field: str, values: np.ndarray):
    """derive_params at p with field (bath_temp, laser_power or
    squeeze_r) set to each of values (n floats), in one pass.

    Returns p and its DerivedParams with that field, and the quantities
    derived from it, as columns over the leading values that
    derive_params accepts; the DerivedParams is None where it accepts
    none.
    """
    test = next(t for f, _, t in _REAL_FIELDS if f == field)
    # the values before the first that fails validation
    k = _leading(test(values))
    if any(err.field != field for err in validate(p)):
        k = 0  # a fixed field fails on every row
    d = None
    if k:
        try:
            with np.errstate(all="ignore"):
                d, rows = _derive(replace(p, **{field: values[:k]}))
        except InvalidParameter:
            k = 0  # a check of the fixed fields alone fails on every row
        else:
            k = _leading(rows)  # the swept field makes rows a column
            d = DerivedParams(**{f: v[:k] if isinstance(v, np.ndarray)
                                 else v for f, v in vars(d).items()})
    return replace(p, **{field: values[:k]}), d


def _leading(ok: np.ndarray) -> int:
    """The number of leading true entries of ok."""
    rejected = (~ok).nonzero()[0]
    return int(rejected[0]) if rejected.size else len(ok)


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
