import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ringcav as rc
from ringcav.constants import HBAR, KB

# High-precision evaluations of the defining formulas at the baseline
# parameter set, frozen as literals (30-digit arithmetic, rounded).
OMEGA_LASER = 1770349217395538.8
GAMMA_M = 888.08604267150275
COUPLING_G = 24.757574252972765
DRIVE_EPS = 234503002801.25129
THERMAL_RATIO = 1.0977978714234479
N_SQUEEZE_R1 = 1.3810978455418157
M_SQUEEZE_R1 = 1.8134302039235094


def test_derived_baseline_values(baseline):
    p, d = baseline
    assert d.omega_laser == pytest.approx(OMEGA_LASER, rel=1e-13)
    assert d.gamma_m == pytest.approx(GAMMA_M, rel=1e-13)
    assert d.chi == pytest.approx(0.75, rel=1e-13)
    assert d.coupling_g == pytest.approx(COUPLING_G, rel=1e-12)
    assert d.drive_eps == pytest.approx(DRIVE_EPS, rel=1e-12)
    assert d.n_squeeze == pytest.approx(N_SQUEEZE_R1, rel=1e-12)
    assert d.m_squeeze.real == pytest.approx(M_SQUEEZE_R1, rel=1e-12)
    assert d.m_squeeze.imag == 0.0
    assert d.thermal_ratio == pytest.approx(THERMAL_RATIO, rel=1e-12)


def test_baseline_frequencies():
    p = rc.baseline_params()
    assert p.cavity_decay == pytest.approx(2 * math.pi * 215e3, rel=1e-15)
    assert p.mech_freq == pytest.approx(2 * math.pi * 947e3, rel=1e-15)
    assert p.geometry is rc.Geometry.THREE_MIRROR_RELATIVE


def test_baseline_overrides():
    p = rc.baseline_params(squeeze_r=0.5, bath_temp=0.0)
    assert p.squeeze_r == 0.5
    assert p.bath_temp == 0.0
    assert p.wavelength == rc.baseline_params().wavelength


def test_zero_temperature_ratio_is_infinite():
    d = rc.derive_params(rc.baseline_params(bath_temp=0.0))
    assert math.isinf(d.thermal_ratio)


def test_squeeze_phase_rotates_m():
    d = rc.derive_params(rc.baseline_params(squeeze_phase=0.7))
    assert d.m_squeeze == pytest.approx(
        M_SQUEEZE_R1 * complex(math.cos(0.7), math.sin(0.7)), rel=1e-12)


@pytest.mark.parametrize("field,value", [
    ("wavelength", 0.0),
    ("cavity_length", -1e-3),
    ("mirror_mass", -1.0),
    ("cavity_decay", 0.0),
    ("mech_freq", -5.0),
    ("mech_quality", 0.0),
    ("bath_temp", -1e-6),
    ("laser_power", -1e-3),
    ("squeeze_r", -0.1),
    ("fold_angle", 4.0),
    ("squeeze_phase", math.nan),
    ("geometry", "3ring"),  # the config spelling, not a Geometry member
])
def test_validate_flags_bad_field(field, value):
    p = rc.baseline_params(**{field: value})
    violations = rc.validate(p)
    assert any(v.field == field for v in violations)
    with pytest.raises(rc.InvalidParameter):
        rc.derive_params(p)


@pytest.mark.parametrize("overrides,field", [
    ({"squeeze_r": 1000.0}, "n_squeeze"),  # math.sinh overflows
    ({"squeeze_r": 400.0}, "n_squeeze"),   # sinh r squared overflows
    ({"laser_power": 1e297}, "drive_eps"),
    ({"bath_temp": 1e-306}, "bath_temp"),    # kB T underflows
    ({"bath_temp": 1e298}, "bath_temp"),     # kB T / hbar overflows
    ({"wavelength": 1e308}, "wavelength"),   # hbar omega_laser underflows
    ({"mirror_mass": 5e-324, "mech_freq": 1e-9}, "mirror_mass"),
    ({"mech_freq": 1e-300}, "mech_freq"),    # hbar omega_m / kB T is 0
])
def test_overflowing_derived_quantity_rejected(overrides, field):
    p = rc.baseline_params(**overrides)
    assert rc.validate(p) == []
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.derive_params(p)
    assert exc.value.field == field


WM = rc.baseline_params().mech_freq
T_M = HBAR * WM / KB


@pytest.mark.parametrize("overrides,field,message", [
    # a validation error before a quantity that overflows
    ({"wavelength": -1e-6, "squeeze_r": 1000.0}, "wavelength",
     "wavelength = -1e-06 violates > 0 and finite"),
    ({"bath_temp": -1e-6, "laser_power": 1e297}, "bath_temp",
     "bath_temp = -1e-06 violates >= 0 and finite"),
    # validation in field order, whatever the kind of violation
    ({"bath_temp": -1.0, "laser_power": np.float32(1e-3)}, "bath_temp",
     "bath_temp = -1.0 violates >= 0 and finite"),
    # a rate that underflows before a quantity that overflows
    ({"wavelength": 1e308, "squeeze_r": 1000.0}, "wavelength",
     "wavelength = 1e+308 violates the double range: a rate derived from "
     "it underflows or overflows"),
    ({"mech_freq": 1e-300, "laser_power": 1e297}, "mech_freq",
     "mech_freq = 1e-300 violates the double range: a rate derived from "
     "it underflows or overflows"),
    ({"bath_temp": 1e-306, "mech_quality": 1e13}, "bath_temp",
     "bath_temp = 1e-306 violates the double range: a rate derived from "
     "it underflows or overflows"),
    # two quantities that overflow: in DerivedParams' field order
    ({"laser_power": 1e297, "squeeze_r": 1000.0}, "drive_eps",
     "drive_eps = inf violates finite: an input parameter is too large"),
    # a quantity that overflows before the domain band
    ({"squeeze_r": 400.0, "cavity_decay": 1e7 * WM}, "n_squeeze",
     "n_squeeze = inf violates finite: an input parameter is too large"),
    # the domain band in its own order
    ({"cavity_decay": 1e-7 * WM, "bath_temp": 1e160}, "cavity_decay",
     "cavity_decay = 0.5950176485899068 violates the domain band 1e-06 <= "
     "kappa / omega_m <= 1e+06"),
])
def test_first_of_two_violations_is_raised(overrides, field, message):
    # each input breaks two checks; derive_params raises the first
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.derive_params(rc.baseline_params(**overrides))
    assert exc.value.field == field
    assert str(exc.value) == message


@pytest.mark.parametrize("field,inside,outside", [
    ("cavity_decay", {"cavity_decay": 1.1e-6 * WM},
     {"cavity_decay": 0.9e-6 * WM}),
    ("cavity_decay", {"cavity_decay": 0.9e6 * WM},
     {"cavity_decay": 1.1e6 * WM}),
    ("mech_quality", {"mech_quality": 0.9e12}, {"mech_quality": 1.1e12}),
    ("mech_quality", {"mech_quality": 1.1e-4}, {"mech_quality": 0.9e-4}),
    ("mech_freq", {"mech_freq": 0.9e20, "cavity_decay": 0.9e20},
     {"mech_freq": 1.1e20, "cavity_decay": 1.1e20}),
    ("coupling_g", {"mirror_mass": 1e-32}, {"mirror_mass": 1e-33}),
    ("bath_temp", {"bath_temp": 0.9e150 * T_M}, {"bath_temp": 1.1e150 * T_M}),
])
def test_domain_band(field, inside, outside):
    rc.derive_params(rc.baseline_params(**inside))
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.derive_params(rc.baseline_params(**outside))
    assert exc.value.field == field
    assert "domain band" in str(exc.value)


def test_validate_passes_edge_values():
    # zero power, zero temperature and straight fold are all legitimate
    p = rc.baseline_params(laser_power=0.0, bath_temp=0.0, squeeze_r=0.0,
                           fold_angle=0.0)
    assert rc.validate(p) == []
    d = rc.derive_params(p)
    assert d.drive_eps == 0.0
    assert d.n_squeeze == 0.0
    assert d.chi == 1.0



def test_a_real_of_another_type_is_named_as_such():
    # a float32 would carry its precision into every derived quantity
    p = rc.baseline_params(laser_power=np.float32(1e-3))
    [err] = rc.validate(p)
    assert (err.field, err.bound) == ("laser_power", "an int or float")
    assert rc.validate(rc.baseline_params(laser_power=np.float64(1e-3))) == []
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.QuadratureConfig(np.float32(50.0))
    assert exc.value.bound == "an int or float"

@given(r=st.floats(min_value=0.0, max_value=6.0),
       phase=st.floats(min_value=-7.0, max_value=7.0,
                       allow_nan=False))
def test_squeeze_moment_identity(r, phase):
    # |M|^2 = N (N + 1) for any squeezing strength and phase
    d = rc.derive_params(rc.baseline_params(squeeze_r=r,
                                            squeeze_phase=phase))
    lhs = abs(d.m_squeeze) ** 2
    rhs = d.n_squeeze * (d.n_squeeze + 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_chi_follows_fold_angle():
    for theta, expect in ((0.0, 1.0), (math.pi / 2, 0.5), (math.pi, 0.0)):
        d = rc.derive_params(rc.baseline_params(fold_angle=theta))
        assert d.chi == pytest.approx(expect, abs=1e-15)
