import math

import pytest
from hypothesis import given, strategies as st

import ringcav as rc

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
])
def test_overflowing_derived_quantity_rejected(overrides, field):
    p = rc.baseline_params(**overrides)
    assert rc.validate(p) == []
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.derive_params(p)
    assert exc.value.field == field


def test_validate_passes_edge_values():
    # zero power, zero temperature and straight fold are all legitimate
    p = rc.baseline_params(laser_power=0.0, bath_temp=0.0, squeeze_r=0.0,
                           fold_angle=0.0)
    assert rc.validate(p) == []
    d = rc.derive_params(p)
    assert d.drive_eps == 0.0
    assert d.n_squeeze == 0.0
    assert d.chi == 1.0


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
