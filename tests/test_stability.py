import numpy as np
import pytest

import ringcav as rc
from oracles import characteristic_polynomial_roots
from ringcav.spectra import _point_inputs, _variances
from ringcav.stability import _stack_verdicts

DELTA_965 = 5741920.308892601

# Frozen high-precision drift-matrix couplings at the reference point.
A_12 = -338107.65443410824
A_13 = 1437122.6536878232
A_20 = -1437122.6536878232
A_30 = -338107.65443410824

# Drive power at which the slow mode crosses the imaginary axis for
# delta = 0.5 * omega_m (located independently by bisection on the
# closed-form inequalities).
BOUNDARY_POWER = 0.011421902648577516


def _point(baseline, delta, **overrides):
    if overrides:
        p = rc.baseline_params(**overrides)
        d = rc.derive_params(p)
    else:
        p, d = baseline
    return p, d, rc.steady_state_at_detuning(p, d, delta)


def test_drift_matrix_entries(baseline):
    p, d, s = _point(baseline, DELTA_965)
    a = rc.drift_matrix(p, d, s)
    assert a.shape == (4, 4)
    assert list(a[0]) == [0.0, p.mech_freq, 0.0, 0.0]
    assert a[1][0] == -p.mech_freq
    assert a[1][1] == pytest.approx(-d.gamma_m, rel=1e-15)
    assert a[1][2] == pytest.approx(A_12, rel=1e-12)
    assert a[1][3] == pytest.approx(A_13, rel=1e-12)
    assert a[2][0] == pytest.approx(A_20, rel=1e-12)
    assert a[3][0] == pytest.approx(A_30, rel=1e-12)
    assert a[2][1] == 0.0 and a[3][1] == 0.0
    assert a[2][2] == a[3][3] == -p.cavity_decay
    assert a[2][3] == s.detuning and a[3][2] == -s.detuning


def test_eigenvalues_match_characteristic_quartic(baseline):
    # dual route: numpy on the matrix vs np.roots on the closed-form
    # quartic coefficients
    p, d, s = _point(baseline, DELTA_965)
    ev = rc.eigenvalues(rc.drift_matrix(p, d, s))
    ref = characteristic_polynomial_roots(
        p.cavity_decay, p.mech_freq, d.gamma_m, s.detuning,
        d.coupling_g, d.chi, s.photon_number)
    assert sorted(ev.real) == pytest.approx(sorted(ref.real), rel=1e-9)
    assert sorted(ev.imag) == pytest.approx(sorted(ref.imag), rel=1e-9)


def test_baseline_point_is_stable(baseline):
    p, d, s = _point(baseline, DELTA_965)
    v = rc.stability_verdict(p, d, s)
    assert v.stable and v.routh_hurwitz and v.eigenvalue
    assert v.margin > 0.0
    ev = rc.eigenvalues(rc.drift_matrix(p, d, s))
    assert v.margin == pytest.approx(-ev.real.max(), rel=1e-12)


def test_boundary_power_flips_both_verdicts(baseline):
    p, _ = baseline
    delta = 0.5 * p.mech_freq
    below = _point(baseline, delta, laser_power=0.999 * BOUNDARY_POWER)
    above = _point(baseline, delta, laser_power=1.001 * BOUNDARY_POWER)
    v_below = rc.stability_verdict(*below)
    v_above = rc.stability_verdict(*above)
    assert v_below.stable and v_below.routh_hurwitz
    assert v_below.margin > 0.0
    assert not v_above.stable and not v_above.routh_hurwitz
    assert v_above.margin < 0.0


def test_zero_power_stable_everywhere(baseline):
    # without drive the mirrors and field decouple; always stable
    p = rc.baseline_params(laser_power=0.0)
    d = rc.derive_params(p)
    for frac in (-1.0, -0.3, 0.0, 0.5, 1.5):
        s = rc.steady_state_at_detuning(p, d, frac * p.mech_freq)
        v = rc.stability_verdict(p, d, s)
        assert v.stable and v.routh_hurwitz


def test_verdicts_agree_on_random_draws(baseline):
    p0, _ = baseline
    wm = p0.mech_freq
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(500):
        p = rc.baseline_params(
            laser_power=10.0 ** rng.uniform(-4.0, -1.3),
            squeeze_r=rng.uniform(0.0, 2.0))
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, rng.uniform(0.2, 1.8) * wm)
        v = rc.stability_verdict(p, d, s)
        if abs(v.margin) <= 1e-9 * wm:
            continue
        assert v.routh_hurwitz == v.eigenvalue
        checked += 1
    assert checked >= 490


def test_failed_eigen_solve_in_a_stack_stays_at_its_point(baseline,
                                                         monkeypatch):
    # eigvals fails on one marked matrix: the stack is solved again one
    # matrix at a time, and only the marked point carries the error
    p, d = baseline
    wm = p.mech_freq
    marked = 0.9 * wm
    points = [rc.steady_state_at_detuning(p, d, x * wm)
              for x in (0.8, 0.9, 0.965, 1.1)]
    inputs = _point_inputs([(p, d, s) for s in points])
    alone = [_variances(inputs[:, i:i + 1], 50.0)[0][0]
             for i in range(len(points))]
    eigvals = np.linalg.eigvals

    def failing(a):
        if np.any(a[..., 2, 3] == marked):  # the drift entry delta
            raise np.linalg.LinAlgError("marked matrix")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    values, failures = _variances(inputs, 50.0)
    assert list(failures) == [1]
    for s, v, want in zip(points, values, alone):
        if s.detuning == marked:
            v = failures[1]
            assert isinstance(v, rc.NumericalFailure)
            assert str(v).startswith("eigenvalue computation failed")
            with pytest.raises(rc.NumericalFailure, match="eigenvalue"):
                rc.stability_verdict(p, d, s)
        else:
            assert v.hex() == want.hex()
            assert rc.stability_verdict(p, d, s).stable


def test_boundary_band_scales_with_each_rows_own_omega_m():
    # the same matrix, slowest mode 1e-3 rad/s unstable, which
    # Routh-Hurwitz calls stable: within the band 1e-9 omega_m at omega_m
    # = 1e9 rad/s (1 rad/s), so unstable with no error, and outside it at
    # omega_m = 1 rad/s (1e-9 rad/s), where the tests disagree
    a = np.stack([np.diag([1e-3, -1.0, -1.0, -1.0])] * 2)
    _, max_re, stable, errors = _stack_verdicts(
        a, np.array([True, True]), np.array([1e9, 1.0]))
    assert list(max_re) == [1e-3, 1e-3]
    assert not stable.any()
    assert errors[0] is None
    assert isinstance(errors[1], rc.InternalInconsistency)
    assert "tests disagree" in str(errors[1])


def test_geometry_does_not_change_stability(baseline):
    p3, d3, s3 = _point(baseline, DELTA_965)
    p4 = rc.baseline_params(geometry=rc.Geometry.FOUR_MIRROR_TOTAL)
    d4 = rc.derive_params(p4)
    s4 = rc.steady_state_at_detuning(p4, d4, DELTA_965)
    v3 = rc.stability_verdict(p3, d3, s3)
    v4 = rc.stability_verdict(p4, d4, s4)
    assert v3 == v4
