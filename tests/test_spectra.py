import ast
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringcav as rc
from oracles import (breakpoints as _breakpoints, denominator,
                     lyapunov_squeezed_variance, matsubara_momentum_variance,
                     mpmath_momentum_variance, raw_terms, thermal_weight,
                     transfer_density, trapezoid_momentum_variance)
from ringcav.constants import HBAR, KB
from ringcav.model import _derive_column
from ringcav.quadrature import integrate_adaptive
from ringcav.spectra import (_BETA, _BL, _DRIFT, _KT, _L, _PAIRED,
                             _POINTWISE, _POLE_GAP, _RH, _SCALE,
                             _SHIFT_PER_WM, _WM, _ZFAC, _binet, _bose_kernel,
                             _exp_e1, _inputs, _point_inputs, _product_sum,
                             _row_matrix, _simple_weights, _vacuum,
                             _variances)
from ringcav.stability import _stack_verdicts

DELTA_965 = 5741920.308892601

# Frozen 30-digit-arithmetic evaluations at the reference point
# (delta = 0.965 omega_m, baseline parameters, omega = omega_m).
D_AT_WM = -7.4553250030972251e25 + 3.2237290194685421e21j
A_AT_WM = 3.5246069433360525e-19
B_AT_WM = 2.5903087971999762e-19 - 6.1193555594738131e-20j
C_AT_WM = -2.3182779644638919e-23 + 5.183909703918767e-23j
VARIANCE_REF = 0.2647923816
Q_PLUS_REF = 1.0006113107617336
ONE_PLUS_2NBAR = 2.0012226215234672


def _ref_state(baseline):
    p, d = baseline
    return p, d, rc.steady_state_at_detuning(p, d, DELTA_965)


def test_quadrature_config_defaults_and_bounds():
    assert rc.QuadratureConfig().cutoff == 50.0
    for bad in (2.0, -3.0, math.nextafter(1e5, math.inf), 1e300, math.inf,
                math.nan):
        with pytest.raises(rc.InvalidParameter):
            rc.QuadratureConfig(cutoff=bad)
    assert rc.QuadratureConfig(cutoff=2.5).cutoff == 2.5
    assert rc.QuadratureConfig(cutoff=1e5).cutoff == 1e5


@pytest.mark.parametrize("quad", [None, 50.0, {"cutoff": 50.0}],
                         ids=["None", "float", "dict"])
@pytest.mark.parametrize("call", ["momentum_variance", "entanglement_result",
                                  "minimize_over_detuning"])
def test_a_quad_that_is_not_a_quadrature_config_is_refused(baseline, call,
                                                           quad):
    # these used to fail with an AttributeError on quad.cutoff
    p, d, s = _ref_state(baseline)
    args = {"momentum_variance": (p, d, s),
            "entanglement_result": (p, d, DELTA_965),
            "minimize_over_detuning": (p, d, (0.5, 1.5))}[call]
    with pytest.raises(rc.InvalidParameter) as exc:
        getattr(rc, call)(*args, quad)
    assert (exc.value.field, exc.value.value, exc.value.bound) == (
        "quad", quad, "a QuadratureConfig")
    with pytest.raises(rc.InvalidParameter):
        getattr(rc, call)(*args, quad=quad)


def test_response_denominator_frozen_value(baseline):
    p, d, s = _ref_state(baseline)
    val = denominator(p.mech_freq, p, d, s)
    assert val.real == pytest.approx(D_AT_WM.real, rel=1e-12)
    assert val.imag == pytest.approx(D_AT_WM.imag, rel=1e-11)


def test_response_denominator_conjugation(baseline):
    p, d, s = _ref_state(baseline)
    w = np.linspace(-80e6, 80e6, 1001)
    fw = denominator(w, p, d, s)
    bw = denominator(-w, p, d, s)
    assert np.allclose(bw, np.conj(fw), rtol=1e-12, atol=0.0)


def test_response_denominator_equals_char_poly(baseline):
    # det(A - lambda I) at lambda = -i omega must reproduce d(omega):
    # two independently coded routes to the same response function
    p, d, s = _ref_state(baseline)
    a = rc.drift_matrix(p, d, s)
    for w in (0.0, 0.3 * p.mech_freq, p.mech_freq, 2.7 * p.mech_freq):
        det = np.linalg.det(a.astype(complex)
                            - (-1j * w) * np.eye(4, dtype=complex))
        assert det == pytest.approx(denominator(w, p, d, s), rel=1e-10)


def test_oracles_share_no_code_with_the_package():
    # no import in tests/oracles.py, inside a function or not, names
    # ringcav: agreement with the oracles is then evidence
    source = pathlib.Path(__file__).with_name("oracles.py")
    imported = []
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or "", *(a.name for a in node.names)]
    assert imported
    assert not [n for n in imported if n.split(".")[0] == "ringcav"]


def _pieces(omega, p, d, s):
    # a(w), b(w) and c(w) at one frequency; a is real up to rounding
    a, b, c = (complex(x[0]) for x in raw_terms(
        np.array([float(omega)]), p, d, s, thermal_weight(p)))
    assert abs(a.imag) <= 1e-10 * max(abs(a.real), 1e-300)
    return a.real, b, c


def test_integrand_terms_frozen_values(baseline):
    p, d, s = _ref_state(baseline)
    a, b, c = _pieces(p.mech_freq, p, d, s)
    assert a == pytest.approx(A_AT_WM, rel=1e-12)
    assert b.real == pytest.approx(B_AT_WM.real, rel=1e-12)
    assert b.imag == pytest.approx(B_AT_WM.imag, rel=1e-12)
    assert c.real == pytest.approx(C_AT_WM.real, rel=1e-11)
    assert c.imag == pytest.approx(C_AT_WM.imag, rel=1e-11)


@settings(deadline=None, max_examples=40)
@given(frac=st.floats(min_value=-40.0, max_value=40.0),
       phase=st.floats(min_value=-3.0, max_value=3.0))
def test_correlation_terms_pair_up(frac, phase):
    # c(-w) = conj(b(w)): the pairing that makes the integral real
    p = rc.baseline_params(squeeze_phase=phase)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, DELTA_965)
    w = frac * 1e5 + 17.3  # avoid the exact w = 0 sample
    a_fwd, b_fwd, _ = _pieces(w, p, d, s)
    a_bwd, _, c_bwd = _pieces(-w, p, d, s)
    assert c_bwd == pytest.approx(np.conj(b_fwd), rel=1e-9, abs=1e-40)
    assert a_bwd == pytest.approx(a_fwd, rel=1e-9)


@settings(deadline=None, max_examples=40)
@given(frac=st.floats(min_value=-45.0, max_value=45.0))
def test_phase_insensitive_piece_nonnegative(frac):
    p = rc.baseline_params()
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, DELTA_965)
    a, _, _ = _pieces(frac * p.mech_freq + 3.7, p, d, s)
    assert a >= 0.0


def test_variance_reference_value(baseline):
    p, d, s = _ref_state(baseline)
    assert rc.momentum_variance(p, d, s) == pytest.approx(
        VARIANCE_REF, abs=5e-10)


def test_variance_agrees_with_trapezoid_oracle(baseline):
    p, d, s = _ref_state(baseline)
    ours = rc.momentum_variance(p, d, s)
    ref = trapezoid_momentum_variance(
        p.wavelength, p.cavity_length, p.mirror_mass, p.cavity_decay,
        p.mech_freq, p.mech_quality, p.fold_angle, p.bath_temp,
        p.laser_power, p.squeeze_r, p.squeeze_phase, DELTA_965)
    assert ours == pytest.approx(ref, rel=1e-9)


def test_variance_at_zero_temperature(baseline):
    p = rc.baseline_params(bath_temp=0.0)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, DELTA_965)
    ours = rc.momentum_variance(p, d, s)
    ref = trapezoid_momentum_variance(
        p.wavelength, p.cavity_length, p.mirror_mass, p.cavity_decay,
        p.mech_freq, p.mech_quality, p.fold_angle, 0.0,
        p.laser_power, p.squeeze_r, p.squeeze_phase, DELTA_965)
    assert ours == pytest.approx(ref, rel=1e-8)
    assert rc.q_plus_variance(p, d) == 0.5
    # product at T = 0 is reported in the temperature scan
    assert 0.5 * ours == pytest.approx(0.132, abs=0.01)


def test_zero_power_thermal_limit():
    # decoupled mirrors keep the plain Brownian variance 1 + 2 n_bar
    p = rc.baseline_params(laser_power=0.0)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, 0.5 * p.mech_freq)
    v = rc.momentum_variance(p, d, s)
    assert v == pytest.approx(ONE_PLUS_2NBAR, rel=1e-3)
    p0 = rc.baseline_params(laser_power=0.0, bath_temp=0.0, squeeze_r=0.0)
    d0 = rc.derive_params(p0)
    s0 = rc.steady_state_at_detuning(p0, d0, 0.5 * p0.mech_freq)
    assert rc.momentum_variance(p0, d0, s0) == pytest.approx(1.0, rel=1e-3)


def test_unstable_point_raises(baseline):
    p = rc.baseline_params(laser_power=20e-3)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, 0.5 * p.mech_freq)
    with pytest.raises(rc.UnstableOperatingPoint):
        rc.momentum_variance(p, d, s)
    with pytest.raises(rc.UnstableOperatingPoint):
        rc.entanglement_result(p, d, 0.5 * p.mech_freq)


@pytest.mark.parametrize("total, says", [
    (1.0 + 1.0j, "left imaginary residue"),
    (-1.0 + 0.0j, "came out non-positive"),
])
def test_bad_residue_sum_is_a_numerical_failure(baseline, monkeypatch,
                                                total, says):
    monkeypatch.setattr(rc.spectra, "_residue_sums",
                        lambda q, *rest: np.full(len(q), total))
    with pytest.raises(rc.NumericalFailure, match=says):
        rc.momentum_variance(*_ref_state(baseline))


def test_criteria_beyond_double_range_are_a_numerical_failure():
    with pytest.raises(rc.NumericalFailure, match="criteria are not finite"):
        _product_sum(1e200, 1e200)


def test_q_plus_variance_values(baseline):
    p, d = baseline
    assert rc.q_plus_variance(p, d) == pytest.approx(Q_PLUS_REF, rel=1e-12)
    nbar = 1.0 / math.expm1(d.thermal_ratio)
    assert rc.q_plus_variance(p, d) == pytest.approx(0.5 + nbar, rel=1e-14)


def test_q_plus_variance_at_any_cold_bath():
    # the thermal formula wherever expm1 stays finite, where it rounds
    # to 1/2 from a ratio of 37.5 on; exactly 1/2 beyond, below about
    # 64 nK at the baseline mechanical frequency
    for temp in np.geomspace(1e-12, 1e-5, 300):
        p = rc.baseline_params(bath_temp=float(temp))
        d = rc.derive_params(p)
        want = (0.5 + 1.0 / math.expm1(d.thermal_ratio)
                if d.thermal_ratio < 709.0 else 0.5)
        assert rc.q_plus_variance(p, d) == want, temp


def test_cutoff_insensitivity_spot_check(baseline):
    p, d, s = _ref_state(baseline)
    v50 = rc.momentum_variance(p, d, s)
    v80 = rc.momentum_variance(p, d, s, rc.QuadratureConfig(cutoff=80.0))
    assert abs(v80 - v50) < 1e-3


def test_entanglement_result_fields(baseline):
    p, d = baseline
    res = rc.entanglement_result(p, d, DELTA_965)
    assert res.delta == DELTA_965
    assert res.product == res.var_q_plus * res.var_p_minus
    assert res.sum == res.var_q_plus + res.var_p_minus
    assert res.product_entangled == (res.product < 1.0)
    assert res.sum_entangled == (res.sum < 2.0)
    assert res.product_entangled and res.sum_entangled


def test_geometry_gives_identical_spectra(baseline):
    p3, d3, s3 = _ref_state(baseline)
    p4 = rc.baseline_params(geometry=rc.Geometry.FOUR_MIRROR_TOTAL)
    d4 = rc.derive_params(p4)
    s4 = rc.steady_state_at_detuning(p4, d4, DELTA_965)
    assert rc.momentum_variance(p3, d3, s3) == rc.momentum_variance(
        p4, d4, s4)


def test_squeeze_phase_detunes_the_correlation(baseline):
    # rotating the squeezing phase by pi flips the correlation benefit
    p_pi = rc.baseline_params(squeeze_phase=math.pi)
    d_pi = rc.derive_params(p_pi)
    s_pi = rc.steady_state_at_detuning(p_pi, d_pi, DELTA_965)
    v_pi = rc.momentum_variance(p_pi, d_pi, s_pi)
    p0, d0 = baseline
    s0 = rc.steady_state_at_detuning(p0, d0, DELTA_965)
    v0 = rc.momentum_variance(p0, d0, s0)
    assert v_pi > v0


def _adaptive_variance(p, d, s, cutoff=50.0, rel_tol=1e-12):
    # the adaptive route, assembled as criterion 9 does, at tolerances
    # tight enough to serve as the reference
    wm = p.mech_freq
    thermal = thermal_weight(p)

    def density(w):
        a, b, c = raw_terms(w, p, d, s, thermal)
        return w * w * a + w * (w - 2 * wm) * b + w * (w + 2 * wm) * c

    res = integrate_adaptive(density, _breakpoints(p, d, s, cutoff),
                             rel_tol=rel_tol, abs_tol=1e-15, max_depth=60)
    return res.value.real / (2.0 * math.pi)


def _margin_edge_power(delta):
    # the largest power still stable at this detuning, by bisection
    lo, hi = 3.8e-3, 20e-3
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        p = rc.baseline_params(laser_power=mid)
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, delta)
        if rc.stability_verdict(p, d, s).stable:
            lo = mid
        else:
            hi = mid
    return lo


def _route_cases():
    wm = rc.baseline_params().mech_freq
    rng = np.random.default_rng(20231)
    cases = []
    while len(cases) < 250:
        temp = 0.0 if rng.uniform() < 0.1 else rng.uniform(0.1e-6, 200e-6)
        p = rc.baseline_params(squeeze_r=rng.uniform(0.0, 2.0),
                               laser_power=10.0 ** rng.uniform(-3.2, -1.7),
                               bath_temp=temp)
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, rng.uniform(0.3, 1.7) * wm)
        if rc.stability_verdict(p, d, s).stable:
            cases.append((p, s.detuning, 50.0))
    edges = [dict(bath_temp=t) for t in (1e-9, 200e-6, 1.0, 300.0)]
    edges += [dict(mech_quality=q) for q in (1.0, 1e9)]
    edges += [dict(squeeze_phase=1.3), dict(squeeze_r=3.0),
              dict(geometry=rc.Geometry.FOUR_MIRROR_TOTAL)]
    cases += [(rc.baseline_params(**e), 0.965 * wm, 50.0) for e in edges]
    cases += [(rc.baseline_params(bath_temp=t), 0.965 * wm, cut)
              for cut in (2.1, 2.5, 1000.0) for t in (0.0, 200e-6, 300.0)]
    cases += [(rc.baseline_params(), x * wm, 50.0)
              for x in (2.0, 30.0, 51.0, 1e3, 1e5)]
    # a weakly damped optical pole far beyond a narrow window, with the
    # Bose tail's E1 terms (beta L = 9.5) and the Bernoulli series (0.48)
    cases += [(rc.baseline_params(cavity_decay=1e-4 * wm, bath_temp=t),
               60.0 * wm, 2.1) for t in (10e-6, 200e-6)]
    # stability margin ~1e-16 omega_m; eigenvalue gap 2e-8 omega_m
    cases.append((rc.baseline_params(laser_power=_margin_edge_power(
        0.5 * wm)), 0.5 * wm, 50.0))
    cases.append((rc.baseline_params(laser_power=0.0), 1e-8 * wm, 50.0))
    # double poles: the optical pair at zero detuning, and split by
    # 2e-10 omega_m at zero power
    cases.append((rc.baseline_params(), 0.0, 50.0))
    cases.append((rc.baseline_params(laser_power=0.0), 1e-10 * wm, 50.0))
    return cases


def test_residue_route_agrees_with_adaptive_route():
    worst = 0.0
    for p, delta, cutoff in _route_cases():
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, delta)
        ours = rc.momentum_variance(p, d, s, rc.QuadratureConfig(cutoff))
        ref = _adaptive_variance(p, d, s, cutoff)
        rel = abs(ours - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 1e-9, (p, delta / p.mech_freq, cutoff, rel)
    print(f"worst residue/adaptive deviation {worst:.1e}")


def test_squeezed_part_matches_lyapunov_oracle(monkeypatch):
    # without the mirror bath (its _SCALE column zeroed) the residue sum
    # over a wide window is the squeezed-light part alone, which the
    # stationary covariance of the dynamics gives exactly
    columns = rc.spectra._columns

    def no_bath(*args):
        cols = list(columns(*args))
        cols[_SCALE] = 0.0 * cols[_SCALE]
        return tuple(cols)

    monkeypatch.setattr(rc.spectra, "_columns", no_bath)
    points = []
    for p, delta, _ in _route_cases()[:250]:
        d = rc.derive_params(p)
        points.append((p, d, rc.steady_state_at_detuning(p, d, delta)))
    worst = 0.0
    values, failures = _variances(_point_inputs(points), 1e5)
    assert not failures
    for (p, d, s), ours in zip(points, values.tolist()):
        ref = lyapunov_squeezed_variance(
            p.wavelength, p.cavity_length, p.mirror_mass, p.cavity_decay,
            p.mech_freq, p.mech_quality, p.fold_angle, p.laser_power,
            p.squeeze_r, p.squeeze_phase, s.detuning)
        rel = abs(ours - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 1e-11, (p, s.detuning / p.mech_freq, rel)
    print(f"worst residue/Lyapunov deviation {worst:.1e}")


def test_transfer_function_density_matches_raw_terms():
    # the density from the dynamics, G(w) = (-i w I - A)^-1 of the drift
    # matrix, against the hand-derived terms, pointwise over [-5, 5]
    # omega_m.  It read at most 5.6e-14 relative off, but 1.0e-12 at
    # delta = 0 and 1.6e-10 at delta = 1e3 omega_m, both at w = +/-
    # omega_m: there the inverse loses digits across the narrow
    # mechanical line of G(w) or G(+/-2 omega_m - w), and 40 digits put
    # raw_terms within 4e-16 and the oracle 1.6e-10 off
    worst = 0.0
    for p, delta, _ in _route_cases():
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, delta)
        wm = p.mech_freq
        w = np.linspace(-5.0, 5.0, 2001) * wm
        thermal = thermal_weight(p)
        a, b, c = raw_terms(w, p, d, s, thermal)
        got = transfer_density(
            w, thermal, p.wavelength, p.cavity_length, p.mirror_mass,
            p.cavity_decay, wm, p.mech_quality, p.fold_angle,
            p.laser_power, p.squeeze_r, p.squeeze_phase, s.detuning)
        bound = (3e-12 if delta == 0.0 else 5e-10 if delta == 1e3 * wm
                 else 1e-13)
        for want, x in zip((w * w * a, w * (w - 2.0 * wm) * b,
                            w * (w + 2.0 * wm) * c), got):
            err = np.abs(x - want)
            assert np.all(err <= bound * np.abs(want)), (p, delta / wm)
            worst = max(worst, np.divide(err, np.abs(want), where=want != 0,
                                         out=np.zeros_like(err)).max())
    print(f"worst transfer-function/raw_terms deviation {worst:.1e}")


def test_factored_weights_match_eight_pole_products():
    # each piece's eight poles written out, r_j and their mirrors s - r_j
    # for s = 0, 2 omega_m, -2 omega_m, with 1 / Q'(q) as the product
    # over the other seven: the factored weights at r_j, minus them at
    # the mirrors
    points = []
    for p, delta, _ in _route_cases():
        d = rc.derive_params(p)
        points.append((p, d, rc.steady_state_at_detuning(p, d, delta)))
    rows = _row_matrix(_point_inputs(points), 50.0).real
    n = len(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ev, _, live, _ = _stack_verdicts(rows[:, _DRIFT].reshape(n, 4, 4),
                                         rows[:, _RH] > 0.0, rows[:, _WM])
        r = 1j * ev
        wm = rows[:, _WM, None, None]
        simple, close = _simple_weights(r, wm * _SHIFT_PER_WM,
                                        _POLE_GAP * wm)
        grid = ((1j * ev)[:, np.tile(np.arange(4), 6)]
                * np.repeat([1.0, -1.0, 1.0, -1.0, 1.0, -1.0], 4)
                + rows[:, _WM, None]
                * np.repeat([0.0, 0.0, 0.0, 2.0, 0.0, -2.0], 4)
                ).reshape(n, 3, 8)
        eight = 1.0 / (grid[..., :, None] - grid[..., None, :]
                       + np.eye(8)).prod(-1)
    keep = live & ~close
    assert np.count_nonzero(keep) >= 250
    got = np.concatenate([simple, -simple], axis=2)[keep]
    rel = np.abs(got - eight[keep]) / np.abs(eight[keep])
    print(f"worst factored/eight-pole weight deviation {rel.max():.1e}")
    assert rel.max() <= 1e-12


def test_row_width_matches_the_column_constants():
    # a column added to or dropped from _columns would shift every index
    # constant after it; the last, _BETA, starts the final three
    p = rc.baseline_params()
    d = rc.derive_params(p)
    pt = (p, d, rc.steady_state_at_detuning(p, d, 0.965 * p.mech_freq))
    assert _row_matrix(_point_inputs([pt]), 50.0).shape == (1, _BETA + 3)


@pytest.mark.parametrize("power, delta_per_wm", [(3.8e-3, 0.0),
                                                 (0.0, 1e-10)])
def test_double_pole_contour_sum_matches_adaptive_reference(
        power, delta_per_wm, monkeypatch):
    # a double pole is summed on a circle, without the adaptive
    # integrator, yet must give what that integrator gives
    p = rc.baseline_params(laser_power=power)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, delta_per_wm * p.mech_freq)
    ref = _adaptive_variance(p, d, s)

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_adaptive called")

    monkeypatch.setattr(rc.spectra, "integrate_adaptive", refuse)
    monkeypatch.setattr(rc.quadrature, "integrate_adaptive", refuse)
    assert rc.momentum_variance(p, d, s) == pytest.approx(ref, rel=1e-12,
                                                          abs=0.0)


@pytest.mark.parametrize("quality, power, offset, temp", [
    (1.25e6, 1e-10, 3e-7, 41.4e-6), (1.25e6, 1e-10, 3e-7, 0.0),
    (1.25e6, 1e-10, 1e-10, 41.4e-6), (2e6, 1e-13, 3e-7, 41.4e-6)])
def test_loosely_spread_cluster_is_summed_right(quality, power, offset,
                                                temp):
    # the optical and a mechanical eigenvalue lie within the cluster gap
    # but about as far apart as from the real axis (line widths ~1e-6
    # omega_m), so no circle of the allowed radius encloses both; a sum
    # over such a circle misses them, up to 17 % off or even negative
    wm = rc.baseline_params().mech_freq
    p = rc.baseline_params(cavity_decay=1.0000001e-6 * wm, bath_temp=temp,
                           mech_quality=quality, laser_power=power)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, (1.0 - offset) * wm)
    # eigenvalues good to ~1e-16 omega_m move such narrow lines by 1e-10
    ref = _adaptive_variance(p, d, s, rel_tol=1e-10)
    assert rc.momentum_variance(p, d, s) == pytest.approx(ref, rel=1e-8,
                                                          abs=0.0)


@pytest.mark.parametrize("temp", [41.4e-6, 0.0, 200e-6])
def test_variance_matches_30_digit_oracle(temp):
    p = rc.baseline_params(bath_temp=temp)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, DELTA_965)
    ref = mpmath_momentum_variance(
        p.wavelength, p.cavity_length, p.mirror_mass, p.cavity_decay,
        p.mech_freq, p.mech_quality, p.fold_angle, temp, p.laser_power,
        p.squeeze_r, p.squeeze_phase, DELTA_965)
    assert rc.momentum_variance(p, d, s) == pytest.approx(ref, rel=1e-12,
                                                          abs=0.0)


@pytest.mark.parametrize("temp, power, x, geometry, quality, beta_l, bound", [
    (41.4e-6, 3.8e-3, 0.965, "3ring", 6700.0, (39.0, math.inf), 3e-14),
    (200e-6, 3.8e-3, 0.965, "3ring", 6700.0, (math.pi, 39.0), 3e-14),
    (5e-3, 3.8e-3, 0.965, "3ring", 6700.0, (0.0, math.pi), 1e-14),
    (41.4e-6, 3.8e-3, 0.0, "3ring", 6700.0, (39.0, math.inf), 1e-12),
    (41.4e-6, 3.8e-3, 0.965, "4ring", 6700.0, (39.0, math.inf), 3e-14),
    (0.0, 3.8e-3, 0.965, "3ring", 6700.0, (39.0, math.inf), 3e-14),
    (41.4e-6, 0.0, 1e-10, "3ring", 6700.0, (39.0, math.inf), 1e-13),
    (41.4e-6, 3.8e-3, 0.0, "3ring", 100.0, (39.0, math.inf), 3e-14),
    (41.4e-6, 3.8e-3, 0.0, "3ring", 1e5, (39.0, math.inf), 5e-11),
], ids=["binet", "e1-tail", "bernoulli", "double-pole", "four-mirror",
        "zero-temperature", "near-double-pole", "double-pole-q100",
        "double-pole-q1e5"])
def test_variance_matches_the_matsubara_oracle(temp, power, x, geometry,
                                                quality, beta_l, bound):
    # an exact second route for the whole variance: the Bose part of
    # each row (Binet's formula alone, less its E1 tail, or the
    # Bernoulli series, as beta L says; none at T = 0, where the beta L
    # column holds L) against partial fractions and the Matsubara
    # series, or at T = 0 the weight 2 w on w > 0.  The package read
    # 1.3e-14, 1.2e-14, 4.0e-15, 6.3e-13, 1.3e-14, 1.3e-14 and 4.3e-14
    # (without light, the optical poles 2e-10 omega_m apart) off, and
    # at delta = 0 1.3e-14 at Q = 100 and 2.2e-11 at Q = 1e5.  The error
    # follows the slowest decay rate min |Re lambda| = gamma_m / 2 at
    # delta = 0 (2.98e4, 444 and 29.8 rad/s at Q = 100, 6700 and 1e5),
    # within eps omega_m / min |Re lambda|; the optical double pole at
    # -i kappa comes out of the eigen-solve as an exact double root
    p = rc.baseline_params(bath_temp=temp, laser_power=power,
                           geometry=rc.Geometry(geometry),
                           mech_quality=quality)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, x * p.mech_freq)
    row = _row_matrix(_point_inputs([(p, d, s)]), 50.0)[0]
    assert beta_l[0] <= row[_BL].real < beta_l[1]
    assert (row[_KT].real == 0.0) == (temp == 0.0)
    ref = matsubara_momentum_variance(
        p.wavelength, p.cavity_length, p.mirror_mass, p.cavity_decay,
        p.mech_freq, p.mech_quality, p.fold_angle, temp, p.laser_power,
        p.squeeze_r, p.squeeze_phase, s.detuning)
    assert rc.momentum_variance(p, d, s) == pytest.approx(ref, rel=bound,
                                                          abs=0.0)


@pytest.mark.parametrize("cutoff", [50.0, 1e5])
@pytest.mark.parametrize("temp", [0.0, 41.4e-6, 200e-6])
def test_zero_power_decouples_the_light(temp, cutoff):
    # without light the detuning cannot move the variance, whether the
    # optical poles coincide (delta = 0), nearly do (1e-8) or not
    p = rc.baseline_params(laser_power=0.0, bath_temp=temp)
    d = rc.derive_params(p)
    quad = rc.QuadratureConfig(cutoff)
    values = [rc.momentum_variance(
        p, d, rc.steady_state_at_detuning(p, d, x * p.mech_freq), quad)
        for x in (0.0, 1e-8, 0.965, 1.5)]
    assert max(values) - min(values) <= 1e-12 * values[2], values


def test_no_adaptive_call(monkeypatch):
    # the variance is summed in closed form at every point, double poles
    # included; the adaptive integrator serves only as the tests' reference
    def refuse(*args, **kwargs):
        raise AssertionError("integrate_adaptive called")

    monkeypatch.setattr(rc.spectra, "integrate_adaptive", refuse)
    monkeypatch.setattr(rc.quadrature, "integrate_adaptive", refuse)
    for p, delta, cutoff in _route_cases():
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, delta)
        assert rc.momentum_variance(p, d, s, rc.QuadratureConfig(cutoff)) > 0


def test_binet_matches_mpmath_digamma():
    # the whole set in one array call
    mpmath = pytest.importorskip("mpmath")
    points = np.array([1e-9 + 2e-6j, 0.03 - 0.2j, 0.7 + 5.0j, 3.0,
                       11.9 + 0.5j, 12.5 - 40.0j, 2e3 + 7e3j])
    for z, got in zip(points, _binet(points)):
        with mpmath.workdps(30):
            zm = mpmath.mpc(complex(z))
            want = complex(mpmath.log(zm) - 1 / (2 * zm) - mpmath.digamma(zm))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), z


def test_binet_over_the_right_half_plane():
    # 800 seeded points with |z| from 1e-6 to 1e4, half of them within
    # 1e-12 to 0.1 rad of the imaginary axis, against the bounds that
    # _binet's docstring states
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20240)
    size = 10.0 ** rng.uniform(-6.0, 4.0, 800)
    off = np.concatenate([rng.uniform(0.0, 0.5 * math.pi, 400),
                          10.0 ** rng.uniform(-12.0, -1.0, 400)])
    z = size * np.exp(1j * rng.choice([-1.0, 1.0], 800)
                      * (0.5 * math.pi - off))
    for zz, got in zip(z, _binet(z)):
        with mpmath.workdps(30):
            zm = mpmath.mpc(complex(zz))
            want = complex(mpmath.log(zm) - 1 / (2 * zm) - mpmath.digamma(zm))
        bound = 2e-14 if abs(zz) < 1.0 else 1e-12 if abs(zz) < 12.0 else 1e-15
        assert got == pytest.approx(want, rel=bound, abs=0.0), zz


def _temps_around(beta_l, cutoff, wm):
    """The bath temperature where beta L = cutoff omega_m hbar / kB T
    last reaches beta_l, and the next double above it (beta L below)."""
    lim = cutoff * wm
    t = lim * HBAR / (KB * beta_l)
    while lim / (KB * t / HBAR) < beta_l:
        t = float(np.nextafter(t, 0.0))
    while lim / (KB * float(np.nextafter(t, 1.0)) / HBAR) >= beta_l:
        t = float(np.nextafter(t, 1.0))
    return [t, float(np.nextafter(t, 1.0))]


# _columns' inputs by row: those that fix the drift matrix, the
# Routh-Hurwitz verdict and the window terms, and the others
_POLE_ROWS = {"wm": 0, "kappa": 1, "gm": 3, "g": 4, "chi": 5, "delta": 9,
              "u": 10, "v": 11, "n": 12}
_NOISE_ROWS = {"temp": 2, "nsq": 6, "mre": 7, "mim": 8}


@pytest.mark.parametrize("row, solved", [(None, (1, 4, 4))]
                         + [(i, (1, 4, 4)) for i in _NOISE_ROWS.values()]
                         + [(i, (5, 4, 4)) for i in _POLE_ROWS.values()],
                         ids=["same", *_NOISE_ROWS, *_POLE_ROWS])
def test_a_stack_shares_its_poles_where_its_inputs_do(baseline, monkeypatch,
                                                      row, solved):
    # five points at the reference point, every input a float but one
    # column whose last entry moves by a relative 1e-9 (by 1e-9 where it
    # is zero); "same" has a column in each of T, N and M, all five
    # entries equal
    point = _point_inputs([_ref_state(baseline)])[:, 0].tolist()
    inputs = list(point)
    for i in _NOISE_ROWS.values() if row is None else [row]:
        inputs[i] = np.full(5, point[i])
    if row is not None:
        x = point[row]
        inputs[row][-1] = x * (1.0 + 1e-9) if x else 1e-9
        assert inputs[row][-1] != x
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    values, failures = _variances(inputs, 50.0)
    assert shapes == [solved] and not failures
    for i in range(5):
        (want,), alone = _variances(_point_of(inputs, i), 50.0)
        assert not alone and values[i].hex() == want.hex()


def _point_of(inputs, i):
    """Point i of a stack's inputs, as 13 floats."""
    return [float(x[i]) if isinstance(x, np.ndarray) else x for x in inputs]


# the inputs that each stack form has as columns
_FORMS = {"detuning": {9, 10, 11, 12}, "bath_temp": {2},
          "squeeze_r": {6, 7, 8}, "laser_power": {10, 11, 12}}


def _stack(baseline, form, n):
    """The inputs of an n-point stack in the form of a detuning sweep
    from the double pole at zero detuning into unstable points, or of a
    sweep of the field form at a fixed detuning: the double pole for
    temperature and squeezing, 0.965 omega_m for the power sweep into
    instability."""
    p, d = baseline
    wm = p.mech_freq
    if form == "detuning":
        return _inputs(p, d, np.linspace(0.0, 1.7, n) * wm)
    stop = {"bath_temp": 5e-3, "squeeze_r": 2.0, "laser_power": 0.5}[form]
    q, e = _derive_column(p, form, np.linspace(0.0, stop, n))
    return _inputs(q, e, 0.965 * wm if form == "laser_power" else 0.0)


@pytest.mark.parametrize("form", _FORMS)
@pytest.mark.parametrize("n", [1, 2, _POINTWISE, _POINTWISE + 1, 24, 37,
                               _PAIRED, _PAIRED + 1, 300])
def test_every_stack_form_gives_the_bits_of_its_points(baseline, monkeypatch,
                                                       form, n):
    # a stack's rows and variances, built point by point up to _POINTWISE
    # points and by one column-wise _columns call beyond, with its kernels
    # evaluated once per conjugate pole pair beyond _PAIRED points,
    # against its points one at a time and against the same stack with
    # every input a column (13, n)
    inputs = _stack(baseline, form, n)
    assert {i for i, x in enumerate(inputs)
            if isinstance(x, np.ndarray)} == _FORMS[form]
    assert all(len(x) == n for x in inputs if isinstance(x, np.ndarray))
    points = [_point_of(inputs, i) for i in range(n)]
    full = np.array([np.broadcast_to(x, n) for x in inputs])
    calls = []
    columns = rc.spectra._columns

    def counted(*args):
        calls.append(args)
        return columns(*args)

    monkeypatch.setattr(rc.spectra, "_columns", counted)
    rows = _row_matrix(inputs, 50.0)
    assert len(calls) == (n if n <= _POINTWISE else 1)
    monkeypatch.undo()
    ones = np.concatenate([_row_matrix(pt, 50.0) for pt in points])
    assert rows.shape == (n, _BETA + 3)
    assert rows.tobytes() == ones.tobytes()
    assert rows.tobytes() == _row_matrix(full, 50.0).tobytes()

    def solved(stack):
        values, failures = _variances(stack, 50.0)
        return ([v.hex() for i, v in enumerate(values.tolist())
                 if i not in failures],
                {i: (type(e), str(e)) for i, e in failures.items()})

    alone = [solved(pt) for pt in points]
    want = ([v for vs, _ in alone for v in vs],
            {i: e for i, (_, f) in enumerate(alone) for e in f.values()})
    assert solved(inputs) == want == solved(full)
    if n == 300 and form in ("detuning", "laser_power"):
        assert 0 < len(want[1]) < n  # stable and unstable points


def test_stack_rows_equal_stacks_of_one(monkeypatch):
    # the column-wise rows of a stack against its points one at a time:
    # no Bose part (T = 0), Binet's formula alone, beta L at and just
    # below pi (the Bernoulli series), E1 tails changing from 2 to 1 and
    # from 1 to 0 terms at k beta L = 39, a squeeze phase, the four-mirror
    # geometry, a double pole (zero detuning) and unstable points, these
    # also with no Bose part, an E1 tail and the Bernoulli series; then
    # sweep-form stacks whose kernels _paired evaluates once per
    # conjugate pole pair
    wm = rc.baseline_params().mech_freq
    edges = {b: _temps_around(b, 50.0, wm) for b in (math.pi, 19.5, 39.0)}
    variants = [dict(bath_temp=t) for t in [0.0, 41.4e-6]
                + sum(edges.values(), [])]
    variants += [dict(squeeze_phase=1.3),
                 dict(geometry=rc.Geometry.FOUR_MIRROR_TOTAL),
                 dict(laser_power=20e-3)]
    variants += [dict(laser_power=20e-3, bath_temp=t)
                 for t in (0.0, 200e-6, 5e-3)]
    points = []
    for v in variants:
        p = rc.baseline_params(**v)
        d = rc.derive_params(p)
        points += [(p, d, rc.steady_state_at_detuning(p, d, x * wm))
                   for x in (0.965, 0.3, 0.0)]
    rows = _row_matrix(_point_inputs(points), 50.0)
    ones = np.concatenate([_row_matrix(_point_inputs([pt]), 50.0)
                           for pt in points])
    assert rows.shape == ones.shape
    assert rows.tobytes() == ones.tobytes()
    temps = [p.bath_temp for p, _, _ in points]
    for b, (at, above) in edges.items():
        at, above = temps.index(at), temps.index(above)
        assert rows[at, _BL].real >= b > rows[above, _BL].real
        # Binet's formula from beta L = pi on, the Bernoulli series below
        assert rows[at, _ZFAC] != 0.0
        assert (rows[above, _ZFAC] != 0.0) == (b != math.pi)

    values, failures = _variances(_point_inputs(points), 50.0)
    assert any(isinstance(v, rc.UnstableOperatingPoint)
               for v in failures.values())
    for i, pt in enumerate(points):
        (want,), alone = _variances(_point_inputs([pt]), 50.0)
        if alone:
            v = failures[i]
            assert (type(v), str(v)) == (type(alone[0]), str(alone[0]))
        else:
            assert i not in failures
            assert values[i].hex() == want.hex()

    # beyond _PAIRED points: a 200-row detuning grid from 0.3 omega_m at
    # 10^-2.5 W, whose first three rows have two real optical
    # eigenvalues (slots 2 and 3 mirror nothing there), a temperature
    # sweep at 0.965 omega_m, 100 rows from 0 to 1 mK, whose hotter rows
    # take the E1 tail, and that grid in a window of 2.1 omega_m at 10 to
    # 60 uK, across beta L = pi with more than _PAIRED rows, each with
    # its own poles, on either side
    p = rc.baseline_params(laser_power=10.0 ** -2.5)
    d = rc.derive_params(p)
    grid = _inputs(p, d, np.linspace(0.3, 1.7, 200) * wm)
    ev = np.linalg.eigvals(
        _row_matrix(grid, 50.0)[:, _DRIFT].real.reshape(-1, 4, 4))
    assert (ev.imag == 0.0).sum(1).tolist() == [2] * 3 + [0] * 197
    q, e = _derive_column(p, "bath_temp", np.linspace(0.0, 1e-3, 100))
    hot = list(grid)
    hot[2] = np.linspace(10e-6, 60e-6, 200)
    stacks = [(grid, 50.0), (_inputs(q, e, 0.965 * wm), 50.0), (hot, 2.1)]
    for (inputs, cutoff), cool in zip(stacks[1:], (1, _PAIRED + 1)):
        rows = _row_matrix(inputs, cutoff)
        binet = rows[:, _ZFAC] != 0.0
        assert np.count_nonzero(binet) > _PAIRED
        assert (binet & (rows[:, _BL].real < 39.0)).any()
        assert np.count_nonzero(rows[:, _BL].real < math.pi) >= cool
    for inputs, cutoff in stacks:
        values, failures = _variances(inputs, cutoff)
        assert not failures
        for i, v in enumerate(values.tolist()):
            (want,), alone = _variances(_point_of(inputs, i), cutoff)
            assert not alone and v.hex() == want.hex()

    # the work: on a 200-row detuning grid at 200 uK, every row on
    # Binet's formula with an E1 tail and every pole in a mirrored pair,
    # _binet and _exp_e1 see half the elements of the unpaired route
    p = rc.baseline_params(bath_temp=200e-6)
    grid = _inputs(p, rc.derive_params(p), np.linspace(0.5, 1.5, 200) * wm)
    seen = {"_binet": [], "_exp_e1": []}
    for name, got in seen.items():
        kernel = getattr(rc.spectra, name)
        monkeypatch.setattr(rc.spectra, name,
                            lambda z, k=kernel, got=got:
                            got.append(z.size) or k(z))
    paired = _variances(grid, 50.0)
    counts = {name: sum(got) for name, got in seen.items()}
    for got in seen.values():
        got.clear()
    monkeypatch.setattr(rc.spectra, "_PAIRED", 200)
    unpaired = _variances(grid, 50.0)
    assert {name: sum(got) for name, got in seen.items()} == {
        name: 2 * c for name, c in counts.items()}
    assert counts["_binet"] == 400 and counts["_exp_e1"] > 400
    assert paired[0].tobytes() == unpaired[0].tobytes()
    assert not paired[1] and not unpaired[1]


def test_exp_e1_matches_mpmath():
    # both branches: the power series where |z| < 60 and |z| + Re z < 3,
    # and the continued fraction elsewhere; sizes and angles on both sides
    # of that bound, beside the negative real axis and on it
    mpmath = pytest.importorskip("mpmath")
    near = (math.pi - 1e-3, -(math.pi - 1e-3), math.pi - 1e-8)
    points = [size * complex(math.cos(angle), math.sin(angle))
              for size in (0.5, 1.9, 2.1, 10.0, 25.0, 39.9, 40.0, 45.0, 59.0,
                           61.0, 100.0, 440e3)
              for angle in (0.0, 1.2, -2.3, 2.35, -2.35, 2.37, 2.4, 2.5,
                            -3.0, 3.1415926) + near]
    points += [complex(x) for x in (-30.0, -61.0, -1000.0)]
    # the whole grid in one array call: each element stops on its own
    for z, got in zip(points, _exp_e1(np.array(points))):
        with mpmath.workdps(30):
            want = complex(mpmath.exp(z) * mpmath.e1(z))
        assert got == pytest.approx(want, rel=2e-14, abs=0.0), z


def test_exp_e1_gives_each_element_its_bits_alone():
    # a mixed array: both branches, and continued-fraction depths from 5
    # (|z| >= 300) to 64 (|z| + Re z = 3); each element as alone, and in
    # the reversed array
    rng = np.random.default_rng(2112)
    z = (10.0 ** rng.uniform(0.0, 6.0, 300)
         * np.exp(1j * rng.uniform(-math.pi, math.pi, 300)))
    z = np.concatenate([z, [1.5, 1.5 + 1e-3j, 11.0, 40.0, 60.0, 1e6, -1e3,
                            2.0 * np.exp(2.5j)]])
    series = (np.abs(z) < 60.0) & (np.abs(z) + z.real < 3.0)
    assert 0 < np.count_nonzero(series) < z.size
    got = _exp_e1(z)
    alone = np.concatenate([_exp_e1(z[i:i + 1]) for i in range(z.size)])
    assert got.tobytes() == alone.tobytes()
    assert _exp_e1(z[::-1]).tobytes() == got[::-1].tobytes()


def test_exp_e1_over_the_bose_tail_domain(monkeypatch):
    # the production domain, |z| from 3 to 60 within 0.01 rad of the
    # positive axis, seeded, and the tail's own arguments k beta (L -+ q)
    # over a 0 to 200 uK temperature sweep
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3060)
    seen = [rng.uniform(3.0, 60.0, 200)
            * np.exp(1j * rng.uniform(-0.01, 0.01, 200))]
    exp_e1 = rc.spectra._exp_e1
    monkeypatch.setattr(rc.spectra, "_exp_e1",
                        lambda z: seen.append(z) or exp_e1(z))
    p = rc.baseline_params()
    rc.run_sweep(rc.SweepSpec(axis=rc.SweepAxis.BATH_TEMP, start=0.0,
                              stop=200e-6, points=12, fixed=p,
                              delta=0.965 * p.mech_freq))
    z = np.concatenate(seen)
    assert z.size > 300
    for zz, got in zip(z, exp_e1(z)):
        with mpmath.workdps(30):
            want = complex(mpmath.exp(zz) * mpmath.e1(zz))
        assert got == pytest.approx(want, rel=2e-14, abs=0.0), zz


def test_exp_e1_of_a_non_finite_argument_is_nan():
    # NaN where an element is not finite, with no warning, beside finite
    # elements that keep their bits; such an element steps as z = 60 (9
    # steps), where the depth read from its |z| would be NaN
    bad = [math.nan, math.inf, -math.inf, complex(math.inf, math.inf),
           complex(math.nan, 1.0), complex(1.0, math.inf),
           complex(-math.inf, 2.0)]
    z = np.array(bad + [11.0 + 0.01j, 0.5j, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _exp_e1(z)
    assert np.isnan(got[:len(bad)]).all()
    assert got[len(bad):].tobytes() == _exp_e1(z[len(bad):]).tobytes()


def _production_poles(n, seed):
    """The poles r_j = i lambda_j (m, 4) at the stable ones of n seeded
    operating points: squeezing r 0.3 to 1.7, power 10^-3.2 to 10^-1.7 W
    and detuning 0.3 to 3 omega_m, in LAPACK's slot order."""
    rng = np.random.default_rng(seed)
    points = []
    for r, logp, x in zip(rng.uniform(0.3, 1.7, n), rng.uniform(-3.2, -1.7, n),
                          rng.uniform(0.3, 3.0, n)):
        p = rc.baseline_params(squeeze_r=r, laser_power=10.0 ** logp)
        d = rc.derive_params(p)
        points.append((p, d, rc.steady_state_at_detuning(p, d,
                                                         x * p.mech_freq)))
    drift = _row_matrix(_point_inputs(points), 50.0)[:, _DRIFT].real
    q = 1j * np.linalg.eigvals(drift.reshape(-1, 4, 4))
    return q[(q.imag < 0.0).all(1)]


def test_the_bose_and_vacuum_kernels_are_conjugation_symmetric():
    # f(-conj q) = conj(f(q)) byte for byte, which lets _paired take a
    # mirrored pole's value as its partner's conjugate: at seeded
    # production poles, each row alone, with no Bose part (T = 0), with
    # Binet's formula alone (beta L >= 39) and with the E1 tail (pi <=
    # beta L < 39), each on both _binet routes (every |z| below 4.79, or
    # one above); the pieces' atanh(L / (s - q)) would need atanh(-z) =
    # -atanh(z), which does not hold bit for bit, and stays per pole
    q = _production_poles(60, 3030)
    p = rc.baseline_params()
    wm = p.mech_freq
    routes = set()
    for cutoff, beta_l in [(50.0, math.inf), (50.0, 55.0), (50.0, 2e3),
                           (50.0, 11.0), (2.1, 30.0), (2.1, 5.0)]:
        temp = (0.0 if beta_l == math.inf
                else cutoff * wm * HBAR / (KB * beta_l))
        pt = rc.baseline_params(bath_temp=temp)
        dt = rc.derive_params(pt)
        row = _row_matrix(_point_inputs(
            [(pt, dt, rc.steady_state_at_detuning(pt, dt, DELTA_965))]),
            cutoff)
        lim, kt, bl, zfac = (row[:, [i]] for i in (_L, _KT, _BL, _ZFAC))
        for qq in q[:, None]:
            mirror = -qq.conj()
            vacuum = _vacuum(qq, lim)
            assert _vacuum(mirror, lim).tobytes() == vacuum.conj().tobytes()
            bose = _bose_kernel(qq, lim, kt, bl, zfac)
            if temp == 0.0:
                assert not bose.any()
                assert not _bose_kernel(mirror, lim, kt, bl, zfac).any()
                continue
            assert (_bose_kernel(mirror, lim, kt, bl, zfac).tobytes()
                    == bose.conj().tobytes())
            size = np.abs(qq * zfac).max()
            routes.add((bl.real.item() < 39.0, size < 4.79))
    assert routes == {(tail, full) for tail in (True, False)
                      for full in (True, False)}


def test_kernels_give_each_row_its_bits_alone():
    # _binet on an odd number of rows of four, with and without a row
    # beyond |z| = 4.79, _simple_weights on rows of poles, and the Bose
    # and vacuum kernels on more than _PAIRED rows of poles, which
    # _paired evaluates once per conjugate pair: a stack's rows against
    # the rows alone
    rng = np.random.default_rng(4791)
    z = (10.0 ** rng.uniform(-3.0, 0.6, (37, 4))
         * np.exp(1j * rng.uniform(-1.5, 1.5, (37, 4))))
    for stack in (z, np.concatenate([z, [[20.0, 3.0 + 1j, 0.1j, 7.0]]])):
        alone = np.concatenate([_binet(row[None]) for row in stack])
        assert _binet(stack).tobytes() == alone.tobytes()
    wm = rc.baseline_params().mech_freq
    r = wm * (rng.uniform(-2.0, 2.0, (37, 4))
              - 1j * rng.uniform(1e-3, 1.0, (37, 4)))
    r[0, 1] = r[0, 0] + 1e-9 * wm  # a cluster
    shift = np.full((37, 1, 1), wm) * _SHIFT_PER_WM
    gap = np.full((37, 1, 1), _POLE_GAP * wm)
    with np.errstate(divide="ignore", invalid="ignore"):
        simple, close = _simple_weights(r, shift, gap)
        ones = [_simple_weights(r[i:i + 1], shift[i:i + 1], gap[i:i + 1])
                for i in range(37)]
    assert simple.tobytes() == np.concatenate([w for w, _ in ones]).tobytes()
    assert close.tolist() == [bool(c[0]) for _, c in ones]
    assert close[0] and not close[1:].any()

    # the 200-row grid from 0.3 omega_m at 10^-2.5 W, whose first three
    # rows have real optical eigenvalues, in a 2.1 omega_m window at 0 to
    # 60 uK: no Bose part, the E1 tail, and beta L below pi on more than
    # _PAIRED rows (the Bernoulli series, whose atanh(1 / rho) is not
    # conjugation-symmetric bit for bit)
    p = rc.baseline_params(laser_power=10.0 ** -2.5)
    inputs = _inputs(p, rc.derive_params(p), np.linspace(0.3, 1.7, 200) * wm)
    inputs[2] = np.linspace(0.0, 60e-6, 200)
    rows = _row_matrix(inputs, 2.1)
    r = 1j * np.linalg.eigvals(rows[:, _DRIFT].real.reshape(-1, 4, 4))
    cols = [rows[:, [i]] for i in (_L, _KT, _BL, _ZFAC)]
    assert np.count_nonzero(rows[:, _BL].real < math.pi) > _PAIRED
    assert (r.real == 0.0).any() and not rows[0, _KT]
    for kernel, args in ((_bose_kernel, cols), (_vacuum, cols[:1])):
        alone = np.concatenate([kernel(r[i:i + 1], *[c[i:i + 1] for c in args])
                                for i in range(200)])
        assert kernel(r, *args).tobytes() == alone.tobytes()
