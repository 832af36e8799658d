"""Release gate: the end-to-end checks this package must pass.

Each test covers one numbered requirement, prints one summary line, and
pins results to independently computed reference values at the bundled
baseline parameter set (25 mm ring, 145 ng mirrors, 2 pi * 215 kHz
cavity decay, 2 pi * 947 kHz mechanics, Q' = 6700, fold angle pi/3,
41.4 uK bath, 3.8 mW drive unless stated otherwise).
"""

import math
import time

import numpy as np
import pytest

import ringcav as rc
from oracles import (breakpoints as _breakpoints, denominator,
                     trapezoid_momentum_variance)
from ringcav.quadrature import integrate_adaptive


def _minimum_for(**overrides):
    p = rc.baseline_params(**overrides)
    d = rc.derive_params(p)
    return rc.minimize_over_detuning(p, d, (0.5, 1.5))


def test_criterion_01_squeezing_minima_within_budget():
    # detuning-scan minima for five squeezing strengths, 30 s budget
    targets = {0.0: 1.027, 0.5: 0.420, 1.0: 0.265, 1.5: 0.394, 2.0: 0.947}
    start = time.perf_counter()
    got = {r: _minimum_for(squeeze_r=r).value for r in targets}
    elapsed = time.perf_counter() - start
    for r, target in targets.items():
        assert got[r] == pytest.approx(target, abs=0.02), r
    assert elapsed < 30.0
    print(f"criterion 1 PASS: minima "
          f"{ {r: round(v, 4) for r, v in got.items()} } in {elapsed:.1f} s")


def test_criterion_02_power_minima():
    targets = {0.6e-3: 0.259, 3.8e-3: 0.265, 6.9e-3: 0.279, 10.7e-3: 0.297}
    got = {}
    for power, target in targets.items():
        got[power] = _minimum_for(laser_power=power).value
        assert got[power] == pytest.approx(target, abs=0.02), power
    print(f"criterion 2 PASS: minima "
          f"{ {round(1e3 * p, 1): round(v, 4) for p, v in got.items()} }")


def test_criterion_03_temperature_scan():
    p = rc.baseline_params()
    wm = p.mech_freq
    spec = rc.SweepSpec(axis=rc.SweepAxis.BATH_TEMP, start=0.0,
                        stop=200e-6, points=201, fixed=p,
                        delta=0.965 * wm)
    rows = rc.run_sweep(spec)
    assert all(r.stable for r in rows)
    products = np.array([r.product for r in rows])
    temps = np.array([r.axis_value for r in rows])
    assert products[0] == pytest.approx(0.132, abs=0.01)
    crossing = temps[int(np.argmax(products >= 1.0))]
    assert 156e-6 <= crossing <= 176e-6
    assert np.all(np.diff(products) >= -1e-9)
    print(f"criterion 3 PASS: product(T=0) = {products[0]:.4f}, "
          f"crossing at {1e6 * crossing:.0f} uK, non-decreasing")


def test_criterion_04_decoupled_quadrature_variance():
    p, d = rc.baseline_params(), rc.derive_params(rc.baseline_params())
    warm = rc.q_plus_variance(p, d)
    assert 0.99 <= warm <= 1.01
    p0 = rc.baseline_params(bath_temp=0.0)
    cold = rc.q_plus_variance(p0, rc.derive_params(p0))
    assert cold == 0.5
    print(f"criterion 4 PASS: var_q_plus = {warm:.6f} warm, {cold} cold")


def test_criterion_05_quadrature_oracle_equivalence():
    # the residue-summed momentum_variance vs a 2e6-point trapezoid
    # transcription written independently in tests/oracles.py, on 20
    # random stable points
    rng = np.random.default_rng(7)
    baseline = rc.baseline_params()
    wm = baseline.mech_freq
    worst = 0.0
    accepted = 0
    while accepted < 20:
        delta = rng.uniform(0.7, 1.3) * wm
        r = rng.uniform(0.0, 1.5)
        power = 10.0 ** rng.uniform(-3.0, -2.0)
        temp = rng.uniform(10e-6, 100e-6)
        p = rc.baseline_params(squeeze_r=r, laser_power=power,
                               bath_temp=temp)
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d, delta)
        if not rc.stability_verdict(p, d, s).stable:
            continue
        accepted += 1
        ours = rc.momentum_variance(p, d, s)
        ref = trapezoid_momentum_variance(
            p.wavelength, p.cavity_length, p.mirror_mass, p.cavity_decay,
            wm, p.mech_quality, p.fold_angle, temp, power, r, 0.0, delta)
        rel = abs(ours - ref) / abs(ref)
        worst = max(worst, rel)
        assert rel <= 1e-6, (delta / wm, r, power, temp, rel)

    p, d = baseline, rc.derive_params(baseline)
    s = rc.steady_state_at_detuning(p, d, 0.965 * wm)
    v50 = rc.momentum_variance(p, d, s)
    v100 = rc.momentum_variance(p, d, s, rc.QuadratureConfig(cutoff=100.0))
    shift = abs(v100 - v50)
    assert shift < 1e-3
    print(f"criterion 5 PASS: worst oracle deviation {worst:.2e}, "
          f"cutoff 50->100 shift {shift:.2e}")


def test_criterion_06_undriven_thermal_limit():
    p = rc.baseline_params(laser_power=0.0)
    d = rc.derive_params(p)
    s = rc.steady_state_at_detuning(p, d, 0.5 * p.mech_freq)
    got = rc.momentum_variance(p, d, s)
    expect = 1.0 + 2.0 / math.expm1(d.thermal_ratio)
    assert got == pytest.approx(expect, rel=1e-3)
    print(f"criterion 6 PASS: undriven variance {got:.6f} vs "
          f"thermal {expect:.6f}")


def test_criterion_07_stability_cross_check():
    rng = np.random.default_rng(2024)
    wm = rc.baseline_params().mech_freq
    skipped = 0
    for _ in range(10_000):
        p = rc.baseline_params(
            laser_power=10.0 ** rng.uniform(-4.0, -1.3),
            squeeze_r=rng.uniform(0.0, 2.0))
        d = rc.derive_params(p)
        s = rc.steady_state_at_detuning(p, d,
                                        rng.uniform(0.2, 1.8) * wm)
        v = rc.stability_verdict(p, d, s)
        if abs(v.margin) <= 1e-9 * wm:
            skipped += 1
            continue
        assert v.routh_hurwitz == v.eigenvalue
    assert skipped < 100
    print(f"criterion 7 PASS: 10000 draws agree ({skipped} within "
          f"margin band)")


def test_criterion_08_geometry_equivalence():
    wm = rc.baseline_params().mech_freq

    def grid_rows(geometry):
        p = rc.baseline_params(geometry=geometry)
        spec = rc.SweepSpec(axis=rc.SweepAxis.DETUNING, start=0.5 * wm,
                            stop=1.5 * wm, points=200, fixed=p)
        return rc.run_sweep(spec)

    three = grid_rows(rc.Geometry.THREE_MIRROR_RELATIVE)
    four = grid_rows(rc.Geometry.FOUR_MIRROR_TOTAL)
    assert three == four
    print("criterion 8 PASS: 200-point scans identical for both "
          "geometries")


def test_criterion_09_property_suite():
    p = rc.baseline_params()
    d = rc.derive_params(p)
    wm = p.mech_freq
    s = rc.steady_state_at_detuning(p, d, 0.965 * wm)

    # response-denominator conjugation symmetry
    rng = np.random.default_rng(5)
    w = rng.uniform(-50.0 * wm, 50.0 * wm, size=2000)
    assert np.allclose(denominator(-w, p, d, s),
                       np.conj(denominator(w, p, d, s)),
                       rtol=1e-12, atol=0.0)

    # squeezed-moment identity across strengths
    for r in rng.uniform(0.0, 3.0, size=200):
        dr = rc.derive_params(rc.baseline_params(squeeze_r=float(r)))
        assert abs(dr.m_squeeze) ** 2 == pytest.approx(
            dr.n_squeeze * (dr.n_squeeze + 1.0), rel=1e-10, abs=1e-12)

    # imaginary residue of the variance integral stays below 1e-8
    from oracles import (raw_terms as _raw_terms,
                         thermal_weight as _thermal_weight)
    thermal = _thermal_weight(p)

    def density(w):
        a, b, c = _raw_terms(w, p, d, s, thermal)
        return w * w * a + w * (w - 2 * wm) * b + w * (w + 2 * wm) * c

    res = integrate_adaptive(density, _breakpoints(p, d, s, 50.0),
                             rel_tol=1e-9, abs_tol=1e-12)
    residual = abs(res.value.imag) / abs(res.value.real)
    assert residual < 1e-8

    # squeezing strength has an interior optimum near r = 1
    values = [_minimum_for(squeeze_r=r).value
              for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert values[2] == min(values)
    assert values[0] > values[1] > values[2] < values[3] < values[4]
    print(f"criterion 9 PASS: symmetry, moment identity, imag residual "
          f"{residual:.1e}, r-minimum interior at 1.0")
