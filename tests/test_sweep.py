import math

import numpy as np
import pytest

import ringcav as rc
from ringcav import sweep as sweep_mod


def _spec(**kw):
    base = dict(axis=rc.SweepAxis.DETUNING, start=0.9, stop=1.1, points=3,
                fixed=rc.baseline_params())
    base.update(kw)
    wm = base["fixed"].mech_freq
    if base["axis"] is rc.SweepAxis.DETUNING:
        base["start"] *= wm
        base["stop"] *= wm
    return rc.SweepSpec(**base)


def test_spec_validation():
    with pytest.raises(rc.InvalidParameter):
        _spec(points=1)
    with pytest.raises(rc.InvalidParameter):
        _spec(start=1.2, stop=1.1)
    with pytest.raises(rc.InvalidParameter):
        _spec(delta=1.0)  # detuning sweeps get delta from the axis
    with pytest.raises(rc.InvalidParameter):
        rc.SweepSpec(axis=rc.SweepAxis.SQUEEZE_R, start=0.0, stop=1.0,
                     points=3, fixed=rc.baseline_params())


def test_detuning_sweep_rows(baseline):
    p, _ = baseline
    spec = _spec(points=5)
    rows = rc.run_sweep(spec)
    assert len(rows) == 5
    grid = np.linspace(spec.start, spec.stop, 5)
    for row, g in zip(rows, grid):
        assert row.axis_value == g
        assert row.stable
        assert row.product == pytest.approx(
            row.var_q_plus * row.var_p_minus, rel=1e-15)
        assert row.sum == pytest.approx(
            row.var_q_plus + row.var_p_minus, rel=1e-15)
        assert row.branch_note is None


def test_unstable_rows_are_flagged_not_fatal():
    p = rc.baseline_params(laser_power=20e-3)
    spec = rc.SweepSpec(axis=rc.SweepAxis.DETUNING,
                        start=0.45 * p.mech_freq, stop=0.55 * p.mech_freq,
                        points=3, fixed=p)
    rows = rc.run_sweep(spec)
    assert all(not r.stable for r in rows)
    d = rc.derive_params(p)
    for r in rows:
        assert r.var_q_plus is None and r.var_p_minus is None
        assert r.product is None and r.sum is None
        v = rc.stability_verdict(
            p, d, rc.steady_state_at_detuning(p, d, r.axis_value))
        assert r.branch_note == f"unstable, margin {v.margin!r} rad/s"
        assert "unstable" in r.branch_note


@pytest.mark.parametrize("axis,derivations", [
    (rc.SweepAxis.DETUNING, 1),
    (rc.SweepAxis.SQUEEZE_R, 3),
])
def test_derivations_per_sweep(axis, derivations, monkeypatch):
    # a detuning sweep keeps every parameter fixed: derive them once
    calls = []

    def counted(p):
        calls.append(p)
        return rc.derive_params(p)

    monkeypatch.setattr(sweep_mod, "derive_params", counted)
    delta = None if axis is rc.SweepAxis.DETUNING else 5.7e6
    rows = rc.run_sweep(_spec(axis=axis, delta=delta))
    assert len(rows) == 3 and all(r.stable for r in rows)
    assert len(calls) == derivations


def test_degenerate_two_point_sweep(baseline):
    p, _ = baseline
    wm = p.mech_freq
    spec = rc.SweepSpec(axis=rc.SweepAxis.DETUNING, start=0.965 * wm,
                        stop=0.965 * wm * (1.0 + 1e-9), points=2,
                        fixed=p)
    rows = rc.run_sweep(spec)
    assert len(rows) == 2
    assert rows[0].var_p_minus == pytest.approx(rows[1].var_p_minus,
                                                rel=1e-6)


def test_squeeze_axis_keeps_thermal_column_fixed(baseline):
    p, _ = baseline
    spec = rc.SweepSpec(axis=rc.SweepAxis.SQUEEZE_R, start=0.0, stop=1.0,
                        points=3, fixed=p,
                        delta=0.965 * p.mech_freq)
    rows = rc.run_sweep(spec)
    assert rows[0].var_q_plus == rows[1].var_q_plus == rows[2].var_q_plus
    assert rows[0].var_p_minus > rows[2].var_p_minus  # squeezing helps


def test_temperature_axis_moves_both_columns(baseline):
    p, _ = baseline
    spec = rc.SweepSpec(axis=rc.SweepAxis.BATH_TEMP, start=0.0,
                        stop=100e-6, points=3, fixed=p,
                        delta=0.965 * p.mech_freq)
    rows = rc.run_sweep(spec)
    assert rows[0].var_q_plus == 0.5
    assert rows[0].var_q_plus < rows[1].var_q_plus < rows[2].var_q_plus
    assert rows[0].var_p_minus < rows[2].var_p_minus


def test_sub_microkelvin_temperature_axis(baseline):
    # below about 64 nK hbar omega_m / kB T exceeds 709.78, where the
    # thermal occupation's expm1 used to overflow on the second row
    p, _ = baseline
    rows = rc.run_sweep(rc.SweepSpec(
        axis=rc.SweepAxis.BATH_TEMP, start=0.0, stop=1e-6, points=101,
        fixed=p, delta=0.965 * p.mech_freq))
    assert len(rows) == 101 and all(r.stable for r in rows)
    assert rows[1].var_q_plus == 0.5


def test_minimize_baseline(baseline):
    p, d = baseline
    res = rc.minimize_over_detuning(p, d)
    assert res.value == pytest.approx(0.2648, abs=5e-4)
    assert res.delta_star / p.mech_freq == pytest.approx(0.9646, abs=1e-3)


def test_minimize_respects_refinement_tolerance(baseline):
    p, d = baseline
    a = rc.minimize_over_detuning(p, d, (0.9, 1.05))
    b = rc.minimize_over_detuning(p, d, (0.85, 1.1))
    assert a.value == pytest.approx(b.value, abs=1e-5)
    assert a.delta_star == pytest.approx(b.delta_star,
                                         abs=2e-4 * p.mech_freq)


def test_minimize_stubbed_constant(baseline, monkeypatch):
    p, d = baseline
    monkeypatch.setattr(sweep_mod, "_variance_at",
                        lambda *args: 7.25)
    res = rc.minimize_over_detuning(p, d, (0.5, 1.5))
    assert res.value == 7.25
    assert 0.5 * p.mech_freq <= res.delta_star <= 1.5 * p.mech_freq


def test_minimize_no_stable_point():
    p = rc.baseline_params(laser_power=30e-3)
    d = rc.derive_params(p)
    with pytest.raises(rc.NoStablePoint):
        rc.minimize_over_detuning(p, d, (0.45, 0.55))


def test_minimize_window_validation(baseline):
    p, d = baseline
    with pytest.raises(rc.InvalidParameter):
        rc.minimize_over_detuning(p, d, (1.5, 0.5))
    # finite in units of omega_m, but the span overflows in rad/s
    with pytest.raises(rc.InvalidParameter):
        rc.minimize_over_detuning(p, d, (-0.0, 1e308))
