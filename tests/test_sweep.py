import contextlib
import io
import math
import pickle
import tempfile
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringcav as rc
from ringcav import sweep as sweep_mod
from ringcav.spectra import _DELTA_INPUT

_WM = rc.baseline_params().mech_freq


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
    with pytest.raises(rc.InvalidParameter) as exc:
        _spec(axis="detuning")  # the config spelling, not a SweepAxis
    assert exc.value.field == "axis"
    with pytest.raises(rc.InvalidParameter) as exc:
        _spec(start=math.nan)
    assert exc.value.field == "start"
    # run_sweep used to fail on these with an AttributeError
    for field in ("fixed", "quadrature"):
        kw = dict(axis=rc.SweepAxis.SQUEEZE_R, start=0.0, stop=1.0,
                  points=3, fixed=rc.baseline_params(), delta=_WM)
        with pytest.raises(rc.InvalidParameter) as exc:
            rc.SweepSpec(**{**kw, field: None})
        assert (exc.value.field, exc.value.value) == (field, None)


def test_spec_takes_any_integer_for_points():
    spec = _spec(points=np.int64(5))
    assert type(spec.points) is int and spec.points == 5
    assert len(rc.run_sweep(spec)) == 5
    for points in (True, 5.0, np.float64(5.0), np.int64(1)):
        with pytest.raises(rc.InvalidParameter) as exc:
            _spec(points=points)
        assert exc.value.bound == "an integer >= 2"


def test_spec_bounds_points():
    # checked before any grid exists: 1e15 points would ask numpy for
    # 8 PB
    assert _spec(points=1_000_000).points == 1_000_000
    for points in (1_000_001, 10**15, np.int64(10**15)):
        with pytest.raises(rc.InvalidParameter) as exc:
            _spec(points=points)
        assert (exc.value.field, exc.value.value, exc.value.bound) == (
            "points", int(points), "at most 1000000")


@pytest.mark.parametrize("field, value", [
    ("start", np.int64(0)), ("start", np.float32(0.0)),
    # a float32 operating detuning moved the variance by up to 2e-9
    ("delta", np.float32(0.965 * _WM)),
])
def test_spec_names_the_type_it_rejects(field, value):
    # a numpy integer or a float32 is not an int or a float; a float32
    # would carry its precision into the rows
    kw = dict(start=0.0, delta=0.965 * _WM)
    kw[field] = value
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.SweepSpec(axis=rc.SweepAxis.SQUEEZE_R, stop=1.0, points=3,
                     fixed=rc.baseline_params(), **kw)
    assert (exc.value.field, exc.value.bound) == (field, "an int or float")


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


def test_rows_filled_through_the_slots_are_sweep_rows():
    # run_sweep fills its stable rows through SweepRow's slot setters;
    # each equals, hashes, prints and pickles as the row that
    # SweepRow(...) builds from its fields, stays frozen, and
    # dataclasses.replace makes a new row from it
    rows = rc.run_sweep(_spec(points=4))
    for row in rows:
        built = rc.SweepRow(*(getattr(row, f.name) for f in fields(row)))
        assert type(row) is rc.SweepRow
        assert row == built and hash(row) == hash(built)
        assert repr(row) == repr(built)
        assert not hasattr(row, "__dict__")
        again = pickle.loads(pickle.dumps(row))
        assert again == row and repr(again) == repr(row)
        with pytest.raises(FrozenInstanceError):
            row.var_p_minus = 0.0
        other = replace(row, stable=False, branch_note="x")
        assert (other.stable, other.branch_note) == (False, "x")
        assert replace(other, stable=True, branch_note=None) == row
    assert rows[0].stable and rows[0].branch_note is None
    assert rows[0] != rows[1]


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


# a grid on each axis, in units of omega_m for detuning
_GRIDS = {rc.SweepAxis.DETUNING: (0.9, 1.1),
          rc.SweepAxis.SQUEEZE_R: (0.0, 1.0),
          rc.SweepAxis.LASER_POWER: (1e-3, 5e-3),
          rc.SweepAxis.BATH_TEMP: (0.0, 1e-4)}


@pytest.mark.parametrize("axis,derivations", [(a, 1) for a in _GRIDS])
def test_derivations_per_sweep(axis, derivations, monkeypatch):
    # every axis derives its parameters once, the swept field as a
    # column: one pass of derive_params' arithmetic per sweep
    calls = []
    derive = rc.model._derive

    def counted(*args):
        calls.append(args)
        return derive(*args)

    monkeypatch.setattr(rc.model, "_derive", counted)
    start, stop = _GRIDS[axis]
    delta = None if axis is rc.SweepAxis.DETUNING else 5.7e6
    rows = rc.run_sweep(_spec(axis=axis, start=start, stop=stop, points=5,
                              delta=delta))
    assert len(rows) == 5 and all(r.stable for r in rows)
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
    # every grid, the coarse one and the refinements, is one stack
    p, d = baseline
    monkeypatch.setattr(sweep_mod, "_grid_variances",
                        lambda p, d, deltas, quad: [7.25] * len(deltas))
    res = rc.minimize_over_detuning(p, d, (0.5, 1.5))
    assert res.value == 7.25
    assert 0.5 * p.mech_freq <= res.delta_star <= 1.5 * p.mech_freq


def test_minimize_ends_when_the_bracket_stops_shrinking(monkeypatch):
    # at kappa = 1e6 omega_m and a window near 1e12 omega_m the float
    # spacing of the detuning (1024 rad/s) exceeds 1e-4 omega_m, so the
    # bracket never reaches the tolerance. The grids, and the detunings
    # that they solve, are bounded so that a loop that does not end
    # fails rather than hangs
    p = rc.baseline_params(cavity_decay=5950176485899.068)
    d = rc.derive_params(p)
    wm = p.mech_freq
    window = (999999999990.0, 999999999999.0)
    a, b = window[0] * wm, window[1] * wm
    coarse = sweep_mod._coarse_points(b - a, p.cavity_decay, wm)
    grids = []
    grid_variances = sweep_mod._grid_variances

    def counted_grid(*args):
        grids.append(len(args[2]))
        if len(grids) > 100:
            raise RuntimeError("the refinement does not end")
        if grids[-1] != (coarse if len(grids) == 1
                         else sweep_mod._REFINE_POINTS):
            raise RuntimeError(f"a grid of {grids[-1]} detunings")
        return grid_variances(*args)

    monkeypatch.setattr(sweep_mod, "_grid_variances", counted_grid)
    res = rc.minimize_over_detuning(p, d, window)
    assert a <= res.delta_star <= b
    assert math.isfinite(res.value)
    # the coarse grid's bracket shrinks, and refinement runs until the
    # float spacing stops it
    assert coarse > 3
    assert 2 <= len(grids) < 10


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
    # not a pair: a ValueError and a TypeError on unpacking before
    for window in ((0.5, 1.0, 1.5), None):
        with pytest.raises(rc.InvalidParameter) as exc:
            rc.minimize_over_detuning(p, d, window)
        assert (exc.value.field, exc.value.value, exc.value.bound) == (
            "window", window, "a (low, high) pair")


@pytest.mark.parametrize("window", [
    # a float32 end moved delta_star by 5.7e-4 rad/s
    (np.float32(0.5), 1.5), (0.5, np.float32(1.5)), ("0.5", 1.5),
])
def test_minimize_names_the_window_type_it_rejects(baseline, window):
    p, d = baseline
    with pytest.raises(rc.InvalidParameter) as exc:
        rc.minimize_over_detuning(p, d, window)
    bad = next(x for x in window if type(x) is not float)
    assert (exc.value.field, exc.value.bound) == ("window", "an int or float")
    assert exc.value.value is bad


def test_minimize_takes_an_int_or_a_float64_window(baseline):
    # np.float64 is a float; an int is the float that it stands for
    p, d = baseline
    for window in [(np.float64(0.5), np.float64(1.5)), (0.5, 1)]:
        as_floats = tuple(float(x) for x in window)
        assert (rc.minimize_over_detuning(p, d, window)
                == rc.minimize_over_detuning(p, d, as_floats))


def _point_row(p, delta, quad):
    """The row a sweep must give at (p, delta): entanglement_result's
    numbers, or the unstable note from its error."""
    try:
        res = rc.entanglement_result(p, rc.derive_params(p), delta, quad)
    except rc.UnstableOperatingPoint as err:
        return (None, None, None, None, False,
                f"unstable, margin {err.margin!r} rad/s")
    return (res.var_q_plus, res.var_p_minus, res.product, res.sum, True,
            None)


def _row_tuple(r):
    return (r.var_q_plus, r.var_p_minus, r.product, r.sum, r.stable,
            r.branch_note)


@pytest.mark.parametrize("axis, start, stop, points, fixed, cutoff", [
    # unstable rows beside stable ones, and delta = 0 (a double pole)
    (rc.SweepAxis.DETUNING, -0.5 * _WM, 1.5 * _WM, 21,
     dict(laser_power=20e-3), 50.0),
    (rc.SweepAxis.SQUEEZE_R, 0.0, 2.0, 9, {}, 50.0),
    (rc.SweepAxis.LASER_POWER, 0.0, 12e-3, 9, {}, 50.0),
    # 0 K, Binet alone, and the E1 tail from about 58 uK on
    (rc.SweepAxis.BATH_TEMP, 0.0, 200e-6, 21, {}, 50.0),
    # the Bernoulli series from about 30 uK on at this cutoff
    (rc.SweepAxis.BATH_TEMP, 0.0, 1e-3, 11, {}, 2.1),
])
def test_sweep_rows_equal_point_results_bit_for_bit(axis, start, stop,
                                                    points, fixed, cutoff):
    p = rc.baseline_params(**fixed)
    quad = rc.QuadratureConfig(cutoff)
    detuning = axis is rc.SweepAxis.DETUNING
    spec = rc.SweepSpec(axis=axis, start=start, stop=stop, points=points,
                        fixed=p, quadrature=quad,
                        delta=None if detuning else 0.965 * _WM)
    rows = rc.run_sweep(spec)
    assert len(rows) == points
    if detuning:
        assert 0.0 in [r.axis_value for r in rows]
        assert {r.stable for r in rows} == {True, False}
    for r in rows:
        if detuning:
            want = _point_row(p, r.axis_value, quad)
        else:
            want = _point_row(replace(p, **{axis.value: r.axis_value}),
                              spec.delta, quad)
        assert _row_tuple(r) == want, r.axis_value


def _row_loop(spec):
    """The sweep row by row: replace, derive_params and
    entanglement_result at each grid value. Returns the rows as tuples,
    or raises what the first failing row raises, a NumericalFailure with
    its axis value attached."""
    rows = []
    for v in np.linspace(spec.start, spec.stop, spec.points).tolist():
        p = replace(spec.fixed, **{spec.axis.value: v})
        d = rc.derive_params(p)
        try:
            res = rc.entanglement_result(p, d, spec.delta, spec.quadrature)
        except rc.UnstableOperatingPoint as err:
            rows.append((v, None, None, None, None, False,
                         f"unstable, margin {err.margin!r} rad/s"))
            continue
        except rc.NumericalFailure as err:
            raise rc.NumericalFailure(f"at axis value {v!r}: {err}") from err
        rows.append((v, res.var_q_plus, res.var_p_minus, res.product,
                     res.sum, True, None))
    return rows


def _case(axis, start, stop, points, *, delta_per_wm=0.965, **fixed):
    """A row-loop case at a fixed detuning, named by its grid, by the
    detuning where it is not 0.965 omega_m and by the fields it sets."""
    delta = [] if delta_per_wm == 0.965 else [f"delta={delta_per_wm}"]
    return pytest.param(axis, start, stop, points, delta_per_wm, fixed,
                        id="-".join([str(axis), str(start), str(stop),
                                     str(points), *delta,
                                     *(f"{k}={v}"
                                       for k, v in fixed.items())]))


@pytest.mark.parametrize("axis, start, stop, points, delta_per_wm, fixed", [
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 200e-6, 21),
    # kB T underflows to 0 on the second row alone: the rows that
    # derive_params accepts are not one interval
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1e-300, 11),
    _case(rc.SweepAxis.BATH_TEMP, -1e-6, 1e-4, 5),
    # kB T / hbar overflows from the second row on
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1e298, 5),
    # the variance is finite on the last row, but its criteria are not
    _case(rc.SweepAxis.BATH_TEMP, 1e40, 1e100, 2, squeeze_r=250.0),
    # a fixed field fails validation, its range check or its domain band
    # on every row
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1e-4, 5, cavity_length=-1.0),
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1e-4, 5, mech_quality=1e13),
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1e-4, 5, wavelength=1e308),
    # unstable rows from about 70 mW on
    _case(rc.SweepAxis.LASER_POWER, 0.0, 0.1, 11),
    # drive_eps overflows from the third row on, after an unstable row
    _case(rc.SweepAxis.LASER_POWER, 0.0, 1e284, 11),
    _case(rc.SweepAxis.LASER_POWER, -1e-3, 1e-2, 5),
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 2.0, 9),
    # math.sinh overflows on the second row, sinh^2 r from r = 355 on
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 750.0, 2),
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 1000.0, 5),
    # the variance integral overflows at r = 315, after valid rows
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 315.0, 8),
    _case(rc.SweepAxis.SQUEEZE_R, -1.0, 1.0, 5),
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 1.0, 5, mirror_mass=-1.0),
    # temperature and squeeze stacks solve their drift matrix once:
    # delta = 0 makes a double pole on every row, summed over _nodes'
    # circles
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 200e-6, 11, delta_per_wm=0.0),
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 2e-3, 21, delta_per_wm=0.0,
          laser_power=20e-3),
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 2.0, 9, delta_per_wm=0.0),
    # unstable on every row, each with the point route's margin
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 200e-6, 11, delta_per_wm=0.3,
          laser_power=20e-3),
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 2.0, 5, delta_per_wm=0.3,
          laser_power=20e-3),
    # two stacks, of 256 and 44 rows
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 200e-6, 300),
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1e-3, 300, delta_per_wm=0.0),
    # beta L passes 39 at about 58 uK and pi at about 723 uK: Binet
    # alone, with the E1 tail, and the Bernoulli series in one stack
    _case(rc.SweepAxis.BATH_TEMP, 0.0, 1.5e-3, 31),
    _case(rc.SweepAxis.BATH_TEMP, 50e-6, 800e-6, 76, delta_per_wm=1.2),
    # the variance integral overflows at r = 320, after valid rows
    _case(rc.SweepAxis.SQUEEZE_R, 0.0, 340.0, 18),
])
def test_sweep_equals_the_row_loop(axis, start, stop, points, delta_per_wm,
                                   fixed):
    spec = rc.SweepSpec(axis=axis, start=start, stop=stop, points=points,
                        fixed=rc.baseline_params(**fixed),
                        delta=delta_per_wm * _WM)
    try:
        want = _row_loop(spec)
    except rc.RingCavError as err:
        with pytest.raises(type(err)) as got:
            rc.run_sweep(spec)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        return
    rows = rc.run_sweep(spec)
    assert [(r.axis_value, *_row_tuple(r)) for r in rows] == want
    for r in rows:
        for x in (r.axis_value, r.var_q_plus, r.var_p_minus, r.product,
                  r.sum):
            assert x is None or type(x) is float


def test_a_sweep_takes_float64_parameters():
    # a numpy float64 is a float: validate accepts it, and its checks
    # come out as numpy bools, which must pass where they are true
    floats = {f: v for f, v in vars(rc.baseline_params()).items()
              if type(v) is float}
    p = rc.baseline_params(**{f: np.float64(v) for f, v in floats.items()})
    assert all(type(getattr(p, f)) is np.float64 for f in floats)
    assert rc.derive_params(p) == rc.derive_params(rc.baseline_params())
    for axis in (rc.SweepAxis.BATH_TEMP, rc.SweepAxis.LASER_POWER,
                 rc.SweepAxis.SQUEEZE_R):
        start, stop = _GRIDS[axis]
        got, want = (rc.run_sweep(_spec(axis=axis, start=start, stop=stop,
                                        points=5, delta=5.7e6, fixed=fixed))
                     for fixed in (p, rc.baseline_params()))
        assert got == want


def _unstable(*args):
    raise rc.UnstableOperatingPoint("unstable", 0.0)


@pytest.mark.parametrize("point", [lambda *args: None, _unstable],
                         ids=["solved", "unstable"])
@pytest.mark.parametrize("axis, stop, points, patch_derive, value", [
    # the column derivation rejects bath_temp = 1e-301, the 11th row
    (rc.SweepAxis.BATH_TEMP, 1e-300, 11, True, "1e-301"),
    # the variance integral overflows at r = 315, the last row
    (rc.SweepAxis.SQUEEZE_R, 315.0, 8, False, "315.0"),
], ids=["column", "variance"])
def test_a_row_that_only_the_stacks_reject_is_a_bug(
        monkeypatch, point, axis, stop, points, patch_derive, value):
    # the point route solving, or calling unstable, the row where the
    # stacks stop is an internal inconsistency that names the row
    monkeypatch.setattr(sweep_mod, "entanglement_result", point)
    if patch_derive:
        monkeypatch.setattr(sweep_mod, "derive_params", lambda p: None)
    spec = rc.SweepSpec(axis=axis, start=0.0, stop=stop, points=points,
                        fixed=rc.baseline_params(), delta=0.965 * _WM)
    with pytest.raises(rc.InternalInconsistency) as exc:
        rc.run_sweep(spec)
    assert str(exc.value) == (f"at axis value {value}: the stacks fail a "
                              "row that entanglement_result does not")


@pytest.mark.parametrize("point", [lambda *args: None, _unstable],
                         ids=["solved", "unstable"])
def test_a_grid_point_that_only_the_stacks_reject_is_a_bug(monkeypatch,
                                                          point):
    # r = 320 overflows the variance integral at the coarse grid's first
    # point, 0.5 omega_m
    monkeypatch.setattr(sweep_mod, "entanglement_result", point)
    p = rc.baseline_params(squeeze_r=320.0)
    with pytest.raises(rc.InternalInconsistency) as exc:
        rc.minimize_over_detuning(p, rc.derive_params(p))
    assert str(exc.value) == (f"at detuning {0.5 * _WM!r} rad/s: the stacks "
                              "fail a row that entanglement_result does not")


@pytest.mark.parametrize("r, window, error", [
    (1.0, (2e5, 2.3e5), rc.InvalidParameter),
    (320.0, (0.5, 1.5), rc.NumericalFailure),
], ids=["band", "variance"])
def test_minimiser_error_comes_as_from_the_point(r, window, error):
    # after the "at detuning ... rad/s: " of a NumericalFailure, the
    # error is entanglement_result's at that detuning
    p = rc.baseline_params(squeeze_r=r)
    d = rc.derive_params(p)
    with pytest.raises(error) as got:
        rc.minimize_over_detuning(p, d, window)
    text = str(got.value)
    if error is rc.NumericalFailure:
        where, text = text.split(": ", 1)
        delta = float(where.removeprefix("at detuning ").removesuffix(
            " rad/s"))
        assert where == f"at detuning {delta!r} rad/s"
    else:
        delta = got.value.value
    with pytest.raises(error) as want:
        rc.entanglement_result(p, d, delta)
    assert text == str(want.value)


def _minimize_reference(p, d, window):
    """The minimiser point by point: momentum_variance at every point
    of the coarse grid, of each refinement grid and of each probe about
    the vertex of the parabola through a refinement grid's best point
    and its neighbours."""
    wm = p.mech_freq
    best = [math.nan, math.inf]

    def variances(grid):
        values = []
        for x in grid:
            try:
                v = rc.momentum_variance(
                    p, d, rc.steady_state_at_detuning(p, d, x))
            except rc.UnstableOperatingPoint:
                v = math.inf
            if v < best[1]:
                best[:] = [x, v]
            values.append(v)
        return values

    lo, hi = window[0] * wm, window[1] * wm
    grid = [float(x) for x in np.linspace(
        lo, hi, sweep_mod._coarse_points(hi - lo, p.cavity_decay, wm))]
    width = hi - lo
    tol = min(1e-4 * wm, 1e-3 * p.cavity_decay)
    tau = sweep_mod._PROBE_WIDTH * tol
    while True:
        values = variances(grid)
        i = values.index(min(values))
        left, right = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        if right - left <= tol or right - left >= width:
            return tuple(best)
        refining = width < hi - lo
        width = right - left
        if refining and 0 < i < len(grid) - 1:
            f0, f1, f2 = values[i - 1:i + 2]
            curvature = f0 - 2.0 * f1 + f2
            if 0.0 < curvature < math.inf:
                x = grid[i] + 0.25 * (right - left) * (f0 - f2) / curvature
                if left < x - tau < x < x + tau < right:
                    probed = variances([x - tau, x, x + tau])
                    if probed.index(min(probed)) == 1:
                        return tuple(best)
        grid = [float(x) for x in np.linspace(left, right,
                                              sweep_mod._REFINE_POINTS)]


@pytest.mark.parametrize("window", [(0.5, 1.5), (0.9, 1.05), (0.85, 1.1)])
def test_minimize_matches_probe_by_probe(baseline, window):
    p, d = baseline
    res = rc.minimize_over_detuning(p, d, window)
    assert (res.delta_star, res.value) == _minimize_reference(p, d, window)


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
def test_minimize_finds_the_dense_scan_minimum(r):
    # against a 1e-6 omega_m detuning sweep around the minimum of a
    # 1e-3 omega_m sweep over the widest window
    p = rc.baseline_params(squeeze_r=r)
    d = rc.derive_params(p)
    wm = p.mech_freq

    def scan(start, stop, points):
        rows = rc.run_sweep(rc.SweepSpec(axis=rc.SweepAxis.DETUNING,
                                         start=start, stop=stop,
                                         points=points, fixed=p))
        return min((row for row in rows if row.stable),
                   key=lambda row: row.var_p_minus)

    coarse = scan(0.3 * wm, 1.7 * wm, 1401).axis_value
    dense = scan(coarse - 2e-3 * wm, coarse + 2e-3 * wm, 4001)
    for window in [(0.5, 1.5), (0.9, 1.05), (0.85, 1.1), (0.3, 1.7)]:
        res = rc.minimize_over_detuning(p, d, window)
        assert abs(res.delta_star - dense.axis_value) <= 5e-5 * wm, window
        assert res.value == pytest.approx(dense.var_p_minus, rel=1e-7)


def _dense_minimum(p, window):
    """The least variance over the window: a detuning sweep with a
    spacing of at most s / 64, s = min(kappa, omega_m), then sweeps of
    65 points over the best point's bracket until it is narrower than
    1e-6 s."""
    wm = p.mech_freq
    scale = min(p.cavity_decay, wm)
    lo, hi = window[0] * wm, window[1] * wm
    points = math.ceil(64 * (hi - lo) / scale) + 1
    best = None
    while True:
        rows = rc.run_sweep(rc.SweepSpec(axis=rc.SweepAxis.DETUNING,
                                         start=lo, stop=hi, points=points,
                                         fixed=p))
        values = [r.var_p_minus if r.stable else math.inf for r in rows]
        i = values.index(min(values))
        if best is None or values[i] < best:
            best = values[i]
        lo = rows[max(i - 1, 0)].axis_value
        hi = rows[min(i + 1, len(rows) - 1)].axis_value
        if hi - lo < 1e-6 * scale:
            return best
        points = 65


_NARROW = [(k, r, mw, window)
           for k in (0.005, 0.01, 0.02, 1.0, 10.0, 1e3) for r in (1.0, 2.0)
           for mw in (0.3, 1.0) for window in [(0.5, 1.5), (0.3, 1.7)]]


@pytest.mark.parametrize("kappa_per_wm, r, mw, window", _NARROW)
def test_minimize_resolves_a_narrow_cavity(kappa_per_wm, r, mw, window):
    # in the resolved-sideband regime the variance dip is a fraction of
    # kappa wide (about 0.09 kappa at r = 2), below the spacing of a
    # fixed coarse grid; where kappa >= omega_m the grid must still
    # resolve omega_m
    p = rc.baseline_params(cavity_decay=kappa_per_wm * _WM, squeeze_r=r,
                           laser_power=1e-3 * mw)
    res = rc.minimize_over_detuning(p, rc.derive_params(p), window)
    assert res.value == pytest.approx(_dense_minimum(p, window), rel=1e-5)


@pytest.mark.parametrize("kappa_per_wm", [0.227, 1.0, 4.0, 10.0, 1e6])
def test_minimize_refines_the_coarse_bracket(kappa_per_wm, monkeypatch):
    # a variance that falls towards 0.9 omega_m: the coarse grid's best
    # point must be refined to the tolerance at any kappa, also where
    # the window is only a few kappa wide
    p = rc.baseline_params(cavity_decay=kappa_per_wm * _WM)
    monkeypatch.setattr(sweep_mod, "_grid_variances",
                        lambda p, d, deltas, quad:
                        [(x / _WM - 0.9) ** 2 for x in deltas])
    res = rc.minimize_over_detuning(p, rc.derive_params(p), (0.5, 1.5))
    assert abs(res.delta_star / _WM - 0.9) <= 1e-4


def _counted_grids(monkeypatch, variances=None):
    """The sizes of the grids that the minimiser solves from now on,
    each through variances(deltas), or the real stacked solve."""
    grids = []
    solve = sweep_mod._grid_variances

    def counted(p, d, deltas, quad):
        grids.append(len(deltas))
        if variances is None:
            return solve(p, d, deltas, quad)
        return [variances(x) for x in deltas]

    monkeypatch.setattr(sweep_mod, "_grid_variances", counted)
    return grids


def test_minimiser_work_on_the_narrow_cases(monkeypatch):
    # each grid is one stacked solve, or several past 256 points. The
    # minimiser solved 200 grids here before refinement grids ended in
    # a parabolic probe, and 176 with it
    grids = _counted_grids(monkeypatch)
    for kappa_per_wm, r, mw, window in _NARROW:
        p = rc.baseline_params(cavity_decay=kappa_per_wm * _WM, squeeze_r=r,
                               laser_power=1e-3 * mw)
        rc.minimize_over_detuning(p, rc.derive_params(p), window)
    assert len(grids) < 200


def test_a_missed_probe_costs_one_grid_and_one_probe(monkeypatch):
    # at kappa = omega_m the first probe misses; the grid over the whole
    # bracket holds the minimum inside, so its own probe ends the search.
    # A grid over the probe's side alone ends at the vertex, within a
    # probe width of the minimum: no parabola fits at its end, and a
    # further 24-point grid follows instead of the probe
    grids = _counted_grids(monkeypatch)
    for _, r, mw, window in [c for c in _NARROW if c[0] == 1.0]:
        p = rc.baseline_params(cavity_decay=_WM, squeeze_r=r,
                               laser_power=1e-3 * mw)
        rc.minimize_over_detuning(p, rc.derive_params(p), window)
        assert grids[1:] == [sweep_mod._REFINE_POINTS, 3] * 2, grids
        grids.clear()


def test_a_missed_probe_falls_back_to_a_refinement_grid(baseline,
                                                        monkeypatch):
    # no parabola fits a cusp: its vertex misses the minimum by more
    # than the probe's half-width, and the bracket is refined as before
    p, d = baseline
    grids = _counted_grids(monkeypatch,
                           lambda x: abs(x / _WM - 0.9137) ** 1.3)
    res = rc.minimize_over_detuning(p, d, (0.5, 1.5))
    tol = min(1e-4 * _WM, 1e-3 * p.cavity_decay)
    assert abs(res.delta_star - 0.9137 * _WM) <= tol
    missed = [k for k, n in enumerate(grids[:-1]) if n == 3]
    assert missed
    assert all(grids[k + 1] == sweep_mod._REFINE_POINTS for k in missed)


@pytest.mark.parametrize("variance", [
    # stable only from 0.9137 omega_m on: the best point's left
    # neighbour is unstable on every refinement grid
    lambda x: x / _WM - 0.9137 if x >= 0.9137 * _WM else math.inf,
    # least at the window's lower edge
    lambda x: x / _WM,
], ids=["unstable-neighbour", "window-edge"])
def test_no_probe_without_a_parabola(baseline, monkeypatch, variance):
    p, d = baseline
    grids = _counted_grids(monkeypatch, variance)
    rc.minimize_over_detuning(p, d, (0.5, 1.5))
    assert len(grids) > 2
    assert 3 not in grids


def test_narrow_cavity_minimize_from_the_command_line(tmp_path, capsys):
    # kappa = 0.005 omega_m, r = 2, 1 mW: a 256-point grid over
    # (0.5, 1.5) missed the dip near omega_m and returned 2.39 at the
    # window's edge
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("[params]\nkappa_rad_s = 29750.88242949534\n")
    assert rc.main(["minimize", "--r", "2", "--power-mw", "1",
                    "--config", str(cfg)]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header == "delta_star,value"
    delta_star, value = map(float, line.split(","))
    assert abs(delta_star / _WM - 1.00006) <= 1e-4
    assert value <= 0.05754


def test_detuning_band_error_comes_as_from_the_row_loop(baseline):
    # |delta| < 1e6 kappa (about 2.27e5 omega_m at baseline) ends in the
    # second stack; the rows before it are solved, then the error of the
    # first detuning outside comes as a row-by-row loop raises it
    p, d = baseline
    spec = rc.SweepSpec(axis=rc.SweepAxis.DETUNING, start=2e5 * _WM,
                        stop=2.3e5 * _WM, points=300, fixed=p)
    with pytest.raises(rc.InvalidParameter) as want:
        for v in np.linspace(spec.start, spec.stop, spec.points):
            rc.entanglement_result(p, d, float(v))
    with pytest.raises(rc.InvalidParameter) as got:
        rc.run_sweep(spec)
    assert str(got.value) == str(want.value)
    assert got.value.field == "delta"
    with pytest.raises(rc.InvalidParameter) as got:
        rc.minimize_over_detuning(p, d, (2e5, 2.3e5))
    assert got.value.field == "delta"
    # on another axis the fixed delta fails on the first row, unless
    # that row's parameters fail first (r = 1e4 overflows sinh^2 r)
    far = 3e5 * _WM
    for start, field in ((0.0, "delta"), (1e4, "n_squeeze")):
        spec = rc.SweepSpec(axis=rc.SweepAxis.SQUEEZE_R, start=start,
                            stop=start + 1.0, points=3, fixed=p, delta=far)
        with pytest.raises(rc.InvalidParameter) as want:
            for v in np.linspace(spec.start, spec.stop, spec.points):
                q = replace(p, squeeze_r=float(v))
                rc.entanglement_result(q, rc.derive_params(q), far)
        with pytest.raises(rc.InvalidParameter) as got:
            rc.run_sweep(spec)
        assert str(got.value) == str(want.value)
        assert got.value.field == field


def test_failing_row_is_not_masked_by_the_rows_before_it():
    # r = 315 overflows the residue sum; the rows before it are fine
    p = rc.baseline_params()
    spec = rc.SweepSpec(axis=rc.SweepAxis.SQUEEZE_R, start=0.0, stop=315.0,
                        points=8, fixed=p, delta=0.965 * p.mech_freq)
    with pytest.raises(rc.NumericalFailure) as err:
        rc.run_sweep(spec)
    assert str(err.value).startswith(
        "at axis value 315.0: variance integral is not finite")


def test_domain_band_error_comes_as_from_the_row_loop():
    # kB T / hbar omega_m passes 1e150 on the third row
    p = rc.baseline_params()
    spec = rc.SweepSpec(axis=rc.SweepAxis.BATH_TEMP, start=4e145,
                        stop=5e145, points=3, fixed=p,
                        delta=0.965 * p.mech_freq)
    with pytest.raises(rc.InvalidParameter) as want:
        for v in np.linspace(spec.start, spec.stop, spec.points):
            q = replace(p, bath_temp=float(v))
            rc.entanglement_result(q, rc.derive_params(q), spec.delta)
    with pytest.raises(rc.InvalidParameter) as got:
        rc.run_sweep(spec)
    assert str(got.value) == str(want.value)
    assert got.value.field == "bath_temp"


def test_stability_tests_disagreeing_in_a_stack_is_a_bug(baseline,
                                                        monkeypatch):
    # the Routh-Hurwitz test that the scalar verdict and the stacked rows
    # share, made to call every point unstable (on floats and on arrays)
    p, d = baseline
    for module in (rc.stability, rc.spectra):
        monkeypatch.setattr(module, "_hurwitz", lambda wm, *rest: wm < 0.0)
    s = rc.steady_state_at_detuning(p, d, 0.965 * p.mech_freq)
    with pytest.raises(rc.InternalInconsistency) as scalar:
        rc.stability_verdict(p, d, s)
    with pytest.raises(rc.InternalInconsistency) as stacked:
        rc.run_sweep(_spec(points=4))
    assert "tests disagree" in str(scalar.value)
    assert "tests disagree" in str(stacked.value)
    with pytest.raises(rc.InternalInconsistency):
        rc.momentum_variance(p, d, s)
    # the minimiser's grids pass it on as it is
    with pytest.raises(rc.InternalInconsistency, match="tests disagree"):
        rc.minimize_over_detuning(p, d)


# each axis' range (omega_m for detuning): into unstable rows, r where
# the variance overflows (about 302 to 355) and beyond, where derive_params
# rejects the row
_AXIS_RANGES = {rc.SweepAxis.DETUNING: (-1.0, 3.0),
                rc.SweepAxis.SQUEEZE_R: (0.0, 1000.0),
                rc.SweepAxis.LASER_POWER: (0.0, 0.3),
                rc.SweepAxis.BATH_TEMP: (0.0, 1e-2)}


@st.composite
def _any_sweep(draw):
    """A SweepSpec over a drawn range of a drawn axis, 2 to 257 points
    (across _CHUNK), at drawn fixed r, power, bath temperature, cutoff
    and operating detuning."""
    axis = draw(st.sampled_from(rc.SweepAxis))
    start, stop = sorted(draw(st.lists(st.floats(*_AXIS_RANGES[axis]),
                                       min_size=2, max_size=2, unique=True)))
    p = rc.baseline_params(
        squeeze_r=draw(st.floats(0.0, 2.5)),
        laser_power=10.0 ** draw(st.floats(-3.5, -1.5)),
        bath_temp=draw(st.just(0.0) | st.floats(1e-7, 3e-3)))
    unit, delta = _WM, None
    if axis is not rc.SweepAxis.DETUNING:
        unit, delta = 1.0, draw(st.floats(-0.5, 2.0)) * _WM
    return rc.SweepSpec(
        axis=axis, start=start * unit, stop=stop * unit,
        points=draw(st.sampled_from([2, 12, 65, sweep_mod._CHUNK + 1])),
        fixed=p, delta=delta,
        quadrature=rc.QuadratureConfig(draw(st.sampled_from([2.1, 50.0]))))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_any_sweep())
def test_any_sweep_fails_as_a_ring_cav_error_with_its_exit_code(spec):
    # run_sweep and the sweep command on the same config: a failure is a
    # RingCavError, the command exits with its documented code (1 for a
    # usage or parameter error, 2 for physics or numerics) and message,
    # and neither raises a warning
    config = rc.serialize_config(rc.RunConfig(
        params=spec.fixed, quadrature=spec.quadrature, sweep=spec,
        output_path="-", output_format="csv"))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        warnings.simplefilter("error")
        try:
            rows, code = rc.run_sweep(spec), 0
        except rc.RingCavError as exc:
            rows, message = None, f"error: {exc}\n"
            code = 1 if isinstance(exc, (rc.InvalidParameter,
                                         rc.ConfigError)) else 2
        path = Path(tmp, "run.cfg")
        path.write_text(config)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = rc.main(["sweep", "--config", str(path)])
    assert got == code, err.getvalue()
    if code:
        assert err.getvalue().endswith(message) and not out.getvalue()
    else:
        assert out.getvalue().count("\n") == len(rows) + 1


def test_unstable_rows_mid_stack_leave_their_neighbours_be():
    # at 20 mW: stable at zero detuning, unstable up to about 0.6 omega_m
    p = rc.baseline_params(laser_power=20e-3)
    rows = rc.run_sweep(rc.SweepSpec(
        axis=rc.SweepAxis.DETUNING, start=0.0, stop=1.2 * p.mech_freq,
        points=21, fixed=p))
    flags = [r.stable for r in rows]
    first, last = flags.index(False), len(flags) - flags[::-1].index(False)
    assert 0 < first and last < len(rows) and any(flags[:first])
    for r in rows:
        assert _row_tuple(r) == _point_row(p, r.axis_value,
                                           rc.QuadratureConfig())


def test_eigen_solves_per_sweep_and_minimiser(baseline, monkeypatch):
    # one stacked eigen-solve per chunk of rows and per minimiser grid,
    # and one column-wise row build for each, but the probe's three
    # points, which _row_matrix builds one at a time: no row-by-row
    # fallback
    p, d = baseline
    wm = p.mech_freq
    solves = []
    builds = []
    eigvals = np.linalg.eigvals
    columns = rc.spectra._columns

    def counted(a):
        solves.append(np.shape(a))
        return eigvals(a)

    def counted_columns(*args):
        builds.append(np.shape(args[_DELTA_INPUT]))
        return columns(*args)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    monkeypatch.setattr(rc.spectra, "_columns", counted_columns)
    rows = rc.run_sweep(rc.SweepSpec(axis=rc.SweepAxis.DETUNING,
                                     start=0.3 * wm, stop=1.7 * wm,
                                     points=200, fixed=p))
    assert len(rows) == 200
    assert len(solves) <= math.ceil(200 / sweep_mod._CHUNK)
    assert builds == [(200,)]

    solves.clear()
    builds.clear()
    grids = []
    grid_variances = sweep_mod._grid_variances

    def counted_grid(*args):
        grids.append(len(args[2]))
        return grid_variances(*args)

    monkeypatch.setattr(sweep_mod, "_grid_variances", counted_grid)
    rc.minimize_over_detuning(p, d)
    coarse = sweep_mod._coarse_points(1.5 * wm - 0.5 * wm, p.cavity_decay,
                                      wm)
    # a refinement grid, then a parabolic probe of three points
    assert grids == [coarse, sweep_mod._REFINE_POINTS, 3] == [37, 24, 3]
    assert len(solves) == len(grids)
    # the grids' builds run on their detuning columns, the probe's on
    # one point's floats at a time
    assert 3 <= rc.spectra._POINTWISE < 24
    assert builds == [(37,), (24,), (), (), ()]


@pytest.mark.parametrize("axis, start, stop, stacks", [
    # the swept field leaves the drift matrix alone: one solve a stack
    (rc.SweepAxis.BATH_TEMP, 0.0, 200e-6, [(1, 4, 4), (1, 4, 4)]),
    (rc.SweepAxis.SQUEEZE_R, 0.0, 2.0, [(1, 4, 4), (1, 4, 4)]),
    # the drive moves the amplitude, and with it the drift matrix
    (rc.SweepAxis.LASER_POWER, 1e-3, 4e-3, [(256, 4, 4), (44, 4, 4)]),
])
def test_a_fixed_detuning_stack_solves_its_drift_matrix_once(
        baseline, monkeypatch, axis, start, stop, stacks):
    # the shapes of the matrix stacks that np.linalg.eigvals receives
    p, d = baseline
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(a):
        shapes.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rows = rc.run_sweep(rc.SweepSpec(axis=axis, start=start, stop=stop,
                                     points=300, fixed=p,
                                     delta=0.965 * _WM))
    assert len(rows) == 300 and all(r.stable for r in rows)
    assert shapes == stacks
    # the minimiser's grids share no drift matrix
    shapes.clear()
    rc.minimize_over_detuning(p, d)
    assert shapes == [(37, 4, 4), (24, 4, 4), (3, 4, 4)]


def test_a_failed_shared_eigen_solve_fails_the_first_row(baseline,
                                                         monkeypatch):
    # eigvals fails on the drift matrix that every row of a temperature
    # sweep shares: the sweep raises the point route's error at its first
    # row, with no partial rows and no inconsistency
    p, d = baseline
    delta = 0.965 * _WM
    shared = rc.drift_matrix(p, d, rc.steady_state_at_detuning(p, d, delta))
    eigvals = np.linalg.eigvals

    def failing(a):
        if (np.asarray(a) == shared).all((-2, -1)).any():
            raise np.linalg.LinAlgError("marked matrix")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    spec = rc.SweepSpec(axis=rc.SweepAxis.BATH_TEMP, start=0.0,
                        stop=200e-6, points=300, fixed=p, delta=delta)
    with pytest.raises(rc.NumericalFailure) as err:
        rc.run_sweep(spec)
    assert type(err.value) is rc.NumericalFailure
    assert str(err.value) == ("at axis value 0.0: eigenvalue computation "
                              "failed: marked matrix")
