import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ringcav as rc
from ringcav.quadrature import integrate_adaptive


def test_polynomial_exact():
    res = integrate_adaptive(lambda x: x * x, [0.0, 1.0])
    assert res.value.real == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert res.value.imag == 0.0


def test_sine_over_period():
    res = integrate_adaptive(np.sin, [0.0, math.pi])
    assert res.value.real == pytest.approx(2.0, rel=1e-12)


def test_gaussian_full_line():
    res = integrate_adaptive(lambda x: np.exp(-x * x), [-20.0, 0.0, 20.0])
    assert res.value.real == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_complex_integrand():
    res = integrate_adaptive(lambda x: np.exp(1j * x), [0.0, 1.0])
    assert res.value.real == pytest.approx(math.sin(1.0), rel=1e-12)
    assert res.value.imag == pytest.approx(1.0 - math.cos(1.0), rel=1e-12)


def test_seeded_narrow_lorentzian():
    # width 1e-6 line inside a width-100 window: converges quickly when
    # the initial mesh straddles the feature
    gamma = 1e-6
    x0 = 0.3

    def f(x):
        return gamma / ((x - x0) ** 2 + gamma * gamma)

    pts = sorted({-50.0, 50.0, x0}
                 | {x0 + k * gamma for k in (-54, -18, -6, -2, 2, 6, 18, 54)})
    res = integrate_adaptive(f, pts)
    exact = math.atan((50.0 - x0) / gamma) - math.atan((-50.0 - x0) / gamma)
    assert res.value.real == pytest.approx(exact, rel=1e-9)
    assert res.depth < 30


def test_unseeded_narrow_spike_hits_depth_limit():
    gamma = 1e-9

    def f(x):
        return gamma / ((x - 0.3) ** 2 + gamma * gamma)

    with pytest.raises(rc.NumericalFailure):
        integrate_adaptive(f, [-50.0, 50.0], max_depth=5)
    # on a background the tolerance is relative, a numpy scalar; the
    # message shows it as a plain float
    with pytest.raises(rc.NumericalFailure) as exc:
        integrate_adaptive(lambda x: f(x) + 1e-3, [-50.0, 50.0], max_depth=5)
    assert "tolerance 1.0" in str(exc.value)
    assert "np." not in str(exc.value)


def test_non_finite_integrand_fails_fast():
    # a NaN on one panel once sent every finite panel into bisection,
    # generation after generation, until memory ran out
    calls = []

    def f(x):
        calls.append(x.size)
        assert len(calls) <= 5, "integrator kept refining a NaN total"
        return np.where((x > 0.3) & (x < 0.4), np.nan, x)

    with pytest.raises(rc.NumericalFailure, match="not finite"):
        integrate_adaptive(f, np.linspace(0.0, 1.0, 11))
    assert len(calls) == 1


def test_breakpoint_validation():
    with pytest.raises(rc.NumericalFailure):
        integrate_adaptive(np.sin, [1.0])
    with pytest.raises(rc.NumericalFailure):
        integrate_adaptive(np.sin, [1.0, 0.5, 2.0])


def test_diagnostics_consistency():
    res = integrate_adaptive(lambda x: 1.0 / (1.0 + x * x),
                             [-30.0, -1.0, 1.0, 30.0])
    assert res.n_eval % 15 == 0
    assert res.n_panels >= 3
    assert res.error <= max(1e-12, 1e-9 * abs(res.value))
    assert res.value.real == pytest.approx(
        math.atan(30.0) - math.atan(-30.0), rel=1e-10)


@given(coeffs=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                       min_size=1, max_size=14),
       a=st.floats(min_value=-2.0, max_value=0.0),
       width=st.floats(min_value=0.1, max_value=4.0))
def test_low_degree_polynomials_integrate_exactly(coeffs, a, width):
    # the embedded 7-point Gauss rule is exact through degree 13, so a
    # single panel must come back with a near-zero error estimate
    b = a + width
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    res = integrate_adaptive(poly, [a, b])
    exact = anti(b) - anti(a)
    assert res.value.real == pytest.approx(exact, rel=1e-9, abs=1e-9)
    assert res.depth == 0
