"""Every real input of the library against the same adversarial values.

Each slot below takes each value in turn, with everything else at
baseline; the full product runs, so no case depends on a seed.  A call
returns or raises a RingCavError, never anything else, and no float it
returns is a float32.  A real input is an int or a float and not a
bool, and an int must fit a float: the others raise InvalidParameter.
"""

from dataclasses import fields, is_dataclass, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import ringcav as rc

P = rc.baseline_params()
D = rc.derive_params(P)

VALUES = {
    "True": True, "False": False, "1e400": 10**400, "-1e400": -10**400,
    "float32": np.float32(1), "int64": np.int64(1),
    "Fraction": Fraction(1, 2), "Decimal": Decimal("1"),
    "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"),
    "-0.0": -0.0, "str": "1", "None": None, "complex": 1 + 0j,
}


def _sweep(**slot):
    # detunings in rad/s about 1, with start < stop for a value of 1
    spec = rc.SweepSpec(**{"axis": rc.SweepAxis.DETUNING, "start": -1.0,
                           "stop": 2.0, "points": 3, "fixed": P, **slot})
    return rc.run_sweep(spec)


SLOTS = {
    **{f"params.{f.name}": (lambda f: lambda v: rc.derive_params(
        replace(P, **{f: v})))(f.name)
       for f in fields(rc.PhysicalParams) if f.name != "geometry"},
    "quadrature.cutoff": lambda v: rc.QuadratureConfig(cutoff=v),
    "sweep.start": lambda v: _sweep(start=v),
    "sweep.stop": lambda v: _sweep(stop=v),
    "sweep.delta": lambda v: _sweep(axis=rc.SweepAxis.BATH_TEMP, start=0.0,
                                    stop=1e-4, delta=v),
    "sweep.points": lambda v: _sweep(points=v),
    "window.low": lambda v: rc.minimize_over_detuning(P, D, (v, 1.5)),
    "window.high": lambda v: rc.minimize_over_detuning(P, D, (0.5, v)),
    "steady_state_at_detuning": lambda v: rc.steady_state_at_detuning(
        P, D, v),
    "find_steady_branches": lambda v: rc.find_steady_branches(P, D, v),
    "entanglement_result": lambda v: rc.entanglement_result(P, D, v),
}


def _leaves(x):
    if is_dataclass(x):
        for f in fields(x):
            yield from _leaves(getattr(x, f.name))
    elif isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("slot", SLOTS)
def test_every_real_input_returns_or_raises_a_ringcav_error(slot, value):
    v = VALUES[value]
    refused = (isinstance(v, bool) or not isinstance(v, (int, float))
               or (isinstance(v, int) and abs(v) >= 2**1024))
    try:
        result = SLOTS[slot](v)
    except rc.InvalidParameter:
        return
    except rc.RingCavError:
        assert not refused
        return
    assert not refused, f"{slot} accepted {v!r}"
    assert not any(np.asarray(x).dtype == np.float32
                   for x in _leaves(result))
