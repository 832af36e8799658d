"""Parameter sweeps and the detuning optimisation used by the presets.

A sweep walks one axis (detuning, squeezing, laser power or bath
temperature) across a uniform grid, evaluating both entanglement
criteria at every point; unstable points are reported as such instead
of aborting the scan.  Rows come back in grid order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (InvalidParameter, NumericalFailure, NoStablePoint,
                     UnstableOperatingPoint)
from .model import DerivedParams, PhysicalParams, derive_params
from .spectra import (QuadratureConfig, entanglement_result,
                      momentum_variance)
# the verdict stays importable from here for callers that look it up
# in this namespace; momentum_variance runs it once per point
from .stability import stability_verdict  # noqa: F401
from .steady import steady_state_at_detuning

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "MinimizeResult",
    "run_sweep",
    "minimize_over_detuning",
]


class SweepAxis(enum.Enum):
    """Which quantity a sweep varies; values name the config spelling."""

    DETUNING = "detuning"
    SQUEEZE_R = "squeeze_r"
    LASER_POWER = "laser_power"
    BATH_TEMP = "bath_temp"


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an axis, a uniform grid, and the fixed parameters.

    Axis values are SI: rad/s for detuning, W for power, K for
    temperature, dimensionless for the squeezing parameter.  For every
    axis other than detuning the operating (effective) detuning must be
    supplied in ``delta``; a detuning sweep must leave it unset.
    """

    axis: SweepAxis
    start: float
    stop: float
    points: int
    fixed: PhysicalParams
    quadrature: QuadratureConfig = QuadratureConfig()
    delta: float | None = None

    def __post_init__(self):
        if not isinstance(self.axis, SweepAxis):
            raise InvalidParameter("axis", self.axis, "a SweepAxis member")
        if not (isinstance(self.points, int) and self.points >= 2):
            raise InvalidParameter("points", self.points, "an integer >= 2")
        for f in ("start", "stop"):
            v = getattr(self, f)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParameter(f, v, "finite")
        if not self.start < self.stop:
            raise InvalidParameter("start", self.start, "< stop")
        if self.axis is SweepAxis.DETUNING:
            if self.delta is not None:
                raise InvalidParameter(
                    "delta", self.delta,
                    "unset for a detuning sweep (the axis provides it)")
        elif self.delta is None or not math.isfinite(self.delta):
            raise InvalidParameter(
                "delta", self.delta,
                "a finite operating detuning for a non-detuning axis")


@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep.

    Unstable points carry ``stable=False`` and ``None`` in every
    variance-derived column; ``branch_note`` then says why.
    """

    axis_value: float
    var_q_plus: float | None
    var_p_minus: float | None
    product: float | None
    sum: float | None
    stable: bool
    branch_note: str | None = None


_AXIS_FIELD = {
    SweepAxis.SQUEEZE_R: "squeeze_r",
    SweepAxis.LASER_POWER: "laser_power",
    SweepAxis.BATH_TEMP: "bath_temp",
}


def _sweep_row(p: PhysicalParams, d: DerivedParams, delta: float,
               value: float, quad: QuadratureConfig) -> SweepRow:
    try:
        res = entanglement_result(p, d, delta, quad)
    except UnstableOperatingPoint as err:
        return SweepRow(axis_value=value, var_q_plus=None, var_p_minus=None,
                        product=None, sum=None, stable=False,
                        branch_note=f"unstable, margin {err.margin!r} rad/s")
    except NumericalFailure as err:
        raise NumericalFailure(
            f"at axis value {value!r}: {err}") from err
    return SweepRow(axis_value=value, var_q_plus=res.var_q_plus,
                    var_p_minus=res.var_p_minus, product=res.product,
                    sum=res.sum, stable=True)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep, in grid order.

    Raises
    ------
    NumericalFailure
        From any row's integral, with the axis value attached.
    """
    grid = [float(v) for v in
            np.linspace(spec.start, spec.stop, spec.points)]
    quad = spec.quadrature
    if spec.axis is SweepAxis.DETUNING:
        # the parameters are the same on every row
        d = derive_params(spec.fixed)
        return [_sweep_row(spec.fixed, d, v, v, quad) for v in grid]
    rows = []
    for v in grid:
        p = replace(spec.fixed, **{_AXIS_FIELD[spec.axis]: v})
        rows.append(_sweep_row(p, derive_params(p), spec.delta, v, quad))
    return rows


@dataclass(frozen=True)
class MinimizeResult:
    """Detuning (rad/s) minimising the coupled-momentum variance, and
    the variance there."""

    delta_star: float
    value: float


def _variance_at(p: PhysicalParams, d: DerivedParams, delta: float,
                 quad: QuadratureConfig) -> float:
    """Variance at one detuning; +inf when the point is unstable."""
    s = steady_state_at_detuning(p, d, delta)
    try:
        return momentum_variance(p, d, s, quad)
    except UnstableOperatingPoint:
        return math.inf


_GRID_POINTS = 256
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_over_detuning(p: PhysicalParams, d: DerivedParams,
                           window: tuple[float, float] = (0.5, 1.5),
                           quad: QuadratureConfig | None = None
                           ) -> MinimizeResult:
    """Minimise the coupled-momentum variance over a detuning window.

    Parameters
    ----------
    window:
        (low, high) bounds of the effective detuning in units of the
        mechanical frequency.
    quad:
        Integration controls; defaults apply when omitted.

    A coarse grid locates the basin, golden-section refines it to
    1e-4 * omega_m, and the best point seen anywhere is returned.

    Raises
    ------
    NoStablePoint
        If no point of the window is stable.
    """
    if quad is None:
        quad = QuadratureConfig()
    lo, hi = window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise InvalidParameter("window", window, "finite with low < high")
    wm = p.mech_freq
    a = lo * wm
    b = hi * wm

    best_delta = math.nan
    best_value = math.inf

    def probe(delta: float) -> float:
        nonlocal best_delta, best_value
        v = _variance_at(p, d, delta, quad)
        if v < best_value:
            best_value = v
            best_delta = delta
        return v

    grid = np.linspace(a, b, _GRID_POINTS)
    values = [probe(float(x)) for x in grid]
    if not math.isfinite(best_value):
        raise NoStablePoint(
            f"no stable operating point for detuning in "
            f"[{a!r}, {b!r}] rad/s")

    i = int(np.argmin(values))
    left = float(grid[max(i - 1, 0)])
    right = float(grid[min(i + 1, _GRID_POINTS - 1)])

    x1 = right - _INVPHI * (right - left)
    x2 = left + _INVPHI * (right - left)
    f1 = probe(x1)
    f2 = probe(x2)
    while right - left > 1e-4 * wm:
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - _INVPHI * (right - left)
            f1 = probe(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + _INVPHI * (right - left)
            f2 = probe(x2)

    return MinimizeResult(delta_star=best_delta, value=best_value)
