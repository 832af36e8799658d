"""Parameter sweeps and the detuning optimisation used by the presets.

A sweep walks one axis (detuning, squeezing, laser power or bath
temperature) across a uniform grid, evaluating both entanglement
criteria at every point; unstable points are reported as such instead
of aborting the scan.  Rows come back in grid order.  The rows, and the
minimiser's grids, are solved as stacks of up to _CHUNK operating points
(one eigen-solve and one residue sum each); a row equals the
``entanglement_result`` at its point bit for bit.  A stack's inputs
are floats where all its rows share them and columns where they vary.
Its steady-state inputs come straight from its detunings (the swept
grid, or the one fixed delta of the other axes), with no SteadyState
per point, and the parameters are derived once: a temperature, power
or squeezing sweep carries its field as a column through derive_params'
arithmetic and checks.  A stack shares one pole set when none of its
pole inputs is a column: a temperature or squeezing sweep at its fixed
detuning leaves the drift matrix as it is, so _row_matrix builds that
matrix once and _variances solves it once (the eigen-solve, the
stability verdicts and the pole weights) and broadcasts it against the
rows' own bath and squeezing columns.  The stacks stop at the first
row that fails (see _solve and run_sweep), and that row alone goes
through entanglement_result, which raises its error as a row-by-row
loop would.

The minimiser works in units of the cavity linewidth kappa and of the
mechanical frequency omega_m: a coarse grid of spacing
min(kappa, omega_m) / 8 (4 to 4,096 points; wider windows than 512
times that scale are no longer resolved), then refinement grids until
the bracket is narrower than min(1e-4 omega_m, 1e-3 kappa).  Each
refinement grid ends in a probe of three points about the vertex of the
parabola through its best point and that point's neighbours: where the
vertex beats both sides, its bracket is narrower than the tolerance and
the search ends; elsewhere the grid's bracket is refined as before.  At
baseline that is 37 + 24 + 3 = 64 points in three stacks.
"""

from __future__ import annotations

import enum
import math
import operator
from collections import deque
from dataclasses import dataclass, fields, replace
from itertools import repeat
from typing import NoReturn

import numpy as np

from .errors import (InternalInconsistency, InvalidParameter,
                     NumericalFailure, NoStablePoint, UnstableOperatingPoint)
from .model import (DerivedParams, PhysicalParams, _derive_column, _leading,
                    _violation, derive_params)
from .spectra import (QuadratureConfig, _cutoff, _inputs, _variances,
                      entanglement_result, q_plus_variance)
# re-exported: bench/tracing.py and bench/tests look it up here
from .stability import stability_verdict  # noqa: F401
from .steady import _in_band

__all__ = [
    "SweepAxis",
    "SweepSpec",
    "SweepRow",
    "MinimizeResult",
    "run_sweep",
    "minimize_over_detuning",
]


class SweepAxis(enum.Enum):
    """Which quantity a sweep varies; values are the config spelling
    and, but for detuning, the PhysicalParams field the axis sets."""

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
    supplied in ``delta``; a detuning sweep must leave it unset.  The
    grid has 2 to 1,000,000 points.
    """

    axis: SweepAxis
    start: float
    stop: float
    points: int
    fixed: PhysicalParams
    quadrature: QuadratureConfig = QuadratureConfig()
    delta: float | None = None

    def __post_init__(self):
        for f, kind, bound in (
                ("axis", SweepAxis, "a SweepAxis member"),
                ("fixed", PhysicalParams, "a PhysicalParams"),
                ("quadrature", QuadratureConfig, "a QuadratureConfig")):
            if not isinstance(getattr(self, f), kind):
                raise InvalidParameter(f, getattr(self, f), bound)
        integral = (hasattr(type(self.points), "__index__")
                    and not isinstance(self.points, bool))
        if not (integral and operator.index(self.points) >= 2):
            raise InvalidParameter("points", self.points, "an integer >= 2")
        # a numpy integer is kept as the int that it stands for
        object.__setattr__(self, "points", operator.index(self.points))
        if self.points > 1_000_000:  # a row holds about 0.8 KB
            raise InvalidParameter("points", self.points, "at most 1000000")
        for f in ("start", "stop"):
            err = _violation(f, getattr(self, f), "finite", math.isfinite)
            if err is not None:
                raise err
        if not self.start < self.stop:
            raise InvalidParameter("start", self.start, "< stop")
        if self.axis is SweepAxis.DETUNING:
            if self.delta is not None:
                raise InvalidParameter(
                    "delta", self.delta,
                    "unset for a detuning sweep (the axis provides it)")
        elif self.delta is None:
            raise InvalidParameter(
                "delta", self.delta,
                "a finite operating detuning for a non-detuning axis")
        elif (err := _violation("delta", self.delta, "finite",
                                math.isfinite)) is not None:
            raise err


@dataclass(frozen=True, slots=True)
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


# operating points per stacked solve: bounds the memory of a long sweep
_CHUNK = 256
# SweepRow's slot setters in field order: run_sweep fills its stable rows
# through them, without the frozen __init__'s object.__setattr__ calls
_SLOTS = [getattr(SweepRow, f.name).__set__ for f in fields(SweepRow)]


def _solve(p: PhysicalParams, d: DerivedParams, deltas, points: int,
           cutoff: float):
    """The variances, {row: margin} and the number k of rows solved in
    stacks of up to _CHUNK, up to the first detuning outside the band or
    variance that fails; +inf where a row is unstable.  deltas is the
    detuning grid (points) or a fixed detuning, and the fields of p and
    d are floats, or columns of points entries.  _variances sees from
    the form of a stack's inputs whether its rows share one drift
    matrix."""
    # as no axis moves kappa, a fixed delta is in the band on every row
    # or on none: only a detuning grid stops short of its points
    grid = isinstance(deltas, np.ndarray)
    ok = _in_band(deltas, p.cavity_decay)
    k = _leading(ok) if grid else points if ok else 0
    values, margins = np.empty(k), {}
    if not k:  # d may be None
        return values, margins, k
    inputs = _inputs(p, d, deltas[:k] if grid else deltas)
    for start in range(0, k, _CHUNK):
        v, failures = _variances(
            [x[start:start + _CHUNK] if isinstance(x, np.ndarray) else x
             for x in inputs], cutoff)
        values[start:start + len(v)] = v
        for i, err in failures.items():
            if not isinstance(err, UnstableOperatingPoint):
                return values[:start + i], margins, start + i
            values[start + i] = math.inf
            margins[start + i] = err.margin
    return values, margins, k


def _raise_at(where: str, p: PhysicalParams, d: DerivedParams,
              delta: float, quad: QuadratureConfig) -> NoReturn:
    """Raise entanglement_result's error at a row where the stacks stop,
    a NumericalFailure with where in front; a row that it solves, or
    calls unstable, is an InternalInconsistency."""
    try:
        entanglement_result(p, d, delta, quad)
    except NumericalFailure as err:
        raise NumericalFailure(f"{where}: {err}") from err
    except UnstableOperatingPoint:
        pass
    raise InternalInconsistency(
        f"{where}: the stacks fail a row that entanglement_result does not")


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep, in grid order.

    The parameters are derived once, with the swept field as a column,
    and the rows solved in stacks up to the first that fails (on the
    column, _solve or the criteria), where the point route raises.

    Raises
    ------
    NumericalFailure
        From any row's integral or criteria, with the axis value attached.
    RingCavError
        Whatever the first failing row raises, as a row-by-row loop would.
    InternalInconsistency
        If the point route solves a row where the stacks fail.
    """
    grid = np.linspace(spec.start, spec.stop, spec.points)
    values = grid.tolist()
    field = spec.axis.value
    if spec.axis is SweepAxis.DETUNING:
        p, d, deltas = spec.fixed, derive_params(spec.fixed), grid
        n = spec.points
    else:
        # the rows that derive_params accepts, all at the one detuning
        p, d = _derive_column(spec.fixed, field, grid)
        deltas, n = float(spec.delta), len(getattr(p, field))
    var_p, margins, k = _solve(p, d, deltas, n, spec.quadrature.cutoff)
    if k:
        var_q = np.broadcast_to(q_plus_variance(p, d), n)[:k]
        with np.errstate(over="ignore", invalid="ignore"):
            prod = var_q * var_p
            tot = var_q + var_p
        # a stable row fails on criteria that are not finite, which
        # the minimiser's grids do not compute
        k = _leading((var_p == math.inf)
                     | (np.isfinite(prod) & np.isfinite(tot)))
    if k < spec.points:
        if spec.axis is SweepAxis.DETUNING:
            q, delta = spec.fixed, values[k]
        else:
            q, delta = replace(spec.fixed, **{field: values[k]}), spec.delta
        _raise_at(f"at axis value {values[k]!r}", q, derive_params(q), delta,
                  spec.quadrature)
    rows = list(map(object.__new__, repeat(SweepRow, len(values))))
    for put, column in zip(_SLOTS, (
            values, var_q.tolist(), var_p.tolist(), prod.tolist(),
            tot.tolist(), repeat(True), repeat(None))):
        deque(map(put, rows, column), 0)
    for i, margin in margins.items():
        rows[i] = SweepRow(values[i], None, None, None, None, False,
                           f"unstable, margin {margin!r} rad/s")
    return rows


@dataclass(frozen=True)
class MinimizeResult:
    """Detuning (rad/s) minimising the coupled-momentum variance, and
    the variance there."""

    delta_star: float
    value: float


def _grid_variances(p: PhysicalParams, d: DerivedParams, deltas,
                    quad: QuadratureConfig) -> list[float]:
    """The variance at each detuning, +inf where the point is unstable,
    solved in stacks; the first point that fails goes to _raise_at."""
    deltas = np.asarray(deltas, float)
    values, _, k = _solve(p, d, deltas, len(deltas), _cutoff(quad))
    if k < len(deltas):
        delta = float(deltas[k])
        _raise_at(f"at detuning {delta!r} rad/s", p, d, delta, quad)
    return values.tolist()


# coarse grid points per min(kappa, omega_m) of window, and at most
# this many points
_PER_SCALE = 8
_MAX_GRID = 16 * _CHUNK
# points per refinement grid: three bring the baseline bracket below
# 1e-4 omega_m
_REFINE_POINTS = 24
# a probe's half-width in units of the tolerance: just under 1/2, so
# that its bracket is narrower than the tolerance
_PROBE_WIDTH = 0.49


def _coarse_points(span: float, kappa: float, wm: float) -> int:
    """Points of the minimiser's coarse grid over a detuning window span
    (rad/s): a spacing of at most min(kappa, wm) / 8, from 4 to
    _MAX_GRID points.  Four points or more make the best point's bracket
    narrower than the window, whichever point is best."""
    # the quotient can overflow to inf: cap it before math.ceil
    per = min(_PER_SCALE * span / min(kappa, wm), _MAX_GRID)
    return max(4, min(math.ceil(per) + 1, _MAX_GRID))


def _probe(grid: np.ndarray, values: list[float], i: int,
           tau: float) -> list[float] | None:
    """x - tau, x and x + tau about the vertex x of the parabola through
    a grid's best point i and its neighbours; None unless i is interior,
    the parabola's curvature is positive and finite, and the three are
    distinct floats strictly inside the bracket."""
    if not 0 < i < len(grid) - 1:
        return None
    f0, f1, f2 = values[i - 1:i + 2]
    curvature = f0 - 2.0 * f1 + f2
    if not 0.0 < curvature < math.inf:
        return None
    x0, x1, x2 = grid[i - 1:i + 2].tolist()
    x = x1 + 0.25 * (x2 - x0) * (f0 - f2) / curvature
    if not x0 < x - tau < x < x + tau < x2:
        return None
    return [x - tau, x, x + tau]


def minimize_over_detuning(p: PhysicalParams, d: DerivedParams,
                           window: tuple[float, float] = (0.5, 1.5),
                           quad: QuadratureConfig = QuadratureConfig()
                           ) -> MinimizeResult:
    """Minimise the coupled-momentum variance over a detuning window.

    Parameters
    ----------
    window:
        (low, high) bounds of the effective detuning in units of the
        mechanical frequency.
    quad:
        The integration window; the default applies when omitted.

    The narrowest feature of the variance scales with the cavity
    linewidth kappa, or with omega_m where kappa is wider, so the coarse
    grid that locates the basin has a spacing of s / 8 with
    s = min(kappa, omega_m): ceil(8 (high - low) omega_m / s) + 1
    points, at least 4 and at most 4,096.  At the cap, windows wider
    than 512 s (kappa below about 2e-3 omega_m per omega_m of window)
    get a coarser grid, which no longer resolves kappa.  Grids
    of _REFINE_POINTS over the best point's bracket refine it while that
    is wider than tol = min(1e-4 omega_m, 1e-3 kappa) and still shrinks.
    Where a refinement grid's best point is interior and the parabola
    through it and its neighbours has a positive, finite curvature, a
    probe solves its vertex x and x +/- 0.49 tol (distinct floats inside
    the bracket, or no probe).  If x is the least of the three, the
    minimum lies within x +/- 0.49 tol and the search ends; otherwise
    the grid's bracket is refined as before.  The grids are solved in
    stacks of up to 256 points, and the best point seen anywhere is
    returned: at baseline 37 + 24 + 3 points in three stacks.

    Raises
    ------
    InvalidParameter
        If the window is not a (low, high) pair, an end of it is not an
        int or a float, it is not finite in rad/s with low < high, or it
        reaches a detuning with |delta| >= 1e6 kappa.
    NoStablePoint
        If no point of the window is stable.
    NumericalFailure
        From a grid point's variance, with its detuning attached.
    InternalInconsistency
        If entanglement_result solves a grid point where the stacks fail.
    """
    try:
        lo, hi = window
    except (TypeError, ValueError):
        raise InvalidParameter("window", window,
                               "a (low, high) pair") from None
    for x in (lo, hi):
        if (err := _violation("window", x, "finite",
                              math.isfinite)) is not None:
            raise err
    wm, kappa = p.mech_freq, p.cavity_decay
    a, b = lo * wm, hi * wm
    # the grid divides the span b - a, which must not overflow
    if not (math.isfinite(b - a) and a < b):
        raise InvalidParameter("window", window,
                               "finite in rad/s with low < high")

    tol = min(1e-4 * wm, 1e-3 * kappa)
    grid = np.linspace(a, b, _coarse_points(b - a, kappa, wm))
    best_delta, best_value, width = math.nan, math.inf, b - a
    while True:
        values = _grid_variances(p, d, grid, quad)
        i = int(np.argmin(values))
        if values[i] < best_value:
            best_delta, best_value = float(grid[i]), values[i]
        if not math.isfinite(best_value):
            raise NoStablePoint("no stable operating point for detuning "
                                f"in [{a!r}, {b!r}] rad/s")
        left = float(grid[max(i - 1, 0)])
        right = float(grid[min(i + 1, len(grid) - 1)])
        # a bracket a few floats wide can stop shrinking above tol
        if not tol < right - left < width:
            return MinimizeResult(delta_star=best_delta, value=best_value)
        # a refinement grid, not the coarse one, ends in a parabolic probe
        probe = (_probe(grid, values, i, _PROBE_WIDTH * tol)
                 if width < b - a else None)
        width = right - left
        if probe is not None:
            probed = _grid_variances(p, d, probe, quad)
            j = int(np.argmin(probed))
            if probed[j] < best_value:
                best_delta, best_value = probe[j], probed[j]
            # the vertex beats both sides: its bracket is below tol
            if j == 1:
                return MinimizeResult(delta_star=best_delta, value=best_value)
        grid = np.linspace(left, right, _REFINE_POINTS)
