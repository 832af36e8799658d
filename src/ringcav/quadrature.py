"""Batched adaptive Gauss-Kronrod integration on the real line.

A 15-point Kronrod rule (with its embedded 7-point Gauss rule for the
error estimate) is applied to every panel of the current partition in a
single vectorised call, so the integrand is evaluated on large arrays
instead of panel by panel.  Panels whose error estimate exceeds their
share of the budget are bisected, breadth first, until the summed error
meets the tolerance.  This favours integrands with many narrow features
at roughly known locations: seed the partition with breakpoints near
them and the refinement stays shallow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalFailure

__all__ = ["QuadResult", "integrate_adaptive"]

# Kronrod abscissae on [0, 1] and the matching Kronrod / Gauss weights.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

_X15 = np.concatenate([-_XGK[:7], [0.0], _XGK[6::-1]])
_W15 = np.concatenate([_WGK[:7], [_WGK[7]], _WGK[6::-1]])
_WG15 = np.zeros(15)
_WG15[1:14:2] = np.concatenate([_WG[:3], [_WG[3]], _WG[2::-1]])


@dataclass(frozen=True)
class QuadResult:
    """Value and diagnostics of one adaptive integration."""

    value: complex
    error: float
    n_eval: int
    n_panels: int
    depth: int


def _gk15(f: Callable[[np.ndarray], np.ndarray],
          a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and error estimates for panels [a_i, b_i]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _X15[None, :]
    y = f(x.ravel()).reshape(x.shape)
    kronrod = half * (y @ _W15)
    gauss = half * (y @ _WG15)
    return kronrod, np.abs(kronrod - gauss)


def integrate_adaptive(f: Callable[[np.ndarray], np.ndarray],
                       breakpoints: Sequence[float],
                       *,
                       rel_tol: float = 1e-9,
                       abs_tol: float = 1e-12,
                       max_depth: int = 40) -> QuadResult:
    """Integrate f between the first and last breakpoint.

    Parameters
    ----------
    f:
        Vectorised callable mapping a 1-D float array to an array of the
        same shape; real or complex values are both fine.
    breakpoints:
        Ascending initial panel boundaries (at least two).  Cluster them
        around narrow features of f to keep the refinement shallow.
    rel_tol, abs_tol:
        The iteration stops once the summed error estimate drops below
        max(abs_tol, rel_tol * |integral|).
    max_depth:
        Maximum number of bisection generations.

    Raises
    ------
    NumericalFailure
        If the tolerance is not reached within max_depth generations, or
        the integral or its error estimate is not finite.
    """
    pts = np.asarray(breakpoints, dtype=float)
    if pts.ndim != 1 or pts.size < 2:
        raise NumericalFailure("need at least two breakpoints")
    if np.any(np.diff(pts) < 0.0):
        raise NumericalFailure("breakpoints must be ascending")

    a = pts[:-1].copy()
    b = pts[1:].copy()
    vals, errs = _gk15(f, a, b)
    n_eval = 15 * a.size

    for depth in range(max_depth + 1):
        total = vals.sum()
        err = float(errs.sum())
        # a NaN or inf would make every panel look unconverged
        if not (np.isfinite(total) and np.isfinite(err)):
            raise NumericalFailure(
                f"integral is not finite (value {complex(total)!r}, "
                f"error {err!r})")
        tol = max(abs_tol, rel_tol * abs(total))
        if err <= tol:
            return QuadResult(value=complex(total), error=err,
                              n_eval=n_eval, n_panels=a.size, depth=depth)
        if depth == max_depth:
            break
        # bisect every panel holding more than its share of the budget;
        # when err > tol at least one such panel exists, but keep the
        # worst one as a floor so the loop always makes progress
        thresh = tol / (2.0 * a.size)
        split = errs > thresh
        if not split.any():
            split[int(np.argmax(errs))] = True
        sa, sb = a[split], b[split]
        mid = 0.5 * (sa + sb)
        new_a = np.concatenate([sa, mid])
        new_b = np.concatenate([mid, sb])
        new_vals, new_errs = _gk15(f, new_a, new_b)
        n_eval += 15 * new_a.size
        a = np.concatenate([a[~split], new_a])
        b = np.concatenate([b[~split], new_b])
        vals = np.concatenate([vals[~split], new_vals])
        errs = np.concatenate([errs[~split], new_errs])

    raise NumericalFailure(
        f"integral did not converge within {max_depth} refinement "
        f"generations (error {err!r}, tolerance {float(tol)!r})")
