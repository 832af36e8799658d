"""Linearised dynamics around a steady state and its stability.

Small fluctuations of the coupled mechanical coordinate (Q, P) and the
field quadratures (x, y) obey d/dt u = A u + noise with the 4x4 drift
matrix built here.  Stability is decided two independent ways, by the
eigenvalues of A and by closed-form Routh-Hurwitz inequalities on its
characteristic polynomial, and the two verdicts are cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency, NumericalFailure
from .model import DerivedParams, PhysicalParams
from .steady import SteadyState

__all__ = [
    "StabilityVerdict",
    "drift_matrix",
    "eigenvalues",
    "routh_hurwitz_stable",
    "stability_verdict",
]

# Routh-Hurwitz and eigenvalue tests may legitimately disagree when the
# slowest eigenvalue sits within this band (relative to omega_m) of the
# imaginary axis; outside it a disagreement is a bug.
_BOUNDARY_BAND = 1e-9


def drift_matrix(p: PhysicalParams, d: DerivedParams,
                 s: SteadyState) -> np.ndarray:
    """Drift matrix at steady state s, a real 4x4 array in (dQ, dP, dx, dy).

    It is written for the coordinate that couples to the light; in the
    four-mirror (total-coordinate) arrangement the four coupling entries
    change sign, which flips no eigenvalue real part and no spectrum, so
    the same representative form is used for both geometries.
    """
    return np.array(_drift_entries(
        p.mech_freq, p.cavity_decay, d.gamma_m, d.coupling_g, d.chi,
        s.detuning, s.amplitude.real, s.amplitude.imag)).reshape(4, 4)


def _drift_entries(wm, kappa, gm, g, chi, delta, u, v) -> tuple:
    """drift_matrix's 16 entries, row by row, for the field amplitude
    u + i v, on floats or arrays."""
    zero = 0.0 * wm  # in the inputs' shape (omega_m > 0)
    gchi2 = 2.0 * g * chi
    gu = gchi2 * u
    gv = gchi2 * v
    return (zero, wm, zero, zero,
            -wm, -gm, -gu, -gv,
            gv, zero, -kappa, delta,
            -gu, zero, -delta, -kappa)


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """The four eigenvalues of drift matrix a, by descending real part;
    on a stack of them (n, 4, 4), one solve gives (n, 4)."""
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as err:
        raise NumericalFailure(f"eigenvalue computation failed: {err}") from err
    # complex numbers sort by real part, then imaginary part
    return np.sort(ev, axis=-1)[..., ::-1]


def routh_hurwitz_stable(p: PhysicalParams, d: DerivedParams,
                         s: SteadyState) -> bool:
    """Stability from the Routh-Hurwitz conditions on the quartic."""
    return bool(_hurwitz(p.mech_freq, p.cavity_decay, d.gamma_m,
                         d.coupling_g, d.chi, s.detuning, s.photon_number))


def _hurwitz(wm, kappa, gm, g, chi, delta, n):
    """The Routh-Hurwitz verdict at photon number n, on floats or arrays.

    For the characteristic polynomial of the drift matrix all but two of
    the Hurwitz conditions hold automatically for positive rates; the two
    below are the ones that can fail.
    """
    g2c2n = g * g * (chi * chi) * n
    k2d2 = kappa * kappa + delta * delta
    loss = 2.0 * kappa + gm

    rh1 = kappa * gm * (
        k2d2 * k2d2
        + (2.0 * kappa * gm + gm * gm - 2.0 * wm * wm) * k2d2
        + wm * wm * (4.0 * kappa * kappa + wm * wm + 2.0 * kappa * gm)
    ) + 2.0 * wm * delta * g2c2n * (loss * loss)
    rh2 = wm * k2d2 - 4.0 * delta * g2c2n
    return (rh1 > 0.0) & (rh2 > 0.0)


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the dual stability check.

    ``margin`` is minus the largest eigenvalue real part (rad/s): positive
    when stable, with magnitude the decay rate of the slowest mode.
    ``stable`` follows the eigenvalue test; ``routh_hurwitz`` and
    ``eigenvalue`` record the two independent answers.
    """

    stable: bool
    routh_hurwitz: bool
    eigenvalue: bool
    margin: float


def stability_verdict(p: PhysicalParams, d: DerivedParams,
                      s: SteadyState) -> StabilityVerdict:
    """Run both stability tests and cross-check them.

    Raises
    ------
    InternalInconsistency
        If the two tests disagree while the slowest eigenvalue is not
        within 1e-9 * omega_m of the imaginary axis.
    """
    ev = eigenvalues(drift_matrix(p, d, s))
    max_re = float(ev[0].real)
    eig_ok = max_re < 0.0
    rh_ok = routh_hurwitz_stable(p, d, s)
    if rh_ok != eig_ok and abs(max_re) > _BOUNDARY_BAND * p.mech_freq:
        raise _disagreement(rh_ok, eig_ok, max_re)
    return StabilityVerdict(
        stable=eig_ok,
        routh_hurwitz=rh_ok,
        eigenvalue=eig_ok,
        margin=-max_re,
    )


def _disagreement(rh_ok: bool, eig_ok: bool,
                  max_re: float) -> InternalInconsistency:
    return InternalInconsistency(
        "Routh-Hurwitz and eigenvalue stability tests disagree away "
        f"from the boundary: rh={rh_ok}, eigen={eig_ok}, "
        f"max Re(lambda) = {max_re!r}")


def _stack_verdicts(a: np.ndarray, rh_ok: np.ndarray, wm: np.ndarray):
    """Eigenvalues and both stability verdicts at a stack of points, from
    their drift matrices a (n, 4, 4), Routh-Hurwitz verdicts rh_ok (n)
    and omega_m wm (n), which scales the boundary band.

    One eigvals call solves the stack.  Returns the eigenvalues (n, 4) by
    descending real part, the largest real parts, whether each point is
    stable with no error, and per point None or the error that
    eigenvalues or stability_verdict raises there.
    """
    n = len(a)
    errors = [None] * n
    try:
        ev = eigenvalues(a)
    except NumericalFailure:
        # find the matrices it fails on; the others solve as in the stack
        ev = np.full((n, 4), np.nan, dtype=complex)
        for i in range(n):
            try:
                ev[i] = eigenvalues(a[i:i + 1])[0]
            except NumericalFailure as err:
                errors[i] = err
    max_re = ev[:, 0].real
    eig_ok = max_re < 0.0
    clash = rh_ok != eig_ok
    stable = eig_ok
    if np.count_nonzero(clash):
        stable = eig_ok.copy()
        for i in (clash & (np.abs(max_re) > _BOUNDARY_BAND * wm)
                  ).nonzero()[0]:
            errors[i] = errors[i] or _disagreement(
                bool(rh_ok[i]), bool(eig_ok[i]), float(max_re[i]))
            stable[i] = False
    return ev, max_re, stable, errors
