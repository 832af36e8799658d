"""Classical steady state of the driven cavity.

The mean field obeys c_s = eps / (kappa + i Delta) where Delta is the
*effective* detuning, already shifted by the static radiation-pressure
displacement of the movable mirrors.  Because that displacement itself
depends on |c_s|^2, fixing the bare (undressed) detuning instead leads to
a cubic equation for Delta and therefore to one, two or three coexisting
branches: the usual optical multistability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameter
from .model import DerivedParams, Geometry, PhysicalParams, _violation

__all__ = ["SteadyState", "steady_state_at_detuning", "find_steady_branches"]

# Two polished roots closer than this (relative to the detuning scale)
# are treated as one marginal branch at a fold of the response curve.
_MERGE_REL = 1e-6

# A root of the branch cubic counts as real when its imaginary part is
# below this fraction of the detuning scale.
_REAL_ROOT_TOL = 1e-6


def _in_band(delta, kappa: float):
    """Whether |delta| < 1e6 kappa (kappa / _REAL_ROOT_TOL), on a float
    or elementwise on an array; false where delta is not finite."""
    return abs(delta) < kappa / _REAL_ROOT_TOL


def _detuning_error(name: str, value, kappa: float) -> InvalidParameter | None:
    """The error for a detuning that is not an int or a float (a float32
    would carry its precision into kappa^2 + delta^2), not finite or
    outside _in_band; None for one that is fine.

    Beyond that bound the cubic's complex pair of roots near +/- i kappa
    passes the real-root test as spurious branches; further out kappa
    is lost against the detuning altogether (in kappa^2 + delta^2 and
    in the drift-matrix eigenvalues -kappa +/- i delta), and with it the
    decay that decides stability.
    """
    err = _violation(name, value, "finite", math.isfinite)
    if err is not None or _in_band(value, kappa):
        return err
    limit = kappa / _REAL_ROOT_TOL
    return InvalidParameter(name, value,
                            f"|{name}| < 1e6 kappa = {limit!r} rad/s")


@dataclass(frozen=True)
class SteadyState:
    """One classical operating point.

    Attributes
    ----------
    detuning:
        Effective cavity detuning Delta (rad/s), displacement shift included.
    amplitude:
        Complex intracavity amplitude c_s.
    q_minus_s:
        Static displacement of the coupled mechanical coordinate, in the
        dimensionless oscillator units used throughout.  Negative for the
        relative coordinate of the three-mirror ring, positive for the
        total coordinate of the four-mirror ring; same magnitude.
    p_minus_s:
        Static momentum of that coordinate; identically zero.
    photon_number:
        Mean intracavity photon number |c_s|^2.
    tangent:
        True when this branch sits at a fold (double root) of the
        multistability cubic, where it is only marginally defined.
    """

    detuning: float
    amplitude: complex
    q_minus_s: float
    p_minus_s: float
    photon_number: float
    tangent: bool = False


def _field(eps, kappa, delta):
    """The amplitude c_s = u + i v = eps / (kappa + i delta) as (u, v),
    and the photon number n = u^2 + v^2, by the same arithmetic on one
    point's floats and elementwise on arrays, so that a stack gives the
    bits of each point alone.  In the input domain and the band |delta|
    < 1e6 kappa, kappa^2 + delta^2 stays within [1e-52, 1e64]."""
    den = kappa * kappa + delta * delta
    u = eps * kappa / den
    v = -(eps * delta) / den
    return u, v, u * u + v * v


def steady_state_at_detuning(p: PhysicalParams, d: DerivedParams,
                             delta: float) -> SteadyState:
    """Steady state for a prescribed *effective* detuning delta (rad/s),
    in the bits that the stacks of every sweep axis take from their
    detuning arrays.  A delta that is not an int or a float, not finite,
    or with |delta| >= 1e6 kappa raises InvalidParameter."""
    if (err := _detuning_error("delta", delta, p.cavity_decay)) is not None:
        raise err
    u, v, n = _field(d.drive_eps, p.cavity_decay, delta)
    disp = 2.0 * d.coupling_g * d.chi * n / p.mech_freq
    if p.geometry is Geometry.THREE_MIRROR_RELATIVE:
        disp = -disp
    return SteadyState(
        detuning=float(delta),
        amplitude=complex(u, v),
        q_minus_s=disp,
        p_minus_s=0.0,
        photon_number=n,
        tangent=False,
    )


def find_steady_branches(p: PhysicalParams, d: DerivedParams,
                         bare_detuning: float) -> list[SteadyState]:
    """All coexisting steady states for a given bare detuning (rad/s).

    Solves the self-consistency cubic

        Delta^3 - D0 Delta^2 + kappa^2 Delta - D0 kappa^2 + S = 0,
        S = 2 g^2 chi^2 eps^2 / omega_m,

    for the effective detuning Delta, polishes each real root by Newton
    iteration and returns the corresponding steady states sorted by
    effective detuning.  Between one and three branches exist; branches
    at a fold of the response curve carry ``tangent=True``.  A bare
    detuning outside the range steady_state_at_detuning accepts, or a
    drive so strong that S overflows, raises InvalidParameter.
    """
    if (err := _detuning_error("bare_detuning", bare_detuning,
                               p.cavity_decay)) is not None:
        raise err
    kappa = p.cavity_decay
    d0 = float(bare_detuning)
    try:
        shift = 2.0 * (d.coupling_g * d.chi * d.drive_eps) ** 2 / p.mech_freq
    except OverflowError:
        shift = math.inf
    if not math.isfinite(shift):
        raise InvalidParameter("laser_power", p.laser_power,
                               "small enough that the detuning shift "
                               "2 g^2 chi^2 eps^2 / omega_m is finite")

    coeffs = [1.0, -d0, kappa * kappa, shift - d0 * kappa * kappa]
    roots = np.roots(coeffs)
    scale = max(abs(d0), kappa, abs(shift) ** (1.0 / 3.0))

    real = [float(r.real) for r in roots
            if abs(r.imag) <= _REAL_ROOT_TOL * scale]

    def cubic(x: float) -> float:
        return ((x - d0) * x + kappa * kappa) * x + (shift - d0 * kappa * kappa)

    def dcubic(x: float) -> float:
        return (3.0 * x - 2.0 * d0) * x + kappa * kappa

    polished = []
    for r in real:
        x = r
        for _ in range(3):
            slope = dcubic(x)
            # near a double root the slope vanishes; the unpolished value
            # is then already as good as it gets
            if abs(slope) < 1e-12 * scale * scale:
                break
            x -= cubic(x) / slope
        polished.append(x)
    polished.sort()

    # merge fold pairs into one marginal branch
    merged: list[tuple[float, bool]] = []
    for x in polished:
        if merged and abs(x - merged[-1][0]) <= _MERGE_REL * scale:
            prev, _ = merged[-1]
            merged[-1] = (0.5 * (prev + x), True)
        else:
            merged.append((x, False))

    out = []
    for delta, tangent in merged:
        s = steady_state_at_detuning(p, d, delta)
        out.append(replace(s, tangent=tangent) if tangent else s)
    return out
