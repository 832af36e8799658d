"""Quantum-noise spectra and the entanglement criteria built from them.

Linearising around a stable steady state and Fourier transforming gives
the fluctuation of the coupled mechanical momentum as a rational
function of frequency, driven by three noise channels: the squeezed
vacuum entering through the cavity (terms proportional to N and M), and
the thermal Langevin force on the mirrors.  Its stationary variance is
the frequency integral of a spectral density made of three pieces:

* an ``a`` piece, real, carrying the phase-insensitive vacuum/squeeze
  noise N and the thermal noise,
* ``b`` and ``c`` pieces, complex, carrying the phase-sensitive
  correlation M; they enter shifted by twice the mechanical frequency
  and only their symmetric combination over +/- frequency is real.

Every piece is a rational function of frequency except for the bath
weight's Bose factor, and the poles are i times the drift-matrix
eigenvalues (and their mirror images and 2 omega_m shifts), so the
variance integral is summed exactly from residues; the Bose part goes
through Binet's second formula for the digamma function.  The adaptive
integral of ``quadrature`` serves the cases the residues cannot: a
(near-)double pole, and the Bose tail beyond the cutoff.

The variance of the orthogonal mechanical quadrature (the one decoupled
from the light) stays thermal.  A product of the two variances below 1,
or their sum below 2, witnesses entanglement between the two mirrors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import HBAR, KB
from .errors import InvalidParameter, NumericalFailure, UnstableOperatingPoint
from .model import DerivedParams, PhysicalParams
from .quadrature import integrate_adaptive
from .stability import drift_matrix, eigenvalues, stability_verdict
from .steady import SteadyState, steady_state_at_detuning

__all__ = [
    "QuadratureConfig",
    "IntegrandTerms",
    "EntanglementResult",
    "d_of_omega",
    "integrand_terms",
    "momentum_variance",
    "q_plus_variance",
    "entanglement_result",
]

# Acceptable imaginary leakage of the (mathematically real) variance
# integral, relative to its real part.
_IMAG_RESIDUAL = 1e-8

# Eigenvalues closer than this (relative to omega_m) make a near-double
# pole whose residues cancel each other; the variance then comes from
# the adaptive integral.
_POLE_GAP = 1e-6

# The Bose tail beyond the cutoff is integrated when its closed-form
# bound exceeds this fraction of the variance, i.e. when it can move
# the double-precision result.
_TAIL_NEGLIGIBLE = 1e-16

# Offsets, in line widths, of the mesh points placed across a resonance.
_LADDER = np.array([0.0, 2.0, -2.0, 6.0, -6.0, 18.0, -18.0, 54.0, -54.0])

# B_2k / 2k for k = 8 ... 1: the coefficients of the series in 1 / z^2
# that ln z - 1/(2z) - digamma(z) approaches at large z.
_DIGAMMA_SERIES = (-3617.0 / 8160.0, 1.0 / 12.0, -691.0 / 32760.0,
                   1.0 / 132.0, -1.0 / 240.0, 1.0 / 252.0, -1.0 / 120.0,
                   1.0 / 12.0)

# The six pairs of the four eigenvalues.
_PAIRS = np.triu_indices(4, 1)
_EYE8 = np.eye(8)


@dataclass(frozen=True)
class QuadratureConfig:
    """The window of the variance integral.

    ``cutoff`` is its half-width in units of the mechanical frequency:
    the integrand is cut off at +/- cutoff * omega_m.  It must exceed 2
    so the shifted correlation pieces are covered, and stay at most 1e5:
    wider, the adaptive route at a double pole leaves an imaginary part.
    """

    cutoff: float = 50.0

    def __post_init__(self):
        if not (isinstance(self.cutoff, (int, float))
                and 2.0 < self.cutoff <= 1e5):
            raise InvalidParameter("cutoff", self.cutoff, "> 2 and <= 1e5")


def d_of_omega(omega, p: PhysicalParams, d: DerivedParams,
               s: SteadyState):
    """Response denominator of the driven mirror-field loop.

    Vanishing of this function on the real axis marks the instability
    threshold; its conjugation symmetry is d(-omega) = conj(d(omega)).
    Accepts a scalar or an array.
    """
    wm = p.mech_freq
    kappa = p.cavity_decay
    delta = s.detuning
    w = np.asarray(omega)
    out = (-4.0 * wm * delta * d.coupling_g ** 2 * s.photon_number
           * d.chi ** 2
           + (wm * wm - w * w - 1j * d.gamma_m * w)
           * ((kappa - 1j * w) ** 2 + delta * delta))
    return out if out.shape else complex(out)


def _thermal_weight(p: PhysicalParams) -> Callable[[np.ndarray], np.ndarray]:
    """omega * (1 + coth(hbar omega / 2 kB T)) as a vectorised function.

    Written as 2 omega / (1 - exp(-hbar omega / kB T)) to stay finite for
    negative arguments, continued by its limit 2 kB T / hbar at omega = 0.
    At T = 0 it degenerates to 2 omega for positive omega and 0 otherwise.
    """
    if p.bath_temp > 0.0:
        alpha = HBAR / (2.0 * KB * p.bath_temp)

        def weight(w: np.ndarray) -> np.ndarray:
            x = np.clip(alpha * w, -700.0, 700.0)
            with np.errstate(over="ignore"):
                return np.where(x == 0.0, 2.0 / alpha,
                                2.0 * w / -np.expm1(-2.0 * x))
    else:
        def weight(w: np.ndarray) -> np.ndarray:
            return np.where(w > 0.0, 2.0 * w, 0.0)

    return weight


def _numerators(w, p: PhysicalParams, d: DerivedParams, s: SteadyState):
    """Numerator polynomials of the three spectral pieces; complex w too.

    a(w) = (squeezed + 2 gamma_m / omega_m * W(w) * bath) / (d(w) d(-w))
    with W the bath weight, b(w) = corr_b / (d(w) d(2 omega_m - w)) and
    c(w) = corr_c / (d(w) d(-2 omega_m - w)).
    """
    kappa = p.cavity_decay
    delta = s.detuning
    nsq = d.n_squeeze
    pref = 8.0 * kappa * d.coupling_g ** 2 * d.chi ** 2
    squeezed = pref * s.photon_number * (
        (nsq + 1.0) * (kappa ** 2 + (delta + w) ** 2)
        + nsq * (kappa ** 2 + (delta - w) ** 2))
    bath = ((delta ** 2 + kappa ** 2 - w * w) ** 2
            + 4.0 * kappa ** 2 * w * w)
    corr_b = (pref * np.conj(s.amplitude) ** 2 * d.m_squeeze
              * (kappa - 1j * (delta + w))
              * (kappa - 1j * (delta + 2.0 * p.mech_freq - w)))
    corr_c = (pref * s.amplitude ** 2 * np.conj(d.m_squeeze)
              * (kappa + 1j * (delta - w))
              * (kappa + 1j * (delta + 2.0 * p.mech_freq + w)))
    return squeezed, bath, corr_b, corr_c


def _raw_terms(w, p: PhysicalParams, d: DerivedParams, s: SteadyState,
               thermal: Callable[[np.ndarray], np.ndarray]):
    """The three spectral pieces a(w), b(w), c(w) on an array w."""
    wm = p.mech_freq
    squeezed, bath, corr_b, corr_c = _numerators(w, p, d, s)
    dw = d_of_omega(w, p, d, s)
    dmw = np.conj(dw)  # d(-w)
    a = ((squeezed + 2.0 * d.gamma_m / wm * thermal(w) * bath)
         / (dw * dmw))
    b = corr_b / (dw * d_of_omega(2.0 * wm - w, p, d, s))
    c = corr_c / (dw * d_of_omega(-2.0 * wm - w, p, d, s))
    return a, b, c


@dataclass(frozen=True)
class IntegrandTerms:
    """The spectral density at one frequency, split into its pieces.

    ``total`` is omega^2 a + omega (omega - 2 omega_m) b
    + omega (omega + 2 omega_m) c; it is complex pointwise and real only
    after combining +/- omega, since c(-omega) = conj(b(omega)).
    """

    omega: float
    a_term: float
    b_term: complex
    c_term: complex
    total: complex


def integrand_terms(omega: float, p: PhysicalParams, d: DerivedParams,
                    s: SteadyState) -> IntegrandTerms:
    """Evaluate the three spectral pieces at a single frequency (rad/s)."""
    w = np.asarray([float(omega)])
    thermal = _thermal_weight(p)
    a, b, c = _raw_terms(w, p, d, s, thermal)
    a_val = complex(a[0])
    if abs(a_val.imag) > 1e-10 * max(abs(a_val.real), 1e-300):
        raise NumericalFailure(
            f"phase-insensitive spectral piece came out complex: {a_val!r}")
    wm = p.mech_freq
    b_val = complex(b[0])
    c_val = complex(c[0])
    total = (omega ** 2 * a_val.real
             + omega * (omega - 2.0 * wm) * b_val
             + omega * (omega + 2.0 * wm) * c_val)
    return IntegrandTerms(omega=float(omega), a_term=a_val.real,
                          b_term=b_val, c_term=c_val, total=total)


def _breakpoints(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                 cutoff: float, ev: np.ndarray | None = None) -> np.ndarray:
    """Initial integration mesh clustered on the known resonances.

    Eigenvalues of the drift matrix locate the poles of the response:
    each mode at +/- Omega with half-width |Re lambda| shows up in the
    spectrum at +/- Omega and, through the shifted correlation pieces,
    around +/- (2 omega_m -/+ Omega).  A geometric ladder of points is
    placed across every such line so the first partition already
    resolves features a thousand times narrower than the window.
    ``ev`` are the eigenvalues when the caller already has them.
    """
    wm = p.mech_freq
    lim = cutoff * wm
    delta = s.detuning
    if ev is None:
        ev = eigenvalues(drift_matrix(p, d, s))

    markers = np.array([wm, delta, 2.0 * wm - delta, 2.0 * wm + delta])
    lines = ev[ev.imag != 0.0]
    center = np.abs(lines.imag)
    width = np.maximum(2.0 * np.abs(lines.real), 1e-9 * wm)
    bases = np.stack([center, -center,
                      2.0 * wm - center, 2.0 * wm + center,
                      -2.0 * wm + center, -2.0 * wm - center], axis=1)
    ladder = bases[:, :, None] + _LADDER * width[:, None, None]
    pts = np.concatenate([[0.0, -lim, lim], markers, -markers,
                          ladder.ravel()])

    mesh = np.sort(pts[(pts >= -lim) & (pts <= lim)])
    keep = np.concatenate([[True], np.diff(mesh) > 1e-9 * wm])
    mesh = mesh[keep]
    if mesh[0] != -lim:
        mesh = np.concatenate([[-lim], mesh])
    if mesh[-1] != lim:
        mesh = np.concatenate([mesh, [lim]])
    return mesh


def _adaptive_integral(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                       ev: np.ndarray, cutoff: float) -> complex:
    """The density integrated over the window by the adaptive rule."""
    wm = p.mech_freq
    thermal = _thermal_weight(p)

    def density(w: np.ndarray) -> np.ndarray:
        # overflows at huge T or power; integrate_adaptive rejects that
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a, b, c = _raw_terms(w, p, d, s, thermal)
            return (w * w * a + w * (w - 2.0 * wm) * b
                    + w * (w + 2.0 * wm) * c)

    mesh = _breakpoints(p, d, s, cutoff, ev)
    return integrate_adaptive(density, mesh).value


def _binet(z: complex) -> complex:
    """ln z - 1/(2z) - digamma(z) for Re z > 0.

    By Binet's second formula this is twice the integral over [0, inf)
    of x / ((x^2 + z^2) (exp(2 pi x) - 1)).  The recurrence
    digamma(z + 1) = digamma(z) + 1/z shifts z to |z| >= 12, where the
    asymptotic series of this very combination, sum_k B_2k / (2k z^2k),
    is summed to eight terms; it is small at large z, so nothing
    cancels there.
    """
    size = abs(z)
    shift = math.ceil(math.sqrt(144.0 - size * size)) if size < 12.0 else 0
    w = z + shift
    u = 1.0 / (w * w)
    out = 0j
    for c in _DIGAMMA_SERIES:
        out = (out + c) * u
    if shift:
        out += (cmath.log(z / w) - 0.5 / z + 0.5 / w
                + sum(1.0 / (z + k) for k in range(shift)))
    return out


def _bose_tail(p: PhysicalParams, d: DerivedParams, s: SteadyState,
               ev: np.ndarray, lo: float, hi: float) -> float:
    """Integral over [lo, hi] of w H(w) n(w) by the adaptive rule.

    H(w) = w^2 bath(w) / |d(w)|^2 is the bath piece of the density
    without its weight, n the Bose occupation.  The mesh doubles from lo
    and crosses any resonance that lies beyond the cutoff.
    """
    beta = HBAR / (KB * p.bath_temp)

    def density(w: np.ndarray) -> np.ndarray:
        # at huge temperatures the mesh reaches frequencies where this
        # overflows; integrate_adaptive rejects the non-finite result
        with np.errstate(over="ignore", invalid="ignore"):
            bath = _numerators(w, p, d, s)[1]
            return (w ** 3 * bath / np.abs(d_of_omega(w, p, d, s)) ** 2
                    / np.expm1(beta * w))

    doubling = lo * 2.0 ** np.arange(1, int(math.log2(hi / lo)) + 1)
    width = np.maximum(2.0 * np.abs(ev.real), 1e-9 * p.mech_freq)
    ladder = (np.abs(ev.imag)[:, None] + _LADDER * width[:, None]).ravel()
    inner = np.concatenate([doubling, ladder])
    mesh = np.sort(np.concatenate([[lo, hi],
                                   inner[(inner > lo) & (inner < hi)]]))
    return integrate_adaptive(density, mesh).value.real


def _residue_integral(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                      ev: np.ndarray, cutoff: float) -> complex:
    """The density integrated over the window, summed from its poles.

    Each piece is a polynomial over prod_k (w - q_k) with simple poles
    q_k: the zeros r_j = i lambda_j of d(w), and those of d(-w) (for a)
    or of d(2 omega_m - w) and d(-2 omega_m - w) (for b and c).  Partial
    fractions integrate it exactly over [-L, L]:
    int dw / (w - q) = -2 atanh(L / q).  The vacuum half 2 w theta(w) of
    the bath weight is rational on [0, L], where
    int dw / (w - q) = log(1 - L / q).  Its Bose half 2 |w| n(|w|) is
    summed over [0, inf) by Binet's formula, less the tail beyond L.
    """
    wm = p.mech_freq
    lim = cutoff * wm
    r = 1j * ev
    poles = np.concatenate([r, -r, r, 2.0 * wm - r, r, -2.0 * wm - r])
    grid = poles.reshape(3, 8)
    qa, qb, qc = grid
    # 1 / Q'(q_k) for the monic denominator Q of each piece
    spread = 1.0 / (grid[:, :, None] - grid[:, None, :] + _EYE8).prod(axis=2)
    squeezed, bath, corr_b, corr_c = _numerators(grid, p, d, s)
    base = qa * qa * spread[0]
    residues = np.concatenate([
        base * squeezed[0],
        qb * (qb - 2.0 * wm) * corr_b[1] * spread[1],
        qc * (qc + 2.0 * wm) * corr_c[2] * spread[2]])
    total = residues @ (-2.0 * np.arctanh(lim / poles))

    # residues of H(w) = w^2 bath(w) / (d(w) d(-w)); H is even, so
    # those at -r_j are minus those at r_j
    h = base * bath[0]
    scale = 2.0 * d.gamma_m / wm
    v = lim / qa
    total += 4.0 * scale * ((qa * h) @ np.arctanh(v / (v - 2.0)))
    if p.bath_temp <= 0.0:
        return complex(total)

    # int_0^inf w H(w) n(w) dw = sum_j h_j r_j binet(zeta_j)
    kt = KB * p.bath_temp / HBAR
    hr = h[:4] * r
    zeta = (ev / (-2.0 * math.pi * kt)).tolist()
    total += 4.0 * scale * (hr @ np.array([_binet(z) for z in zeta]))
    # on [L, inf), |w H(w)| <= sum_j 2 |h_j r_j| sup w / |w^2 - r_j^2|,
    # and the Bose occupation integrates in closed form
    reach = 0.0
    for hr_j, r_j in zip(np.abs(hr).tolist(), r.tolist()):
        sup = 1.0 / abs(r_j.imag)
        if abs(r_j) < lim:
            sup = min(sup, lim / (lim * lim - abs(r_j) ** 2))
        reach += hr_j * sup
    bound = 8.0 * scale * reach * kt * -math.log(-math.expm1(-lim / kt))
    floor = _TAIL_NEGLIGIBLE * abs(total)
    if bound > floor > 0.0:
        upper = lim + kt * math.log(bound / floor)
        total -= 4.0 * scale * _bose_tail(p, d, s, ev, lim, upper)
    return complex(total)


def momentum_variance(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Stationary variance of the light-coupled mechanical momentum.

    The spectral density over [-cutoff, cutoff] * omega_m, summed
    exactly from the poles that the drift-matrix eigenvalues give; the
    same eigenvalues decide stability first.  When two eigenvalues
    (nearly) coincide the residues cancel, and the batched adaptive
    rule integrates the density instead.

    Raises
    ------
    UnstableOperatingPoint
        If the drift matrix has an eigenvalue with non-negative real
        part; the stationary variance does not exist there.
    NumericalFailure
        If an adaptive integral does not converge, or the variance
        leaks a non-negligible imaginary part or comes out non-positive.
    """
    ev = eigenvalues(drift_matrix(p, d, s))
    verdict = stability_verdict(p, d, s, ev)
    if not verdict.stable:
        raise UnstableOperatingPoint(
            f"no stationary state at detuning {s.detuning!r} rad/s "
            f"(stability margin {verdict.margin!r} rad/s)", verdict.margin)

    gap = np.min(np.abs(ev[:, None] - ev)[_PAIRS])
    if gap < _POLE_GAP * p.mech_freq:
        value = _adaptive_integral(p, d, s, ev, quad.cutoff)
    else:
        value = _residue_integral(p, d, s, ev, quad.cutoff)
    value /= 2.0 * math.pi
    if abs(value.imag) > _IMAG_RESIDUAL * abs(value.real):
        raise NumericalFailure(
            f"variance integral left imaginary residue {value!r}")
    if not value.real > 0.0:
        raise NumericalFailure(
            f"variance integral came out non-positive: {value.real!r}")
    return float(value.real)


def q_plus_variance(p: PhysicalParams, d: DerivedParams) -> float:
    """Variance of the mechanical quadrature decoupled from the light.

    It stays in thermal equilibrium with the mirror bath: 1/2 + n_bar
    at temperature T.  From hbar omega_m / kB T = 37.5 on (T = 0
    included), n_bar no longer moves the sum, which is exactly 1/2.
    """
    if d.thermal_ratio > 37.5:
        return 0.5
    return 0.5 + 1.0 / math.expm1(d.thermal_ratio)


@dataclass(frozen=True)
class EntanglementResult:
    """Both mirror-mirror entanglement criteria at one operating point.

    ``product_entangled`` is the product criterion var_q_plus *
    var_p_minus < 1; ``sum_entangled`` the additive criterion
    var_q_plus + var_p_minus < 2.  The roles of the two quadratures
    swap between the three- and four-mirror geometries, with identical
    numbers.
    """

    delta: float
    var_q_plus: float
    var_p_minus: float
    product: float
    sum: float
    product_entangled: bool
    sum_entangled: bool


def entanglement_result(p: PhysicalParams, d: DerivedParams, delta: float,
                        quad: QuadratureConfig = QuadratureConfig()
                        ) -> EntanglementResult:
    """Evaluate both criteria at the given effective detuning (rad/s)."""
    s = steady_state_at_detuning(p, d, delta)
    vp = momentum_variance(p, d, s, quad)
    vq = q_plus_variance(p, d)
    prod = vq * vp
    tot = vq + vp
    return EntanglementResult(
        delta=float(delta),
        var_q_plus=vq,
        var_p_minus=vp,
        product=prod,
        sum=tot,
        product_entangled=prod < 1.0,
        sum_entangled=tot < 2.0,
    )
