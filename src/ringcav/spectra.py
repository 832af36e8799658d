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
variance is summed exactly from residues, by a contour integral where
poles nearly coincide.  The Bose part goes through Binet's formula less
a closed-form tail, or the Bernoulli series of the Bose occupation.

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
# importable from here for callers that look it up in this namespace
from .quadrature import integrate_adaptive  # noqa: F401
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

# Eigenvalues closer than this (relative to omega_m) form a cluster whose
# residues cancel; it is summed by the trapezoid rule at the 64 nodes of
# _RING, error 2^-64 (Trefethen & Weideman, SIAM Review 56, 385, 2014).
_POLE_GAP = 1e-6
_RING = np.exp(2j * np.pi * np.arange(64) / 64)

# Offsets, in line widths, of the mesh points placed across a resonance.
_LADDER = np.array([0.0, 2.0, -2.0, 6.0, -6.0, 18.0, -18.0, 54.0, -54.0])

# B_2k / 2k for k = 8 ... 1: the coefficients of the series in 1 / z^2
# that ln z - 1/(2z) - digamma(z) approaches at large z.
_DIGAMMA_SERIES = (-3617.0 / 8160.0, 1.0 / 12.0, -691.0 / 32760.0,
                   1.0 / 132.0, -1.0 / 240.0, 1.0 / 252.0, -1.0 / 120.0,
                   1.0 / 12.0)

# B_2m / (2m)! for m = 1 ... 30, from sum_k B_k / (k! (j + 1 - k)!) = 0:
# the coefficients of x^(2m - 1) in the Bose occupation 1 / (e^x - 1).
_B = [1.0]
for _j in range(1, 61):
    _B.append(-sum(b / math.factorial(_j + 1 - k) for k, b in enumerate(_B)))
_BERNOULLI = np.array(_B[2::2])[:, None]
_EYE8 = np.eye(8)


@dataclass(frozen=True)
class QuadratureConfig:
    """The window of the variance integral.

    ``cutoff`` is its half-width in units of the mechanical frequency:
    the integrand is cut off at +/- cutoff * omega_m.  It must exceed 2
    so the shifted correlation pieces are covered, and stay at most 1e5,
    the widest window the tests check against the adaptive reference.
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
                 cutoff: float) -> np.ndarray:
    """Initial integration mesh clustered on the known resonances.

    Eigenvalues of the drift matrix locate the poles of the response:
    each mode at +/- Omega with half-width |Re lambda| shows up in the
    spectrum at +/- Omega and, through the shifted correlation pieces,
    around +/- (2 omega_m -/+ Omega).  A geometric ladder of points is
    placed across every such line so the first partition already
    resolves features a thousand times narrower than the window.
    """
    wm = p.mech_freq
    lim = cutoff * wm
    delta = s.detuning
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
    mesh = mesh[keep]  # -lim stays first; lim may fall to a point below
    if mesh[-1] != lim:
        mesh = np.concatenate([mesh, [lim]])
    return mesh


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


def _exp_e1(z: complex) -> complex:
    """e^z E1(z) off the negative real axis: by its power series where
    |z| < 60 and |z| + Re z < 3, as its terms reach e^|z| / |z| against a
    sum of order e^-Re z / |z| (rounding eps e^(|z| + Re z), at most
    e^3 = 20 ulp); else 1 / (z + 1 - 1 / (z + 3 - 4 / (z + 5 - ...))),
    at most about 70 steps from |z| + Re z = 3 on (it slows towards 0)
    and a few from |z| = 60 on, beside the negative axis too, where the
    series would outrun its 200 terms."""
    if abs(z) < 60.0 and abs(z) + z.real < 3.0:
        term = total = -z
        for n in range(2, 200):
            term *= -z / n
            total += term / n
            if abs(term) <= 1e-17 * abs(total):
                break
        return cmath.exp(z) * (-np.euler_gamma - cmath.log(z) - total)
    f = c = z + 1.0
    d = 0j
    for n in range(1, 10_000):  # Lentz's method
        d = 1.0 / (z + (2 * n + 1) - n * n * d)
        c = z + (2 * n + 1) - n * n / c
        f *= (delta := c * d)
        if abs(delta - 1.0) <= 1e-16:
            return 1.0 / f
    raise NumericalFailure(f"e^z E1(z) did not converge at z = {z!r}")


def _bose_kernel(q: np.ndarray, kt: float, lim: float) -> np.ndarray:
    """B(q) = int_0^L n(w) 2 w / (w^2 - q^2) dw, Im q < 0, beta = 1 / kt.

    From beta L = pi on, Binet's integral less the tail, where n = sum_k
    exp(-k beta w) gives exp(-k beta L) G(k beta (L -+ q)) summed over -+,
    G = _exp_e1, negligible from k beta L = 39 on.  Below, the Bernoulli
    series of n, termwise against f_m = int_0^1 u^2m / (u^2 - rho^2) du."""
    bl = lim / kt
    if bl >= math.pi:
        # B(-conj q) = conj B(q): a mirror pair needs one evaluation
        keys = np.where(q.real < 0.0, -q.conj(), q).tolist()
        known = {x: _binet(1j * x / (2.0 * math.pi * kt)) - sum(
            math.exp(-k * bl) * (_exp_e1(k * (lim - x) / kt)
                                 + _exp_e1(k * (lim + x) / kt))
            for k in range(1, math.ceil(39.0 / bl))) for x in set(keys)}
        out = np.array([known[x] for x in keys])
        return np.where(q.real < 0.0, out.conj(), out)
    v = lim / q  # 1 / rho
    m = np.arange(1, 31)[:, None]
    f = [-v * np.arctanh(v)]
    # upward f_m = 1 / (2m - 1) + rho^2 f_(m-1) is stable for |rho| < 2;
    # beyond, the series f_m = -sum_j rho^(-2j - 2) / (2m + 2j + 1)
    for k in range(1, 31):
        f.append(1.0 / (2 * k - 1) + f[-1] / v ** 2)
    f = np.array(f)
    far = np.abs(v) < 0.625
    j = np.arange(42)[:, None, None]
    f[1:, far] = -(v[far] ** (2 * j + 2) / (2 * m + 2 * j + 1)).sum(0)
    # -log(1 - 1 / rho^2) / 2, by two atanh as in the vacuum kernel
    return (2.0 / bl * f[0] - np.arctanh(v / (v - 2.0))
            - np.arctanh(v / (v + 2.0))
            + (2.0 * _BERNOULLI * bl ** (2 * m - 1) * f[1:]).sum(0))


def _nodes(grid: np.ndarray, ev: np.ndarray, wm: float):
    """Points and weights of the three pieces' residue sums.

    ``grid`` holds each piece's eight poles, the four r_j first.  A simple
    pole q weighs 1 / Q'(q); a cluster (and, apart, its image across the
    real axis) gives way to circle nodes z, weight (z - c) / (64 Q(z)).
    The radius is half the smaller of the centre's distances to the real
    axis and to the nearest other pole; a cluster spread over more than
    half the radius stays simple poles, whose residues cancel mildly."""
    close = np.abs(ev[:, None] - ev) < _POLE_GAP * wm
    simple = 1.0 / (grid[:, :, None] - grid[:, None, :] + _EYE8).prod(axis=2)
    if np.count_nonzero(close) == 4:  # no cluster: skip the search
        return grid, simple
    single = np.ones(8, dtype=bool)
    points, weights = [], []
    for row in {tuple(r) for r in np.linalg.matrix_power(close, 3)
                if r.sum() > 1}:
        row = np.array(row)
        c = ev[row].mean()
        radius = 0.5 * np.abs(ev[~row] - c).min(initial=abs(c.real))
        if np.abs(ev[row] - c).max() < 0.5 * radius:
            single &= ~np.tile(row, 2)
            for cols in (np.r_[row, [False] * 4], np.r_[[False] * 4, row]):
                z = grid[:, cols].mean(axis=1, keepdims=True) + radius * _RING
                points.append(z)
                weights.append(radius * _RING / (64.0 * (
                    z[:, :, None] - grid[:, None, :]).prod(axis=2)))
    return (np.concatenate([grid[:, single]] + points, axis=1),
            np.concatenate([simple[:, single]] + weights, axis=1))


def _residue_integral(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                      ev: np.ndarray, cutoff: float) -> complex:
    """The density integrated over the window, summed from its poles.

    Each piece is a polynomial over prod_k (w - q_k) with poles q_k: the
    zeros r_j = i lambda_j of d(w), and those of d(-w) (for a) or of
    d(2 omega_m - w) and d(-2 omega_m - w) (for b and c).  Partial
    fractions integrate it exactly: int_-L^L dw / (w - q) = -2 atanh(L / q).
    The bath weight's vacuum half 2 w theta(w) gives log(1 - L / q) on
    [0, L], its Bose half _bose_kernel; each is summed over _nodes."""
    wm = p.mech_freq
    lim = cutoff * wm
    r = 1j * ev
    grid = np.concatenate([r, -r, r, 2.0 * wm - r, r, -2.0 * wm - r])
    points, weights = _nodes(grid.reshape(3, 8), ev, wm)
    qa, qb, qc = points
    squeezed, bath, corr_b, corr_c = _numerators(points, p, d, s)
    base = qa * qa * weights[0]
    residues = np.concatenate([
        base * squeezed[0],
        qb * (qb - 2.0 * wm) * corr_b[1] * weights[1],
        qc * (qc + 2.0 * wm) * corr_c[2] * weights[2]])
    total = residues @ (-2.0 * np.arctanh(lim / points.ravel()))

    # weights of H(w) = w^2 bath(w) / (d(w) d(-w)); H is even, so its
    # Bose half is a sum over the points below the real axis
    hq = qa * (base * bath[0])
    scale = 2.0 * d.gamma_m / wm
    v = lim / qa
    total += 4.0 * scale * (hq @ np.arctanh(v / (v - 2.0)))
    if p.bath_temp > 0.0:
        below = qa.imag < 0.0
        total += 4.0 * scale * (hq[below] @ _bose_kernel(
            qa[below], KB * p.bath_temp / HBAR, lim))
    return complex(total)


def momentum_variance(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Stationary variance of the light-coupled mechanical momentum.

    The spectral density over [-cutoff, cutoff] * omega_m, summed
    exactly from the poles that the drift-matrix eigenvalues give; the
    same eigenvalues decide stability first.

    Raises
    ------
    UnstableOperatingPoint
        If the drift matrix has an eigenvalue with non-negative real
        part; the stationary variance does not exist there.
    NumericalFailure
        If the variance overflows, leaks a non-negligible imaginary
        part or comes out non-positive.
    """
    ev = eigenvalues(drift_matrix(p, d, s))
    verdict = stability_verdict(p, d, s, ev)
    if not verdict.stable:
        raise UnstableOperatingPoint(
            f"no stationary state at detuning {s.detuning!r} rad/s "
            f"(stability margin {verdict.margin!r} rad/s)", verdict.margin)

    # overflow at huge inputs is reported below, not warned about; 1 / Q'
    # at a clustered pole may divide by zero, and is dropped in _nodes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        value = _residue_integral(p, d, s, ev, quad.cutoff) / (2.0 * math.pi)
    if not cmath.isfinite(value):
        raise NumericalFailure(f"variance integral is not finite: {value!r}")
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
    if not (math.isfinite(prod) and math.isfinite(tot)):
        raise NumericalFailure(f"criteria are not finite: product {prod!r}")
    return EntanglementResult(
        delta=float(delta),
        var_q_plus=vq,
        var_p_minus=vp,
        product=prod,
        sum=tot,
        product_entangled=prod < 1.0,
        sum_entangled=tot < 2.0,
    )
