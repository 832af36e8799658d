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
weight's Bose factor.  Its poles are the four r_j = i lambda_j (i times
the drift-matrix eigenvalues) and their mirrors s - r_j, s = 0 or +/- 2
omega_m, with opposite residues: the variance is summed exactly over
the r_j with the mirrors folded in, by a contour integral where poles
nearly coincide; the a piece's odd part integrates to zero.  The Bose
part goes through Binet's formula less a closed-form tail, or the
Bernoulli series of the Bose occupation.

The variance of the orthogonal mechanical quadrature (the one decoupled
from the light) stays thermal.  A product of the two variances below 1,
or their sum below 2, witnesses entanglement between the two mirrors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, KB
from .errors import (InvalidParameter, NumericalFailure,
                     UnstableOperatingPoint)
from .model import DerivedParams, PhysicalParams, _each, _violation
# bench/tracing.py and bench/tests look it up in this namespace
from .quadrature import integrate_adaptive  # noqa: F401
from .stability import _drift_entries, _hurwitz, _stack_verdicts
from .steady import SteadyState, _field, steady_state_at_detuning

__all__ = [
    "QuadratureConfig",
    "EntanglementResult",
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
# an eigenvalue is not close to itself, nor a factor of its own P'(r_j)
_DIAG4 = np.diag([np.inf] * 4)
_EYE4 = np.eye(4)

# B_2k / 2k for k = 1 ... 8: the coefficients of u^k, u = 1 / z^2, in the
# series that ln z - 1/(2z) - digamma(z) approaches at large z.
_DIGAMMA_SERIES = np.array([1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0,
                            -1.0 / 240.0, 1.0 / 132.0, -691.0 / 32760.0,
                            1.0 / 12.0, -3617.0 / 8160.0])
# the digamma recurrence and the Bose tail's E1 terms run over at most 12
# steps (|z| < 12; k beta L < 39 with beta L >= pi), the series over k <= 8
_STEPS = np.arange(12)

# B_2m / (2m)! for m = 1 ... 30, from sum_k B_k / (k! (j + 1 - k)!) = 0:
# the coefficients of x^(2m - 1) in the Bose occupation 1 / (e^x - 1).
_B = [1.0]
for _j in range(1, 61):
    _B.append(-sum(b / math.factorial(_j + 1 - k) for k, b in enumerate(_B)))
_BERNOULLI = np.array(_B[2::2])


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
        err = _violation("cutoff", self.cutoff, "> 2 and <= 1e5",
                         lambda c: 2.0 < c <= 1e5)
        if err is not None:
            raise err


def _cutoff(quad) -> float:
    """The cutoff of quad; InvalidParameter where quad is not a
    QuadratureConfig."""
    if not isinstance(quad, QuadratureConfig):
        raise InvalidParameter("quad", quad, "a QuadratureConfig")
    return quad.cutoff


def _binet(z: np.ndarray) -> np.ndarray:
    """ln z - 1/(2z) - digamma(z) for Re z > 0, elementwise.

    By Binet's second formula this is twice the integral over [0, inf)
    of x / ((x^2 + z^2) (exp(2 pi x) - 1)).  The recurrence
    digamma(z + 1) = digamma(z) + 1/z shifts z to |z| >= 12, where the
    asymptotic series of this very combination, sum_k B_2k / (2k z^2k),
    is summed to eight terms as powers of 1 / w^2; it is small at large
    z, so nothing cancels there.  Relative error against 30-digit values:
    below 2e-14 for |z| < 1 and 1e-15 from |z| = 12 on, up to 1e-12
    between (5.8e-13 the worst of 6,000 points), where ln(z / w) and the
    recurrence cancel.
    """
    size = np.abs(z)
    # below |z| = 4.79, 144 - |z|^2 > 121: every element takes 12 steps
    full = size.max() < 4.79
    shift = (12.0 if full
             else np.ceil(np.sqrt(np.maximum(144.0 - size * size, 0.0))))
    w = z + shift
    series = (1.0 / (w * w))[..., None] ** _STEPS[1:9] @ _DIGAMMA_SERIES
    # ln (z / w) - 1 / (2z) + 1 / (2w) + 1 / (z + k) for k < shift, the
    # last summed in order from k = 0; no terms at all without a shift
    steps = 1.0 / (z[..., None] + _STEPS)
    if not full:
        steps = np.where(_STEPS < shift[..., None], steps, 0.0)
    shifted = (np.log(z / w) - 0.5 * shift / (z * w)
               + steps.cumsum(-1)[..., -1])
    return series + (shifted if full else np.where(shift > 0.0, shifted, 0.0))


def _exp_e1(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) off the negative real axis, elementwise on a 1-d array.

    By its power series where |z| < 60 and |z| + Re z < 3, as its terms
    reach e^|z| / |z| against a sum of order e^-Re z / |z| (rounding
    eps e^(|z| + Re z), at most e^3 = 20 ulp); else by _e1_fraction,
    beside the negative axis too from |z| = 60 on, where the series
    would outrun its 200 terms.  An element's value depends on it alone;
    a z that is not finite gives NaN (the branch test forms no inf - inf).
    """
    size = np.abs(z)
    series = (size < 60.0) & (z.real < 3.0 - size)
    out = np.empty_like(z)
    out[series] = _e1_series(z[series])
    out[~series] = _e1_fraction(z[~series])
    return out


def _e1_series(z: np.ndarray) -> np.ndarray:
    """e^z (-gamma - ln z - sum_n (-z)^n / (n n!)), each sum stopped at
    the first term below 1e-17 of it, or at n = 199."""
    total = np.empty_like(z)
    at = np.arange(z.size)
    zs = z
    term = part = -z
    for n in range(2, 200):
        if not at.size:
            break
        term = term * (-zs / n)
        part = part + term / n
        total[at] = part
        going = np.abs(term) > 1e-17 * np.abs(part)
        zs, term, part, at = zs[going], term[going], part[going], at[going]
    return np.exp(z) * (-np.euler_gamma - np.log(z) - total)


def _e1_fraction(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) = 1 / t_0, t_n = z + 2n + 1 - (n + 1)^2 / t_(n+1)
    (Abramowitz & Stegun 5.1.22), backward from t_N = z + 2N + 1 at a
    depth fixed by the element's |z| and |z| + Re z: N = ceil(180 /
    max(|z| + Re z, 3)) + 4 below |z| = 60 (64 at |z| + Re z = 3, 13 at
    z = 11), ceil(300 / |z|) + 4 beyond.  Against 30 digits at most 6.3e-16
    relative over 5,896 points with |z| + Re z >= 3 or |z| >= 60, |z| up
    to 1e6.  A z that is not finite steps as z = 60 and gives NaN."""
    finite = np.isfinite(z)
    z = np.where(finite, z, 60.0)
    size = np.abs(z)
    near = 180.0 / np.maximum(size + z.real, 3.0)
    depth = np.ceil(np.where(size < 60.0, near, 300.0 / size)).astype(int) + 4
    # deepest first: the elements still stepping at depth n are a prefix
    order = np.argsort(-depth, kind="stable")
    zs = z[order]
    t = zs + (2 * depth[order] + 1)
    active = np.cumsum(np.bincount(depth)[::-1])[::-1]
    for n in range(len(active) - 1, 0, -1):
        k = active[n]
        t[:k] = (zs[:k] + (2 * n - 1)) - n * n / t[:k]
    out = np.empty_like(z)
    out[order] = np.where(finite[order], 1.0 / t, math.nan)
    return out


def _bose_kernel(q: np.ndarray, lim, kt, bl, zfac) -> np.ndarray:
    """B(q) = int_0^L n(w) 2 w / (w^2 - q^2) dw, Im q < 0, beta = 1 / kt,
    for rows of points q (m, k); the other arguments are the rows'
    columns (m, 1), and B = 0 where kt = 0.

    From beta L = pi on (where _columns sets i / (2 pi kt)), Binet's
    integral less the tail, where n = sum_k exp(-k beta w) gives exp(-k
    beta L) G(k beta (L -+ q)) summed over -+, G = _exp_e1, negligible
    from k beta L = 39 on.  Below, the Bernoulli series of n, termwise
    against f_m = int_0^1 u^2m / (u^2 - rho^2) du."""
    # count_nonzero: the cheapest any() and all() on a short array
    if np.count_nonzero(zfac) == len(zfac):  # Binet's formula on every row
        return _binet_less_tail(q, lim, kt, bl, zfac)
    out = np.zeros_like(q)
    warm = (zfac[:, 0] != 0.0).nonzero()[0]
    if warm.size:
        out[warm] = _binet_less_tail(q[warm], lim[warm], kt[warm], bl[warm],
                                     zfac[warm])
    cool = ((kt.real[:, 0] > 0.0) & (bl.real[:, 0] < math.pi)).nonzero()[0]
    if cool.size:
        out[cool] = _bernoulli_kernel(q[cool], bl[cool].real,
                                      lim[cool].real)
    return out


def _binet_less_tail(q, lim, kt, bl, zfac):
    """_bose_kernel from beta L = pi on: Binet's integral less the tail."""
    out = _binet(q * zfac)
    # the tail's terms k = 1 ... 12 below k beta L = 39, always summed as
    # 12 with the unused ones zero, so that a row's value does not depend
    # on the others
    if not np.count_nonzero(bl.real < 39.0):
        return out
    k = _STEPS + 1.0
    use = np.broadcast_to(k < 39.0 / bl.real[:, :, None],
                          q.shape + k.shape)
    r, j, i = use.nonzero()
    kk = k[i]
    lr = lim.real[r, 0]
    x = q[r, j]
    g = _exp_e1((kk * np.concatenate([lr - x, lr + x]).reshape(2, -1)
                 / kt.real[r, 0]).ravel()).reshape(2, -1)
    terms = np.zeros(use.shape, dtype=complex)
    terms[r, j, i] = np.exp(-kk * bl.real[r, 0]) * (g[0] + g[1])
    return out - terms.sum(-1)


def _bernoulli_kernel(q: np.ndarray, bl: np.ndarray,
                      lim: np.ndarray) -> np.ndarray:
    """_bose_kernel below beta L = pi, from the Bernoulli series."""
    v = lim / q  # 1 / rho
    v2 = v ** 2
    m = np.arange(1, 31)
    f = [-v * np.arctanh(v)]
    # upward f_m = 1 / (2m - 1) + rho^2 f_(m-1) is stable for |rho| < 2;
    # beyond, the series f_m = -sum_j rho^(-2j - 2) / (2m + 2j + 1)
    for k in m:
        f.append(1.0 / (2 * k - 1) + f[-1] / v2)
    f = np.stack(f, axis=-1)
    far = np.abs(v) < 0.625
    j = np.arange(42)
    f[far, 1:] = -(v[far][:, None, None] ** (2 * j + 2)
                   / (2 * m[:, None] + 2 * j + 1)).sum(-1)
    # -log(1 - 1 / rho^2) / 2, by two atanh as in the vacuum kernel
    return (2.0 / bl * f[..., 0] - np.arctanh(v / (v - 2.0))
            - np.arctanh(v / (v + 2.0))
            + (2.0 * _BERNOULLI * bl[..., None] ** (2 * m - 1)
               * f[..., 1:]).sum(-1))


def _simple_weights(r: np.ndarray, shift: np.ndarray, gap: np.ndarray):
    """1 / Q'(r_j) at the four poles r_j = i lambda_j (n, 4) in every
    piece, shift s (n, 3, 1), as (n, 3, 4), and whether a row has a
    cluster: two eigenvalues closer than its gap (n, 1, 1).

    Each piece's Q(w) = P(w) P(s - w), P the quartic with roots r_j, so
    Q'(r_j) = P'(r_j) P(s - r_j), and the mirror pole s - r_j has the
    opposite weight.  Its factors over k (r_j - r_k + delta_jk) (s - r_j
    - r_k) come k first as four slabs (n, 3, 4) of the largest array."""
    diff = r - (rk := r.T[:, :, None])  # r_j - r_k, (4, n, 4)
    close = (np.abs(diff) + _DIAG4[:, None] < gap[:, 0]).any((0, 2))
    f = ((diff + _EYE4[:, None])[:, :, None]
         * (shift - r[:, None] - rk[..., None]))  # (4, n, 3, 4)
    return 1.0 / (f[0] * f[1] * f[2] * f[3]), close


def _nodes(r: np.ndarray, simple: np.ndarray, shift: np.ndarray,
           gap: np.ndarray):
    """Points and weights of the three pieces' residue sums at a point
    whose poles r (4) nearly coincide.

    ``simple`` (3, 4) holds their weights 1 / Q'(r_j) as simple poles,
    for the pieces' shifts ``shift`` (3, 1).  A cluster gives way to circle
    nodes z, weight (z - c) / (64 Q(z)); its mirror circle s - z has the
    opposite weights, which _residue_sums folds in as for a pole.  The
    radius is half the smaller of the centre's distances to the real axis
    and to the nearest other pole; a cluster spread over more than half
    the radius stays simple poles, whose residues cancel mildly."""
    close = np.abs(r[:, None] - r) < gap
    single = np.ones(4, dtype=bool)
    points, weights = [], []
    for row in {tuple(k) for k in np.linalg.matrix_power(close, 3)
                if k.sum() > 1}:
        row = np.array(row)
        c = r[row].mean()
        radius = 0.5 * np.abs(r[~row] - c).min(initial=abs(c.imag))
        if np.abs(r[row] - c).max() < 0.5 * radius:
            single &= ~row
            z = c + radius * _RING
            points.append(z)
            weights.append(radius * _RING / (64.0 * (z[:, None] - r).prod(1)
                           * (shift[:, None] - z[:, None] - r).prod(2)))
    return (np.concatenate([r[single]] + points),
            np.concatenate([simple[:, single]] + weights, axis=1))


# A _row_matrix row: drift_matrix's 16 entries, its Routh-Hurwitz verdict,
# the window L, omega_m, 8 gamma_m / omega_m, kt = kB T / hbar, beta L (L
# where kt = 0), i / (2 pi kt) where Binet's formula applies (else 0), k4,
# and for the pieces a, b, c each the numerators' alpha and beta.
_DRIFT = slice(0, 16)
_RH, _L, _WM, _SCALE, _KT, _BL, _ZFAC, _K4 = range(16, 24)
_ALPHA, _BETA = range(_K4 + 1, _K4 + 7, 3)
# the shifts s / omega_m (3, 1) of the pieces a, b, c: r_j mirrors to s - r_j
_SHIFT_PER_WM = np.array([[0.0], [2.0], [-2.0]])


def _columns(wm, kappa, temp, gm, g, chi, nsq, mre, mim, delta, u, v, n,
             cutoff):
    """A _row_matrix row from a point's raw inputs: omega_m, kappa, T,
    gamma_m, g, chi, sinh^2 r, M = mre + i mim, delta, the amplitude
    c_s = u + i v and the photon number n.

    The same arithmetic runs on one point's floats and on a stack's
    arrays, so that a stack gives the bits of its points alone; the
    complex products are written out in real arithmetic to that end.
    The pieces' numerators are expanded around g = w (w - s) for their
    shifts s = 0, 2 omega_m, -2 omega_m, as alpha (beta + g).  With pref
    = 8 kappa (g chi)^2 at the coupling g and kd2 = kappa^2 + delta^2,
    a's squeezed part pref n ((N + 1) (kappa^2 + (delta + w)^2) + N
    (kappa^2 + (delta - w)^2)) is A (kd2 + g) + 2 pref n delta w, whose
    odd part integrates to zero over the symmetric window and is left
    out; its bath part (kd2 - w^2)^2 + 4 kappa^2 w^2 is (kd2 - g)^2 + k4
    g, and b's pref conj(c_s)^2 M (kappa - i (delta + w)) (kappa - i
    (delta + 2 omega_m - w)) is C (c0 + g); c mirrors b.
    """
    lim = cutoff * wm
    kt = KB * temp / HBAR
    kt1 = kt + (kt == 0.0)  # 1 where kt = 0
    bl = lim / kt1
    binet = (kt > 0.0) & (bl >= math.pi) & (bl < math.inf)
    pref = 8.0 * kappa * g * g * chi * chi
    sq = pref * n
    # C = pref conj(c_s)^2 M = cr + ci for b, its conjugate for c
    pu = pref * u
    pv = pref * v
    r1 = pu * u - pv * v
    i1 = -(pu * v) - pv * u
    cr = r1 * mre - i1 * mim
    ci = 1j * (r1 * mim + i1 * mre)
    # c0 = (kappa -+ i delta) (kappa -+ i e) = c0r -+ c0i for b and c
    e = delta + 2.0 * wm
    c0r = kappa * kappa - delta * e
    c0i = 1j * (kappa * e + delta * kappa)
    return (*_drift_entries(wm, kappa, gm, g, chi, delta, u, v),
            _hurwitz(wm, kappa, gm, g, chi, delta, n),
            lim, wm, 4.0 * (2.0 * gm / wm), kt, bl,
            1j * (binet * (1.0 / (2.0 * math.pi * kt1))),
            4.0 * kappa * kappa,
            sq * (2.0 * nsq + 1.0), cr + ci, cr - ci,
            kappa * kappa + delta * delta, c0r - c0i, c0r + c0i)


# the index of delta among _columns' inputs, and the inputs that fix the
# drift matrix, Routh-Hurwitz verdict and window terms: all but T, N and M
_DELTA_INPUT = 9
_POLE_INPUTS = (0, 1, 3, 4, 5, 9, 10, 11, 12)
# stacks of up to this many points build their rows point by point on
# floats: a detuning grid's rows cost about the same both ways at 11
# to 12 points (a stack with fewer columns crosses over sooner)
_POINTWISE = 11


def _parameters(p: PhysicalParams, d: DerivedParams) -> tuple:
    """The first nine inputs of _columns, which p and d give, and the
    drive eps."""
    return (p.mech_freq, p.cavity_decay, p.bath_temp, d.gamma_m,
            d.coupling_g, d.chi, d.n_squeeze, d.m_squeeze.real,
            d.m_squeeze.imag, d.drive_eps)


def _inputs(p: PhysicalParams, d: DerivedParams, deltas) -> list:
    """_columns' 13 inputs at the detunings deltas, for the stacks of
    every sweep axis and minimiser grid: a float where every point
    shares the input, a column (n) where it varies.  The fields of p and
    d are floats, or columns for a swept field and what derives from it;
    deltas is a detuning grid (n) or one fixed detuning, from which the
    steady state comes in the bits of steady_state_at_detuning.  A stack
    none of whose _POLE_INPUTS is a column shares one pole set."""
    par = _parameters(p, d)
    inputs = (*par[:_DELTA_INPUT], deltas,
              *_field(par[-1], p.cavity_decay, deltas))
    return [x if isinstance(x, np.ndarray) else float(x) for x in inputs]


def _point_inputs(points) -> np.ndarray:
    """_columns' inputs (13, n) at operating points (p, d, s), with the
    amplitude that each s holds."""
    return np.array([(*_parameters(p, d)[:_DELTA_INPUT], s.detuning,
                      s.amplitude.real, s.amplitude.imag, s.photon_number)
                     for p, d, s in points], dtype=float).reshape(-1, 13).T


def _size(inputs) -> int:
    """The number of points of a stack: the length of its columns, 1
    where it has none."""
    for x in inputs:
        if isinstance(x, np.ndarray):
            return len(x)
    return 1


def _row_matrix(inputs, cutoff: float) -> np.ndarray:
    """The _columns of a stack, one row (30) per point, from its 13
    inputs (floats or columns (n), or an array (13, n) of columns).  Up
    to _POINTWISE points are evaluated one at a time on floats.  A larger
    stack runs _columns once on its inputs as they are, so an entry that
    no column reaches (a shared stack's drift matrix and Routh-Hurwitz
    verdict among them) is computed once and broadcast to every row."""
    n = _size(inputs)
    if n <= _POINTWISE:
        # an array (13, n) gives its points in one call
        points = (inputs.T.tolist() if isinstance(inputs, np.ndarray) else
                  zip(*[x.tolist() if isinstance(x, np.ndarray) else [x] * n
                        for x in inputs]))
        return np.array([_columns(*x, cutoff) for x in points],
                        dtype=complex)
    cols = _columns(*inputs, cutoff)
    # every entry broadcast down its row, then the columns written over
    # their rows' placeholders
    rows = np.empty((len(cols), n), dtype=complex)
    rows[...] = np.array([0.0 if isinstance(c, np.ndarray) else c
                          for c in cols], dtype=complex)[:, None]
    for i, c in enumerate(cols):
        if isinstance(c, np.ndarray):
            rows[i] = c
    return rows.T


def _residue_sums(q: np.ndarray, wt: np.ndarray, shift: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """The density integrated over the window at m operating points,
    summed from their poles.

    ``q`` (k, M) are points below the real axis: the zeros r_j = i
    lambda_j of d(w), or circle nodes around a cluster of them; ``wt``
    (k, 3, M) their weights in the three pieces, ``shift`` (k, 3, 1) the
    pieces' shifts s.  k = m, or k = 1 where the m ``rows`` share their
    poles: the terms that the poles and the window alone fix are then
    formed once, from the first row, and broadcast against the rows' own
    squeezing and Bose columns.  Each piece is a polynomial over Q(w) =
    P(w) P(s - w), P(w) = prod_j (w - r_j), and partial fractions
    integrate it exactly: int_-L^L dw / (w - q) = -2 atanh(L / q).  The
    mirror point s - q has the opposite weight and the same g = w (w -
    s), so the pair gives 2 R (atanh(L / (s - q)) - atanh(L / q)) for
    the residue R at q.  The bath weight's vacuum half 2 w theta(w) gives
    log(1 - L / q) on [0, L], its Bose half _bose_kernel, and as H(w) =
    w^2 bath(w) / (d(w) d(-w)) is even, -q adds the vacuum term at q with
    v = L / q negated.  A row's terms make one pairwise sum whose length
    M alone sets, so no row depends on another.
    """
    m, k = len(rows), len(q)
    lim, _, scale, kt, bl, zfac, k4 = rows.T[_L:_ALPHA, :, None]  # (m, 1)
    alpha = rows[:, _ALPHA:_ALPHA + 3, None]
    # the columns that go with the poles, from the rows that hold them
    window, scale, k4 = lim[:k], scale[:k], k4[:k]
    beta = rows[:k, _BETA:_BETA + 3, None]
    g = q[:, None] * (q[:, None] - shift)
    ga = g[:, 0]
    # the numerator times g before the weight: where that overflows, the
    # variance is reported as not finite
    residues = g * (alpha * (beta + g)) * wt
    # atanh(L / (s - q)), at s = 0 (piece a) -atanh(L / q)
    t = np.arctanh(window[..., None] / (shift - q[:, None]))
    v = window / q
    kd2 = beta[:, 0]
    hq = scale * (q * (ga * wt[:, 0] * ((kd2 - ga) ** 2 + k4 * ga)))
    vacuum = hq * (np.arctanh(v / (v - 2.0)) + np.arctanh(v / (v + 2.0)))
    # the shared pole set for every row; where k = m, copies would cost a
    # stack of one about 1.5 us
    if k < m:
        q, vacuum = q.repeat(m, 0), vacuum.repeat(m, 0)
    return np.concatenate([
        (2.0 * residues * (t + t[:, :1])).reshape(m, -1),
        vacuum, hq * _bose_kernel(q, lim, kt, bl, zfac)], axis=1).sum(1)


def _variances(inputs, cutoff: float):
    """Momentum variances at a stack of operating points, given by
    _columns' 13 inputs as _row_matrix takes them.

    Returns the variances (n) and, in point order, {point: the
    RingCavError raised there} at the few points that have one, whose
    variance entries mean nothing.  One eigen-solve decides stability
    (both tests, cross-checked) and gives the poles (k, 4): of every
    point (k = n), or once where none of _POLE_INPUTS is a column (k =
    1: a temperature or squeezing sweep at a fixed detuning, whose drift
    matrix _row_matrix also builds once); the form of the inputs decides
    that, not their values.  One residue sum runs on every point against
    those poles, and a stable pole set whose eigenvalues nearly coincide
    is then summed again over _nodes' circles for its points, which
    replaces their entries.  An entry does not depend on the other
    points: a point alone gives the same bits.
    """
    # overflow at huge inputs is reported below, not warned about; 1 / Q'
    # at a clustered pole may divide by zero, and is dropped in _nodes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        rows = _row_matrix(inputs, cutoff)
        n = len(rows)
        # one pole set (k = 1) where no input that fixes it is a column
        k = n if n > 1 and any(isinstance(inputs[i], np.ndarray)
                               for i in _POLE_INPUTS) else 1
        re = rows[:k].real
        ev, max_re, live, errors = _stack_verdicts(
            re[:, _DRIFT].reshape(k, 4, 4), re[:, _RH] > 0.0, re[:, _WM])
        r = 1j * ev
        wm = re[:, _WM, None, None]
        shift = wm * _SHIFT_PER_WM  # (k, 3, 1)
        gap = _POLE_GAP * wm
        simple, close = _simple_weights(r, shift, gap)
        totals = _residue_sums(r, simple, shift, rows)
        for i in (live & close).nonzero()[0]:
            q, wt = _nodes(r[i], simple[i], shift[i], gap[i])
            # the points of pole set i: point i, or all of a shared stack
            at = slice(i, i + n - k + 1)
            totals[at] = _residue_sums(q[None], wt[None], shift[i:i + 1],
                                       rows[at])
        # the real and imaginary parts over 2 pi, in one division
        value, leak = (totals.view(float).reshape(n, 2) / (2.0 * math.pi)).T
        # stable, finite, real to within _IMAG_RESIDUAL and positive
        ok = (live & (value > 0.0) & (value < math.inf)
              & (np.abs(leak) <= _IMAG_RESIDUAL * value))
    if np.count_nonzero(ok) == n:
        return value, {}
    failures = {}
    deltas = np.broadcast_to(inputs[_DELTA_INPUT], n).tolist()
    for i in (~ok).nonzero()[0].tolist():
        j = i % k  # the point's pole set
        if live[j]:
            failures[i] = _failure(complex(totals[i]) / (2.0 * math.pi))
        else:
            margin = -float(max_re[j])
            failures[i] = errors[j] or UnstableOperatingPoint(
                f"no stationary state at detuning {deltas[i]!r} rad/s "
                f"(stability margin {margin!r} rad/s)", margin)
    return value, failures


def _failure(value: complex) -> NumericalFailure:
    """The error for a variance integral that came out as value."""
    if not cmath.isfinite(value):
        return NumericalFailure(f"variance integral is not finite: {value!r}")
    if abs(value.imag) > _IMAG_RESIDUAL * abs(value.real):
        return NumericalFailure(
            f"variance integral left imaginary residue {value!r}")
    return NumericalFailure(
        f"variance integral came out non-positive: {value.real!r}")


def momentum_variance(p: PhysicalParams, d: DerivedParams, s: SteadyState,
                      quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Stationary variance of the light-coupled mechanical momentum.

    The spectral density over [-cutoff, cutoff] * omega_m, summed
    exactly from the poles that the drift-matrix eigenvalues give; the
    same eigenvalues decide stability first.  A stack of one for
    _variances, so a sweep row gives the same bits.

    Raises
    ------
    UnstableOperatingPoint
        If the drift matrix has an eigenvalue with non-negative real
        part; the stationary variance does not exist there.
    NumericalFailure
        If the variance overflows, leaks a non-negligible imaginary
        part or comes out non-positive.
    """
    value, failures = _variances(_point_inputs([(p, d, s)]), _cutoff(quad))
    if failures:
        raise failures[0]
    return float(value[0])


def q_plus_variance(p: PhysicalParams, d: DerivedParams) -> float:
    """Variance of the mechanical quadrature decoupled from the light.

    It stays in thermal equilibrium with the mirror bath: 1/2 + n_bar
    at temperature T.  From hbar omega_m / kB T = 37.5 on (T = 0
    included), n_bar no longer moves the sum, which is exactly 1/2.
    Where d holds a column of thermal ratios (a temperature sweep), the
    column of variances.
    """
    return _each(_thermal_variance, d.thermal_ratio)


def _thermal_variance(ratio: float) -> float:
    """1/2 + n_bar at hbar omega_m / kB T = ratio."""
    if ratio > 37.5:
        return 0.5
    return 0.5 + 1.0 / math.expm1(ratio)


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
    prod, tot = _product_sum(vq, vp)
    return EntanglementResult(
        delta=float(delta),
        var_q_plus=vq,
        var_p_minus=vp,
        product=prod,
        sum=tot,
        product_entangled=prod < 1.0,
        sum_entangled=tot < 2.0,
    )


def _product_sum(vq: float, vp: float) -> tuple[float, float]:
    """The product and the sum of the two quadrature variances, which
    the criteria compare with 1 and 2."""
    prod = vq * vp
    tot = vq + vp
    if not (math.isfinite(prod) and math.isfinite(tot)):
        raise NumericalFailure(f"criteria are not finite: product {prod!r}")
    return prod, tot
