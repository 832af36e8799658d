"""Independent re-derivations used as oracles by the tests.

Everything here is written straight from the defining formulas with
plain numpy (a dense trapezoid rule, Kronecker-product solves) or
mpmath (tanh-sinh quadrature, partial fractions with the Matsubara
series), sharing no code with the package under test, so agreement
between the two is evidence rather than tautology.
"""

import numpy as np

HBAR = 1.054571817e-34
KB = 1.380649e-23
C_LIGHT = 299792458.0


def trapezoid_momentum_variance(wavelength, cavity_length, mirror_mass,
                                kappa, wm, quality, fold_angle, bath_temp,
                                power, r, phase, delta,
                                cutoff=50.0, n_points=2_000_001):
    """Coupled-momentum variance by brute-force trapezoid integration."""
    gm = wm / quality
    wl = 2.0 * np.pi * C_LIGHT / wavelength
    g = (wl / cavity_length) * np.sqrt(HBAR / (mirror_mass * wm))
    chi = np.cos(0.5 * fold_angle) ** 2
    eps = np.sqrt(2.0 * kappa * power / (HBAR * wl))
    cs = eps / (kappa + 1j * delta)
    n = abs(cs) ** 2
    nsq = np.sinh(r) ** 2
    msq = np.sinh(r) * np.cosh(r) * np.exp(1j * phase)

    def dd(w):
        return (-4.0 * wm * delta * g * g * n * chi * chi
                + (wm * wm - w * w - 1j * gm * w)
                * ((kappa - 1j * w) ** 2 + delta * delta))

    w = np.linspace(-cutoff * wm, cutoff * wm, n_points)
    if bath_temp > 0.0:
        x = HBAR * w / (2.0 * KB * bath_temp)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            th = np.where(w == 0.0, 2.0 * KB * bath_temp / HBAR,
                          w * (1.0 + 1.0 / np.tanh(np.clip(x, -700, 700))))
    else:
        th = np.where(w > 0.0, 2.0 * w, 0.0)

    pref = 8.0 * kappa * g * g * chi * chi
    dw = dd(w)
    aa = (pref * n * ((nsq + 1.0) * (kappa**2 + (delta + w) ** 2)
                      + nsq * (kappa**2 + (delta - w) ** 2))
          + 2.0 * gm / wm * th
          * ((delta**2 + kappa**2 - w * w) ** 2 + 4.0 * kappa**2 * w * w)
          ) / (dw * np.conj(dw))
    bb = (pref * np.conj(cs) ** 2 * msq
          * (kappa - 1j * (delta + w)) * (kappa - 1j * (delta + 2 * wm - w))
          / (dw * dd(2.0 * wm - w)))
    cc = (pref * cs ** 2 * np.conj(msq)
          * (kappa + 1j * (delta - w)) * (kappa + 1j * (delta + 2 * wm + w))
          / (dw * dd(-2.0 * wm - w)))
    integrand = w * w * aa + w * (w - 2 * wm) * bb + w * (w + 2 * wm) * cc
    return float(np.trapezoid(integrand, w).real / (2.0 * np.pi))


# Offsets, in line widths, of the mesh points placed across a resonance.
_LADDER = np.array([0.0, 2.0, -2.0, 6.0, -6.0, 18.0, -18.0, 54.0, -54.0])


def breakpoints(p, d, s, cutoff):
    """Initial integration mesh clustered on the known resonances.

    The roots of the characteristic quartic (the eigenvalues of the
    drift matrix) locate the poles of the response: each mode at
    +/- Omega with half-width |Re lambda| shows up in the spectrum at
    +/- Omega and, through the shifted correlation pieces, around
    +/- (2 omega_m -/+ Omega).  A geometric ladder of points is placed
    across every such line so the first partition already resolves
    features a thousand times narrower than the window.
    """
    wm = p.mech_freq
    lim = cutoff * wm
    delta = s.detuning
    ev = characteristic_polynomial_roots(
        p.cavity_decay, wm, d.gamma_m, delta, d.coupling_g, d.chi,
        s.photon_number)

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


def thermal_weight(p):
    """omega * (1 + coth(hbar omega / 2 kB T)) as a vectorised function.

    Written as 2 omega / (1 - exp(-hbar omega / kB T)) to stay finite for
    negative arguments, continued by its limit 2 kB T / hbar at omega = 0.
    At T = 0 it degenerates to 2 omega for positive omega and 0 otherwise.
    """
    if p.bath_temp > 0.0:
        alpha = HBAR / (2.0 * KB * p.bath_temp)

        def weight(w):
            x = np.clip(alpha * w, -700.0, 700.0)
            with np.errstate(over="ignore"):
                den = -np.expm1(-2.0 * x)
            return np.where(x == 0.0, 2.0 / alpha,
                            2.0 * w / np.where(x == 0.0, 1.0, den))
    else:
        def weight(w):
            return np.where(w > 0.0, 2.0 * w, 0.0)

    return weight


def numerators(w, p, d, s):
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


def denominator(w, p, d, s):
    """Response denominator d(w) of the driven mirror-field loop.

    Vanishing of this function on the real axis marks the instability
    threshold; its conjugation symmetry is d(-w) = conj(d(w)).
    Accepts a scalar or an array.
    """
    wm = p.mech_freq
    kappa = p.cavity_decay
    delta = s.detuning
    w = np.asarray(w)
    out = (-4.0 * wm * delta * d.coupling_g ** 2 * s.photon_number
           * d.chi ** 2
           + (wm * wm - w * w - 1j * d.gamma_m * w)
           * ((kappa - 1j * w) ** 2 + delta * delta))
    return out if out.shape else complex(out)


def raw_terms(w, p, d, s, thermal):
    """The three spectral pieces a(w), b(w), c(w) on an array w."""
    wm = p.mech_freq
    squeezed, bath, corr_b, corr_c = numerators(w, p, d, s)
    dw = denominator(w, p, d, s)
    dmw = np.conj(dw)  # d(-w)
    a = ((squeezed + 2.0 * d.gamma_m / wm * thermal(w) * bath)
         / (dw * dmw))
    b = corr_b / (dw * denominator(2.0 * wm - w, p, d, s))
    c = corr_c / (dw * denominator(-2.0 * wm - w, p, d, s))
    return a, b, c


def lyapunov_squeezed_variance(wavelength, cavity_length, mirror_mass,
                               kappa, wm, quality, fold_angle, power, r,
                               phase, delta):
    """The squeezed-light part of the coupled-momentum variance, from
    the stationary covariance of the linearised dynamics.

    In (Q, P, x, y), with G = 2 g chi and the amplitude c_s = u + i v:
    dQ = wm P, dP = -wm Q - gm P - G (u x + v y), dx = -kappa x + delta y
    + G v Q, dy = -kappa y - delta x - G u Q, plus noise on x and y.  V
    solves A V + V A^T + D_N = 0 with D_N = kappa (2N + 1) on the (x, y)
    block; W solves (A + i wm) W + W (A + i wm)^T + D_M = 0 with D_M =
    2 kappa [[M/2, -iM/2], [-iM/2, -M/2]] there (Vitali et al., PRL 98,
    030405, 2007).  Each is one 16x16 Kronecker solve.  The result is
    2 V_PP + 4 Re W_PP: the variance without the mirror bath, over the
    whole frequency axis.
    """
    a, nsq, msq = _dynamics(wavelength, cavity_length, mirror_mass, kappa,
                            wm, quality, fold_angle, power, r, phase, delta)
    eye = np.eye(4)

    def solve(drift, noise):
        # drift X + X drift^T = -noise, row-major vectorised
        kron = np.kron(drift, eye) + np.kron(eye, drift)
        return np.linalg.solve(kron, -noise.ravel()).reshape(4, 4)

    d_n = np.zeros((4, 4))
    d_n[2:, 2:] = kappa * (2.0 * nsq + 1.0) * np.eye(2)
    d_m = np.zeros((4, 4), dtype=complex)
    d_m[2:, 2:] = 2.0 * kappa * np.array([[msq / 2, -1j * msq / 2],
                                          [-1j * msq / 2, -msq / 2]])
    cov = solve(a, d_n)
    corr = solve(a + 1j * wm * eye, d_m)
    return float(2.0 * cov[1, 1] + 4.0 * corr[1, 1].real)


def _dynamics(wavelength, cavity_length, mirror_mass, kappa, wm, quality,
              fold_angle, power, r, phase, delta):
    """The drift matrix of lyapunov_squeezed_variance in (Q, P, x, y),
    N = sinh^2 r and M = sinh r cosh r e^(i phase)."""
    gm = wm / quality
    wl = 2.0 * np.pi * C_LIGHT / wavelength
    g = (wl / cavity_length) * np.sqrt(HBAR / (mirror_mass * wm))
    chi = np.cos(0.5 * fold_angle) ** 2
    eps = np.sqrt(2.0 * kappa * power / (HBAR * wl))
    cs = eps / (kappa + 1j * delta)
    u, v = cs.real, cs.imag
    nsq = np.sinh(r) ** 2
    msq = np.sinh(r) * np.cosh(r) * np.exp(1j * phase)
    gu, gv = 2.0 * g * chi * u, 2.0 * g * chi * v
    a = np.array([[0.0, wm, 0.0, 0.0],
                  [-wm, -gm, -gu, -gv],
                  [gv, 0.0, -kappa, delta],
                  [-gu, 0.0, -delta, -kappa]])
    return a, nsq, msq


def transfer_density(w, thermal, wavelength, cavity_length, mirror_mass,
                     kappa, wm, quality, fold_angle, power, r, phase, delta):
    """The density's three terms w^2 a(w), w (w - 2 omega_m) b(w) and
    w (w + 2 omega_m) c(w) on an array w, from the linearised dynamics.

    With A the drift matrix of _dynamics, the response is G(w) = (-i w I
    - A)^-1 and the momentum's response to the field noise T(w) = G[P,
    (x, y)].  The field noise enters as 2 kappa S_N, S_N = [[N + 1/2,
    i/2], [-i/2, N + 1/2]], and as 2 kappa S_M, S_M = [[M/2, -iM/2],
    [-iM/2, -M/2]], between w and 2 omega_m - w; the bath force on P as
    (gamma_m / omega_m) W(w), W = thermal(w) = w (1 + coth(hbar w / 2 kB
    T)).  So the spectrum's pieces are a = 2 kappa T S_N T^H + (gamma_m
    / omega_m) |G_PP|^2 W, b = 2 kappa T(w) S_M T(2 omega_m - w)^T and c
    = 2 kappa T(w) conj(S_M) T(-2 omega_m - w)^T.  Each is returned
    doubled: the variances count the vacuum as 1 (V = 1 + 2 n_bar for a
    thermal mode), where S_N's N + 1/2 counts it as 1/2.  No
    denominator d(w) or numerator polynomial is involved.
    """
    a, nsq, msq = _dynamics(wavelength, cavity_length, mirror_mass, kappa,
                            wm, quality, fold_angle, power, r, phase, delta)

    def response(x):
        return np.linalg.inv(-1j * x[:, None, None] * np.eye(4) - a)

    g = response(w)
    t = g[:, 1, 2:]
    s_n = np.array([[nsq + 0.5, 0.5j], [-0.5j, nsq + 0.5]])
    s_m = np.array([[0.5 * msq, -0.5j * msq], [-0.5j * msq, -0.5 * msq]])
    piece_a = (2.0 * kappa * np.einsum("ni,ij,nj->n", t, s_n, t.conj())
               + np.abs(g[:, 1, 1]) ** 2 * thermal(w) / quality)
    piece_b = 2.0 * kappa * np.einsum("ni,ij,nj->n", t, s_m,
                                      response(2.0 * wm - w)[:, 1, 2:])
    piece_c = 2.0 * kappa * np.einsum("ni,ij,nj->n", t, s_m.conj(),
                                      response(-2.0 * wm - w)[:, 1, 2:])
    return 2.0 * piece_a, 2.0 * piece_b, 2.0 * piece_c


def characteristic_polynomial_roots(kappa, wm, gm, delta, g, chi, n):
    """Eigenvalues of the linearised dynamics via the closed-form quartic.

    (s^2 + gm s + wm^2)((s + kappa)^2 + delta^2) - wm delta G^2 with
    G^2 = 4 g^2 chi^2 n, expanded to coefficients and fed to np.roots.
    """
    g2 = 4.0 * g * g * chi * chi * n
    k2d2 = kappa * kappa + delta * delta
    coeffs = [
        1.0,
        gm + 2.0 * kappa,
        wm * wm + k2d2 + 2.0 * kappa * gm,
        gm * k2d2 + 2.0 * kappa * wm * wm,
        wm * wm * k2d2 - wm * delta * g2,
    ]
    return np.roots(coeffs)


def _mp_point(wavelength, cavity_length, mirror_mass, kappa, wm, quality,
              fold_angle, bath_temp, power, r, phase, delta):
    """One operating point in mpmath numbers at the working precision:
    kappa, omega_m, delta, T, gamma_m, the coupling g, chi, the amplitude
    c_s, the photon number n, N = sinh^2 r, M, the prefactor 8 kappa (g
    chi)^2 and theta = kB T / hbar."""
    import mpmath as mp

    hbar = mp.mpf("1.054571817e-34")
    kb = mp.mpf("1.380649e-23")
    c_light = mp.mpf(299792458)
    kappa, wm, delta = mp.mpf(kappa), mp.mpf(wm), mp.mpf(delta)
    temp = mp.mpf(bath_temp)
    gm = wm / mp.mpf(quality)
    wl = 2 * mp.pi * c_light / mp.mpf(wavelength)
    g = (wl / mp.mpf(cavity_length)) * mp.sqrt(
        hbar / (mp.mpf(mirror_mass) * wm))
    chi = mp.cos(mp.mpf(fold_angle) / 2) ** 2
    eps = mp.sqrt(2 * kappa * mp.mpf(power) / (hbar * wl))
    cs = eps / mp.mpc(kappa, delta)
    nsq = mp.sinh(mp.mpf(r)) ** 2
    msq = mp.sinh(mp.mpf(r)) * mp.cosh(mp.mpf(r)) * mp.expj(mp.mpf(phase))
    return (kappa, wm, delta, temp, gm, g, chi, cs, abs(cs) ** 2, nsq, msq,
            8 * kappa * g * g * chi * chi, kb * temp / hbar)


def mpmath_momentum_variance(wavelength, cavity_length, mirror_mass,
                             kappa, wm, quality, fold_angle, bath_temp,
                             power, r, phase, delta, cutoff=50.0, dps=30):
    """Coupled-momentum variance in dps-digit arithmetic.

    The same defining integral as trapezoid_momentum_variance, written
    with mpmath and integrated by mpmath.quad (tanh-sinh) on intervals
    broken at 0, +/- omega_m, +/- delta and +/- (2 omega_m -/+ delta).

    It is no reference at zero detuning with the light on: at 3.8 mW,
    delta = 0 and cutoff 50 (T = 0 or 41.4 uK) it is 4.1e-5 off, while
    the residue route, the adaptive reference and scipy.integrate.quad
    agree within 3.4e-13.  Its density matches the package's to 1e-10
    pointwise (2,400 points), so the tanh-sinh rule is at fault.
    """
    import mpmath as mp

    with mp.workdps(dps):
        (kappa, wm, delta, temp, gm, g, chi, cs, n, nsq, msq, pref,
         theta) = _mp_point(wavelength, cavity_length, mirror_mass, kappa,
                            wm, quality, fold_angle, bath_temp, power, r,
                            phase, delta)
        j = mp.mpc(0, 1)

        def dd(w):
            return (-4 * wm * delta * g * g * n * chi * chi
                    + (wm * wm - w * w - j * gm * w)
                    * ((kappa - j * w) ** 2 + delta * delta))

        def weight(w):
            # w (1 + coth(hbar w / 2 kB T)), finite through w = 0
            if temp == 0:
                return 2 * w if w > 0 else mp.mpf(0)
            if w == 0:
                return 2 * theta
            return 2 * w / -mp.expm1(-w / theta)

        def density(w):
            dw = dd(w)
            a = (pref * n * ((nsq + 1) * (kappa ** 2 + (delta + w) ** 2)
                             + nsq * (kappa ** 2 + (delta - w) ** 2))
                 + 2 * gm / wm * weight(w)
                 * ((delta ** 2 + kappa ** 2 - w * w) ** 2
                    + 4 * kappa ** 2 * w * w)) / abs(dw) ** 2
            b = (pref * mp.conj(cs) ** 2 * msq
                 * (kappa - j * (delta + w))
                 * (kappa - j * (delta + 2 * wm - w))
                 / (dw * dd(2 * wm - w)))
            c = (pref * cs ** 2 * mp.conj(msq)
                 * (kappa + j * (delta - w))
                 * (kappa + j * (delta + 2 * wm + w))
                 / (dw * dd(-2 * wm - w)))
            return mp.re(w * w * a + w * (w - 2 * wm) * b
                         + w * (w + 2 * wm) * c)

        lim = mp.mpf(cutoff) * wm
        marks = {mp.mpf(0), -lim, lim}
        for m in (wm, delta, 2 * wm - delta, 2 * wm + delta):
            marks.update((m, -m))
        pts = sorted(x for x in marks if -lim <= x <= lim)
        return float(mp.quad(density, pts) / (2 * mp.pi))


def matsubara_momentum_variance(wavelength, cavity_length, mirror_mass,
                                kappa, wm, quality, fold_angle, bath_temp,
                                power, r, phase, delta, cutoff=50.0, dps=40):
    """Coupled-momentum variance by partial fractions and, at T > 0, the
    Matsubara series of the bath weight, in dps-digit arithmetic.

    The density of mpmath_momentum_variance is rational in w but for the
    bath weight w (1 + coth(w / 2 theta)), theta = kB T / hbar.  Its odd
    part w integrates to zero against the even rest over [-L, L], and
    its even part is the Mittag-Leffler series w coth(w / 2 theta) = 2
    theta + sum_k 4 theta w^2 / (w^2 + nu_k^2), nu_k = 2 pi k theta, poles
    at the Matsubara frequencies.  So each term is a proper rational
    function N(w) / prod_i (w - p_i), whose integral over [-L, L] is
    sum_i N(p_i) / prod_(j != i) (p_i - p_j) (log(L - p_i) - log(-L -
    p_i)).  The poles are the roots r of the monic quartic d(w), as
    eigenvalues of its companion matrix (mpmath.eig), their mirrors -r
    (the a piece), 2 omega_m - r (b) and -2 omega_m - r (c), and +/- i
    nu_k; mpmath.nsum sums the series over k.  At T = 0 the weight is 2 w
    on w > 0 and 0 below, and the bath term integrates over [0, L] as
    sum_i N(p_i) / prod_(j != i) (p_i - p_j) (log(L - p_i) - log(-p_i))
    instead.  No Binet formula, E1, Bernoulli series or contour is
    involved.  At delta = 0, d has a double root at -i kappa, which
    mpmath.eig splits by about 10^(-dps / 2); the two residues then
    cancel about dps / 2 digits.
    """
    import mpmath as mp

    with mp.workdps(dps):
        (kappa, wm, delta, temp, gm, g, chi, cs, n, nsq, msq, pref,
         theta) = _mp_point(wavelength, cavity_length, mirror_mass, kappa,
                            wm, quality, fold_angle, bath_temp, power, r,
                            phase, delta)
        j = mp.mpc(0, 1)
        lim = mp.mpf(cutoff) * wm
        # d(w) = (wm^2 - i gm w - w^2) (kappa^2 + delta^2 - 2 i kappa w
        # - w^2) - 4 wm delta g^2 n chi^2 = w^4 + c1 w^3 + ... + c4
        u = [-1, -j * gm, wm * wm]
        v = [-1, -2 * j * kappa, kappa ** 2 + delta ** 2]
        c = [sum(u[i] * v[k - i] for i in range(3) if 0 <= k - i < 3)
             for k in range(5)]
        c[4] -= 4 * wm * delta * g * g * n * chi * chi
        # its roots: the eigenvalues of the companion matrix
        roots = list(mp.eig(mp.matrix([[-c[1], -c[2], -c[3], -c[4]],
                                       [1, 0, 0, 0], [0, 1, 0, 0],
                                       [0, 0, 1, 0]]),
                            left=False, right=False))

        def integral(num, poles, lo=-lim):
            # over [lo, L]
            return mp.fsum(
                num(p) / mp.fprod(p - q for k, q in enumerate(poles)
                                  if k != i)
                * (mp.log(lim - p) - mp.log(lo - p))
                for i, p in enumerate(poles))

        def bath(w):
            # 2 gamma_m / omega_m times the a piece's bath numerator
            return (2 * gm / wm * ((delta ** 2 + kappa ** 2 - w * w) ** 2
                                   + 4 * kappa ** 2 * w * w))

        def squeezed(w):
            return pref * n * ((nsq + 1) * (kappa ** 2 + (delta + w) ** 2)
                               + nsq * (kappa ** 2 + (delta - w) ** 2))

        def piece_b(w):
            return (w * (w - 2 * wm) * pref * mp.conj(cs) ** 2 * msq
                    * (kappa - j * (delta + w))
                    * (kappa - j * (delta + 2 * wm - w)))

        def piece_c(w):
            return (w * (w + 2 * wm) * pref * cs ** 2 * mp.conj(msq)
                    * (kappa + j * (delta - w))
                    * (kappa + j * (delta + 2 * wm + w)))

        mirrored = roots + [-x for x in roots]

        def matsubara(k):
            nu = 2 * mp.pi * k * theta
            return integral(lambda w: 4 * theta * w ** 4 * bath(w),
                            mirrored + [j * nu, -j * nu])

        if temp == 0:
            thermal = integral(lambda w: 2 * w ** 3 * bath(w), mirrored, 0)
        else:
            thermal = mp.nsum(matsubara, [1, mp.inf])
        total = (integral(lambda w: w * w * (squeezed(w)
                                             + 2 * theta * bath(w)),
                          mirrored)
                 + thermal
                 + integral(piece_b, roots + [2 * wm - x for x in roots])
                 + integral(piece_c, roots + [-2 * wm - x for x in roots]))
        return float(mp.re(total) / (2 * mp.pi))
