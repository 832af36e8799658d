import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ringcav as rc
from ringcav.spectra import _inputs
from ringcav.steady import _in_band

# Frozen high-precision values at delta = 0.965 * omega_m, baseline.
DELTA_965 = 5741920.308892601
AMP_965 = 9104.4906359922015 - 38698.531582114666j
PHOTONS_965 = 1580468096.3527959
Q_STATIC_965 = -9864.0493292855387


def test_amplitude_at_reference_detuning(baseline):
    p, d = baseline
    s = rc.steady_state_at_detuning(p, d, DELTA_965)
    assert s.detuning == DELTA_965
    assert s.amplitude.real == pytest.approx(AMP_965.real, rel=1e-12)
    assert s.amplitude.imag == pytest.approx(AMP_965.imag, rel=1e-12)
    assert s.photon_number == pytest.approx(PHOTONS_965, rel=1e-12)
    assert s.q_minus_s == pytest.approx(Q_STATIC_965, rel=1e-12)
    assert s.p_minus_s == 0.0
    assert not s.tangent


def test_amplitude_reconstruction(baseline):
    # |c_s|^2 (kappa^2 + delta^2) = eps^2 ties the three stored fields
    p, d = baseline
    for delta in (-2e6, 0.0, 3e6, DELTA_965, 9e6):
        s = rc.steady_state_at_detuning(p, d, delta)
        lhs = s.photon_number * (p.cavity_decay ** 2 + delta ** 2)
        assert lhs == pytest.approx(d.drive_eps ** 2, rel=1e-12)


def test_displacement_sign_tracks_geometry(baseline):
    p, d = baseline
    p4 = rc.baseline_params(geometry=rc.Geometry.FOUR_MIRROR_TOTAL)
    d4 = rc.derive_params(p4)
    s3 = rc.steady_state_at_detuning(p, d, DELTA_965)
    s4 = rc.steady_state_at_detuning(p4, d4, DELTA_965)
    assert s3.q_minus_s < 0.0 < s4.q_minus_s
    assert abs(s3.q_minus_s) == pytest.approx(abs(s4.q_minus_s), rel=1e-15)
    assert s3.amplitude == s4.amplitude


def test_branch_counts_across_multistable_window(baseline):
    # independent dense scanning located the three-branch window of the
    # baseline drive at bare detunings of roughly [0.513, 0.609] omega_m
    p, d = baseline
    wm = p.mech_freq
    for bare, expected in ((0.30, 1), (0.45, 1), (0.55, 3), (0.58, 3),
                           (0.65, 1), (1.00, 1), (1.50, 1)):
        branches = rc.find_steady_branches(p, d, bare * wm)
        assert len(branches) == expected, bare


def test_branches_sorted_and_self_consistent(baseline):
    p, d = baseline
    wm = p.mech_freq
    for bare in (0.3, 0.55, 0.65, 1.0):
        branches = rc.find_steady_branches(p, d, bare * wm)
        dets = [b.detuning for b in branches]
        assert dets == sorted(dets)
        for b in branches:
            # the effective detuning must map back to the bare one
            implied = (b.detuning + 2.0 * (d.coupling_g * d.chi) ** 2
                       * b.photon_number / wm)
            assert implied == pytest.approx(bare * wm, rel=1e-9)


def test_zero_power_collapses_to_bare_detuning(baseline):
    p0 = rc.baseline_params(laser_power=0.0)
    d0 = rc.derive_params(p0)
    branches = rc.find_steady_branches(p0, d0, 0.7 * p0.mech_freq)
    assert len(branches) == 1
    assert branches[0].detuning == pytest.approx(0.7 * p0.mech_freq,
                                                 rel=1e-12)
    assert branches[0].amplitude == 0.0
    assert branches[0].photon_number == 0.0
    assert branches[0].q_minus_s == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_detuning_rejected(baseline, bad):
    p, d = baseline
    with pytest.raises(rc.InvalidParameter):
        rc.steady_state_at_detuning(p, d, bad)
    with pytest.raises(rc.InvalidParameter):
        rc.find_steady_branches(p, d, bad)


_DETUNING_ROUTES = {
    "delta": (rc.steady_state_at_detuning, rc.entanglement_result),
    "bare_detuning": (rc.find_steady_branches,),
}


@pytest.mark.parametrize("bad", [
    # a float32 ran the point route in single precision: var_p_minus
    # moved by 8e-7 relative at 0.965 omega_m
    np.float32(5741920.5), np.int64(5741920), "1", None, 1 + 0j,
])
def test_detuning_must_be_an_int_or_a_float(baseline, bad):
    p, d = baseline
    for field, routes in _DETUNING_ROUTES.items():
        for route in routes:
            with pytest.raises(rc.InvalidParameter) as exc:
                route(p, d, bad)
            assert (exc.value.field, exc.value.bound) == (
                field, "an int or float"), route.__name__
            assert exc.value.value is bad


def test_int_and_float64_detunings_keep_their_bits(baseline):
    # each is the float that it stands for
    p, d = baseline
    for delta in (5741920, np.float64(5741920.5)):
        as_float = float(delta)
        assert (rc.steady_state_at_detuning(p, d, delta)
                == rc.steady_state_at_detuning(p, d, as_float))
        assert (rc.find_steady_branches(p, d, delta)
                == rc.find_steady_branches(p, d, as_float))
        assert (rc.entanglement_result(p, d, delta)
                == rc.entanglement_result(p, d, as_float))


@pytest.mark.parametrize("kappa_per_wm, mw", [(0.227, 3.8), (0.005, 1.0),
                                              (40.0, 0.0)])
def test_detuning_array_gives_the_steady_state_bits(kappa_per_wm, mw):
    # the inputs a stack builds from its detuning array: the detuning,
    # amplitude and photon number of steady_state_at_detuning, signs of
    # zeros included, on either side of |delta| = kappa, at zero and
    # negative detunings
    p = rc.baseline_params(cavity_decay=kappa_per_wm * 5950176.485899068,
                           laser_power=1e-3 * mw)
    d = rc.derive_params(p)
    kappa = p.cavity_decay
    rng = np.random.default_rng(13)
    deltas = np.concatenate([
        kappa * rng.uniform(-1.0, 1.0, 200),
        kappa * np.exp(rng.uniform(0.0, 9.0, 200)) * rng.choice([-1, 1], 200),
        [0.0, -0.0, kappa, -kappa, np.nextafter(kappa, 0.0),
         np.nextafter(kappa, 2.0 * kappa)]])
    assert np.count_nonzero(np.abs(deltas) < kappa) > 200
    assert np.count_nonzero(np.abs(deltas) > kappa) > 200
    assert _in_band(deltas, kappa).all()
    got = _inputs(p, d, deltas)
    states = [rc.steady_state_at_detuning(p, d, float(x)) for x in deltas]
    want = np.array([(s.detuning, s.amplitude.real, s.amplitude.imag,
                      s.photon_number) for s in states]).T
    assert np.array(got[9:]).tobytes() == want.tobytes()


_CORNER_WM = (1e-20, 1.0, 1e20)
_CORNER_KAPPA_PER_WM = (1e-6, 1.0, 1e6)
_CORNER_WATTS = (0.0, 3.8e-3, 1e3)


def test_amplitude_at_the_domain_corners():
    # omega_m, kappa / omega_m and the power at the ends of the input
    # domain, each at the baseline mass and at the mass that keeps
    # g / omega_m (which omega_m = 1e-20 rad/s needs); the detunings
    # reach the band |delta| < 1e6 kappa
    ref = rc.baseline_params()
    checked = 0
    for wm, ratio, watts, scaled in itertools.product(
            _CORNER_WM, _CORNER_KAPPA_PER_WM, _CORNER_WATTS, (False, True)):
        mass = ref.mirror_mass * (ref.mech_freq / wm) ** (3 * scaled)
        p = rc.baseline_params(mech_freq=wm, cavity_decay=ratio * wm,
                               laser_power=watts, mirror_mass=mass)
        try:
            d = rc.derive_params(p)
        except rc.InvalidParameter:
            continue
        kappa = p.cavity_decay
        deltas = np.array([0.0, -0.0, kappa, -kappa, 0.999e6 * kappa,
                           -0.999e6 * kappa, 0.965 * wm])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _inputs(p, d, deltas)
            states = [rc.steady_state_at_detuning(p, d, float(x))
                      for x in deltas]
        want = np.array([(s.detuning, s.amplitude.real, s.amplitude.imag,
                          s.photon_number) for s in states]).T
        assert np.array(got[9:]).tobytes() == want.tobytes(), (
            wm, ratio, watts, scaled)
        for x, s in zip(deltas, states):
            exact = d.drive_eps / complex(kappa, x)
            assert abs(s.amplitude - exact) <= 4e-16 * abs(exact)
            assert s.photon_number == pytest.approx(
                abs(exact) ** 2, rel=1e-15, abs=0.0)
        checked += 1
    assert checked == 45


def test_unresolvable_detuning_rejected(baseline):
    # beyond 1e6 kappa the cubic's complex roots near +/- i kappa would
    # pass as real branches, and kappa is soon lost against delta
    p, d = baseline
    limit = 1e6 * p.cavity_decay
    for bad in (limit, -limit, 1e300, -1e20 * p.mech_freq):
        with pytest.raises(rc.InvalidParameter):
            rc.steady_state_at_detuning(p, d, bad)
        with pytest.raises(rc.InvalidParameter):
            rc.find_steady_branches(p, d, bad)
    below = 0.999 * limit
    assert rc.steady_state_at_detuning(p, d, below).detuning == below
    assert len(rc.find_steady_branches(p, d, below)) == 1


def test_fold_branches_are_flagged_tangent(baseline):
    # scan for the fold: the first bare detuning where the count jumps
    p, d = baseline
    wm = p.mech_freq
    lo, hi = 0.45 * wm, 0.55 * wm
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if len(rc.find_steady_branches(p, d, mid)) >= 2:
            hi = mid
        else:
            lo = mid
    near_fold = rc.find_steady_branches(p, d, hi)
    assert any(b.tangent for b in near_fold) or len(near_fold) == 3


@settings(deadline=None, max_examples=60)
@given(bare=st.floats(min_value=-2.0, max_value=2.0),
       logp=st.floats(min_value=-4.0, max_value=-1.5))
def test_branches_random_self_consistency(bare, logp):
    p = rc.baseline_params(laser_power=10.0 ** logp)
    d = rc.derive_params(p)
    wm = p.mech_freq
    branches = rc.find_steady_branches(p, d, bare * wm)
    assert 1 <= len(branches) <= 3
    for b in branches:
        implied = (b.detuning + 2.0 * (d.coupling_g * d.chi) ** 2
                   * b.photon_number / wm)
        assert implied == pytest.approx(bare * wm,
                                        rel=1e-7, abs=1e-4 * wm)


def test_branches_do_not_depend_on_the_frequency_unit():
    # scaling omega_m and kappa by lam, the mass by lam^-3 and the power
    # by lam keeps S / kappa^3 and so the branches in units of kappa;
    # omega_m runs down to 1e-20 rad/s, the bottom of the input domain
    ref = rc.baseline_params(laser_power=20e-3)
    bares = (0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5)
    want = None
    for lam in (1.0, 1e-6, 1e-12, 1e-13, 1e-20, 1e-20 / ref.mech_freq):
        p = rc.baseline_params(laser_power=20e-3 * lam,
                               mech_freq=ref.mech_freq * lam,
                               cavity_decay=ref.cavity_decay * lam,
                               mirror_mass=ref.mirror_mass / lam ** 3)
        d = rc.derive_params(p)
        got = [[(b.detuning / p.cavity_decay, b.tangent)
                for b in rc.find_steady_branches(p, d, x * p.mech_freq)]
               for x in bares]
        if want is None:
            want = got
            assert [len(g) for g in got] == [1, 1, 1, 1, 3, 3, 3]
        assert [[t for _, t in g] for g in got] == \
            [[t for _, t in w] for w in want], lam
        for g, w in zip(got, want):
            assert [x for x, _ in g] == pytest.approx(
                [x for x, _ in w], rel=1e-9), lam
