"""The benchmark's three workloads: inputs, operations and output checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Inputs come only
from the workload seed, in blocks that stratify the seeded draws, so a
run measures whole blocks and its mix of cheap and expensive operations
barely depends on the seed.

``scan``           paper-figure batch work through the library: per draw
                   of (r, P), a 100-point bath-temperature sweep, a
                   200-point detuning sweep and one detuning minimisation.
                   ``quadrature`` and ``spectra`` do most of the work.
``interactive``    single ``ringcav.main(argv)`` requests in-process,
                   3 point : 1 stability : 1 branches, with output
                   captured in memory.  One operating point per request;
                   argparse, config and formatting are a large share.
``stability_map``  a phase diagram: 60 powers x 400 bare detunings, each
                   pair solved for every branch and every branch
                   classified.  ``steady`` and ``stability`` only.

Operations return their outputs.  ``check`` verifies an output once its
chunk of operations has run, outside the timed calls; ``final_check``
runs the trapezoid-oracle comparisons, which take hundreds of MB, after
the run's memory peak has been read.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace

import numpy as np

import ringcav as rc

R_RANGE = (0.3, 1.7)
LOG10_POWER_W = (-3.2, -1.7)
DELTA_OP_PER_WM = 0.965


def _strata(rng: np.random.Generator, n: int, lo: float, hi: float):
    """One uniform draw from each of n equal slices of [lo, hi), shuffled."""
    return lo + (rng.permutation(n) + rng.random(n)) * ((hi - lo) / n)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


# ----------------------------------------------------------------- scan


class Scan:
    name = "scan"
    # the operation whose latency is the workload's op_ms_p50
    op_kind = "minimize"

    def __init__(self, seed: int, *, block: int = 4, det_points: int = 200,
                 temp_points: int = 100):
        self.seed = seed
        self.block = block
        self.det_points = det_points
        self.temp_points = temp_points
        self.wm = rc.baseline_params().mech_freq
        # (params, detuning, variance) -> op id, for the oracle; a repeated
        # pass over the same inputs adds nothing new
        self._pending: dict[tuple, int] = {}

    def blocks(self):
        """Endless blocks of ops; each block stratifies r and log10 P."""
        rng = np.random.default_rng([self.seed, 1])
        first = True
        while True:
            rs = _strata(rng, self.block, *R_RANGE)
            logp = _strata(rng, self.block, *LOG10_POWER_W)
            ops = []
            for i, (r, lp) in enumerate(zip(rs, logp)):
                p = rc.baseline_params(squeeze_r=float(r),
                                       laser_power=float(10.0 ** lp))
                # one row of each sweep of the first draw goes to the oracle
                oracle = (int(rng.integers(1 << 30)) if first and i == 0
                          else None)
                ops += [
                    Op("temp_sweep", (rc.SweepSpec(
                        axis=rc.SweepAxis.BATH_TEMP, start=0.0,
                        stop=200e-6, points=self.temp_points, fixed=p,
                        delta=DELTA_OP_PER_WM * self.wm), oracle)),
                    Op("det_sweep", (rc.SweepSpec(
                        axis=rc.SweepAxis.DETUNING, start=0.3 * self.wm,
                        stop=1.7 * self.wm, points=self.det_points,
                        fixed=p), oracle)),
                    Op("minimize", (p,)),
                ]
            first = False
            yield ops

    def run(self, op: Op, span=None):
        if op.kind == "minimize":
            p, = op.args
            return rc.minimize_over_detuning(p, rc.derive_params(p),
                                             (0.5, 1.5))
        return rc.run_sweep(op.args[0])

    def items(self, op: Op, out) -> int:
        """Sweep rows completed; minimisation time is not row time."""
        return 0 if op.kind == "minimize" else len(out)

    def check(self, i: int, op: Op, out) -> bool:
        if op.kind == "minimize":
            return self._check_minimize(op.args[0], out)
        spec, oracle = op.args
        grid = np.linspace(spec.start, spec.stop, spec.points)
        if len(out) != spec.points:
            return False
        stable = []
        for value, row in zip(grid, out):
            if row.axis_value != float(value):
                return False
            if spec.axis is rc.SweepAxis.DETUNING:
                p, delta = spec.fixed, row.axis_value
            else:
                p = replace(spec.fixed, bath_temp=row.axis_value)
                delta = spec.delta
            cols = (row.var_q_plus, row.var_p_minus, row.product, row.sum)
            if not row.stable:
                if any(c is not None for c in cols):
                    return False
                continue
            if (None in cols
                    or row.product != row.var_q_plus * row.var_p_minus
                    or row.sum != row.var_q_plus + row.var_p_minus
                    or _rel(row.var_q_plus, thermal_q_variance(p)) > 1e-12):
                return False
            stable.append((p, delta, row.var_p_minus))
        if oracle is not None and stable:
            self._pending.setdefault(random.Random(oracle).choice(stable), i)
        return True

    def _check_minimize(self, p, res) -> bool:
        d = rc.derive_params(p)
        if not (0.5 * self.wm <= res.delta_star <= 1.5 * self.wm
                and math.isfinite(res.value) and res.value > 0.0):
            return False
        s = rc.steady_state_at_detuning(p, d, res.delta_star)
        return _rel(res.value, rc.momentum_variance(p, d, s)) <= 1e-9

    def final_check(self) -> set[int]:
        """Sampled stable rows against the trapezoid oracle (1e-6 rel)."""
        from oracles import trapezoid_momentum_variance
        bad = set()
        for (p, delta, value), i in self._pending.items():
            ref = trapezoid_momentum_variance(
                p.wavelength, p.cavity_length, p.mirror_mass,
                p.cavity_decay, p.mech_freq, p.mech_quality, p.fold_angle,
                p.bath_temp, p.laser_power, p.squeeze_r, p.squeeze_phase,
                delta)
            if not _rel(value, ref) <= 1e-6:
                bad.add(i)
        self._pending.clear()
        return bad

    def trace_batch(self) -> list[Op]:
        """The first block."""
        return next(self.blocks())


def thermal_q_variance(p: rc.PhysicalParams) -> float:
    """1/2 + n_bar of the mirror bath, from the oracle's constants."""
    from oracles import HBAR, KB
    if p.bath_temp == 0.0:
        return 0.5
    return 0.5 + 1.0 / math.expm1(HBAR * p.mech_freq / (KB * p.bath_temp))


# ---------------------------------------------------------- interactive


CONFIG_TEMP_K = 30e-6
_POINT_KEYS = ("var_q_plus", "var_p_minus", "product", "sum")
_BRANCH_KEYS = ("detuning", "amplitude_re", "amplitude_im", "q_minus_s",
                "p_minus_s", "photon_number", "tangent")
# --delta-per-wm range by command: point requests stay on stable operating
# points (an unstable one is exit code 2, not a slow request)
_DELTA_RANGE = {"point": (0.7, 1.5), "stability": (0.3, 1.7),
                "branches": (-0.5, 2.0)}


class Interactive:
    name = "interactive"
    op_kind = "point"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config_path = os.path.join(workdir, "interactive.cfg")
        cfg = rc.RunConfig(params=rc.baseline_params(bath_temp=CONFIG_TEMP_K),
                           quadrature=rc.QuadratureConfig(), sweep=None,
                           output_path="-", output_format="csv")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(rc.serialize_config(cfg))

    def blocks(self):
        """Endless blocks of 50 requests, made of groups of 10: 6 point,
        2 stability, 2 branches; half of them read the config file and
        three print JSON."""
        rng = np.random.default_rng([self.seed, 2])
        kinds = ["point"] * 6 + ["stability"] * 2 + ["branches"] * 2
        n = len(kinds)
        ops = []
        while True:
            kind = rng.permutation(kinds)
            use_cfg = rng.permutation(np.arange(n) < n // 2)
            use_json = rng.permutation(np.arange(n) < 3)
            r = _strata(rng, n, *R_RANGE)
            mw = 10.0 ** _strata(rng, n, math.log10(0.6), math.log10(20.0))
            u = _strata(rng, n, 0.0, 1.0)
            for k in range(n):
                lo, hi = _DELTA_RANGE[kind[k]]
                argv = [str(kind[k]),
                        "--delta-per-wm", f"{lo + (hi - lo) * u[k]:.4f}",
                        "--r", f"{r[k]:.4f}", "--power-mw", f"{mw[k]:.4g}"]
                if use_cfg[k]:
                    argv += ["--config", self.config_path]
                if use_json[k]:
                    argv += ["--format", "json"]
                ops.append(Op(str(kind[k]), tuple(argv)))
            if len(ops) == 5 * n:
                yield ops
                ops = []

    def run(self, op: Op, span=None):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = rc.main(list(op.args))
        text = out.getvalue()
        if span is not None:
            span.attrs = {"bytes_out": len(text)}
        return code, text

    def items(self, op: Op, out) -> int:
        return 1

    def check(self, i: int, op: Op, out) -> bool:
        code, text = out
        if code != 0:
            return False
        argv = op.args
        opt = dict(zip(argv[1::2], argv[2::2]))
        is_json = opt.get("--format") == "json"
        p = rc.baseline_params(
            squeeze_r=float(opt["--r"]),
            laser_power=1e-3 * float(opt["--power-mw"]),
            **({"bath_temp": CONFIG_TEMP_K} if "--config" in opt else {}))
        d = rc.derive_params(p)
        x = float(opt["--delta-per-wm"]) * p.mech_freq
        if op.kind == "point":
            res = rc.entanglement_result(p, d, x)
            want = {k: getattr(res, k) for k in _POINT_KEYS}
            if is_json:
                want.update(delta=res.delta,
                            product_entangled=res.product_entangled,
                            sum_entangled=res.sum_entangled)
            else:
                want.update(axis_value=res.delta, stable=True)
            want = [want]
        elif op.kind == "stability":
            s = rc.steady_state_at_detuning(p, d, x)
            v = rc.stability_verdict(p, d, s)
            want = [{"stable": v.stable, "routh_hurwitz": v.routh_hurwitz,
                     "eigenvalue": v.eigenvalue, "margin": v.margin}]
        else:
            want = [dict(zip(_BRANCH_KEYS, (
                s.detuning, s.amplitude.real, s.amplitude.imag, s.q_minus_s,
                s.p_minus_s, s.photon_number, s.tangent)))
                for s in rc.find_steady_branches(p, d, x)]
        try:
            got = _parse_json(text) if is_json else _parse_csv(text)
        except (ValueError, TypeError, KeyError):
            return False
        return (len(got) == len(want)
                and all(_same(g, w, is_json) for g, w in zip(got, want)))

    def final_check(self) -> set[int]:
        return set()

    def trace_batch(self) -> list[Op]:
        """The first block."""
        return next(self.blocks())


def _parse_json(text: str) -> list[dict]:
    obj = json.loads(text)
    return obj if isinstance(obj, list) else [obj]


def _parse_csv(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for row in rows:
        for k, v in row.items():
            row[k] = {"true": True, "false": False}[v] if v in (
                "true", "false") else float(v)
    return rows


def _same(got: dict, want: dict, exact: bool) -> bool:
    """JSON carries full floats; CSV carries them to 12 significant digits."""
    if not isinstance(got, dict) or set(got) != set(want):
        return False
    for k, w in want.items():
        g = got[k]
        if isinstance(w, bool) or exact:
            if g != w or type(g) is not type(w):
                return False
        elif g != float(f"{w:.12g}"):
            return False
    return True


# -------------------------------------------------------- stability_map


ORACLE_EVERY = 15  # verdicts per one compared with the quartic oracle


class StabilityMap:
    name = "stability_map"
    op_kind = "pair"

    def __init__(self, seed: int, *, powers: int = 60, detunings: int = 400):
        rng = np.random.default_rng([seed, 3])
        wm = rc.baseline_params().mech_freq
        # a ladder of powers, one per log-spaced rung, crossed with a
        # stratified set of bare detunings; on each rung the detunings
        # nearest the folds of the response curve move onto the folds, so
        # tangent branches are part of every pass
        log_p = np.sort(_strata(rng, powers, math.log10(1e-4),
                                math.log10(5e-2)))
        base = np.sort(_strata(rng, detunings, -0.5, 2.0)) * wm
        self.rungs = []
        for lp in log_p:
            p = rc.baseline_params(laser_power=float(10.0 ** lp))
            d = rc.derive_params(p)
            xs = base.copy()
            for fold in _folds(p, d):
                if base[0] <= fold <= base[-1]:
                    xs[np.argmin(np.abs(xs - fold))] = fold
            self.rungs.append((p, d, [float(x) for x in xs]))
        self._checked = 0

    def _ops(self, rungs):
        return [Op("pair", (p, d, x)) for p, d, xs in rungs for x in xs]

    def blocks(self):
        """Endless passes over the whole map, each in 10 blocks; block k
        holds every 10th rung from rung k, so each spans the ladder."""
        groups = min(10, len(self.rungs))
        while True:
            for k in range(groups):
                yield self._ops(self.rungs[k::groups])

    def run(self, op: Op, span=None):
        p, d, x = op.args
        branches = rc.find_steady_branches(p, d, x)
        return branches, [rc.stability_verdict(p, d, s) for s in branches]

    def items(self, op: Op, out) -> int:
        return len(out[1])

    def check(self, i: int, op: Op, out) -> bool:
        """Every branch solves the self-consistency, and every
        ORACLE_EVERY-th verdict agrees with the closed-form quartic's
        roots outside the 1e-9 omega_m band where both answers are
        allowed."""
        from oracles import characteristic_polynomial_roots
        p, d, x = op.args
        branches, verdicts = out
        if not branches or len(verdicts) != len(branches):
            return False
        kappa = p.cavity_decay
        shift = 2.0 * (d.coupling_g * d.chi) ** 2 / p.mech_freq
        scale = max(abs(x), kappa)
        for s, v in zip(branches, verdicts):
            # Delta = Delta0 - 2 g^2 chi^2 |c_s|^2 / omega_m with
            # |c_s|^2 = eps^2 / (kappa^2 + Delta^2)
            n = d.drive_eps ** 2 / (kappa ** 2 + s.detuning ** 2)
            if abs(s.detuning - (x - shift * n)) > 1e-9 * scale:
                return False
            self._checked += 1
            if self._checked % ORACLE_EVERY:
                continue
            roots = characteristic_polynomial_roots(
                kappa, p.mech_freq, d.gamma_m, s.detuning, d.coupling_g,
                d.chi, s.photon_number)
            top = float(np.max(roots.real))
            if abs(top) > 1e-9 * p.mech_freq and (top < 0.0) != v.stable:
                return False
        return True

    def final_check(self) -> set[int]:
        return set()

    def trace_batch(self) -> list[Op]:
        """Six rungs spread over the ladder, each across all detunings."""
        step = len(self.rungs) / 6
        return self._ops([self.rungs[int(k * step + step / 2)]
                          for k in range(6)])


def _folds(p: rc.PhysicalParams, d: rc.DerivedParams) -> list[float]:
    """Bare detunings (rad/s) at the folds of the steady-state response.

    The effective detuning obeys Delta0 = Delta + S / (Delta^2 + kappa^2),
    S = 2 (g chi eps)^2 / omega_m; the folds are where dDelta0/dDelta = 0,
    i.e. (Delta^2 + kappa^2)^2 = 2 S Delta.
    """
    kappa = p.cavity_decay
    s = 2.0 * (d.coupling_g * d.chi * d.drive_eps) ** 2 / p.mech_freq
    roots = np.roots([1.0, 0.0, 2.0 * kappa ** 2, -2.0 * s, kappa ** 4])
    return [float(r.real + s / (r.real ** 2 + kappa ** 2)) for r in roots
            if r.real > 0.0 and abs(r.imag) <= 1e-9 * abs(r)]


NAMES = ("scan", "interactive", "stability_map")


def make(name: str, seed: int, workdir: str):
    """The workload called name, with inputs from seed; files go in
    workdir."""
    if name == "scan":
        return Scan(seed)
    if name == "interactive":
        return Interactive(seed, workdir)
    if name == "stability_map":
        return StabilityMap(seed)
    raise ValueError(f"unknown workload {name!r}")
