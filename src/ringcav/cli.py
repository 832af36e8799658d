"""Command-line front end and the config-file format behind it.

The config format is flat ``key = value`` lines under section headers
``[params]``, ``[quadrature]`` and ``[sweep]``, with output settings
before the first header.  Keys are strict: anything unknown is an
error, not a silently ignored typo.  Missing keys fall back to the
package defaults and every such fallback is recorded in the returned
provenance (and echoed to stderr by the command line).

Angular rates accept two spellings: ``kappa_rad_s``/``mech_freq_rad_s``
take rad/s, ``kappa_hz``/``mech_freq_hz`` take ordinary frequency in Hz
and are multiplied by 2 pi.  Giving both spellings of one rate is an
error.  All other quantities are SI (m, kg, K, W, rad).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields, replace

from .errors import (ConfigError, InternalInconsistency, InvalidParameter,
                     NoStablePoint, NumericalFailure, ParseError,
                     UnknownKey, UnstableOperatingPoint, ValidationError)
from .model import (Geometry, PhysicalParams, baseline_params,
                    derive_params, validate)
from .spectra import QuadratureConfig, entanglement_result
from .stability import stability_verdict
from .steady import find_steady_branches, steady_state_at_detuning
from .sweep import (SweepAxis, SweepRow, SweepSpec, minimize_over_detuning,
                    run_sweep)

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

CSV_HEADER = "axis_value,var_q_plus,var_p_minus,product,sum,stable"

_SECTION_RE = re.compile(r"\[([A-Za-z_][A-Za-z0-9_]*)\]")

_TOP_KEYS = ("output_path", "output_format")
_PARAM_KEYS = (
    "wavelength", "cavity_length", "mirror_mass",
    "kappa_rad_s", "kappa_hz", "mech_freq_rad_s", "mech_freq_hz",
    "mech_quality", "fold_angle", "bath_temp", "laser_power",
    "squeeze_r", "squeeze_phase", "geometry",
)
_QUAD_KEYS = ("cutoff", "rel_tol", "abs_tol", "max_depth")
_SWEEP_KEYS = ("axis", "start", "stop", "points", "delta")
_SECTIONS = {"params": _PARAM_KEYS, "quadrature": _QUAD_KEYS,
             "sweep": _SWEEP_KEYS}


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs.

    ``sweep`` is None when the config has no [sweep] section.  When it
    is present its fixed parameters and integration controls are the
    same objects as ``params`` and ``quadrature``.  ``provenance``
    records each default that filled a missing key; it is excluded from
    equality so a fully explicit round-tripped config compares equal.
    """

    params: PhysicalParams
    quadrature: QuadratureConfig
    sweep: SweepSpec | None
    output_path: str
    output_format: str
    provenance: tuple[str, ...] = field(default=(), compare=False)


@dataclass
class _RawItem:
    value: str
    line: int
    col: int


def _scan(text: str) -> dict[str, dict[str, _RawItem]]:
    """Split config text into {section: {key: raw}}; '' is the top level."""
    out: dict[str, dict[str, _RawItem]] = {"": {}}
    section = ""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        if stripped.startswith("["):
            m = _SECTION_RE.fullmatch(stripped)
            if not m:
                raise ParseError(lineno, line.find("[") + 1,
                                 "malformed section header")
            name = m.group(1)
            if name not in _SECTIONS:
                raise UnknownKey(name, "config sections")
            section = name
            out.setdefault(section, {})
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ParseError(lineno, 1, "expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(lineno, 1, "empty key")
        if not value:
            raise ParseError(lineno, line.find("=") + 2, "empty value")
        allowed = _SECTIONS.get(section, _TOP_KEYS) if section else _TOP_KEYS
        if key not in allowed:
            raise UnknownKey(key, f"[{section}]" if section else "top level")
        if key in out[section]:
            raise ParseError(lineno, 1, f"duplicate key {key!r}")
        out[section][key] = _RawItem(value, lineno, line.find("=") + 2)
    return out


def _as_float(item: _RawItem, key: str) -> float:
    try:
        return float(item.value)
    except ValueError:
        raise ParseError(item.line, item.col,
                         f"{key}: expected a number, got {item.value!r}")


def _as_int(item: _RawItem, key: str) -> int:
    try:
        return int(item.value)
    except ValueError:
        raise ParseError(item.line, item.col,
                         f"{key}: expected an integer, got {item.value!r}")


def _rate(raw: dict[str, _RawItem], name: str, default: float,
          prov: list[str]) -> float:
    """Resolve a rate given as either <name>_rad_s or <name>_hz."""
    rad = raw.pop(f"{name}_rad_s", None)
    hz = raw.pop(f"{name}_hz", None)
    if rad is not None and hz is not None:
        raise ValidationError(
            name, f"given as both {name}_rad_s and {name}_hz; pick one")
    if rad is not None:
        return _as_float(rad, f"{name}_rad_s")
    if hz is not None:
        return 2.0 * math.pi * _as_float(hz, f"{name}_hz")
    prov.append(f"params.{name}_rad_s defaulted to {default!r}")
    return default


def parse_config(text: str) -> RunConfig:
    """Parse config text into a RunConfig.

    Raises
    ------
    ParseError
        Malformed lines or unconvertible values, with line and column.
    UnknownKey
        Any key or section name outside the documented set.
    ValidationError
        Well-formed values that violate a constraint.
    """
    raw = _scan(text)
    prov: list[str] = []
    base = baseline_params()

    top = raw.get("", {})
    if "output_path" in top:
        output_path = top["output_path"].value
    else:
        output_path = "-"
        prov.append("output_path defaulted to '-'")
    if "output_format" in top:
        output_format = top["output_format"].value
        if output_format not in ("csv", "json"):
            raise ValidationError("output_format", "must be csv or json")
    else:
        output_format = "csv"
        prov.append("output_format defaulted to 'csv'")

    pr = dict(raw.get("params", {}))
    kappa = _rate(pr, "kappa", base.cavity_decay, prov)
    mech_freq = _rate(pr, "mech_freq", base.mech_freq, prov)

    def pick(key: str, default: float) -> float:
        if key in pr:
            return _as_float(pr.pop(key), key)
        prov.append(f"params.{key} defaulted to {default!r}")
        return default

    fields = {
        "wavelength": pick("wavelength", base.wavelength),
        "cavity_length": pick("cavity_length", base.cavity_length),
        "mirror_mass": pick("mirror_mass", base.mirror_mass),
        "mech_quality": pick("mech_quality", base.mech_quality),
        "fold_angle": pick("fold_angle", base.fold_angle),
        "bath_temp": pick("bath_temp", base.bath_temp),
        "laser_power": pick("laser_power", base.laser_power),
        "squeeze_r": pick("squeeze_r", base.squeeze_r),
        "squeeze_phase": pick("squeeze_phase", base.squeeze_phase),
    }
    if "geometry" in pr:
        token = pr.pop("geometry").value
        try:
            geometry = Geometry(token)
        except ValueError:
            raise ValidationError("geometry", "must be 3ring or 4ring")
    else:
        geometry = base.geometry
        prov.append(f"params.geometry defaulted to {base.geometry.value!r}")
    params = PhysicalParams(cavity_decay=kappa, mech_freq=mech_freq,
                            geometry=geometry, **fields)
    bad = validate(params)
    if bad:
        raise ValidationError(bad[0].field, bad[0].bound)

    qr = dict(raw.get("quadrature", {}))
    qdef = QuadratureConfig()

    def qpick(key: str, default, conv) -> float:
        if key in qr:
            return conv(qr.pop(key), key)
        prov.append(f"quadrature.{key} defaulted to {default!r}")
        return default

    try:
        quadrature = QuadratureConfig(
            cutoff=qpick("cutoff", qdef.cutoff, _as_float),
            rel_tol=qpick("rel_tol", qdef.rel_tol, _as_float),
            abs_tol=qpick("abs_tol", qdef.abs_tol, _as_float),
            max_depth=qpick("max_depth", qdef.max_depth, _as_int),
        )
    except InvalidParameter as err:
        raise ValidationError(f"quadrature.{err.field}", err.bound)

    sweep_spec = None
    if "sweep" in raw:
        sr = dict(raw["sweep"])
        for needed in ("axis", "start", "stop", "points"):
            if needed not in sr:
                raise ValidationError(f"sweep.{needed}", "required")
        token = sr.pop("axis").value
        try:
            axis = SweepAxis(token)
        except ValueError:
            choices = ", ".join(m.value for m in SweepAxis)
            raise ValidationError("sweep.axis", f"must be one of {choices}")
        delta = None
        if "delta" in sr:
            delta = _as_float(sr.pop("delta"), "delta")
        try:
            sweep_spec = SweepSpec(
                axis=axis,
                start=_as_float(sr.pop("start"), "start"),
                stop=_as_float(sr.pop("stop"), "stop"),
                points=_as_int(sr.pop("points"), "points"),
                fixed=params,
                quadrature=quadrature,
                delta=delta,
            )
        except InvalidParameter as err:
            raise ValidationError(f"sweep.{err.field}", err.bound)

    return RunConfig(params=params, quadrature=quadrature, sweep=sweep_spec,
                     output_path=output_path, output_format=output_format,
                     provenance=tuple(prov))


def serialize_config(cfg: RunConfig) -> str:
    """Render cfg as config text; parse_config inverts this exactly."""
    p = cfg.params
    q = cfg.quadrature
    lines = [
        f"output_path = {cfg.output_path}",
        f"output_format = {cfg.output_format}",
        "",
        "[params]",
        f"wavelength = {p.wavelength!r}",
        f"cavity_length = {p.cavity_length!r}",
        f"mirror_mass = {p.mirror_mass!r}",
        f"kappa_rad_s = {p.cavity_decay!r}",
        f"mech_freq_rad_s = {p.mech_freq!r}",
        f"mech_quality = {p.mech_quality!r}",
        f"fold_angle = {p.fold_angle!r}",
        f"bath_temp = {p.bath_temp!r}",
        f"laser_power = {p.laser_power!r}",
        f"squeeze_r = {p.squeeze_r!r}",
        f"squeeze_phase = {p.squeeze_phase!r}",
        f"geometry = {p.geometry.value}",
        "",
        "[quadrature]",
        f"cutoff = {q.cutoff!r}",
        f"rel_tol = {q.rel_tol!r}",
        f"abs_tol = {q.abs_tol!r}",
        f"max_depth = {q.max_depth!r}",
    ]
    if cfg.sweep is not None:
        s = cfg.sweep
        lines += [
            "",
            "[sweep]",
            f"axis = {s.axis.value}",
            f"start = {s.start!r}",
            f"stop = {s.stop!r}",
            f"points = {s.points!r}",
        ]
        if s.delta is not None:
            lines.append(f"delta = {s.delta!r}")
    return "\n".join(lines) + "\n"


# Record fields that stay out of CSV and JSON output.
_UNLISTED = ("branch_note",)


def _record(obj) -> dict:
    """A result dataclass as a flat dict in field order; a complex field
    ``z`` becomes ``z_re`` and ``z_im``."""
    rec = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, complex):
            rec[f"{f.name}_re"] = value.real
            rec[f"{f.name}_im"] = value.imag
        elif f.name not in _UNLISTED:
            rec[f.name] = value
    return rec


def _cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else f"{x:.12g}"


def _render(records: list[dict], fmt: str, single: bool) -> str:
    """CSV with a header row, or indented JSON: a bare object when
    ``single``, else a list."""
    if fmt == "json":
        return json.dumps(records[0] if single else records, indent=2) + "\n"
    lines = [",".join(records[0])]
    lines += [",".join(map(_cell, r.values())) for r in records]
    return "\n".join(lines) + "\n"


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _gnuplot_script(csv_path: str) -> str:
    return "\n".join([
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 'axis value'",
        "set ylabel 'variance and criteria'",
        f"plot '{csv_path}' using 1:3 with lines title 'var p minus', \\",
        "     '' using 1:4 with lines title 'product', \\",
        "     '' using 1:5 with lines title 'sum'",
        "pause -1",
    ]) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="config file; defaults apply when omitted")
    shared.add_argument("--output", metavar="PATH",
                        help="output file, '-' for stdout (default)")
    shared.add_argument("--format", choices=("csv", "json"),
                        help="output format (default csv)")
    shared.add_argument("--geometry", choices=("3ring", "4ring"),
                        help="mirror arrangement; numbers are identical, "
                             "labels of the two quadratures swap")
    shared.add_argument("--r", type=float, metavar="R",
                        help="squeezing parameter override")
    shared.add_argument("--power-mw", type=float, metavar="MW",
                        help="laser power override, milliwatts")
    shared.add_argument("--temp-uk", type=float, metavar="UK",
                        help="bath temperature override, microkelvin")

    parser = argparse.ArgumentParser(
        prog="ringcav",
        description="Steady states, stability and mirror-mirror "
                    "entanglement for a laser-driven ring cavity fed "
                    "with squeezed vacuum.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, **kw) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[shared], help=help_,
                              description=help_, **kw)

    sp = add("point", "both entanglement criteria at one detuning")
    sp.add_argument("--delta-per-wm", type=float, required=True,
                    metavar="X", help="effective detuning in units of the "
                                      "mechanical frequency")

    sp = add("branches", "coexisting steady states at one bare detuning")
    sp.add_argument("--delta-per-wm", type=float, required=True,
                    metavar="X", help="bare detuning in units of the "
                                      "mechanical frequency")

    sp = add("stability", "dual stability verdict at one detuning")
    sp.add_argument("--delta-per-wm", type=float, required=True,
                    metavar="X", help="effective detuning in units of the "
                                      "mechanical frequency")

    sp = add("sweep", "run the sweep described by the config file")
    sp.add_argument("--gnuplot-script", metavar="PATH",
                    help="also write a gnuplot script plotting the CSV")

    sp = add("minimize", "find the detuning minimising the coupled-"
                         "momentum variance")
    sp.add_argument("--window", type=float, nargs=2, default=(0.5, 1.5),
                    metavar=("LO", "HI"),
                    help="detuning window in units of the mechanical "
                         "frequency (default 0.5 1.5)")

    for name, (npts, help_, *_) in _PRESETS.items():
        sp = add(name, help_)
        sp.add_argument("--points", type=int, default=npts,
                        help=f"grid points (default {npts})")
        sp.add_argument("--gnuplot-script", metavar="PATH",
                        help="also write a gnuplot script plotting the CSV")

    return parser


def _load_config(ns: argparse.Namespace) -> RunConfig:
    if ns.config is None:
        cfg = RunConfig(params=baseline_params(),
                        quadrature=QuadratureConfig(), sweep=None,
                        output_path="-", output_format="csv",
                        provenance=("no config file; package defaults "
                                    "in effect",))
    else:
        with open(ns.config, "r", encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    for line in cfg.provenance:
        print(f"config: {line}", file=sys.stderr)
    return cfg


def _apply_overrides(cfg: RunConfig, ns: argparse.Namespace) -> RunConfig:
    p = cfg.params
    changes = {}
    if ns.geometry is not None:
        changes["geometry"] = Geometry(ns.geometry)
    if ns.r is not None:
        changes["squeeze_r"] = ns.r
    if ns.power_mw is not None:
        changes["laser_power"] = 1e-3 * ns.power_mw
    if ns.temp_uk is not None:
        changes["bath_temp"] = 1e-6 * ns.temp_uk
    if changes:
        p = replace(p, **changes)
        cfg = replace(cfg, params=p,
                      sweep=replace(cfg.sweep, fixed=p) if cfg.sweep else None)
    if ns.output is not None:
        cfg = replace(cfg, output_path=ns.output)
    if ns.format is not None:
        cfg = replace(cfg, output_format=ns.format)
    return cfg


def _summarise(rows: list[SweepRow], what: str) -> None:
    stable = [r for r in rows if r.stable and r.var_p_minus is not None]
    if not stable:
        print(f"{what}: no stable points", file=sys.stderr)
        return
    best = min(stable, key=lambda r: r.var_p_minus)
    print(f"{what}: min var_p_minus = {best.var_p_minus:.6g} at "
          f"axis value {best.axis_value:.6g}", file=sys.stderr)


def _summarise_crossing(rows: list[SweepRow], what: str) -> None:
    stable = [r for r in rows if r.stable]
    if not stable:
        return
    first = stable[0]
    crossing = next((r.axis_value for r in stable if r.product >= 1.0),
                    None)
    msg = (f"{what}: product = {first.product:.6g} at "
           f"T = {first.axis_value:.6g} K")
    if crossing is not None:
        msg += f"; first product >= 1 at T = {crossing:.6g} K"
    print(msg, file=sys.stderr)


# Canned scans: default points, help, axis, axis range, operating
# detuning and stderr summary.  Detunings are in units of the mechanical
# frequency, temperatures in K.
_PRESETS = {
    "fig2": (200, "preset: detuning scan of both criteria at one "
                  "squeezing value",
             SweepAxis.DETUNING, (0.5, 1.5), None, _summarise),
    "fig3": (200, "preset: detuning scan of both criteria at one "
                  "laser power",
             SweepAxis.DETUNING, (0.5, 1.5), None, _summarise),
    "fig4": (201, "preset: temperature scan of both criteria at the "
                  "optimal detuning",
             SweepAxis.BATH_TEMP, (0.0, 200e-6), 0.965, _summarise_crossing),
}


def _results(ns: argparse.Namespace, cfg: RunConfig) -> list:
    """The command's results, as dataclasses in output order."""
    p = cfg.params
    d = derive_params(p)
    wm = p.mech_freq

    if ns.command == "point":
        res = entanglement_result(p, d, ns.delta_per_wm * wm,
                                  cfg.quadrature)
        if cfg.output_format == "json":
            return [res]
        # a sweep row, so that point and sweep CSVs concatenate
        return [SweepRow(axis_value=res.delta, var_q_plus=res.var_q_plus,
                         var_p_minus=res.var_p_minus, product=res.product,
                         sum=res.sum, stable=True)]
    if ns.command == "branches":
        return find_steady_branches(p, d, ns.delta_per_wm * wm)
    if ns.command == "stability":
        s = steady_state_at_detuning(p, d, ns.delta_per_wm * wm)
        return [stability_verdict(p, d, s)]
    if ns.command == "minimize":
        return [minimize_over_detuning(p, d, tuple(ns.window),
                                       cfg.quadrature)]
    if ns.command == "sweep":
        if cfg.sweep is None:
            raise ValidationError(
                "sweep", "the sweep command needs a [sweep] config section")
        return run_sweep(cfg.sweep)
    if ns.command not in _PRESETS:
        raise InternalInconsistency(f"unhandled command {ns.command!r}")
    _, _, axis, (lo, hi), delta_per_wm, summarise = _PRESETS[ns.command]
    unit = wm if axis is SweepAxis.DETUNING else 1.0
    rows = run_sweep(SweepSpec(
        axis=axis, start=lo * unit, stop=hi * unit, points=ns.points,
        fixed=p, quadrature=cfg.quadrature,
        delta=None if delta_per_wm is None else delta_per_wm * wm))
    summarise(rows, ns.command)
    return rows


def _dispatch(ns: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_config(ns), ns)
    results = _results(ns, cfg)
    text = _render([_record(r) for r in results], cfg.output_format,
                   single=ns.command in ("point", "stability", "minimize"))
    gnuplot = getattr(ns, "gnuplot_script", None)
    if gnuplot is not None:
        if cfg.output_format != "csv" or cfg.output_path == "-":
            raise ValidationError(
                "gnuplot_script", "needs csv format and an --output file")
        _emit(_gnuplot_script(cfg.output_path), gnuplot)
    _emit(text, cfg.output_path)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    0 on success, 1 for configuration, usage or file errors, 2 for
    numerical failures and physically meaningless requests (unstable
    point, no stable point in a window, internal cross-check mismatch).
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return _dispatch(ns)
    except (ConfigError, InvalidParameter, OSError,
            UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (NumericalFailure, UnstableOperatingPoint, NoStablePoint,
            InternalInconsistency) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
