"""Command-line front end and the config-file format behind it.

The config format is flat ``key = value`` lines under section headers
``[params]``, ``[quadrature]`` and ``[sweep]``, with output settings
before the first header.  Keys are strict: anything unknown is an
error, not a silently ignored typo.  Missing keys fall back to the
package defaults and every such fallback is recorded in the returned
provenance (and echoed to stderr by the command line, but for the
fields that its flags set).

Angular rates accept two spellings: ``kappa_rad_s``/``mech_freq_rad_s``
take rad/s, ``kappa_hz``/``mech_freq_hz`` take ordinary frequency in Hz
and are multiplied by 2 pi.  Giving both spellings of one rate is an
error.  All other quantities are SI (m, kg, K, W, rad).
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import math
import os
import re
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from .errors import (ConfigError, InvalidParameter, ParseError, RingCavError,
                     UnknownKey, ValidationError)
from .model import (Geometry, PhysicalParams, baseline_params,
                    derive_params, validate)
from .spectra import QuadratureConfig, entanglement_result
from .stability import stability_verdict
from .steady import find_steady_branches, steady_state_at_detuning
from .sweep import (SweepAxis, SweepRow, SweepSpec, minimize_over_detuning,
                    run_sweep)

__all__ = ["RunConfig", "parse_config", "serialize_config", "main"]

_SECTION_RE = re.compile(r"\[([A-Za-z_][A-Za-z0-9_]*)\]")


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


_FORMATS = ("csv", "json")

_DEFAULTS = RunConfig(params=baseline_params(),
                      quadrature=QuadratureConfig(), sweep=None,
                      output_path="-", output_format="csv")

# Rate fields and the stem of their two key spellings, <stem>_rad_s in
# rad/s and <stem>_hz in Hz.
_RATES = {"cavity_decay": "kappa", "mech_freq": "mech_freq"}

# Each config section, named after its RunConfig field ('' is the top
# level): its dataclass, the object whose values fill missing keys
# (None: a key whose field has no default is required), and the prefix
# of the field an error names; [params] errors name the bare field, as
# ``validate`` does.
_SECTIONS = {
    "": (RunConfig, _DEFAULTS, ""),
    "params": (PhysicalParams, _DEFAULTS.params, ""),
    "quadrature": (QuadratureConfig, _DEFAULTS.quadrature, "quadrature."),
    "sweep": (SweepSpec, None, "sweep."),
}


def _schema(cls) -> tuple:
    """(field, type, keys, required) for each scalar field of cls: a
    float, int, str or Enum, or one of these or None."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        if type(None) in typing.get_args(kind):  # X | None
            kind = typing.get_args(kind)[0]
        if kind in (float, int, str) or (isinstance(kind, type)
                                         and issubclass(kind, enum.Enum)):
            stem = _RATES.get(f.name)
            keys = (f.name,) if stem is None else (f"{stem}_rad_s",
                                                   f"{stem}_hz")
            out.append((f.name, kind, keys, f.default is MISSING))
    return tuple(out)


_SCHEMA = {name: _schema(cls) for name, (cls, _, _) in _SECTIONS.items()}
_KEYS = {name: frozenset(k for _, _, keys, _ in schema for k in keys)
         for name, schema in _SCHEMA.items()}


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
        if key not in _KEYS[section]:
            raise UnknownKey(key, f"[{section}]" if section else "top level")
        if key in out[section]:
            raise ParseError(lineno, 1, f"duplicate key {key!r}")
        out[section][key] = _RawItem(value, lineno, line.find("=") + 2)
    return out


def _plain(value):
    """A field value as written in config text: an Enum by its value."""
    return value.value if isinstance(value, enum.Enum) else value


def _convert(kind, item: _RawItem, key: str, where: str):
    """item's text as kind; ``where`` names the field in a ValidationError."""
    try:
        value = kind(item.value)
    except ValueError:
        if issubclass(kind, enum.Enum):
            choices = ", ".join(m.value for m in kind)
            raise ValidationError(where, f"must be one of {choices}")
        noun = "an integer" if kind is int else "a number"
        raise ParseError(item.line, item.col,
                         f"{key}: expected {noun}, got {item.value!r}")
    return 2.0 * math.pi * value if key.endswith("_hz") else value


def _fill(raw: dict[str, dict[str, _RawItem]], name: str,
          prov: list[str]) -> dict:
    """The field values of one section.  A missing key takes the
    section's default, recorded in prov, or its field's own default."""
    _, default, prefix = _SECTIONS[name]
    items = raw.get(name, {})
    values = {}
    given = []
    for fname, kind, keys, required in _SCHEMA[name]:
        key = None
        for k in keys:
            if k in items:
                if key is not None:
                    raise ValidationError(
                        _RATES[fname], f"given as both {key} and {k}; "
                                       "pick one")
                key = k
        if key is not None:
            given.append((fname, kind, key))
        elif default is not None:
            values[fname] = getattr(default, fname)
            prov.append(f"{name}{'.' if name else ''}{keys[0]} defaulted "
                        f"to {_plain(values[fname])!r}")
        elif required:
            raise ValidationError(prefix + fname, "required")
    for fname, kind, key in given:
        values[fname] = _convert(kind, items[key], key, prefix + fname)
    return values


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

    def build(name: str, **fixed):
        cls, _, prefix = _SECTIONS[name]
        try:
            return cls(**fixed, **_fill(raw, name, prov))
        except InvalidParameter as err:
            raise ValidationError(prefix + err.field, err.bound)

    top = _fill(raw, "", prov)
    if top["output_format"] not in _FORMATS:
        raise ValidationError("output_format",
                              "must be " + " or ".join(_FORMATS))

    params = build("params")
    bad = validate(params)
    if bad:
        raise ValidationError(bad[0].field, bad[0].bound)
    quadrature = build("quadrature")
    sweep_spec = (build("sweep", fixed=params, quadrature=quadrature)
                  if "sweep" in raw else None)

    return RunConfig(params=params, quadrature=quadrature, sweep=sweep_spec,
                     provenance=tuple(prov), **top)


def serialize_config(cfg: RunConfig) -> str:
    """Render cfg as config text; parse_config inverts this exactly."""
    lines = []
    for name, schema in _SCHEMA.items():
        obj = getattr(cfg, name) if name else cfg
        if obj is None:
            continue
        if name:
            lines += ["", f"[{name}]"]
        for fname, _, keys, _ in schema:
            value = getattr(obj, fname)
            if value is not None:
                lines.append(f"{keys[0]} = {_plain(value)}")
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


def _render(results, fmt: str) -> str:
    """One result dataclass, or a list of them, as CSV with a header row
    or as indented JSON: a bare object for one, else a list."""
    single = not isinstance(results, list)
    records = [_record(r) for r in ([results] if single else results)]
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


@functools.cache  # built once per process: it holds no parse state
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH",
                        help="config file; defaults apply when omitted")
    shared.add_argument("--output", metavar="PATH",
                        help="output file, '-' for stdout (default)")
    shared.add_argument("--format", choices=_FORMATS,
                        help="output format (default csv)")
    shared.add_argument("--geometry", choices=[g.value for g in Geometry],
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

    for name, help_, kind in (
            ("point", "both entanglement criteria at one detuning",
             "effective"),
            ("branches", "coexisting steady states at one bare detuning",
             "bare"),
            ("stability", "dual stability verdict at one detuning",
             "effective")):
        add(name, help_).add_argument(
            "--delta-per-wm", type=float, required=True, metavar="X",
            help=f"{kind} detuning in units of the mechanical frequency")

    plotted = [add("sweep", "run the sweep described by the config file")]

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
        plotted.append(sp)
    for sp in plotted:
        sp.add_argument("--gnuplot-script", metavar="PATH",
                        help="also write a gnuplot script plotting the CSV")

    return parser


# override flag: the config section ('' the top level) and field that it
# sets, and its value in that field
_OVERRIDES = {"output": ("", "output_path", str),
              "format": ("", "output_format", str),
              "geometry": ("params", "geometry", Geometry),
              "r": ("params", "squeeze_r", float),
              "power_mw": ("params", "laser_power", lambda mw: 1e-3 * mw),
              "temp_uk": ("params", "bath_temp", lambda uk: 1e-6 * uk)}


def _load_config(ns: argparse.Namespace) -> RunConfig:
    """The config file, or the package defaults, with the flags of ns
    applied; the defaults that no flag replaces are echoed to stderr."""
    if ns.config is None:
        print("config: no config file; package defaults in effect",
              file=sys.stderr)
        cfg = _DEFAULTS
    else:
        # utf-8-sig: a byte-order mark before the first line is not text
        with open(ns.config, "r", encoding="utf-8-sig") as fh:
            cfg = parse_config(fh.read())
    changes, given = {"": {}, "params": {}}, set()
    for flag, (section, name, value) in _OVERRIDES.items():
        if getattr(ns, flag) is not None:
            changes[section][name] = value(getattr(ns, flag))
            given.add(f"{section}.{name}".lstrip("."))  # provenance's key
    for line in cfg.provenance:
        if line.split()[0] not in given:
            print(f"config: {line}", file=sys.stderr)
    top = changes[""]
    if changes["params"]:
        p = top["params"] = replace(cfg.params, **changes["params"])
        top["sweep"] = replace(cfg.sweep, fixed=p) if cfg.sweep else None
    return replace(cfg, **top)


def _summarise(rows: list[SweepRow], what: str) -> None:
    stable = [r for r in rows if r.stable]
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
    "fig2": (200, "preset: detuning scan of both criteria at the given "
                  "--r and --power-mw",
             SweepAxis.DETUNING, (0.5, 1.5), None, _summarise),
    "fig4": (201, "preset: temperature scan of both criteria at the "
                  "optimal detuning",
             SweepAxis.BATH_TEMP, (0.0, 200e-6), 0.965, _summarise_crossing),
}


def _results(ns: argparse.Namespace, cfg: RunConfig):
    """The command's result: one dataclass for a command that prints one
    record, else a list of them in output order."""
    p = cfg.params
    d = derive_params(p)
    wm = p.mech_freq

    if ns.command == "point":
        res = entanglement_result(p, d, ns.delta_per_wm * wm,
                                  cfg.quadrature)
        if cfg.output_format == "json":
            return res
        # a sweep row, so that point and sweep CSVs concatenate
        return SweepRow(axis_value=res.delta, var_q_plus=res.var_q_plus,
                        var_p_minus=res.var_p_minus, product=res.product,
                        sum=res.sum, stable=True)
    if ns.command == "branches":
        return find_steady_branches(p, d, ns.delta_per_wm * wm)
    if ns.command == "stability":
        s = steady_state_at_detuning(p, d, ns.delta_per_wm * wm)
        return stability_verdict(p, d, s)
    if ns.command == "minimize":
        return minimize_over_detuning(p, d, tuple(ns.window),
                                      cfg.quadrature)
    if ns.command == "sweep":
        if cfg.sweep is None:
            raise ValidationError(
                "sweep", "the sweep command needs a [sweep] config section")
        return run_sweep(cfg.sweep)
    _, _, axis, (lo, hi), delta_per_wm, summarise = _PRESETS[ns.command]
    unit = wm if axis is SweepAxis.DETUNING else 1.0
    rows = run_sweep(SweepSpec(
        axis=axis, start=lo * unit, stop=hi * unit, points=ns.points,
        fixed=p, quadrature=cfg.quadrature,
        delta=None if delta_per_wm is None else delta_per_wm * wm))
    summarise(rows, ns.command)
    return rows


def _dispatch(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns)
    # the sweep would overwrite the override on every row
    swept = _PRESETS[ns.command][2].value if ns.command in _PRESETS else None
    if ns.command == "sweep" and cfg.sweep is not None:
        swept = cfg.sweep.axis.value
    for flag, (_, name, _) in _OVERRIDES.items():
        if getattr(ns, flag) is not None and name == swept:
            raise ValidationError(f"--{flag.replace('_', '-')}",
                                  f"sets {name}, which {ns.command} sweeps")
    gnuplot = getattr(ns, "gnuplot_script", None)
    if gnuplot is not None:
        if cfg.output_format != "csv" or cfg.output_path == "-":
            raise ValidationError(
                "gnuplot_script", "needs csv format and an --output file")
        # the script would overwrite the data it plots
        if os.path.realpath(gnuplot) == os.path.realpath(cfg.output_path):
            raise ValidationError("gnuplot_script", "is the --output file")
    text = _render(_results(ns, cfg), cfg.output_format)
    # the data first: a write that fails leaves no script behind
    _emit(text, cfg.output_path)
    if gnuplot is not None:
        _emit(_gnuplot_script(cfg.output_path), gnuplot)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code.

    0 on success, 1 for configuration, usage or file errors, 2 for
    numerical failures and physically meaningless requests (unstable
    point, no stable point in a window, internal cross-check mismatch).
    """
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _dispatch(ns)
    except (ConfigError, InvalidParameter, OSError,
            UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RingCavError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
