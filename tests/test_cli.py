import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ringcav as rc
from ringcav import cli
from ringcav.cli import (CSV_HEADER, main, parse_config, serialize_config)

BASELINE_CFG = (
    "output_path = -\n"
    "output_format = csv\n"
    "[params]\n"
    "wavelength = 1.064e-06\n"
    "cavity_length = 0.025\n"
    "mirror_mass = 1.45e-10\n"
    "kappa_hz = 215000.0\n"
    "mech_freq_hz = 947000.0\n"
    "mech_quality = 6700.0\n"
    "fold_angle = 1.0471975511965976\n"
    "bath_temp = 4.14e-05\n"
    "laser_power = 0.0038\n"
    "squeeze_r = 1.0\n"
    "squeeze_phase = 0.0\n"
    "geometry = 3ring\n"
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- config


def test_parse_baseline_config_matches_defaults():
    cfg = parse_config(BASELINE_CFG)
    assert cfg.params == rc.baseline_params()
    assert cfg.quadrature == rc.QuadratureConfig()
    assert cfg.sweep is None
    assert cfg.output_path == "-"
    assert cfg.output_format == "csv"


def test_bundled_config_file_parses():
    import importlib.resources as resources
    text = (resources.files("ringcav") / "data" / "baseline.cfg").read_text()
    cfg = parse_config(text)
    assert cfg.params == rc.baseline_params()


def test_empty_config_is_all_defaults_with_provenance():
    cfg = parse_config("")
    assert cfg.params == rc.baseline_params()
    assert cfg.quadrature == rc.QuadratureConfig()
    assert any("squeeze_r" in line for line in cfg.provenance)
    assert any("output_format" in line for line in cfg.provenance)


def test_empty_quadrature_section_gets_defaults():
    cfg = parse_config("[quadrature]\n")
    assert cfg.quadrature.cutoff == 50.0


def test_rate_spellings_are_equivalent():
    a = parse_config("[params]\nkappa_hz = 215000.0\n")
    b = parse_config(f"[params]\nkappa_rad_s = {2 * math.pi * 215000.0!r}\n")
    assert a.params.cavity_decay == pytest.approx(b.params.cavity_decay,
                                                  rel=1e-15)


def test_both_rate_spellings_rejected():
    with pytest.raises(rc.ValidationError):
        parse_config("[params]\nkappa_hz = 1.0\nkappa_rad_s = 6.28\n")


def test_unknown_key_and_section_rejected():
    with pytest.raises(rc.UnknownKey):
        parse_config("[params]\nwavelenght = 1e-6\n")
    with pytest.raises(rc.UnknownKey):
        parse_config("[paramz]\nwavelength = 1e-6\n")
    with pytest.raises(rc.UnknownKey):
        parse_config("wavelength = 1e-6\n")  # params key at top level


def test_parse_error_carries_line_and_column():
    with pytest.raises(rc.ParseError) as exc:
        parse_config("[params]\nwavelength 1e-6\n")
    assert exc.value.line == 2
    with pytest.raises(rc.ParseError) as exc:
        parse_config("[params]\nwavelength = abc\n")
    assert exc.value.line == 2
    assert exc.value.column > 1
    with pytest.raises(rc.ParseError):
        parse_config("[params\n")
    with pytest.raises(rc.ParseError):
        parse_config("[params]\nwavelength = 1e-6\nwavelength = 2e-6\n")
    with pytest.raises(rc.ParseError, match="empty key"):
        parse_config("[params]\n = 1e-6\n")
    with pytest.raises(rc.ParseError, match="empty value"):
        parse_config("[params]\nwavelength =\n")


def test_validation_error_names_field():
    with pytest.raises(rc.ValidationError) as exc:
        parse_config("[params]\nmirror_mass = -1\n")
    assert exc.value.field == "mirror_mass"
    with pytest.raises(rc.ValidationError):
        parse_config("[params]\ngeometry = pentagon\n")
    with pytest.raises(rc.ValidationError):
        parse_config("output_format = yaml\n")
    with pytest.raises(rc.ValidationError) as exc:
        parse_config("[sweep]\naxis = squeeze_r\nstart = 0\nstop = 1\n"
                     "points = 1\ndelta = 5741920.308892601\n")
    assert exc.value.field == "sweep.points"


def test_sweep_section_round_trip():
    text = (BASELINE_CFG
            + "[sweep]\naxis = bath_temp\nstart = 0.0\nstop = 0.0002\n"
              "points = 11\ndelta = 5741920.308892601\n")
    cfg = parse_config(text)
    assert cfg.sweep is not None
    assert cfg.sweep.axis is rc.SweepAxis.BATH_TEMP
    assert cfg.sweep.points == 11
    assert cfg.sweep.fixed == cfg.params
    again = parse_config(serialize_config(cfg))
    assert again == cfg


@pytest.mark.parametrize("key", ["rel_tol", "abs_tol", "max_depth"])
def test_retired_quadrature_keys_rejected(key):
    # the adaptive integrals run at the integrator's fixed accuracy
    with pytest.raises(rc.UnknownKey):
        parse_config(f"[quadrature]\n{key} = 1\n")
    with pytest.raises(TypeError):
        rc.QuadratureConfig(**{key: 1})


def test_round_trip_identity_without_sweep():
    cfg = parse_config(BASELINE_CFG)
    assert parse_config(serialize_config(cfg)) == cfg


# The accepted keys of each config section; '' is the top level.
ACCEPTED_KEYS = {
    "": {"output_path", "output_format"},
    "params": {"wavelength", "cavity_length", "mirror_mass", "kappa_rad_s",
               "kappa_hz", "mech_freq_rad_s", "mech_freq_hz",
               "mech_quality", "fold_angle", "bath_temp", "laser_power",
               "squeeze_r", "squeeze_phase", "geometry"},
    "quadrature": {"cutoff"},
    "sweep": {"axis", "start", "stop", "points", "delta"},
}


def test_accepted_keys_are_pinned():
    assert {name: set(keys) for name, keys in cli._KEYS.items()} \
        == ACCEPTED_KEYS


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def _run_configs(draw):
    """A valid RunConfig, and config text for it that spells both rates
    in Hz or in rad/s."""
    hz = draw(st.booleans())
    rates = {}
    for key in ("kappa", "mech_freq"):
        # 2 pi times a Hz value must stay finite
        value = draw(st.floats(min_value=0.0, exclude_min=True,
                               max_value=1e300) if hz else _positive)
        rates[key] = 2.0 * math.pi * value if hz else value
        rates[key + "_text"] = (f"{key}_hz = {value!r}" if hz
                                else f"{key}_rad_s = {value!r}")
    params = rc.PhysicalParams(
        wavelength=draw(_positive), cavity_length=draw(_positive),
        mirror_mass=draw(_positive), cavity_decay=rates["kappa"],
        mech_freq=rates["mech_freq"], mech_quality=draw(_positive),
        fold_angle=draw(st.floats(min_value=0.0, max_value=math.pi)),
        bath_temp=draw(_nonnegative), laser_power=draw(_nonnegative),
        squeeze_r=draw(_nonnegative), squeeze_phase=draw(_finite),
        geometry=draw(st.sampled_from(rc.Geometry)))
    quadrature = rc.QuadratureConfig(
        cutoff=draw(st.floats(min_value=2.0, exclude_min=True,
                              max_value=1e5)))
    sweep = None
    axis = draw(st.none() | st.sampled_from(rc.SweepAxis))
    if axis is not None:
        start, stop = draw(st.lists(_finite, min_size=2, max_size=2,
                                    unique=True).map(sorted))
        sweep = rc.SweepSpec(
            axis=axis, start=start, stop=stop,
            points=draw(st.integers(min_value=2, max_value=10 ** 6)),
            fixed=params, quadrature=quadrature,
            delta=None if axis is rc.SweepAxis.DETUNING else draw(_finite))
    path = draw(st.text(st.characters(blacklist_categories=(
        "Cc", "Cs", "Zl", "Zp")), min_size=1).map(str.strip).filter(bool))
    cfg = rc.RunConfig(params=params, quadrature=quadrature, sweep=sweep,
                       output_path=path,
                       output_format=draw(st.sampled_from(["csv", "json"])))
    text = serialize_config(cfg)
    for key in ("kappa", "mech_freq"):
        text = re.sub(rf"^{key}_rad_s = .*$", rates[key + "_text"], text,
                      flags=re.M)
    return cfg, text


@settings(deadline=None, max_examples=200)
@given(_run_configs())
def test_serialized_config_parses_back(case):
    cfg, text = case
    assert parse_config(serialize_config(cfg)) == cfg
    parsed = parse_config(text)
    assert parsed == cfg
    assert parsed.provenance == ()


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# heading\n\n; alt comment\n" + BASELINE_CFG)
    assert cfg.params == rc.baseline_params()


# ------------------------------------------------------------- commands


def test_point_csv(capsys):
    code, out, err = run(["point", "--delta-per-wm", "0.965"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 6
    assert float(fields[2]) == pytest.approx(0.2648, abs=2e-3)
    assert fields[5] == "true"


def test_point_json(capsys):
    code, out, err = run(["point", "--delta-per-wm", "0.965",
                          "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["product_entangled"] is True
    assert obj["var_p_minus"] == pytest.approx(0.2648, abs=2e-3)


def test_point_zero_power_thermal(capsys):
    code, out, err = run(["point", "--delta-per-wm", "0", "--power-mw",
                          "0", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["var_p_minus"] == pytest.approx(2.00122, rel=1e-3)


def test_point_unstable_exits_2(capsys):
    code, out, err = run(["point", "--delta-per-wm", "0.5",
                          "--power-mw", "20"], capsys)
    assert code == 2
    assert "error:" in err
    assert out == ""


def test_stability_json(capsys):
    code, out, err = run(["stability", "--delta-per-wm", "0.5",
                          "--power-mw", "20", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["stable"] is False
    assert obj["routh_hurwitz"] is False
    assert obj["margin"] < 0.0


def test_branches_csv_counts(capsys):
    code, out, err = run(["branches", "--delta-per-wm", "0.55"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + three coexisting branches
    code, out, err = run(["branches", "--delta-per-wm", "1.2"], capsys)
    assert len(out.strip().splitlines()) == 2


def test_minimize_json(capsys):
    code, out, err = run(["minimize", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(0.2648, abs=1e-3)


def test_sweep_needs_config_section(tmp_path, capsys):
    cfg = tmp_path / "no_sweep.cfg"
    cfg.write_text(BASELINE_CFG)
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 1
    assert "sweep" in err


def test_missing_config_file_exits_1(capsys):
    code, out, err = run(["point", "--delta-per-wm", "1",
                          "--config", "/nonexistent/x.cfg"], capsys)
    assert code == 1


def test_bad_flag_exits_1(capsys):
    assert main(["point", "--delta-per-wm", "1", "--frobnicate"]) == 1


def test_too_many_points_is_a_usage_error(capsys):
    # 2e9 points once ended in numpy's allocation traceback for the grid
    code, out, err = run(["fig2", "--points", "2000000000"], capsys)
    assert code == 1 and out == ""
    assert "points = 2000000000 violates at most 1000000" in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["point", "--help"]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["point", "stability", "branches"])
def test_non_finite_detuning_is_usage_error(command, value, capsys):
    code, out, err = run([command, f"--delta-per-wm={value}"], capsys)
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["branches", "--delta-per-wm", "1e300"],
    ["point", "--delta-per-wm", "1e300"],
    ["stability", "--delta-per-wm", "1e200"],
    ["point", "--delta-per-wm", "1e20"],
    ["minimize", "--window", "1e19", "1e20"],
])
def test_unresolvable_detuning_is_usage_error(argv, capsys):
    # at 1e6 kappa and beyond the cubic grows spurious branches and,
    # further out, kappa is lost against the detuning
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "error:" in err and "< 1e6 kappa" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv,config,code,says", [
    (["point", "--delta-per-wm", "0.965", "--r", "1000"], None, 1,
     "n_squeeze"),
    (["point", "--delta-per-wm", "0.965", "--r", "400"], None, 1,
     "n_squeeze"),
    (["branches", "--delta-per-wm", "0.5", "--power-mw", "1e300"], None, 1,
     "drive_eps"),
    (["branches", "--delta-per-wm", "0.5", "--power-mw", "1e284"], None, 1,
     "laser_power"),
    # a bath this hot overflows the criteria: the domain band rejects it
    (["point", "--delta-per-wm", "0.965", "--temp-uk", "1e300"], None, 1,
     "bath_temp"),
    (["point", "--delta-per-wm", "0.965", "--temp-uk", "1e-300"], None, 1,
     "bath_temp"),
    (["point", "--delta-per-wm", "0.965", "--temp-uk", "1e304"], None, 1,
     "bath_temp"),
    (["branches", "--delta-per-wm", "1"], "[params]\nwavelength = 1e308\n",
     1, "wavelength"),
    # zero detuning (a double pole) at huge inputs; numpy must not warn
    (["point", "--delta-per-wm", "0", "--temp-uk", "1e300"], None, 1,
     "bath_temp"),
    (["point", "--delta-per-wm", "0", "--power-mw", "1e284"], None, 2,
     "not finite"),
    (["minimize", "--window", "5e-324", "3", "--power-mw", "2",
      "--temp-uk", "1e300"], None, 1, "bath_temp"),
    # a damping rate below what the eigenvalues resolve
    (["point", "--delta-per-wm", "5e-324", "--temp-uk", "0"],
     "[params]\nmech_quality = 1e308\n", 1, "mech_quality"),
    (["point", "--delta-per-wm", "0"], "[quadrature]\ncutoff = 1e300\n", 1,
     "cutoff"),
    (["point", "--delta-per-wm", "0.965"], "[quadrature]\ncutoff = 1e300\n",
     1, "cutoff"),
    # rates outside the domain band: g about 1e158, |amp|^2 and kappa^2
    # would overflow
    (["point", "--delta-per-wm", "0.965"],
     "[params]\nmirror_mass = 5e-324\n", 1, "coupling_g"),
    (["minimize", "--window", "0", "0.965"],
     "[params]\nkappa_rad_s = 1e-300\n", 1, "cavity_decay"),
    (["branches", "--delta-per-wm", "1.5", "--power-mw", "0"],
     "[params]\nkappa_hz = 1e300\n", 1, "cavity_decay"),
    # sinh^2 r is finite, the residue sum is not
    (["point", "--delta-per-wm", "0.965", "--r", "315"], None, 2,
     "variance integral is not finite"),
    # the same in a stacked sweep row and a minimiser grid
    (["sweep"], "[sweep]\naxis = squeeze_r\nstart = 0\nstop = 340\n"
                "points = 3\ndelta = 5741920.308892601\n", 2,
     "variance integral is not finite"),
    (["minimize", "--r", "320"], None, 2, "at detuning"),
], ids=["r-1000", "r-400", "power-1e300", "power-1e284", "temp-1e300",
        "temp-1e-300", "temp-1e304", "wavelength-1e308", "zero-temp-1e300",
        "zero-power-1e284", "minimize-temp-1e300", "zero-quality-1e308",
        "zero-cutoff-1e300",
        "cutoff-1e300", "mass-5e-324", "kappa-1e-300", "kappa-hz-1e300",
        "r-315", "sweep-r-340", "minimize-r-320"])
def test_overflowing_input_is_an_error(argv, config, code, says, tmp_path,
                                       capsys):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    code_, out, err = run(argv, capsys)
    assert code_ == code
    assert err.splitlines()[-1].startswith("error:")
    assert says in err.splitlines()[-1]
    assert "Traceback" not in err and "Warning" not in err
    assert out == ""


def test_high_quality_at_zero_detuning(tmp_path, capsys):
    # the optical poles coincide and the mechanical line is 1e-9 omega_m
    # wide; radiation-pressure heating makes the variance affine in Q
    values = {}
    for quality in (6700.0, 1e6, 1e9):
        cfg = tmp_path / "q.cfg"
        cfg.write_text(f"[params]\nmech_quality = {quality!r}\n")
        code, out, err = run(["point", "--delta-per-wm", "0", "--temp-uk",
                              "0", "--format", "json", "--config", str(cfg)],
                             capsys)
        assert code == 0, err
        values[quality] = json.loads(out)["var_p_minus"]
    low = (values[1e6] - values[6700.0]) / (1e6 - 6700.0)
    high = (values[1e9] - values[1e6]) / (1e9 - 1e6)
    assert high == pytest.approx(low, rel=1e-6, abs=0.0)


def test_bath_colder_than_expm1_range(capsys):
    # hbar omega_m / kB T is about 710 at 64 nK, where expm1 overflows
    code, out, err = run(["point", "--delta-per-wm", "0.965",
                          "--temp-uk", "0.05", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["var_q_plus"] == 0.5


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    src = str(Path(rc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "ringcav", "point", "--delta-per-wm", "0.965"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert "Warning" not in proc.stderr
    assert proc.stdout.startswith(CSV_HEADER + "\n5741920.30889,")


@pytest.mark.parametrize("module", ["ringcav", "ringcav.cli"])
def test_python_dash_m_warns_nothing(module):
    # the package no longer imports the command line before runpy runs
    # it as __main__, which made ``-m ringcav.cli`` warn on every run
    env = dict(os.environ)
    src = str(Path(rc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         "--help"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_os_and_decode_failures_exit_1(tmp_path, capsys):
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"\xff\xfe")
    csv_path = str(tmp_path / "scan.csv")
    script = tmp_path / "x.gp"
    for argv in (["point", "--delta-per-wm", "1", "--output", str(tmp_path)],
                 ["point", "--delta-per-wm", "1", "--config", str(tmp_path)],
                 ["point", "--delta-per-wm", "1", "--config",
                  str(undecodable)],
                 ["fig2", "--points", "2", "--output", csv_path,
                  "--gnuplot-script", str(tmp_path)],
                 # the data cannot be written: no script plots it
                 ["fig2", "--points", "2", "--output",
                  str(tmp_path / "missing" / "x.csv"),
                  "--gnuplot-script", str(script)]):
        code, out, err = run(argv, capsys)
        assert code == 1, argv
        assert err.splitlines()[-1].startswith("error:"), argv
        assert "Traceback" not in err
    assert not script.exists()


@pytest.mark.parametrize("text", [BASELINE_CFG, "[params]\nsqueeze_r = 0.5\n"])
def test_byte_order_mark_is_not_config_text(text, tmp_path, capsys):
    # a UTF-8 byte-order mark before a top-level key or a section header
    plain = tmp_path / "plain.cfg"
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / "marked.cfg"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    want, got = (run(["point", "--delta-per-wm", "0.965", "--config",
                      str(path)], capsys) for path in (plain, marked))
    assert want[0] == 0
    assert got == want


def test_unstable_config_value_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[params]\nmirror_mass = -1\n")
    code, out, err = run(["point", "--delta-per-wm", "1",
                          "--config", str(cfg)], capsys)
    assert code == 1
    assert "mirror_mass" in err


def test_sweep_runs_from_config(tmp_path, capsys):
    wm = rc.baseline_params().mech_freq
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(BASELINE_CFG
                   + f"[sweep]\naxis = detuning\nstart = {0.9 * wm!r}\n"
                     f"stop = {1.1 * wm!r}\npoints = 4\n")
    code, out, err = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5


def test_csv_uses_12_significant_digits(capsys):
    code, out, err = run(["point", "--delta-per-wm", "0.965"], capsys)
    row = out.strip().splitlines()[1].split(",")
    # 12 significant digits: mantissa digit count capped at 12
    for cell in row[:5]:
        digits = re.sub(r"[^0-9]", "", cell.split("e")[0]).lstrip("0")
        assert len(digits) <= 12
    assert float(row[1]) == pytest.approx(1.00061131076, rel=1e-11)


def test_preset_equals_explicit_sweep(tmp_path, capsys):
    wm = rc.baseline_params().mech_freq
    code, fig_out, _ = run(["fig2", "--points", "4"], capsys)
    assert code == 0
    cfg = tmp_path / "equiv.cfg"
    cfg.write_text(BASELINE_CFG
                   + f"[sweep]\naxis = detuning\nstart = {0.5 * wm!r}\n"
                     f"stop = {1.5 * wm!r}\npoints = 4\n")
    code, sweep_out, _ = run(["sweep", "--config", str(cfg)], capsys)
    assert code == 0
    assert fig_out == sweep_out


def test_fig2_summary_on_stderr(capsys):
    code, out, err = run(["fig2", "--points", "3"], capsys)
    assert code == 0
    assert "min var_p_minus" in err
    assert CSV_HEADER in out


@pytest.mark.parametrize("argv, summary", [
    (["fig2", "--points", "5", "--power-mw", "1000"],
     "fig2: no stable points\n"),
    (["fig4", "--points", "3", "--power-mw", "200"], ""),
])
def test_preset_summary_without_stable_points(argv, summary, capsys):
    # every row unstable: fig2 says so, fig4 has no crossing to report
    code, out, err = run(argv, capsys)
    assert code == 0
    assert err == ("config: no config file; package defaults in effect\n"
                   + summary)
    rows = out.splitlines()[1:]
    assert len(rows) == int(argv[2])
    assert all(r.endswith(",,,,,false") for r in rows)


def test_geometry_flag_changes_nothing(capsys):
    code3, out3, _ = run(["fig2", "--points", "3", "--geometry", "3ring"],
                         capsys)
    code4, out4, _ = run(["fig2", "--points", "3", "--geometry", "4ring"],
                         capsys)
    assert code3 == code4 == 0
    assert out3 == out4


def test_output_file_and_gnuplot_script(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    gp_path = tmp_path / "scan.gp"
    code, out, err = run(["fig2", "--points", "3", "--output",
                          str(csv_path), "--gnuplot-script", str(gp_path)],
                         capsys)
    assert code == 0
    assert out == ""
    text = csv_path.read_text()
    assert text.startswith(CSV_HEADER)
    script = gp_path.read_text()
    assert str(csv_path) in script
    assert "plot" in script


def test_gnuplot_script_requires_file_output(tmp_path, monkeypatch, capsys):
    # the usage error comes before the scan: no sweep runs and no summary
    # line is printed, without --output and with json output
    monkeypatch.chdir(tmp_path)
    calls = []
    sweep = cli.run_sweep
    monkeypatch.setattr(cli, "run_sweep",
                        lambda spec: calls.append(spec) or sweep(spec))
    for extra in ([], ["--format", "json", "--output", "rows.json"]):
        code, out, err = run(["fig2", "--points", "3", "--gnuplot-script",
                              "x.gp", *extra], capsys)
        assert code == 1
        assert calls == []
        assert "fig2:" not in err
        assert err.endswith("error: gnuplot_script: needs csv format and "
                            "an --output file\n")
        assert list(tmp_path.iterdir()) == []


def test_json_sweep_rows(capsys):
    code, out, err = run(["fig2", "--points", "3", "--format", "json"],
                         capsys)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"axis_value", "var_q_plus", "var_p_minus",
                            "product", "sum", "stable"}


def test_provenance_echoed_to_stderr(capsys):
    code, out, err = run(["point", "--delta-per-wm", "0.965"], capsys)
    assert code == 0
    assert "config:" in err


# Flag and config values at and beyond the edges of the double range, and
# the words the enumerated keys accept.
_EDGE_VALUES = ("nan", "inf", "-inf", "0", "-0", "5e-324", "1e-300", "1e-9",
                "0.5", "0.965", "1.5", "3", "1e6", "1e300", "1e308")
_WORDS = ("-", "csv", "json", "3ring", "4ring") + tuple(
    a.value for a in rc.SweepAxis)


@st.composite
def _any_run(draw):
    """argv for any command with flag values from _EDGE_VALUES, and
    config text, or None, whose keys take the same values."""
    value = st.sampled_from(_EDGE_VALUES)
    command = draw(st.sampled_from(
        ["point", "branches", "stability", "sweep", "minimize"]
        + sorted(cli._PRESETS)))
    argv = [command]
    if command in ("point", "branches", "stability"):
        argv.append(f"--delta-per-wm={draw(value)}")
    elif command == "minimize" and draw(st.booleans()):
        argv += ["--window", draw(value), draw(value)]
    elif command in cli._PRESETS and draw(st.booleans()):
        argv.append(f"--points={draw(st.integers(-1, 20))}")
    for flag in ("--r", "--power-mw", "--temp-uk"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(value)}")
    argv += draw(st.sampled_from([[], ["--format", "json"],
                                  ["--geometry", "4ring"]]))
    if not draw(st.booleans()):
        return argv, None
    lines = []
    for section, keys in cli._KEYS.items():
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True))
        if section and (chosen or draw(st.booleans())):
            lines.append(f"[{section}]")
        lines += [f"{k} = {draw(value | st.sampled_from(_WORDS))}"
                  for k in chosen]
    return argv, "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=200)
@given(_any_run())
# the domain-band inputs that random draws rarely reach
@example((["point", "--delta-per-wm=0.965"],
          "[params]\nmirror_mass = 5e-324\n"))
@example((["minimize"], "[params]\nkappa_rad_s = 1e-300\n"))
@example((["branches", "--delta-per-wm=1.5", "--power-mw=0"],
          "[params]\nkappa_hz = 1e300\n"))
@example((["point", "--delta-per-wm=0.965", "--r=315"], None))
# the float spacing of the detuning exceeds the refinement tolerance
@example((["minimize", "--window", "999999999990", "999999999999"],
          "[params]\nkappa_rad_s = 5950176485899.068\n"))
def test_any_argv_and_config_exit_cleanly(case):
    # every failure leaves as a RingCavError with its exit code; the
    # pytest settings turn a numpy RuntimeWarning into an exception
    argv, config = case
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a drawn output_path writes here
        try:
            if config is not None:
                Path("run.cfg").write_text(config)
                argv = argv + ["--config", "run.cfg"]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)


# ------------------------------------------------------ exact output bytes
#
# Expected stdout is rebuilt here from library calls with the documented
# rules: CSV cells are true/false for booleans, empty for None and
# ``.12g`` otherwise; JSON is ``json.dumps(..., indent=2)`` plus a newline,
# a bare object for point, stability and minimize.

DEFAULTS_NOTE = "config: no config file; package defaults in effect\n"


def _cell(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    return "" if x is None else f"{x:.12g}"


def _csv_text(records):
    lines = [",".join(records[0])]
    lines += [",".join(_cell(v) for v in r.values()) for r in records]
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _sweep_records(rows):
    return [{"axis_value": r.axis_value, "var_q_plus": r.var_q_plus,
             "var_p_minus": r.var_p_minus, "product": r.product,
             "sum": r.sum, "stable": r.stable} for r in rows]


def _expect_point():
    p = rc.baseline_params()
    res = rc.entanglement_result(p, rc.derive_params(p), 0.965 * p.mech_freq)
    row = {"axis_value": res.delta, "var_q_plus": res.var_q_plus,
           "var_p_minus": res.var_p_minus, "product": res.product,
           "sum": res.sum, "stable": True}
    obj = {"delta": res.delta, "var_q_plus": res.var_q_plus,
           "var_p_minus": res.var_p_minus, "product": res.product,
           "sum": res.sum, "product_entangled": res.product_entangled,
           "sum_entangled": res.sum_entangled}
    return _csv_text([row]), _json_text(obj), ""


def _expect_branches(x):
    p = rc.baseline_params()
    recs = [{"detuning": s.detuning, "amplitude_re": s.amplitude.real,
             "amplitude_im": s.amplitude.imag, "q_minus_s": s.q_minus_s,
             "p_minus_s": s.p_minus_s, "photon_number": s.photon_number,
             "tangent": s.tangent}
            for s in rc.find_steady_branches(p, rc.derive_params(p),
                                             x * p.mech_freq)]
    return _csv_text(recs), _json_text(recs), ""


def _expect_stability(x, **overrides):
    p = rc.baseline_params(**overrides)
    d = rc.derive_params(p)
    v = rc.stability_verdict(
        p, d, rc.steady_state_at_detuning(p, d, x * p.mech_freq))
    rec = {"stable": v.stable, "routh_hurwitz": v.routh_hurwitz,
           "eigenvalue": v.eigenvalue, "margin": v.margin}
    return _csv_text([rec]), _json_text(rec), ""


def _expect_minimize():
    p = rc.baseline_params()
    res = rc.minimize_over_detuning(p, rc.derive_params(p), (0.9, 1.05),
                                    rc.QuadratureConfig())
    rec = {"delta_star": res.delta_star, "value": res.value}
    return _csv_text([rec]), _json_text(rec), ""


def _fig2_rows(points, **overrides):
    p = rc.baseline_params(**overrides)
    return rc.run_sweep(rc.SweepSpec(
        axis=rc.SweepAxis.DETUNING, start=0.5 * p.mech_freq,
        stop=1.5 * p.mech_freq, points=points, fixed=p))


def _fig2_summary(rows):
    best = min((r for r in rows if r.stable), key=lambda r: r.var_p_minus)
    return (f"fig2: min var_p_minus = {best.var_p_minus:.6g} at "
            f"axis value {best.axis_value:.6g}\n")


def _expect_fig2():
    rows = _fig2_rows(6, laser_power=1e-3 * 20.0)
    assert any(not r.stable for r in rows)
    recs = _sweep_records(rows)
    return _csv_text(recs), _json_text(recs), _fig2_summary(rows)


def _expect_fig4():
    p = rc.baseline_params()
    rows = rc.run_sweep(rc.SweepSpec(
        axis=rc.SweepAxis.BATH_TEMP, start=0.0, stop=200e-6, points=3,
        fixed=p, delta=0.965 * p.mech_freq))
    assert rows[0].axis_value == 0.0 and all(r.stable for r in rows)
    summary = (f"fig4: product = {rows[0].product:.6g} at "
               f"T = {rows[0].axis_value:.6g} K")
    crossing = [r.axis_value for r in rows if r.product >= 1.0]
    if crossing:
        summary += f"; first product >= 1 at T = {crossing[0]:.6g} K"
    recs = _sweep_records(rows)
    return _csv_text(recs), _json_text(recs), summary + "\n"


EXACT_CASES = {
    "point": (["point", "--delta-per-wm", "0.965"], _expect_point),
    "branches-3": (["branches", "--delta-per-wm", "0.55"],
                   lambda: _expect_branches(0.55)),
    "branches-1": (["branches", "--delta-per-wm", "1.2"],
                   lambda: _expect_branches(1.2)),
    "branches-edge-neg": (["branches", "--delta-per-wm", "-2"],
                          lambda: _expect_branches(-2.0)),
    "branches-edge-zero": (["branches", "--delta-per-wm", "0"],
                           lambda: _expect_branches(0.0)),
    "branches-edge-pos": (["branches", "--delta-per-wm", "2"],
                          lambda: _expect_branches(2.0)),
    "stability-edge-neg": (["stability", "--delta-per-wm", "-2"],
                           lambda: _expect_stability(-2.0)),
    "stability-edge-pos": (["stability", "--delta-per-wm", "2"],
                           lambda: _expect_stability(2.0)),
    "stability-stable": (["stability", "--delta-per-wm", "0.965"],
                         lambda: _expect_stability(0.965)),
    "stability-unstable": (
        ["stability", "--delta-per-wm", "0.5", "--power-mw", "20"],
        lambda: _expect_stability(0.5, laser_power=1e-3 * 20.0)),
    "minimize": (["minimize", "--window", "0.9", "1.05"], _expect_minimize),
    "fig4": (["fig4", "--points", "3"], _expect_fig4),
    "fig2-unstable": (["fig2", "--points", "6", "--power-mw", "20"],
                      _expect_fig2),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_exact_output_bytes(case, fmt, capsys):
    argv, expect = EXACT_CASES[case]
    csv_text, json_text, summary = expect()
    code, out, err = run(argv + ["--format", fmt], capsys)
    assert code == 0
    assert out == (csv_text if fmt == "csv" else json_text)
    assert err == DEFAULTS_NOTE + summary


def test_exact_output_and_gnuplot_files(tmp_path, capsys):
    csv_path = tmp_path / "scan.csv"
    gp_path = tmp_path / "scan.gp"
    code, out, err = run(["fig2", "--points", "3", "--output", str(csv_path),
                          "--gnuplot-script", str(gp_path)], capsys)
    assert code == 0
    assert out == ""
    rows = _fig2_rows(3)
    assert err == DEFAULTS_NOTE + _fig2_summary(rows)
    assert csv_path.read_text() == _csv_text(_sweep_records(rows))
    assert gp_path.read_text() == (
        "set datafile separator ','\n"
        "set key autotitle columnhead\n"
        "set xlabel 'axis value'\n"
        "set ylabel 'variance and criteria'\n"
        f"plot '{csv_path}' using 1:3 with lines title 'var p minus', \\\n"
        "     '' using 1:4 with lines title 'product', \\\n"
        "     '' using 1:5 with lines title 'sum'\n"
        "pause -1\n")


def test_successive_main_calls_leak_no_state(tmp_path, capsys):
    # the parser is built once per process; no flag of one call (an output
    # file, a gnuplot script, a format) may carry over to the next
    assert cli._build_parser() is cli._build_parser()
    csv_path = tmp_path / "scan.csv"
    code, out, err = run(["fig2", "--points", "3", "--output", str(csv_path),
                          "--gnuplot-script", str(tmp_path / "scan.gp")],
                         capsys)
    rows = _fig2_rows(3)
    assert (code, out, err) == (0, "", DEFAULTS_NOTE + _fig2_summary(rows))
    assert csv_path.read_text() == _csv_text(_sweep_records(rows))
    argv, expect = EXACT_CASES["point"]
    csv_text, json_text, summary = expect()
    for fmt, want in ((["--format", "json"], json_text), ([], csv_text)):
        code, out, err = run(argv + fmt, capsys)
        assert (code, out, err) == (0, want, DEFAULTS_NOTE + summary)
