"""The README's examples run and say what the code does."""

import pathlib
import re
import shlex

import ringcav as rc
from ringcav.cli import _SCHEMA

README = (pathlib.Path(__file__).resolve().parents[1]
          / "README.md").read_text(encoding="utf-8")


def _block(lang):
    blocks = re.findall(rf"^```{lang}\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) == 1, f"expected one {lang} block"
    return blocks[0]


def test_python_example_states_true_values():
    code = _block("python")
    ns = {}
    exec(code, ns)
    checked = 0
    for line in code.splitlines():
        expr, sep, stated = line.partition("#")
        if not sep or "=" in expr:
            continue
        stated = stated.strip()
        shown = repr(eval(expr, ns))
        if stated.endswith("..."):
            assert shown.startswith(stated[:-3]), (expr, shown, stated)
        else:
            assert shown == stated, (expr, shown, stated)
        checked += 1
    assert checked == 3


def test_ini_example_parses_verbatim():
    cfg = rc.parse_config(_block("ini"))
    assert cfg.params == rc.baseline_params()
    assert cfg.quadrature == rc.QuadratureConfig()
    assert cfg.output_format == "csv" and cfg.output_path == "-"
    assert cfg.sweep.axis is rc.SweepAxis.DETUNING
    assert cfg.sweep.points == 200
    assert cfg.sweep.start == 0.5 * cfg.params.mech_freq


def test_ini_example_names_every_key():
    # each key appears once as "key =", in a comment if the example
    # leaves it unset; a rate in exactly one of its two spellings
    written = {}
    section = ""
    for line in _block("ini").splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
        key = re.match(r"#? ?(\w+) =", line)
        if key:
            written.setdefault(section, []).append(key.group(1))
    for section, schema in _SCHEMA.items():
        for _, _, keys, _ in schema:
            found = [k for k in written.get(section, []) if k in keys]
            assert len(found) == 1, (section, keys, found)


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    # every command of the command-line block, with the ini example as
    # its run.cfg, in an empty directory
    sh = re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)
    block, = [b for b in sh if "\nringcav " in b]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("ringcav ")]
    assert len(commands) == 7
    (tmp_path / "run.cfg").write_text(_block("ini"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert rc.main(argv) == 0, (argv, capsys.readouterr().err)
