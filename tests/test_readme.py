"""The README's examples run and say what the code does."""

import pathlib
import re

import ringcav as rc

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
