"""Write the golden command-line runs that tests/test_golden.py replays.

Each run of ``CASES`` goes in-process through ``ringcav.main`` in a
fresh directory that holds ``CONFIGS``, with ``COLUMNS=80`` for argparse.
Its stdout and stderr go to ``<name>.stdout`` and ``<name>.stderr``, and
each file it leaves in that directory to ``<name>.<file name>``.
``runs.json`` records the header (Python and numpy versions and
``platform.machine()``) and each run's argv, exit code and files.

Run from the repository root, after a deliberate change of output::

    PYTHONPATH=src python tests/golden/regenerate.py

The diff of tests/golden/ then shows that change for review.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shlex
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent

# config files in every run's directory, by file name
CONFIGS = {
    "bath_temp.cfg": ("[sweep]\naxis = bath_temp\nstart = 0\n"
                      "stop = 0.0002\npoints = 11\n"
                      "delta = 5741920.308892601\n"),
    "bath_temp_clustered.cfg": ("[sweep]\naxis = bath_temp\nstart = 0\n"
                                "stop = 0.0002\npoints = 11\ndelta = 0\n"),
    "squeeze_r.cfg": ("[sweep]\naxis = squeeze_r\nstart = 0\nstop = 3\n"
                      "points = 13\ndelta = 5741920.308892601\n"),
    "laser_power.cfg": ("[sweep]\naxis = laser_power\nstart = 0\n"
                        "stop = 0.012\npoints = 13\n"
                        "delta = 5741920.308892601\n"),
    "cutoff.cfg": "[quadrature]\ncutoff = 1.0\n",
    "one_point.cfg": ("[sweep]\naxis = detuning\nstart = 3e6\n"
                      "stop = 9e6\npoints = 1\n"),
    "negative.cfg": "[params]\nmirror_mass = -1.45e-10\n",
}

# name: command line
CASES = {
    "point_csv": "point --delta-per-wm 0.965",
    "point_json": "point --delta-per-wm 0.965 --format json",
    "point_clustered": "point --delta-per-wm 0",
    "point_unstable": "point --delta-per-wm 0.3 --power-mw 20",
    "point_4ring": "point --delta-per-wm 0.965 --geometry 4ring",
    "branches": "branches --delta-per-wm 0.55",
    "stability_json": "stability --delta-per-wm 0.965 --format json",
    "minimize": "minimize",
    "fig2": "fig2 --points 20",
    "fig2_hot": "fig2 --points 20 --power-mw 20 --temp-uk 5000",
    "fig4": "fig4 --points 21",
    "fig4_json": "fig4 --points 21 --format json",
    "fig4_unstable": "fig4 --points 3 --power-mw 200",
    "sweep_bath_temp": "sweep --config bath_temp.cfg",
    "sweep_bath_temp_clustered": "sweep --config bath_temp_clustered.cfg",
    "sweep_squeeze_r_json": "sweep --config squeeze_r.cfg --format json",
    "sweep_laser_power": "sweep --config laser_power.cfg",
    "cutoff_too_small": "point --delta-per-wm 0.965 --config cutoff.cfg",
    "sweep_one_point": "sweep --config one_point.cfg",
    "negative_param": "point --delta-per-wm 0.965 --config negative.cfg",
    "gnuplot_no_output": "fig2 --points 3 --gnuplot-script plot.gp",
    "gnuplot_is_output": ("fig2 --points 3 --output data.csv "
                          "--gnuplot-script data.csv"),
    "fig4_swept_override": "fig4 --points 3 --temp-uk 100",
    "format_xml": "point --delta-per-wm 0.965 --format xml",
    "geometry_5ring": "point --delta-per-wm 0.965 --geometry 5ring",
    "point_json_file": ("point --delta-per-wm 0.965 --format json "
                        "--output point.json"),
    "point_help": "point --help",
    "fig2_help": "fig2 --help",
}

def header() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def run(argv: list[str]) -> tuple[int, str, str, dict[str, str]]:
    """(exit code, stdout, stderr, {file name: text}) of one run."""
    from ringcav import main

    out, err = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CONFIGS.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
        os.environ["COLUMNS"] = "80"
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
        files = {}
        for f in sorted(Path(tmp).iterdir()):
            if f.name not in CONFIGS:
                with open(f, encoding="utf-8", newline="") as fh:
                    files[f.name] = fh.read()
    return code, out.getvalue(), err.getvalue(), files


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def main() -> None:
    for stale in GOLDEN.iterdir():
        if stale.is_file() and stale.suffix != ".py":
            stale.unlink()
    runs = {}
    for name, line in CASES.items():
        argv = shlex.split(line)
        code, out, err, files = run(argv)
        _write(GOLDEN / f"{name}.stdout", out)
        _write(GOLDEN / f"{name}.stderr", err)
        for fname, text in files.items():
            _write(GOLDEN / f"{name}.{fname}", text)
        runs[name] = {"argv": argv, "exit": code, "files": sorted(files)}
    _write(GOLDEN / "runs.json",
           json.dumps({"header": header(), "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    main()
