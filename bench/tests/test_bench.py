"""Tests of the benchmark itself, on tiny workloads.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

import ringcav as rc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def tiny(name, seed, workdir):
    if name == "scan":
        return workloads.Scan(seed, block=1, det_points=6, temp_points=4)
    if name == "interactive":
        return workloads.Interactive(seed, str(workdir))
    return workloads.StabilityMap(seed, powers=6, detunings=20)


def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_prints_every_metric_with_its_unit(name, tmp_path, capsys):
    spec = benchmark_json()
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        report = run.run_one(tiny(name, 3, tmp_path), 3, 0, trace,
                             setup=lambda: 0.1, results=tmp_path)
        assert report["correct"] and report["failed"] == 0
        assert report["attempted"] >= 1
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[-1]) == report
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: m["unit"] for k, m in report["metrics"].items()} == want
        for k, unit in want.items():
            assert any(line.split()[1:2] == [k] and line.endswith(f" {unit}")
                       for line in lines[:-1]), k
        if not trace:
            assert all(m["value"] > 0 for m in report["metrics"].values())
    saved = json.loads((tmp_path / f"{name}-seed3-trace1.json").read_text())
    env = saved["environment"]
    assert env["seed"] == 3 and env["RINGCAV_THREADS"] is None
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracing.PER_LAYER


def test_times_are_scaled_to_reference_speed(monkeypatch, tmp_path):
    # a machine where the reference kernel takes twice its unit time
    monkeypatch.setattr(run, "reference_s", lambda: 2 * run.REF_UNIT_S)
    lat, raw, (items, item_s, item_raw_s), refs, n, bad, _ = run.measure(
        tiny("stability_map", 3, tmp_path), 0)
    assert not bad and n == len(raw["pair"]) and items > 0
    assert list(lat["pair"]) == [t / 2 for t in raw["pair"]]
    assert item_s == pytest.approx(item_raw_s / 2)
    assert set(refs) == {2 * run.REF_UNIT_S}


def _first_block(name, seed, workdir):
    return next(tiny(name, seed, workdir).blocks())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_inputs(name, tmp_path):
    assert _first_block(name, 5, tmp_path) == _first_block(name, 5, tmp_path)
    assert _first_block(name, 5, tmp_path) != _first_block(name, 6, tmp_path)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0),
        Span("b", 30, 60, parent=0),      # overlaps a
        Span("c", 90, 120, parent=0),     # runs past its parent's end
        Span("a.inner", 15, 20, parent=1),
        Span("d", 200, 210),              # a second root, no children
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 30, 5, 10]


def test_tracing_restores_the_package():
    before = (rc.run_sweep, rc.sweep.stability_verdict,
              rc.spectra.integrate_adaptive, rc.cli.parse_config)
    with tracing.installed(Tracer()):
        assert rc.sweep.stability_verdict.__wrapped__ is before[1]
        assert rc.spectra.integrate_adaptive is not before[2]
    assert (rc.run_sweep, rc.sweep.stability_verdict,
            rc.spectra.integrate_adaptive, rc.cli.parse_config) == before


@pytest.mark.parametrize("name", workloads.NAMES)
def test_counters_repeat_for_a_seed(name, tmp_path):
    first = run.traced(tiny(name, 8, tmp_path), 0)["detail"]["counters"]
    second = run.traced(tiny(name, 8, tmp_path), 0)["detail"]["counters"]
    assert first == second
    assert set(first) == set(tracing.COUNTERS)


def _trace(fn):
    tracer = Tracer()
    with tracing.installed(tracer), tracing.request(tracer, 0, "test"):
        fn()
    return tracer.spans


def _eig4(spans):
    return sum((s.attrs or {}).get("eig4", 0) for s in spans)


def test_baseline_work_structure():
    p = rc.baseline_params()
    d = rc.derive_params(p)
    wm = p.mech_freq

    # one entanglement result: two eigen-solves, 2130 integrand nodes
    spans = _trace(lambda: rc.entanglement_result(p, d, 0.965 * wm))
    quad, = [s.attrs for s in spans
             if s.name == "quadrature.integrate_adaptive"]
    assert (quad["n_eval"], quad["panels"], quad["depth"]) == (2130, 130, 2)
    assert sum(s.attrs["nodes"] for s in spans
               if s.name == "spectra.density") == 2130
    assert _eig4(spans) == 2
    assert tracing.operating_points(spans) == 1

    # stable sweep rows: three eigen-solves each
    spec = rc.SweepSpec(axis=rc.SweepAxis.DETUNING, start=0.9 * wm,
                        stop=1.0 * wm, points=2, fixed=p)
    spans = _trace(lambda: rc.run_sweep(spec))
    assert tracing.operating_points(spans) == 2
    assert _eig4(spans) == 6

    # the minimiser: 268 probes, three eigen-solves each
    spans = _trace(lambda: rc.minimize_over_detuning(p, d))
    metrics = tracing.layer_metrics(spans, 1, 1.0)
    assert metrics["sweep.probes_per_minimize"] == 268
    assert _eig4(spans) == 804
    assert metrics["stability.eig4_per_point"] == 3
