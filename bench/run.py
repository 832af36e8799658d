"""ringcav benchmark.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with tracing off, every
time scaled to reference speed by a fixed kernel timed beside the
operations (see ``measure``); ``--trace 1`` runs the workload's fixed
traced batch and reports per-layer metrics and work counters.
``--workload all`` runs every workload both ways, each in a fresh
interpreter.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it list
the same metrics and more detail, one per line.  Every run also writes
``bench/results/<workload>-seed<seed>-trace<t>.json`` with the launcher
environment, and a traced run writes its spans beside it.

The launcher pins OpenBLAS and OpenMP to one thread and leaves
RINGCAV_THREADS unset (the one-thread sweep path), before numpy loads.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("RINGCAV_THREADS", None)

import argparse  # noqa: E402
import csv  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 7
REF_EVERY_S = 0.15  # timed operations between two reference timings
REF_REPS = 3  # kernel runs per reference timing
REF_UNIT_S = 1e-3  # the reference kernel's time at reference speed
SPAN_CAP = 300_000  # bounds a traced run's memory and spans file
CHILD_TIMEOUT_S = 170

# name -> unit of every end-to-end metric, in print order
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def _locate_package() -> None:
    for need in (ROOT / "src" / "ringcav" / "__init__.py",
                 ROOT / "tests" / "oracles.py"):
        if not need.is_file():
            sys.exit(f"bench: {need.relative_to(ROOT)} not found; run from "
                     "a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "RINGCAV_THREADS": os.environ.get("RINGCAV_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------- running


def run_ops(wl, ops, tracer=None, first_id=0, limit_s=None):
    """Run ops one after another; return [(op, output or error, seconds)].

    With ``limit_s`` it stops once the ops run so far took that long.
    With a tracer each op gets a root span whose request id is its index.
    """
    out, busy = [], 0.0
    for k, op in enumerate(ops):
        with tracing.request(tracer, first_id + k, f"bench.{op.kind}") as span:
            t0 = time.perf_counter()
            try:
                res = wl.run(op, span)
            except Exception as err:  # counted as a failed operation
                res = err
            dt = time.perf_counter() - t0
        out.append((op, res, dt))
        busy += dt
        if limit_s is not None and busy >= limit_s:
            break
    return out


def check_ops(wl, records, first_id=0) -> set[int]:
    """Ids of operations that raised or whose output failed its check."""
    bad = set()
    for k, (op, res, _) in enumerate(records):
        if isinstance(res, Exception) or not wl.check(first_id + k, op, res):
            bad.add(first_id + k)
    return bad


# -------------------------------------------------------- reference speed

_REF_MATRIX = np.array([[0.3, 1.0, 0.0, 0.1], [-1.0, -0.2, 0.4, 0.0],
                        [0.0, 0.2, -0.5, 1.3], [0.3, 0.0, -1.1, -0.4]])
_REF_ARGV = ["--x1", "0.5", "--x3", "2", "--format", "json"]


def _reference_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(add_help=False)
    for k in range(8):
        ap.add_argument(f"--x{k}", type=float, default=0.0)
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


_REF_PARSER = _reference_parser()


def _reference_kernel() -> None:
    """Fixed work of the kinds ringcav spends its time on: interpreted
    float arithmetic, argument parsing with JSON and CSV output, and 4x4
    eigenvalues.  It uses nothing from ringcav.  Of the candidates tried
    (these plus string formatting, cubic roots and numpy arithmetic on
    small arrays), this mix slowed down most like ringcav's own calls
    when the machine did."""
    acc = 0.0
    for i in range(1500):
        x = 0.5 + i * 1e-3
        acc += x * x / (1.0 + x)
    for i in range(15):
        np.linalg.eigvals(_REF_MATRIX + i * 1e-3)
    for _ in range(8):
        ns = vars(_REF_PARSER.parse_args(_REF_ARGV))
        json.dumps(ns)
        csv.writer(io.StringIO()).writerow(ns.values())


def reference_s() -> float:
    """Seconds the reference kernel takes now: median of REF_REPS runs."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(ref_a: float, ref_b: float) -> float:
    """Factor that turns seconds measured between two reference timings
    into seconds at reference speed, where the kernel takes REF_UNIT_S."""
    return 2.0 * REF_UNIT_S / (ref_a + ref_b)


def measure(wl, seconds: float, between=None):
    """Whole blocks of operations until ``seconds`` of them were timed.

    Operations run in chunks of about REF_EVERY_S, each between two
    timings of the reference kernel, which scale the chunk's latencies to
    reference speed.  Each chunk is checked after its second reference
    timing, outside the timed calls, and its outputs dropped;
    ``between(timed seconds so far)`` runs after each block.  Returns the
    latencies by kind at reference speed and as measured, the items and
    their seconds (at reference speed and as measured), the reference
    timings, the number of operations, the ids of failed ones, and the
    peak RSS in MB read before the oracle comparisons.
    """
    lat: dict[str, array] = {}
    raw: dict[str, array] = {}
    items, item_s, item_raw_s = 0, 0.0, 0.0
    refs = array("d")
    busy, n = 0.0, 0
    bad: set[int] = set()
    for block in wl.blocks():
        start = 0
        while start < len(block):
            ref_a = reference_s()
            records = run_ops(wl, block[start:], first_id=n,
                              limit_s=REF_EVERY_S)
            ref_b = reference_s()
            scale = to_reference(ref_a, ref_b)
            refs.extend((ref_a, ref_b))
            bad |= check_ops(wl, records, first_id=n)
            for op, res, dt in records:
                k = 0 if isinstance(res, Exception) else wl.items(op, res)
                if k:
                    items += k
                    item_s += dt * scale
                    item_raw_s += dt
                lat.setdefault(op.kind, array("d")).append(dt * scale)
                raw.setdefault(op.kind, array("d")).append(dt)
                busy += dt
            start += len(records)
            n += len(records)
        if between is not None:
            between(busy)
        if busy >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bad |= wl.final_check()
    return (lat, raw, (items, item_s, item_raw_s), refs, n, bad, rss_mb)


def _pct(values, q: int) -> float:
    """q-th percentile; 0 when there is no sample."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_once(name: str, seed: int, workdir: str) -> float:
    """One cold start in a fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
         workdir], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=False)
    if proc.returncode != 0:
        sys.exit(f"bench: setup probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def untraced(wl, seconds: float, setup) -> dict:
    """End-to-end metrics of one measured run, plus the detail behind them.

    Every time is scaled to reference speed (see ``measure``).  ``setup()``
    measures one cold start, between two reference timings; it runs
    SETUP_PROBES times, spread over the run so that the median does not
    rest on one moment of a shared machine.
    """
    setups, setups_raw = [], []

    def probe():
        ref_a = reference_s()
        raw_s = setup()
        setups.append(raw_s * to_reference(ref_a, reference_s()))
        setups_raw.append(raw_s)

    probe()
    due = [seconds * k / (SETUP_PROBES - 1) for k in range(1, SETUP_PROBES)]

    def between(busy):
        while due and busy >= due[0]:
            due.pop(0)
            probe()

    wl.run(next(wl.blocks())[0])  # lazy imports and first-call set-up
    reference_s()  # the same for the reference kernel
    lat, raw, (items, item_s, item_raw_s), refs, n, bad, rss_mb = \
        measure(wl, seconds, between)
    kind = wl.op_kind
    op_lat, op_raw = lat.get(kind, []), raw.get(kind, [])
    rate = items / item_s if item_s else 0.0
    detail = {
        "ops": n,
        "error_rate": len(bad) / n,
        "reference_ms_p10": 1e3 * _pct(refs, 10),
        "reference_ms_p50": 1e3 * _pct(refs, 50),
        "reference_ms_p90": 1e3 * _pct(refs, 90),
        "setup_s_runs": setups,
        "setup_s_measured_runs": setups_raw,
        f"{kind}_count": len(op_lat),
        f"{kind}_ms_p50": 1e3 * _pct(op_lat, 50),
        f"{kind}_ms_p90": 1e3 * _pct(op_lat, 90),
        f"{kind}_ms_p50_measured": 1e3 * _pct(op_raw, 50),
        f"{kind}_ms_p90_measured": 1e3 * _pct(op_raw, 90),
        "items_per_s_measured": items / item_raw_s if item_raw_s else 0.0,
    }
    if wl.name == "scan":
        detail.update(rows_per_s=rate, minimize_s_p50=_pct(op_lat, 50))
    elif wl.name == "interactive":
        query = [*lat.get("stability", []), *lat.get("branches", [])]
        detail.update(requests_per_s=rate,
                      query_ms_p50=1e3 * _pct(query, 50),
                      query_ms_p90=1e3 * _pct(query, 90),
                      query_count=len(query))
    else:
        detail.update(verdicts_per_s=rate)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": rate,
        "op_ms_p50": 1e3 * _pct(op_lat, 50),
        "peak_rss_mb": rss_mb,
    }
    return {"attempted": n, "failed": len(bad), "metrics": metrics,
            "detail": detail}


def traced(wl, seconds: float, spans_path=None) -> dict:
    """Per-layer metrics of the workload's fixed batch.

    Untraced and traced passes over the same batch alternate until
    ``seconds`` have passed or the spans reach SPAN_CAP (at least one of
    each); every traced pass does identical work, so the counters repeat
    exactly for a given seed.
    """
    ops = wl.trace_batch()
    run_ops(wl, ops)  # lazy imports and first-call set-up
    tracer = tracing.Tracer()
    plain_s, traced_s, bad = [], [], set()
    t_start = time.perf_counter()
    while not traced_s or (time.perf_counter() - t_start < seconds
                           and len(tracer.spans) < SPAN_CAP):
        plain_s.append(sum(dt for *_, dt in run_ops(wl, ops)))
        first = len(traced_s) * len(ops)
        with tracing.installed(tracer):
            records = run_ops(wl, ops, tracer, first_id=first)
        traced_s.append(sum(dt for *_, dt in records))
        bad |= check_ops(wl, records, first_id=first)
    bad |= wl.final_check()
    passes = len(traced_s)
    metrics = tracing.layer_metrics(tracer.spans, passes,
                                    sum(traced_s) / sum(plain_s))
    if spans_path is not None:
        tracer.dump(spans_path)
    return {"attempted": passes * len(ops), "failed": len(bad),
            "metrics": metrics,
            "detail": {"passes": passes, "ops_per_pass": len(ops),
                       "spans": len(tracer.spans),
                       "counters": {k: metrics[k] for k in tracing.COUNTERS}}}


# ------------------------------------------------------------ reporting


def _report(result: dict, units: dict) -> dict:
    metrics = {k: {"value": result["metrics"][k], "unit": units[k]}
               for k in units}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def run_one(wl, seed: int, seconds: float, trace: bool, setup=None,
            results: Path = RESULTS) -> dict:
    """Measure wl, print its metrics and write its result file."""
    stem = results / f"{wl.name}-seed{seed}-trace{int(trace)}"
    if trace:
        result = traced(wl, seconds, f"{stem}.spans.json")
        units = tracing.PER_LAYER
    else:
        result = untraced(wl, seconds, setup)
        units = END_TO_END
    report = _report(result, units)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seconds": seconds,
                   "trace": int(trace), "environment": environment(seed),
                   **report, "detail": result["detail"]}, fh, indent=2)
    for k, m in report["metrics"].items():
        print(f"{wl.name} {k} {m['value']:.6g} {m['unit']}")
    for k, v in result["detail"].items():
        if k != "counters":
            print(f"{wl.name} detail {k} {v}")
    print(f"{wl.name} error_rate "
          f"{result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(report), flush=True)
    return report


def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced then traced, each in a fresh interpreter."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace",
                 str(trace)], capture_output=True, text=True, check=False,
                timeout=CHILD_TIMEOUT_S + 2 * seconds)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"bench: {name} --trace {trace} failed:\n"
                         f"{proc.stderr}")
            print("\n".join(lines[:-1]), flush=True)
            rep = json.loads(lines[-1])
            combined["correct"] &= rep["correct"]
            combined["attempted"] += rep["attempted"]
            combined["failed"] += rep["failed"]
            for k, m in rep["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = m
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"all-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "environment": environment(seed),
                   **combined}, fh, indent=2)
    print(json.dumps(combined), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scan", "interactive", "stability_map", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    _locate_package()
    if ns.workload == "all":
        run_all(ns.seed, ns.seconds)
    else:
        import workloads
        RESULTS.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
        try:
            wl = workloads.make(ns.workload, ns.seed, workdir)
            run_one(wl, ns.seed, ns.seconds, bool(ns.trace),
                    functools.partial(setup_once, ns.workload, ns.seed,
                                      workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
