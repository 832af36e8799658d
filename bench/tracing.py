"""Layer spans for ringcav, recorded from outside the package.

``installed(tracer)`` replaces every public function of the layer modules
(``model``, ``steady``, ``stability``, ``quadrature``, ``spectra``,
``sweep``, ``cli``) at each module attribute through which a caller looks
it up -- the defining module, every ``ringcav`` module that imported it by
name, and the package itself -- with a wrapper that records a span.  On
leaving the block every attribute is restored.  No file of the package
changes, and an untraced run executes none of this code.

A span is (name, start, end, parent, request): times are
``perf_counter_ns`` readings, ``parent`` is the index of the enclosing
span or None for a request root, and ``request`` is the id the benchmark
assigned to the operation that caused it.  A few wrappers also attach
work counters to their span (``attrs``): the integrand passed to
``integrate_adaptive`` is itself wrapped as ``spectra.density``, and the
4x4 matrices handed to ``numpy.linalg`` eigen routines are counted as
``eig4`` on whichever span is open.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

LAYERS = ("model", "steady", "stability", "quadrature", "spectra", "sweep",
          "cli")
_EIGEN_ROUTINES = ("eig", "eigvals", "eigh", "eigvalsh")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name, start, end=None, parent=None, request=0,
                 attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.attrs = attrs


class Tracer:
    """Spans of one traced run, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = 0

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), parent=parent,
                    request=self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: int) -> None:
        """Add n to counter ``key`` of the innermost open span."""
        if self._stack:
            span = self.spans[self._stack[-1]]
            if span.attrs is None:
                span.attrs = {}
            span.attrs[key] = span.attrs.get(key, 0) + n

    def dump(self, path) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0].start if self.spans else 0
        rows = [[index[s.name], s.start - t0, s.end - t0, s.parent,
                 s.request, s.attrs] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent",
                                   "request", "attrs"],
                       "names": names, "spans": rows}, fh,
                      separators=(",", ":"))


@contextlib.contextmanager
def request(tracer: Tracer | None, rid: int, name: str):
    """Root span of one benchmark operation; a no-op when untraced."""
    if tracer is None:
        yield None
        return
    tracer.request = rid
    span = tracer.open(name)
    try:
        yield span
    finally:
        tracer.close(span)


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            if before is not None:
                args = before(span, args)
            out = fn(*args, **kwargs)
            if after is not None:
                after(span, out)
            return out
        finally:
            tracer.close(span)
    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer: Tracer) -> dict:
    """Work counters recorded by particular wrappers."""

    def quad_before(span, args):
        f, breakpoints, *rest = args
        span.attrs = {"mesh": len(breakpoints)}
        return (_spanned(tracer, "spectra.density", f,
                         before=density_nodes), breakpoints, *rest)

    def density_nodes(span, args):
        span.attrs = {"nodes": int(np.size(args[0]))}
        return args

    def quad_after(span, res):
        span.attrs.update(n_eval=res.n_eval, panels=res.n_panels,
                          depth=res.depth)

    def sweep_after(span, rows):
        span.attrs = {"rows": len(rows),
                      "unstable": sum(not r.stable for r in rows)}

    def branches_after(span, branches):
        span.attrs = {"branches": len(branches)}

    return {
        "quadrature.integrate_adaptive": (quad_before, quad_after),
        "sweep.run_sweep": (None, sweep_after),
        "steady.find_steady_branches": (None, branches_after),
    }


def public_functions():
    """(span name, function) for every public function of the layers."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"ringcav.{layer}")
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{attr}", obj))
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public functions and numpy's eigen routines."""
    import ringcav
    namespaces = [ringcav] + [importlib.import_module(f"ringcav.{m}")
                              for m in LAYERS]
    hooks = _hooks(tracer)
    saved = []
    try:
        for name, fn in public_functions():
            before, after = hooks.get(name, (None, None))
            wrapper = _spanned(tracer, name, fn, before, after)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        saved.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)
        for attr in _EIGEN_ROUTINES:
            fn = getattr(np.linalg, attr)
            saved.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, _eig_counter(tracer, fn))
        yield tracer
    finally:
        for ns, attr, fn in reversed(saved):
            setattr(ns, attr, fn)


def _eig_counter(tracer: Tracer, fn):
    def wrapper(a, *args, **kwargs):
        shape = np.shape(a)
        if shape[-2:] == (4, 4):
            tracer.count("eig4", int(np.prod(shape[:-2], dtype=int)))
        return fn(a, *args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


# ------------------------------------------------------------- analysis


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part its children's union covers."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, ivs in zip(spans, children):
        covered = 0
        cur_a = cur_b = None
        for a, b in sorted(ivs):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append(s.end - s.start - covered)
    return out


def _is_probe(spans: list[Span], s: Span) -> bool:
    """A steady state solved directly by the minimiser: one probe."""
    return (s.name == "steady.steady_state_at_detuning"
            and s.parent is not None
            and spans[s.parent].name == "sweep.minimize_over_detuning")


def operating_points(spans: list[Span]) -> int:
    """Operating points the traced work evaluated.

    A sweep row, a minimiser probe, and an entanglement result or
    stability verdict requested directly by the benchmark or by
    ``cli.main``.
    """
    n = 0
    for s in spans:
        if s.name == "sweep.run_sweep":
            n += s.attrs["rows"]
        elif _is_probe(spans, s):
            n += 1
        elif (s.name in ("spectra.entanglement_result",
                         "stability.stability_verdict")
              and s.parent is not None):
            parent = spans[s.parent]
            n += parent.parent is None or parent.name == "cli.main"
    return n


# name -> unit of every per-layer metric, in print order
PER_LAYER = {
    "spectra.density.self_us": "us",
    "spectra.density.nodes": "count",
    "spectra.ns_per_node": "ns",
    "quadrature.integrate_adaptive.self_us": "us",
    "quadrature.n_eval_per_integral": "count",
    "quadrature.panels_per_integral": "count",
    "quadrature.depth_p50": "count",
    "quadrature.depth_max": "count",
    "quadrature.useful_eval_ratio": "ratio",
    "spectra.momentum_variance.self_us": "us",
    "spectra.entanglement_result.self_us": "us",
    "spectra.mesh_points": "count",
    "stability.stability_verdict.calls": "count",
    "stability.stability_verdict.self_us": "us",
    "stability.eigenvalues.calls": "count",
    "stability.eig4_per_point": "count",
    "steady.find_steady_branches.self_us": "us",
    "steady.branches_per_solve": "count",
    "steady.steady_state_at_detuning.self_us": "us",
    "model.derive_params.calls": "count",
    "model.derive_params.self_us": "us",
    "sweep.run_sweep.self_us": "us",
    "sweep.probes_per_minimize": "count",
    "sweep.unstable_row_share": "ratio",
    "sweep.minimize_over_detuning.self_us": "us",
    "cli.main.self_us": "us",
    "cli.parse_config.self_us": "us",
    "cli.bytes_out": "bytes",
    "trace.overhead_ratio": "ratio",
}

# per-layer metrics that count work rather than time it: with the same
# inputs they repeat exactly
COUNTERS = tuple(k for k in PER_LAYER
                 if not k.endswith("self_us")
                 and k not in ("spectra.ns_per_node", "trace.overhead_ratio"))


def layer_metrics(spans: list[Span], passes: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics of ``passes`` identical traced passes.

    ``*.self_us`` is the mean self time per call; ``*.calls`` and
    ``spectra.density.nodes`` are per pass; the other counters are means
    over the calls they describe.  A layer the work never reached reads 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, selfs):
        calls[s.name] += 1
        self_ns[s.name] += t

    def self_us(name):
        return self_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def attrs(name):
        return [s.attrs for s in spans if s.name == name]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    quad = attrs("quadrature.integrate_adaptive")
    depths = [q["depth"] for q in quad]
    n_eval = sum(q["n_eval"] for q in quad)
    nodes = sum(a["nodes"] for a in attrs("spectra.density"))
    sweeps = attrs("sweep.run_sweep")
    rows = sum(a["rows"] for a in sweeps)
    probes = sum(_is_probe(spans, s) for s in spans)
    eig4 = sum((s.attrs or {}).get("eig4", 0) for s in spans)
    roots = [s for s in spans if s.parent is None]
    mains = [s for s in spans if s.name == "cli.main"]

    out = {
        "spectra.density.self_us": self_us("spectra.density"),
        "spectra.density.nodes": nodes / passes,
        "spectra.ns_per_node": ratio(self_ns["spectra.density"], nodes),
        "quadrature.integrate_adaptive.self_us":
            self_us("quadrature.integrate_adaptive"),
        "quadrature.n_eval_per_integral": ratio(n_eval, len(quad)),
        "quadrature.panels_per_integral":
            mean([q["panels"] for q in quad]),
        "quadrature.depth_p50":
            float(statistics.median(depths)) if depths else 0.0,
        "quadrature.depth_max": float(max(depths, default=0)),
        "quadrature.useful_eval_ratio":
            ratio(15 * sum(q["panels"] for q in quad), n_eval),
        "spectra.momentum_variance.self_us":
            self_us("spectra.momentum_variance"),
        "spectra.entanglement_result.self_us":
            self_us("spectra.entanglement_result"),
        "spectra.mesh_points": mean([q["mesh"] for q in quad]),
        "stability.stability_verdict.calls":
            calls["stability.stability_verdict"] / passes,
        "stability.stability_verdict.self_us":
            self_us("stability.stability_verdict"),
        "stability.eigenvalues.calls": calls["stability.eigenvalues"] / passes,
        "stability.eig4_per_point": ratio(eig4, operating_points(spans)),
        "steady.find_steady_branches.self_us":
            self_us("steady.find_steady_branches"),
        "steady.branches_per_solve": mean(
            [a["branches"] for a in attrs("steady.find_steady_branches")]),
        "steady.steady_state_at_detuning.self_us":
            self_us("steady.steady_state_at_detuning"),
        "model.derive_params.calls": calls["model.derive_params"] / passes,
        "model.derive_params.self_us": self_us("model.derive_params"),
        "sweep.run_sweep.self_us": self_us("sweep.run_sweep"),
        "sweep.probes_per_minimize":
            ratio(probes, calls["sweep.minimize_over_detuning"]),
        "sweep.unstable_row_share":
            ratio(sum(a["unstable"] for a in sweeps), rows),
        "sweep.minimize_over_detuning.self_us":
            self_us("sweep.minimize_over_detuning"),
        "cli.main.self_us": self_us("cli.main"),
        "cli.parse_config.self_us": self_us("cli.parse_config"),
        "cli.bytes_out": ratio(
            sum((r.attrs or {}).get("bytes_out", 0) for r in roots),
            len(mains)),
        "trace.overhead_ratio": overhead_ratio,
    }
    assert list(out) == list(PER_LAYER)
    return out
