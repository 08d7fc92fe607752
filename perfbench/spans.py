"""Spans and counters recorded around calls into weyl_lab, from outside it.

`install` replaces each traced function with a wrapper in every `weyl_lab.*`
module namespace (and module-level dict, such as `cli.RUNNERS`) that holds
it, because `from .x import f` binds names at import time.  A traced run
fails when a span expected on its workload records no call
(`missing_calls`), which catches a binding the rebinding missed.  Methods are
wrapped on their class.  Each wrapper records one span; spans keep a
per-thread stack, so work done in a thread pool becomes root spans of the
pool threads and the span that waits for the pool keeps the wait as self
time.

A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    item: str | None
    thread: int
    parent: int | None
    start: float
    end: float = float("nan")


class Tracer:
    """In-memory span and counter store; `item` labels what is running."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.item: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        # per item: [largest dual_vectors call, all dual_vectors points]
        self.enum_points: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        # per item: {(seed, sample): largest mode count drawn}
        self.draw_keys: dict[str, dict] = defaultdict(dict)

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, self.item, threading.get_ident(), parent, 0.0)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float):
        with self._lock:
            self.counters[key] += value

    def raise_to(self, key: str, value: float):
        with self._lock:
            self.counters[key] = max(self.counters[key], value)


def merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = merged_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[i]
            if min(c.end, s.end) > max(c.start, s.start))
        out.append((s.end - s.start) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, float]:
    """`<span>.calls` and `<span>.self_s` for every span name, plus the
    counters and two useful-work ratios:

    - lattice.dual_vectors.useful_frac: per item, the points of its largest
      enumeration; summed over items, over all points enumerated.
    - rng.gaussian_matrix.useful_frac: per item, the distinct
      (seed, sample, mode) draws; summed over items, over all draws made.
    """
    out: dict[str, float] = defaultdict(float)
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[s.name + ".calls"] += 1
        out[s.name + ".self_s"] += self_s
    out.update(tracer.counters)
    largest = sum(v[0] for v in tracer.enum_points.values())
    total = sum(v[1] for v in tracer.enum_points.values())
    out["lattice.dual_vectors.useful_frac"] = largest / total if total else 1.0
    distinct = sum(sum(d.values()) for d in tracer.draw_keys.values())
    drawn = out.get("rng.gaussian_matrix.draws", 0.0)
    out["rng.gaussian_matrix.useful_frac"] = distinct / drawn if drawn else 1.0
    return dict(out)


# ---------------------------------------------------------------------------
# counters taken from call arguments and return values


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_dual_vectors(tracer, args, kwargs, out):
    points = int(out[1].shape[0])
    tracer.add("lattice.dual_vectors.points", points)
    tracer.raise_to("lattice.dual_vectors.out_mb", sum(a.nbytes for a in out) / MIB)
    item = tracer.enum_points[tracer.item]
    item[0] = max(item[0], points)
    item[1] += points


def _count_legendre(tracer, args, kwargs, out):
    degree = int(_arg(args, kwargs, 0, "l"))
    tracer.add("specfun.legendre_p.steps", degree * np.size(out))


def _counter(key, measure):
    """Counter adding `measure(result)` to `key`."""
    return lambda tracer, args, kwargs, out: tracer.add(key, measure(out))


def _count_draws(tracer, args, kwargs, out):
    seed = int(_arg(args, kwargs, 0, "seed"))
    samples = np.asarray(_arg(args, kwargs, 1, "sample_indices")).ravel()
    n_modes = int(_arg(args, kwargs, 2, "n_modes"))
    tracer.add("rng.gaussian_matrix.draws", samples.size * n_modes)
    with tracer._lock:
        seen = tracer.draw_keys[tracer.item]
        for s in np.unique(samples).tolist():
            key = (seed, s)
            seen[key] = max(seen.get(key, 0), n_modes)


def _count_write(tracer, args, kwargs, csv_path):
    manifest = csv_path.with_name(csv_path.name[:-len(".csv")] + ".manifest.json")
    tracer.add("cli.write_outputs.bytes", csv_path.stat().st_size + manifest.stat().st_size)


# (module, attribute, span name, counter); an attribute "Class.method" is
# wrapped on the class
FUNCTIONS = [
    ("lattice", "dual_vectors", "lattice.dual_vectors", _count_dual_vectors),
    ("lattice", "deck_images", "lattice.deck_images",
     _counter("lattice.deck_images.images", len)),
    ("lattice", "torus_log", "lattice.torus_log", None),
    ("manifolds", "spectral_function", "manifolds.spectral_function", None),
    ("manifolds", "cluster_kernel", "manifolds.cluster_kernel", None),
    ("manifolds", "eigenlevels", "manifolds.eigenlevels", None),
    ("specfun", "legendre_p", "specfun.legendre_p", _count_legendre),
    ("specfun", "bessel_ratio", "specfun.bessel_ratio",
     _counter("specfun.bessel_ratio.points", np.size)),
    ("specfun", "bessel_j", "specfun.bessel_j", None),
    ("smoothing", "multiplier_batch", "smoothing.multiplier_batch",
     _counter("smoothing.multiplier_batch.taus", np.size)),
    ("smoothing", "fit_h_decay", "smoothing.fit_h_decay", None),
    ("smoothing", "SmoothedProjector.__init__", "smoothing.SmoothedProjector.build", None),
    ("smoothing", "SmoothedProjector.spectral", "smoothing.SmoothedProjector.spectral", None),
    ("smoothing", "SmoothedProjector.images", "smoothing.SmoothedProjector.images", None),
    ("projector", "leading_term", "projector.leading_term", None),
    ("projector", "remainder_scan", "projector.scan", None),
    ("projector", "offdiagonal_scan", "projector.scan", None),
    ("randomwaves", "RandomWaveEnsemble.mode_values", "randomwaves.mode_values",
     _counter("randomwaves.mode_values.values", np.size)),
    ("randomwaves", "RandomWaveEnsemble.coefficients", "randomwaves.coefficients", None),
    ("randomwaves", "empirical_covariance", "randomwaves.covariance", None),
    ("randomwaves", "exact_covariance", "randomwaves.covariance", None),
    ("randomwaves", "rescaled_covariance_error", "randomwaves.covariance", None),
    ("rng", "gaussian_matrix", "rng.gaussian_matrix", _count_draws),
    ("analysis", "cluster_sup_scan", "analysis.cluster_sup_scan", None),
    ("analysis", "localized_sum", "analysis.localized", None),
    ("analysis", "localized_integral", "analysis.localized", None),
    ("cli", "write_outputs", "cli.write_outputs", _count_write),
]
# every subcommand runner in cli.RUNNERS records as this span
RUNNER_SPAN = "cli.runner"
# spans whose calls also take a tracemalloc peak (kept out of all others,
# because tracing every allocation slows the whole run)
PEAK_SPANS = {"lattice.dual_vectors"}


def wrap(tracer: Tracer, name: str, fn, count=None):
    """`fn` recording a span `name`; `count` sees the call's arguments and
    result.  Spans in PEAK_SPANS also record their tracemalloc peak."""
    peak = name in PEAK_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        owns = peak and not tracemalloc.is_tracing()
        if owns:
            tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            if owns:
                tracer.raise_to(name + ".peak_mb", tracemalloc.get_traced_memory()[1] / MIB)
        finally:
            if owns:
                tracemalloc.stop()
            tracer.close(index)
        if count is not None:
            count(tracer, args, kwargs, out)
        return out

    wrapper.__wrapped_original__ = fn
    return wrapper


def _package_modules(package: str):
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))]


def _rebind(modules, original, replacement):
    """Replace `original` in every module namespace and module-level dict."""
    for mod in modules:
        space = vars(mod)
        for key, value in list(space.items()):
            if value is original:
                space[key] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


@contextlib.contextmanager
def install(tracer: Tracer, package: str = "weyl_lab", functions=FUNCTIONS,
            runners: str | None = "cli.RUNNERS"):
    """Wrap the traced functions (and every entry of the `runners` dict) for
    the duration of the block, then restore the originals."""
    undo = []

    def bind(fn, wrapper):
        _rebind(_package_modules(package), fn, wrapper)
        undo.append(lambda: _rebind(_package_modules(package), wrapper, fn))

    try:
        for module_name, attr, span, count in functions:
            mod = importlib.import_module(package + "." + module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = vars(cls)[meth]
                setattr(cls, meth, wrap(tracer, span, fn, count))
                undo.append(lambda c=cls, m=meth, f=fn: setattr(c, m, f))
            else:
                fn = getattr(mod, attr)
                bind(fn, wrap(tracer, span, fn, count))
        if runners:
            module_name, attr = runners.rsplit(".", 1)
            table = getattr(importlib.import_module(package + "." + module_name), attr)
            for fn in list(table.values()):
                bind(fn, wrap(tracer, RUNNER_SPAN, fn))
        yield tracer
    finally:
        while undo:
            undo.pop()()


def missing_calls(summary: dict[str, float], expected) -> list[str]:
    """Expected span names that recorded no call."""
    return [name for name in expected if not summary.get(name + ".calls")]
