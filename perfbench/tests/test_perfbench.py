"""Tests for the benchmark: span arithmetic, wrapper rebinding, reference digests.

    python3 -m pytest perfbench/tests -q
"""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import spans  # noqa: E402
from spans import Span, Tracer, install, merged_length, missing_calls, self_times  # noqa: E402


def test_merged_length_unions_overlaps():
    assert merged_length([]) == 0.0
    assert merged_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert merged_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.7)]) == 3.0


def test_self_time_of_nested_spans():
    spans_ = [
        Span("outer", None, 1, None, 0.0, 10.0),
        Span("child", None, 1, 0, 1.0, 4.0),
        Span("grandchild", None, 1, 1, 2.0, 3.0),
        Span("child", None, 1, 0, 5.0, 6.0),
    ]
    assert self_times(spans_) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    spans_ = [
        Span("outer", None, 1, None, 0.0, 10.0),
        Span("a", None, 2, 0, 8.0, 12.0),
        Span("b", None, 3, 0, 7.0, 9.0),
    ]
    # children cover [7, 10] of the parent's interval
    assert self_times(spans_)[0] == pytest.approx(7.0)


def test_pool_thread_spans_are_roots_of_their_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(_):
        outer = tracer.open("work")
        inner = tracer.open("inner")
        barrier.wait(timeout=10)
        tracer.close(inner)
        tracer.close(outer)
        return threading.get_ident()

    top = tracer.open("wait")
    with ThreadPoolExecutor(max_workers=2) as pool:
        threads = set(pool.map(work, range(2)))
    tracer.close(top)

    assert len(threads) == 2
    by_name = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append((i, s))
    assert by_name["wait"][0][1].parent is None
    for _, s in by_name["work"]:
        assert s.parent is None and s.thread in threads
    for _, s in by_name["inner"]:
        parent = tracer.spans[s.parent]
        assert parent.name == "work" and parent.thread == s.thread
    summary = spans.summarize(tracer)
    assert summary["work.calls"] == 2 and summary["inner.calls"] == 2
    # the waiting span keeps the whole wait: pool spans are not its children
    wait = by_name["wait"][0][1]
    assert summary["wait.self_s"] == pytest.approx(wait.end - wait.start)
    work_total = sum(s.end - s.start for _, s in by_name["work"])
    inner_total = sum(s.end - s.start for _, s in by_name["inner"])
    assert summary["work.self_s"] == pytest.approx(work_total - inner_total)


def _fake_package(name):
    pkg = types.ModuleType(name)
    a = types.ModuleType(name + ".a")
    b = types.ModuleType(name + ".b")

    def f(x):
        return x + 1

    def g(x):
        return a.f(x) * 2

    a.f, a.g = f, g
    b.f = f                      # bound by `from .a import f`
    b.table = {"f": f}           # held in a module-level dict
    mods = {name: pkg, name + ".a": a, name + ".b": b}
    return mods, f


def test_install_rebinds_every_namespace_and_restores(monkeypatch):
    mods, f = _fake_package("fakepkg_rebind")
    for key, mod in mods.items():
        monkeypatch.setitem(sys.modules, key, mod)
    a, b = mods["fakepkg_rebind.a"], mods["fakepkg_rebind.b"]
    tracer = Tracer()
    with install(tracer, package="fakepkg_rebind",
                 functions=[("a", "f", "a.f", None)], runners=None):
        assert a.f is b.f is b.table["f"] is not f
        assert b.f(1) == 2 and a.g(1) == 4
    assert a.f is b.f is b.table["f"] is f
    summary = spans.summarize(tracer)
    assert summary["a.f.calls"] == 2
    assert missing_calls(summary, ["a.f", "a.g"]) == ["a.g"]


def test_install_wraps_weyl_lab_imports_and_methods(tmp_path):
    import weyl_lab.cli as cli
    from weyl_lab import manifolds, projector, randomwaves, smoothing, specfun

    originals = (specfun.legendre_p, smoothing.SmoothedProjector.__init__,
                 dict(cli.RUNNERS))
    tracer = Tracer()
    with install(tracer):
        assert manifolds.legendre_p is specfun.legendre_p is not originals[0]
        assert projector.spectral_function is manifolds.spectral_function
        assert randomwaves.gaussian_matrix.__wrapped_original__.__module__ == "weyl_lab.rng"
        assert smoothing.SmoothedProjector.__init__ is not originals[1]
        assert all(hasattr(fn, "__wrapped_original__") for fn in cli.RUNNERS.values())
        assert not any(vars(m).get("legendre_p") is originals[0]
                       for m in spans._package_modules("weyl_lab"))
        cli.main.main(args=["kernel", "--manifold", "sphere2", "--lambda", "1.5",
                            "--out", str(tmp_path)], standalone_mode=False)
    assert specfun.legendre_p is manifolds.legendre_p is originals[0]
    assert smoothing.SmoothedProjector.__init__ is originals[1]
    assert cli.RUNNERS == originals[2]
    summary = spans.summarize(tracer)
    assert summary["cli.runner.calls"] == 1
    assert summary["manifolds.spectral_function.calls"] == 1
    assert summary["specfun.legendre_p.calls"] >= 1
    assert summary["cli.write_outputs.bytes"] > 0


def test_reference_digest_tolerance():
    import numpy as np
    from workload import RTOL, compare_digest, digest

    ref = digest(np.array([3.0, -1.0, 2.5, 10.0]))
    assert compare_digest("c", digest([3.0, -1.0, 2.5, 10.0 * (1 + RTOL / 10)]), ref) == []
    assert compare_digest("c", digest([3.0, -1.0, 2.5, 10.0 * (1 + 100 * RTOL)]), ref)
    assert compare_digest("c", digest([-1.0, 3.0, 2.5, 10.0]), ref)  # reordered rows
    assert compare_digest("c", digest([3.0, -1.0, 2.5]), ref) == ["c: 3 rows, reference has 4"]
