"""Span recording, patching and the self-time arithmetic."""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import rep
import spec
import tracing


def span(span_id, parent, name, start, end):
    return (span_id, parent, name, float(start), float(end))


def test_self_time_subtracts_nested_children_once():
    spans = [
        span(1, None, "outer", 0, 10),
        span(2, 1, "middle", 2, 6),
        span(3, 2, "inner", 3, 4),
    ]
    assert tracing.self_times(spans) == {1: 6.0, 2: 3.0, 3: 1.0}


def test_self_time_merges_overlapping_siblings():
    # Two children running concurrently on threads cover [1, 6] once.
    spans = [
        span(1, None, "router", 0, 10),
        span(2, 1, "shard", 1, 5),
        span(3, 1, "shard", 2, 6),
        span(4, 1, "shard", 8, 9),
    ]
    assert tracing.self_times(spans)[1] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, None, "a", 0, 4), span(2, 1, "b", 3, 7)]
    assert tracing.self_times(spans) == {1: 3.0, 2: 4.0}


def test_rollup_sums_self_time_per_name():
    spans = [
        span(1, None, "a", 0, 10),
        span(2, 1, "b", 1, 3),
        span(3, 1, "b", 4, 5),
    ]
    table = tracing.rollup(spans)
    assert table["a"] == {"calls": 1.0, "self_s": 7.0, "inclusive_s": 10.0}
    assert table["b"] == {"calls": 2.0, "self_s": 3.0, "inclusive_s": 3.0}


def test_wrapped_calls_record_their_callers():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    outer()
    assert recorder.spans == []  # nothing is kept while inactive
    recorder.active = True
    outer()
    (inner_span, outer_span) = recorder.spans
    assert (inner_span[2], outer_span[2]) == ("inner", "outer")
    assert inner_span[1] == outer_span[0] and outer_span[1] is None
    assert outer_span[3] <= inner_span[3] <= inner_span[4] <= outer_span[4]


def test_executor_tasks_parent_under_the_submitting_span():
    recorder = tracing.Recorder()
    recorder.active = True
    undo = tracing.propagate_context_to_threads()
    try:
        child = recorder.wrap("child", lambda: threading.get_ident())
        with ThreadPoolExecutor(max_workers=2) as pool:
            def fan_out():
                return [f.result() for f in [pool.submit(child), pool.submit(child)]]

            recorder.wrap("parent", fan_out)()
    finally:
        undo()
    parent = next(s for s in recorder.spans if s[2] == "parent")
    children = [s for s in recorder.spans if s[2] == "child"]
    assert len(children) == 2
    assert all(s[1] == parent[0] for s in children)


@pytest.fixture
def fixture_modules():
    """``repro._bench_a`` defines f and a class; ``repro._bench_b`` imports f by name."""
    import repro

    a = types.ModuleType("repro._bench_a")
    exec(
        "def f(x):\n    return x + 1\n"
        "class Thing:\n"
        "    def method(self):\n        return 1\n"
        "    @staticmethod\n    def static():\n        return 2\n"
        "    @property\n    def prop(self):\n        return 3\n",
        a.__dict__,
    )
    b = types.ModuleType("repro._bench_b")
    b.f = a.f
    exec("def call(x):\n    return f(x)\n", b.__dict__)
    sys.modules["repro._bench_a"] = a
    sys.modules["repro._bench_b"] = b
    setattr(repro, "_bench_a", a)
    yield a, b
    del sys.modules["repro._bench_a"], sys.modules["repro._bench_b"]
    delattr(repro, "_bench_a")


def test_patch_replaces_every_binding_of_a_function(fixture_modules):
    a, b = fixture_modules
    recorder = tracing.Recorder()
    recorder.active = True
    tracing.patch(recorder, "layer.f", "repro._bench_a:f")
    assert b.call(1) == 2 and a.f(2) == 3
    assert [s[2] for s in recorder.spans] == ["layer.f", "layer.f"]


def test_patch_keeps_the_descriptor_kind(fixture_modules):
    a, _ = fixture_modules
    recorder = tracing.Recorder()
    recorder.active = True
    for attr in ("method", "static", "prop"):
        tracing.patch(recorder, f"layer.{attr}", f"repro._bench_a:Thing.{attr}")
    thing = a.Thing()
    assert (thing.method(), a.Thing.static(), thing.prop) == (1, 2, 3)
    assert sorted(s[2] for s in recorder.spans) == ["layer.method", "layer.prop", "layer.static"]


def test_every_span_target_exists():
    from importlib import import_module

    for targets in spec.SPAN_TARGETS.values():
        for target in targets:
            module_name, _, qualname = target.partition(":")
            owner = import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            assert attr in vars(owner), target


def test_layer_metrics_arithmetic():
    main = [
        span(1, None, "experiments.fig6", 0, 10),
        span(2, 1, "core.design", 1, 5),
        span(3, 2, "core.sweep", 2, 3),
        span(4, 1, "core.design", 6, 7),
    ]
    metrics = rep.layer_metrics("paper_repro", main, [], wall_s=20.0, extras={})
    assert metrics["experiments.fig6_s"] == 10.0  # inclusive rollup
    assert metrics["core.design_s"] == 4.0
    assert metrics["core.sweep_s"] == 1.0
    assert metrics["core.design_calls"] == 2.0
    assert metrics["core.candidate_cache_hit_rate"] == 0.5
    assert metrics["trace.coverage"] == pytest.approx(5.0 / 20.0)
    assert set(metrics) == {name for name, _, _ in spec.PER_LAYER}


def test_serve_layer_metrics_split_client_latency():
    main = [
        span(2, None, "serving.cluster.codec", 0, 1),
        span(3, None, "serving.cluster.router", 2, 8),
        span(4, 3, "serving.cluster.shard_call", 3, 7),
    ]
    shard = [span(1, None, "core.design", 4, 6)]
    extras = {
        "client_latency_s": 10.0,
        "serving.cache_hit_rate": 0.97,
        "serving.cluster.retries": 0.0,
    }
    metrics = rep.layer_metrics("serve_mixed", main, [shard], wall_s=5.0, extras=extras)
    assert metrics["serving.cluster.frontend_s"] == 4.0
    assert metrics["serving.cluster.router_s"] == 2.0
    assert metrics["core.design_s"] == 2.0
    # Shard spans sit inside the shard call, so coverage counts them once.
    assert metrics["trace.coverage"] == pytest.approx((1.0 + 2.0 + 4.0) / 10.0)
