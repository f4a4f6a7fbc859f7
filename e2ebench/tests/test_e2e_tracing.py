"""Span recording, self-time attribution and wrap-target discovery."""

import importlib

import pytest

import tracing


class FakeClock:
    """Returns the next scripted time on every call."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_nested_wrapped_calls_get_exact_self_times():
    # root [0, 20]; outer [1, 15] calls inner twice: [2, 5] and [6, 12].
    clock = FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 12.0, 15.0, 20.0])
    tracer = tracing.Tracer(clock=clock)

    def inner():
        return None

    traced_inner = tracer.wrap(inner, "mod.inner", "sta")

    def outer():
        traced_inner()
        traced_inner()

    traced_outer = tracer.wrap(outer, "mod.outer", "synth")
    with tracer.span("cold", tracing.ROOT_LAYER):
        traced_outer()

    roll = tracing.rollup(tracer.spans)
    functions = roll["functions"]
    assert functions["mod.inner"]["calls"] == 2
    assert functions["mod.inner"]["self_s"] == 9.0
    assert functions["mod.outer"]["self_s"] == 14.0 - 9.0
    assert functions["mod.outer"]["total_s"] == 14.0
    assert roll["layers"] == {"sta": 9.0, "synth": 5.0}
    assert roll["unattributed_s"] == 20.0 - 14.0
    assert roll["wall_s"] == 20.0


def test_recursive_calls_count_once_per_instant():
    clock = FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    tracer = tracing.Tracer(clock=clock)
    depth = []

    def walk():
        depth.append(1)
        if len(depth) < 2:
            traced()

    traced = tracer.wrap(walk, "mod.walk", "sim")
    with tracer.span("cold", tracing.ROOT_LAYER):
        traced()
    roll = tracing.rollup(tracer.spans)
    assert roll["functions"]["mod.walk"]["self_s"] == 3.0
    assert roll["functions"]["mod.walk"]["total_s"] == 4.0
    assert sum(roll["layers"].values()) + roll["unattributed_s"] == 10.0


def test_concurrent_children_never_exceed_the_root():
    tracer = tracing.Tracer()
    root = tracer.record("cold", tracing.ROOT_LAYER, 0.0, 10.0, None)
    tracer.record("serve.request", "serve", 1.0, 4.0, root)
    tracer.record("serve.request", "serve", 2.0, 6.0, root)
    tracer.record("serve.request", "serve", 8.0, 9.0, root)
    roll = tracing.rollup(tracer.spans)
    assert roll["layers"]["serve"] == 6.0  # [1, 6] and [8, 9]
    assert roll["unattributed_s"] == 4.0
    assert roll["layers"]["serve"] + roll["unattributed_s"] == 10.0


def test_every_wrap_target_is_found_and_restored():
    tracer = tracing.Tracer()
    originals = {}
    for name, __, module_name, attr in tracing.TARGETS:
        module = importlib.import_module(module_name)
        owner_name, __, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        originals[name] = (owner, leaf, vars(owner)[leaf])
    sites = tracer.install()
    try:
        assert set(sites) == {target[0] for target in tracing.TARGETS}
        assert all(count >= 1 for count in sites.values()), sites
        for name, (owner, leaf, original) in originals.items():
            assert vars(owner)[leaf] is not original, name
    finally:
        tracer.uninstall()
    for name, (owner, leaf, original) in originals.items():
        assert vars(owner)[leaf] is original, name


def test_from_imports_are_patched_too():
    import repro.inject.campaign as campaign
    import repro.mc.engine as mc_engine
    from repro.sta import engine
    original = engine.compile_timing
    tracer = tracing.Tracer()
    sites = tracer.install([("sta.compile_timing", "sta", "repro.sta.engine",
                             "compile_timing")])
    try:
        # Both modules bound it with ``from ..sta.engine import ...``.
        assert engine.compile_timing is not original
        assert campaign.compile_timing is engine.compile_timing
        assert mc_engine.compile_timing is engine.compile_timing
        assert sites["sta.compile_timing"] >= 3
    finally:
        tracer.uninstall()
    assert campaign.compile_timing is original
    assert mc_engine.compile_timing is original


def test_a_moved_target_fails_loudly():
    tracer = tracing.Tracer()
    with pytest.raises(LookupError):
        tracer.install([("sta.gone", "sta", "repro.sta.engine",
                         "no_such_function")])
    with pytest.raises(LookupError):
        tracer.install([("sta.gone", "sta", "repro.sta.engine",
                         "NoSuchClass.method")])
    tracer.uninstall()


def test_chrome_trace_layout():
    tracer = tracing.Tracer()
    root = tracer.record("cold", tracing.ROOT_LAYER, 1.0, 3.0, None)
    tracer.record("sta.analyze_batch", "sta", 1.5, 2.0, root)
    trace = tracing.chrome_trace([(7, "cold", "paper", tracer.spans)])
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["cold", "sta.analyze_batch"]
    assert events[1]["ts"] == 0.5e6 and events[1]["dur"] == 0.5e6
    assert events[1]["args"]["parent"] == root
    assert events[1]["args"]["workload"] == "paper"
