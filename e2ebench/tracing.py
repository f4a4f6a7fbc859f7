"""Span recording around the public functions of each program layer.

The benchmark attributes time to the ``src/repro`` layers without
touching the program: :class:`Tracer` replaces each public function
named in :data:`TARGETS` with a wrapper that records one span per call
(name, layer, start, end, parent, thread), and restores the originals
afterwards.

* A module-level function is patched in its defining module *and* in
  every ``repro`` module that bound it with ``from x import y``, because
  such an import keeps its own reference. :meth:`Tracer.install`
  returns the number of import sites patched per target and raises if a
  target cannot be found, so a refactor that moves a function fails
  loudly instead of reporting zero time.
* A method is patched on its class.

Self time is attributed along the time line: every instant of a root
span goes to the deepest span open at that instant (ties go to the
later-started one). On one thread this is the usual "span duration
minus the part its child spans cover"; with concurrent children (the
served workload's in-flight requests) an instant still counts once, so
the self times of a root's subtree always add up to its duration.
"""

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict

#: ``(metric name, layer, module, attribute)``: one wrapper each. The
#: attribute is ``"func"`` for a module function or ``"Class.method"``.
TARGETS = (
    ("synth.synthesize", "synth", "repro.synth.synthesize", "synthesize"),
    ("synth.synthesize_variant", "synth", "repro.synth.sweep",
     "synthesize_variant"),
    ("synth.aging_aware_synthesize", "synth", "repro.synth.aging_aware",
     "aging_aware_synthesize"),
    ("sta.compile_timing", "sta", "repro.sta.engine", "compile_timing"),
    ("sta.analyze_batch", "sta", "repro.sta.engine", "analyze_batch"),
    ("sta.analyze_incremental", "sta", "repro.sta.engine",
     "analyze_incremental"),
    ("sta.critical_path_delay", "sta", "repro.sta.sta",
     "critical_path_delay"),
    ("sta.corner_delays", "sta", "repro.sta.engine", "corner_delays"),
    ("aging.gate_delays", "aging", "repro.aging.delay", "gate_delays"),
    ("sim.compile_netlist", "sim", "repro.sim.logic", "compile_netlist"),
    ("sim.simulate_activity", "sim", "repro.sim.activity",
     "simulate_activity"),
    ("sim.extract_stress", "sim", "repro.sim.activity", "extract_stress"),
    ("sim.timed", "sim", "repro.sim.timing", "TimedSimulator.run_stream"),
    ("core.characterize", "core", "repro.core.characterize",
     "characterize"),
    ("core.microarch_timing", "core", "repro.core.microarch",
     "Microarchitecture.timing"),
    ("core.netlist_memo", "core", "repro.core.cache",
     "synthesize_netlist_memoized"),
    ("core.cache.load", "core", "repro.core.cache",
     "CharacterizationCache.load_with_source"),
    ("core.cache.store", "core", "repro.core.cache",
     "CharacterizationCache.store"),
    ("approx.timed_model_build", "approx", "repro.approx.gate_level",
     "TimedComponentModel.__init__"),
    ("approx.apply", "approx", "repro.approx.gate_level",
     "TimedComponentModel.apply"),
    ("approx.error_statistics", "approx", "repro.approx.gate_level",
     "TimedComponentModel.error_statistics"),
    ("media.roundtrip", "media", "repro.media.codec",
     "TransformCodec.roundtrip"),
    ("quality.psnr_db", "quality", "repro.quality.metrics", "psnr_db"),
    ("inject.build_faultload", "inject", "repro.inject.faultload",
     "build_faultload"),
    ("inject.evaluate_packed_injected", "inject", "repro.inject.inject_sim",
     "evaluate_packed_injected"),
    ("inject.bernoulli_words", "inject", "repro.inject.masks",
     "bernoulli_words"),
    ("inject.run_campaign", "inject", "repro.inject.campaign",
     "run_campaign"),
    ("mc.analyze_mc", "mc", "repro.mc.engine", "analyze_mc"),
    ("mc.run_mc", "mc", "repro.mc.yield_curves", "run_mc"),
)

def _timed_probe(args, kwargs, result):
    stream = args[1] if len(args) > 1 else kwargs["stream_bits"]
    return {"vectors": len(stream),
            "violating": int(result.any_violation.sum())}


#: Per-call attributes read from a target's arguments and result, after
#: its span has closed (so the probe's own time is not attributed).
PROBES = {"sim.timed": _timed_probe}

#: Wrappers left out because their own cost would swamp their layer:
#: ``(module, attribute, reason)``. Printed with every traced run.
DROPPED = (
    ("repro.sim.bitpack", "packed_cell_function",
     "~42k calls per timed_sim cold pass at under 1 us each; a 2-3 us "
     "wrapper would quadruple its time, which stays in the calling "
     "sim spans instead"),
)

#: Root spans the benchmark opens itself, one per timed pass.
ROOT_LAYER = "pass"


class Tracer:
    """Records spans in memory; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._local = threading.local()
        self._patches = []
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, layer, start, end, parent, attrs=None):
        """Append one finished (or, with ``end=None``, open) span."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name, "layer": layer,
                               "start": start, "end": end, "parent": parent,
                               "tid": threading.get_ident(),
                               "attrs": attrs or {}})
        return span_id

    @contextlib.contextmanager
    def span(self, name, layer):
        """Open a span around a block, under the innermost open span of
        this thread. Spans that interleave on one thread (asyncio tasks)
        must use :meth:`record` instead.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        slot = self.record(name, layer, self.clock(), None, parent)
        stack.append(slot)
        try:
            yield slot
        finally:
            stack.pop()
            self.spans[slot]["end"] = self.clock()

    def wrap(self, fn, name, layer):
        """Return *fn* wrapped to record one span per call."""
        tracer = self
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            with tracer._lock:
                slot = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(slot)
            start = tracer.clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = tracer.clock()
                stack.pop()
                attrs = {}
                if probe is not None and result is not None:
                    attrs = probe(args, kwargs, result)
                tracer.spans[slot] = {
                    "id": slot, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "tid": threading.get_ident(), "attrs": attrs}

        return traced

    # -- patching -----------------------------------------------------
    def install(self, targets=TARGETS):
        """Patch every target; return ``{metric name: import sites}``.

        Raises :class:`LookupError` when a target's module or attribute
        is gone, or when no import site holds the original object.
        """
        sites = {}
        for name, layer, module_name, attr in targets:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise LookupError("wrap target %s.%s not found"
                                      % (module_name, attr))
                original = vars(cls)[meth]
                self._patch(cls, meth, self.wrap(original, name, layer))
                sites[name] = 1
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                raise LookupError("wrap target %s.%s not found"
                                  % (module_name, attr))
            wrapper = self.wrap(original, name, layer)
            count = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
                        count += 1
            if count == 0:
                raise LookupError("wrap target %s.%s has no import site"
                                  % (module_name, attr))
            sites[name] = count
        return sites

    def _patch(self, owner, key, value):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self):
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# self-time attribution
# ---------------------------------------------------------------------------

def _depths(spans):
    by_id = {span["id"]: span for span in spans}
    depths = {}
    for span in spans:
        chain = []
        node = span
        while node is not None and node["id"] not in depths:
            chain.append(node)
            node = by_id.get(node["parent"])
        base = depths[node["id"]] if node is not None else -1
        for item in reversed(chain):
            base += 1
            depths[item["id"]] = base
    return depths


def self_times(spans):
    """``{span id: self seconds}`` by time-line attribution.

    Each elementary interval between span boundaries goes to the deepest
    span open over it (ties: the later start, then the higher id).
    """
    depths = _depths(spans)
    events = []
    for span in spans:
        key = (depths[span["id"]], span["start"], span["id"])
        events.append((span["start"], 1, key))
        events.append((span["end"], 0, key))
    events.sort()
    active = set()
    result = defaultdict(float)
    last = None
    for when, opening, key in events:
        if active and when > last:
            result[max(active)[2]] += when - last
        last = when
        if opening:
            active.add(key)
        else:
            active.discard(key)
    return dict(result)


def rollup(spans):
    """Per-name and per-layer totals of a traced pass.

    Returns ``{"functions": {name: {"calls", "self_s", "total_s"}},
    "layers": {layer: self_s}, "unattributed_s", "wall_s"}``, where the
    root spans (layer :data:`ROOT_LAYER`) supply ``wall_s`` and their
    self time is the unattributed remainder.
    """
    own = self_times(spans)
    functions = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                     "total_s": 0.0})
    layers = defaultdict(float)
    wall = unattributed = 0.0
    for span in spans:
        self_s = own.get(span["id"], 0.0)
        if span["layer"] == ROOT_LAYER:
            wall += span["end"] - span["start"]
            unattributed += self_s
            continue
        entry = functions[span["name"]]
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["total_s"] += span["end"] - span["start"]
        layers[span["layer"]] += self_s
    return {"functions": dict(functions), "layers": dict(layers),
            "unattributed_s": unattributed, "wall_s": wall}


def wrapper_cost_s(calls=20000):
    """Measured cost of one wrapped call over a bare one, in seconds."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "noop", "calibration")
    best = float("inf")
    for __ in range(3):
        start = time.perf_counter()
        for __ in range(calls):
            noop()
        bare = time.perf_counter() - start
        del tracer.spans[:]
        start = time.perf_counter()
        for __ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)


def chrome_trace(passes):
    """Chrome-trace JSON object for ``[(pid, label, workload, spans)]``.

    Times are microseconds from the earliest span of all passes.
    """
    origin = min((span["start"] for __, __, __, spans in passes
                  for span in spans), default=0.0)
    events = []
    for pid, label, workload, spans in passes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": "%s %s" % (workload, label)}})
        tids = {}
        for span in spans:
            tid = tids.setdefault(span["tid"], len(tids))
            args = {"span_id": span["id"], "parent": span["parent"],
                    "workload": workload}
            args.update(span.get("attrs") or {})
            events.append({
                "name": span["name"], "cat": span["layer"], "ph": "X",
                "pid": pid, "tid": tid,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, passes):
    with open(path, "w") as handle:
        json.dump(chrome_trace(passes), handle)
