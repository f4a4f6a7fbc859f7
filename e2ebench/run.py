"""End-to-end benchmark of the paper pipeline, with per-layer attribution.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each exists): ``paper``, ``timed_sim``,
``campaigns`` and ``serve_mix``. One run repeats the workload's
iteration -- fresh interpreter(s) or a fresh server, set-up, a cold pass
and a warm pass -- until ``--seconds`` have passed, checks every output
(``gate.py``), prints a table and, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one more iteration runs with every layer wrapper installed
(``tracing.py``) and the metrics are the per-layer ones. The exit code
is 0 only when every output passed the gate.

``--record-golden`` runs one iteration at the default seed and writes
``golden/<workload>.json`` instead.
"""

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import gate  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("paper", "timed_sim", "campaigns", "serve_mix")
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150.0
#: Extra set-up-only child processes per run (in-process workloads), so
#: that ``setup_s`` is a median of several samples.
SETUP_PROBES = 8
OUT_DIR = os.path.join(ROOT, ".e2ebench_out")
WORK_DIR = os.path.join(ROOT, ".e2ebench_work")
LAYERS = ("synth", "sta", "aging", "sim", "core", "approx", "media",
          "quality", "inject", "mc", "serve")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("warm_s", "s"),
    ("peak_rss_mb", "MB"), ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env(workdir):
    """Environment of every program process: the checkout's ``src`` on
    the path, one worker, single-threaded BLAS, temp files inside the
    work directory, and no ambient cache from the caller."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "REPRO_JOBS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "TMPDIR": workdir,
    })
    return env


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest():
    import hashlib
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def stamp():
    """Facts that let a noisy run be traced back."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "commit": _git_commit(),
        "src_digest": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------

def _spawn_child(workload, phase, seed, cache_dir, trace, workdir, env):
    out = os.path.join(workdir, "%s-%s.json" % (workload, phase))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
         "--workload", workload, "--phase", phase, "--seed", str(seed),
         "--cache-dir", cache_dir, "--trace", str(int(trace)),
         "--out", out], cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s %s pass timed out" % (workload, phase))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError("%s %s pass exited %d" % (workload, phase, code))
    with open(out) as handle:
        result = json.load(handle)
    result["setup_s"] = result["ready"] - spawned
    return result


def run_iteration(workload, seed, trace, index):
    """One iteration; the layout every workload shares::

        {"setups": [s, ...], "passes": [cold, warm], "peak_rss_mb": mb,
         "traces": [(pid, label, spans), ...]}
    """
    workdir = os.path.join(WORK_DIR, "%s-%d-%d" % (workload, os.getpid(),
                                                   index))
    os.makedirs(workdir)
    env = child_env(workdir)
    try:
        if workload == "serve_mix":
            import serve_mix
            tracer = tracing.Tracer() if trace else None
            result = serve_mix.run_round(ROOT, workdir, seed, env, tracer)
            result["traces"] = ([(0, "client", tracer.spans)]
                                if tracer is not None else [])
            return result
        cache_dir = os.path.join(workdir, "cache")
        # A paper warm pass is short and runs in its own process: two of
        # them per iteration make warm_s a median of more samples.
        phases = ("cold",)
        if workload == "paper":
            phases = ("cold", "warm") if trace else ("cold", "warm", "warm")
        children = [_spawn_child(workload, phase, seed, cache_dir, trace,
                                 workdir, env) for phase in phases]
        passes = [p for child in children for p in child["passes"]]
        return {
            "setups": [child["setup_s"] for child in children],
            "passes": passes,
            "peak_rss_mb": max(child["peak_rss_mb"] for child in children),
            "traces": [(child["pid"], "/".join(p["label"]
                                               for p in child["passes"]),
                        child["spans"]) for child in children
                       if "spans" in child],
            "sites": children[0].get("sites", {}),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# gate and metrics
# ---------------------------------------------------------------------------

def apply_gate(workload, seed, iterations, golden):
    """Mark failed ops in place; return ``(attempted, failed, reasons)``."""
    attempted = failed = 0
    reasons = []
    for iteration in iterations:
        found = gate.check_iteration(workload, seed, DEFAULT_SEED,
                                     iteration, golden)
        if workload == "serve_mix" and iteration.get("queries"):
            import serve_mix
            for key in serve_mix.check_direct(
                    iteration["passes"][0]["outputs"], iteration["queries"]):
                found.append(("cold", key, "differs from direct "
                              "characterize()"))
        bad = {(label, key) for label, key, __ in found}
        reasons.extend(found)
        for run in iteration["passes"]:
            for op in run["ops"]:
                attempted += 1
                if op["error"]:
                    reasons.append((run["label"], op["name"], op["error"]))
                if op["error"] or (run["label"], op["name"]) in bad:
                    op["failed"] = True
                    failed += 1
    return attempted, failed, reasons


def percentile(values, q):
    """Nearest-rank percentile and the count of values above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _passes(iterations, label):
    return [run for it in iterations for run in it["passes"]
            if run["label"] == label]


def _pass(iteration, label):
    return _passes([iteration], label)[0]


def setup_probes(workload, seed):
    """Set-up times of :data:`SETUP_PROBES` set-up-only children."""
    if workload == "serve_mix":
        return []
    workdir = os.path.join(WORK_DIR, "%s-%d-setup" % (workload,
                                                      os.getpid()))
    os.makedirs(workdir)
    try:
        return [_spawn_child(workload, "setup", seed, workdir, False,
                             workdir, child_env(workdir))["setup_s"]
                for __ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(workload, iterations, probes=()):
    """``{name: (value, note)}`` for every end-to-end metric.

    Latency is per request on ``serve_mix``. On the in-process workloads
    the caller waits for a whole pass, so a cold pass is the request;
    their stages and points are too few and too unlike each other for a
    percentile of them to be steady.
    """
    setups = [s for it in iterations for s in it["setups"]] + list(probes)
    cold = _passes(iterations, "cold")
    warm = _passes(iterations, "warm")
    if workload == "serve_mix":
        latencies = [op["seconds"] * 1e3 for run in cold
                     for op in run["ops"]]
        unit = "requests"
    else:
        latencies = [run["wall_s"] * 1e3 for run in cold]
        unit = "cold passes"
    p50, __ = percentile(latencies, 0.50)
    p99, beyond = percentile(latencies, 0.99)
    rates = [len(run["ops"]) / run["wall_s"] for run in cold]
    n = len(iterations)
    return {
        "setup_s": (statistics.median(setups),
                    "median of %d set-ups" % len(setups)),
        "wall_s": (statistics.median(r["wall_s"] for r in cold),
                   "median of %d cold passes" % n),
        "warm_s": (statistics.median(r["wall_s"] for r in warm),
                   "median of %d warm passes" % len(warm)),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"]
                                          for it in iterations),
                        "median of %d iterations" % n),
        "requests_per_s": (statistics.median(rates),
                           "cold ops / cold wall_s, median of %d" % n),
        "latency_p50_ms": (p50, "%d %s" % (len(latencies), unit)),
        "latency_p99_ms": (p99, "%d %s, %d beyond p99"
                           % (len(latencies), unit, beyond)),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced_wall_s, cost_s):
    """``{name: (value, unit)}`` from the traced iteration."""
    cold = _pass(traced, "cold")
    warm = _pass(traced, "warm")
    spans = {"cold": [], "warm": []}
    for __, __, trace_spans in traced["traces"]:
        by_id = {s["id"]: s for s in trace_spans}
        for span in trace_spans:
            top = span
            while top["parent"] is not None:
                top = by_id[top["parent"]]
            if top["layer"] == tracing.ROOT_LAYER and top["name"] in spans:
                spans[top["name"]].append(span)
    roll = tracing.rollup(spans["cold"])
    warm_roll = tracing.rollup(spans["warm"])
    fn = roll["functions"]

    def calls(name):
        return fn.get(name, {}).get("calls", 0)

    def self_s(name, table=fn):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return fn.get(name, {}).get("total_s", 0.0)

    metrics = {}
    for name in ("synth.synthesize", "synth.synthesize_variant",
                 "sta.compile_timing", "sta.analyze_batch",
                 "sta.analyze_incremental", "sta.critical_path_delay",
                 "sta.corner_delays", "aging.gate_delays",
                 "sim.compile_netlist", "sim.simulate_activity",
                 "sim.extract_stress", "sim.timed", "core.characterize",
                 "core.microarch_timing", "approx.timed_model_build",
                 "media.roundtrip", "quality.psnr_db",
                 "inject.build_faultload", "inject.evaluate_packed_injected",
                 "inject.bernoulli_words", "inject.run_campaign",
                 "mc.analyze_mc", "mc.run_mc"):
        metrics[name + ".calls"] = (calls(name), "count")
        metrics[name + ".self_s"] = (self_s(name), "s")
    for name in ("synth.aging_aware_synthesize", "approx.apply",
                 "approx.error_statistics"):
        metrics[name + ".self_s"] = (self_s(name), "s")

    cc, wc = cold["counters"], warm["counters"]
    timed = [s for s in spans["cold"] if s["name"] == "sim.timed"]
    vectors = sum(s["attrs"].get("vectors", 0) for s in timed)
    metrics["sim.timed.vectors"] = (vectors, "count")
    metrics["sim.timed.vectors_per_s"] = (
        _ratio(vectors, total_s("sim.timed")), "1/s")
    metrics["sim.timed.violating_vectors"] = (
        sum(s["attrs"].get("violating", 0) for s in timed), "count")
    metrics["sta.timing_memo_hit_ratio"] = (
        _ratio(cc.get("cache.timing_memo_hits", 0),
               calls("sta.compile_timing")), "ratio")
    metrics["core.netlist_memo_hit_ratio"] = (
        _ratio(cc.get("cache.netlist_memo_hits", 0),
               calls("core.netlist_memo")), "ratio")
    hits = cc.get("aging.multiplier_memo_hits", 0)
    metrics["aging.multiplier_memo_hit_ratio"] = (
        _ratio(hits, hits + cc.get("aging.multiplier_memo_misses", 0)),
        "ratio")
    warm_hits = wc.get("cache.hits", 0)
    metrics["core.cache.hits"] = (warm_hits, "count")
    metrics["core.cache.misses"] = (cc.get("cache.misses", 0), "count")
    metrics["core.cache.stores"] = (cc.get("cache.stores", 0), "count")
    metrics["core.cache.hit_ratio"] = (
        _ratio(warm_hits, warm_hits + wc.get("cache.misses", 0)), "ratio")
    metrics["core.cache.load.self_s"] = (
        self_s("core.cache.load", warm_roll["functions"]), "s")
    metrics["core.cache.store.self_s"] = (self_s("core.cache.store"), "s")
    metrics["inject.vectors_per_s"] = (
        _ratio(cc.get("inject.vectors", 0), total_s("inject.run_campaign")),
        "1/s")
    metrics["mc.samples_per_s"] = (
        _ratio(cc.get("mc.samples", 0), total_s("mc.run_mc")), "1/s")

    for name in ("computes", "dedup_hits", "tier_hits_mem",
                 "tier_hits_disk", "errors"):
        metrics["serve." + name] = (cc.get(name, 0), "count")
    hit_ms = [op["seconds"] * 1e3 for op in cold["ops"]
              if op.get("source") in ("mem", "disk")]
    miss_ms = [op["seconds"] * 1e3 for op in cold["ops"]
               if op.get("source") in ("computed", "dedup")]
    metrics["serve.hit_latency_p50_ms"] = (
        percentile(hit_ms, 0.5)[0] if hit_ms else 0.0, "ms")
    metrics["serve.miss_latency_p50_ms"] = (
        percentile(miss_ms, 0.5)[0] if miss_ms else 0.0, "ms")

    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = (
            roll["layers"].get(layer, 0.0), "s")
        metrics["warm.layer.%s.self_s" % layer] = (
            warm_roll["layers"].get(layer, 0.0), "s")
    metrics["unattributed.self_s"] = (roll["unattributed_s"], "s")
    metrics["warm.unattributed.self_s"] = (warm_roll["unattributed_s"], "s")
    metrics["trace.wall_s"] = (roll["wall_s"], "s")
    metrics["trace.overhead_s"] = (roll["wall_s"] - untraced_wall_s, "s")
    metrics["trace.spans"] = (len(spans["cold"]), "count")
    metrics["trace.wrapper_cost_us"] = (cost_s * 1e6, "us")
    return metrics, roll, warm_roll


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def print_layer_table(title, roll, cost_s):
    wall = roll["wall_s"] or 1.0
    print("%s: per-layer self time (wall %.3f s)" % (title, roll["wall_s"]))
    rows = sorted(roll["layers"].items(), key=lambda kv: -kv[1])
    for layer, seconds in rows:
        print("  %-10s %8.3f s  %5.1f%%" % (layer, seconds,
                                           100 * seconds / wall))
    print("  %-10s %8.3f s  %5.1f%%" % ("unattrib.", roll["unattributed_s"],
                                       100 * roll["unattributed_s"] / wall))
    total = sum(roll["layers"].values()) + roll["unattributed_s"]
    print("  %-10s %8.3f s  (layers + unattributed)" % ("sum", total))
    for name, entry in sorted(roll["functions"].items(),
                              key=lambda kv: -kv[1]["self_s"]):
        overhead = entry["calls"] * cost_s
        flag = ""
        if entry["total_s"] and overhead > 0.25 * entry["total_s"]:
            flag = "  <- wrapper overhead %.0f%% of span time" % (
                100 * overhead / entry["total_s"])
        print("    %-34s %7d calls %8.3f s self%s"
              % (name, entry["calls"], entry["self_s"], flag))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that every child and server started
    # below is stopped by the ``finally`` clauses on the way out.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no program source at %s/src/repro; run from the "
              "root of a checkout" % ROOT, file=sys.stderr)
        return 2
    golden = gate.load_golden(args.workload)
    if golden is None and not args.record_golden:
        print("error: no golden values at %s"
              % gate.golden_path(args.workload), file=sys.stderr)
        return 2
    if args.record_golden and args.seed != DEFAULT_SEED:
        print("error: golden values are recorded at seed %d"
              % DEFAULT_SEED, file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    # Byte-compile once up front so no timed set-up pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    info = stamp()
    info["loadavg_before"] = os.getloadavg()
    info.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)

    iterations = []
    started = time.monotonic()
    try:
        while True:
            iterations.append(run_iteration(args.workload, args.seed,
                                            False, len(iterations)))
            if (args.record_golden
                    or time.monotonic() - started >= args.seconds):
                break
        probes = ([] if args.record_golden
                  else setup_probes(args.workload, args.seed))
        traced = (run_iteration(args.workload, args.seed, True,
                                len(iterations))
                  if args.trace else None)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    if args.record_golden:
        return record_golden(args.workload, iterations[0])

    checked = iterations + ([traced] if traced is not None else [])
    attempted, failed, reasons = apply_gate(args.workload, args.seed,
                                            checked, golden)
    info["loadavg_after"] = os.getloadavg()
    e2e = end_to_end(args.workload, iterations, probes)
    e2e["failed_ops_frac"] = (failed / attempted if attempted else 1.0,
                              "%d of %d ops" % (failed, attempted))

    print("e2ebench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("stamp: " + json.dumps(info, sort_keys=True))
    units = dict(END_TO_END, failed_ops_frac="ratio")
    for name, (value, note) in e2e.items():
        print("  %-16s %12.4f %-5s %s" % (name, value, units[name], note))
    for label, key, reason in reasons[:20]:
        print("  FAILED %s %s: %s" % (label, key, reason))
    if len(reasons) > 20:
        print("  ... %d more failures" % (len(reasons) - 20))

    record = {"stamp": info, "end_to_end": {k: v[0] for k, v in e2e.items()},
              "attempted": attempted, "failed": failed}
    if traced is not None:
        cost = tracing.wrapper_cost_s()
        layers, roll, warm_roll = per_layer(traced, e2e["wall_s"][0], cost)
        print_layer_table("cold pass", roll, cost)
        print_layer_table("warm pass", warm_roll, cost)
        print("tracing overhead: traced wall_s %.3f s - untraced median "
              "%.3f s = %.3f s" % (roll["wall_s"], e2e["wall_s"][0],
                                   roll["wall_s"] - e2e["wall_s"][0]))
        if args.workload == "serve_mix":
            print("traced on the client side: one span per request")
        else:
            sites = traced["sites"]
            print("wrappers installed: %d targets at %d import sites"
                  % (len(sites), sum(sites.values())))
            print("wrappers not installed: " + "; ".join(
                "%s.%s (%s)" % item for item in tracing.DROPPED))
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracing.write_chrome_trace(path, [
            (pid, label, args.workload, spans)
            for pid, label, spans in traced["traces"]])
        print("chrome trace: %s" % os.path.relpath(path, ROOT))
        record["per_layer"] = {k: v[0] for k, v in layers.items()}
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    with open(os.path.join(OUT_DIR, "run-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def record_golden(workload, iteration):
    """Write the cold outputs of a clean default-seed iteration."""
    for run in iteration["passes"]:
        for op in run["ops"]:
            if op["error"]:
                print("error: %s %s failed: %s" % (run["label"], op["name"],
                                                   op["error"]),
                      file=sys.stderr)
                return 1
    problems = gate.check_iteration(workload, DEFAULT_SEED, DEFAULT_SEED,
                                    iteration, None)
    if problems:
        print("error: invariants fail: %r" % problems, file=sys.stderr)
        return 1
    outputs = _pass(iteration, "cold")["outputs"]
    os.makedirs(gate.GOLDEN_DIR, exist_ok=True)
    with open(gate.golden_path(workload), "w") as handle:
        json.dump(outputs, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("recorded %d golden outputs to %s"
          % (len(outputs), os.path.relpath(gate.golden_path(workload), ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
