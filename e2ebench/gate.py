"""Correctness gate applied to every pass before any number is reported.

* **Golden values.** ``golden/<workload>.json`` holds the outputs of the
  default seed, recorded from the program at the commit that added this
  benchmark (``run.py --record-golden``). At the default seed every
  output must equal its golden value with ``==`` (floats included).
  Outputs that do not depend on the seed are compared at every seed.
* **Invariants** that need no golden values, at every seed: warm
  outputs equal cold outputs, fresh circuits make no errors, error-rate
  ladders are monotone in lifetime and stress, and the paper's shape
  claims hold.

A failure names the pass and the output key; ``run.py`` counts every
operation of that key in that pass as failed.
"""

import json
import os

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

#: Outputs (or ``key/sub-key`` parts) that do not depend on the seed.
SEED_FREE = {
    "paper": ("fig4/worst", "fig7.multiplier", "fig7.mac", "flow"),
    "timed_sim": ("fig2",),
    "campaigns": (),
    "serve_mix": (),
}


def golden_path(workload):
    return os.path.join(GOLDEN_DIR, workload + ".json")


def load_golden(workload):
    """The recorded outputs of *workload*, or None when not recorded."""
    try:
        with open(golden_path(workload)) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


def _part(outputs, path):
    node = outputs
    for part in path.split("/"):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def check_golden(outputs, golden, keys=None):
    """Keys of *outputs* that differ from *golden* (all keys by default,
    else only the ``key/sub-key`` paths in *keys*)."""
    bad = []
    if keys is None:
        for key in sorted(set(outputs) | set(golden)):
            if outputs.get(key) != golden.get(key):
                bad.append(key)
        return bad
    for path in keys:
        if _part(outputs, path) != _part(golden, path):
            bad.append(path.split("/")[0])
    return bad


# -- invariants ---------------------------------------------------------

def _paper_invariants(outputs):
    bad = []
    fig4 = outputs.get("fig4")
    if fig4:
        k10 = fig4["worst"]["K"]["10y_worst"]
        k1 = fig4["worst"]["K"]["1y_worst"]
        actual = fig4["actual"]["K"].values()
        if k10 is None or k1 is None or k10 > k1 or any(
                k is None or k < k10 for k in actual):
            bad.append("fig4")
    scores = outputs.get("fig8b")
    if scores:
        drop = sum(fresh - approx for fresh, approx in scores.values())
        if not drop > 0.0:
            bad.append("fig8b")
    fig8c = outputs.get("fig8c")
    if fig8c:
        ratios = fig8c["ratios"]
        if not (ratios["frequency"] >= 1.0 and ratios["area"] < 1.0
                and ratios["leakage"] < 1.0):
            bad.append("fig8c")
    flow = outputs.get("flow")
    if flow and not flow["validated"]:
        bad.append("flow")
    return bad


def _timed_sim_invariants(outputs):
    bad = []
    for comp in ("adder", "multiplier"):
        rate = {}
        for key, stats in outputs.items():
            if key.startswith("fig1.%s." % comp):
                rate[key.rsplit(".", 1)[1]] = stats["error_rate"]
        if "fresh" in rate and rate["fresh"] != 0.0:
            bad.append("fig1.%s.fresh" % comp)
        for low, high in (("1y_balance", "10y_balance"),
                          ("1y_worst", "10y_worst"),
                          ("1y_balance", "1y_worst"),
                          ("10y_balance", "10y_worst")):
            if low in rate and high in rate and rate[high] < rate[low]:
                bad.append("fig1.%s.%s" % (comp, high))
    return bad


def _campaigns_invariants(outputs):
    bad = []
    inject = outputs.get("inject")
    if inject:
        for row in inject["rows"]:
            if row["scenario"] == "fresh" and row["clock_scale"] >= 1.0 \
                    and row["injected_faults"] != 0:
                bad.append("inject")
    mc = outputs.get("mc")
    if mc:
        yields = {}
        for row in mc["k_rows"]:
            yields[(row["scenario"], row["clock_scale"])] = \
                row["yield_precision"]
        for (scenario, scale), precision in yields.items():
            fresh = yields.get(("fresh", scale))
            if scenario != "fresh" and precision is not None \
                    and fresh is not None and precision > fresh:
                bad.append("mc")
    return bad


INVARIANTS = {
    "paper": _paper_invariants,
    "timed_sim": _timed_sim_invariants,
    "campaigns": _campaigns_invariants,
    "serve_mix": lambda outputs: [],
}


def check_iteration(workload, seed, default_seed, iteration, golden):
    """``[(pass label, output key, reason)]`` for one iteration."""
    failures = []
    cold = next((run["outputs"] for run in iteration["passes"]
                 if run["label"] == "cold"), {})
    for run in iteration["passes"]:
        label, outputs = run["label"], run["outputs"]
        for key in INVARIANTS[workload](outputs):
            failures.append((label, key, "invariant"))
        if label != "cold":
            for key in outputs:
                if key in cold and outputs[key] != cold[key]:
                    failures.append((label, key, "differs from cold pass"))
        if golden is None:
            continue
        if seed == default_seed:
            keys = check_golden(outputs, golden)
            if label != "cold":
                keys = [key for key in keys if key in outputs]
        else:
            keys = check_golden(outputs, golden, SEED_FREE[workload])
            keys = [key for key in keys if key in outputs or label == "cold"]
        for key in keys:
            failures.append((label, key, "differs from golden"))
    return failures
