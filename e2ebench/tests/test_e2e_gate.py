"""The correctness gate: golden values, invariants and failure counting."""

import copy
import math
import statistics

import pytest

import gate
import run

WORKLOADS = ("paper", "timed_sim", "campaigns", "serve_mix")


def _iteration(cold, warm=None):
    passes = [{"label": "cold", "outputs": cold,
               "ops": [{"name": key, "seconds": 1.0, "error": None}
                       for key in cold]}]
    if warm is not None:
        passes.append({"label": "warm", "outputs": warm,
                       "ops": [{"name": key, "seconds": 1.0, "error": None}
                               for key in warm]})
    return {"passes": passes}


def _perturb_first_float(node):
    """Move the first float found in *node* by one ulp, in place."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return False
    for key, value in items:
        if isinstance(value, float):
            node[key] = math.nextafter(value, math.inf)
            return True
        if _perturb_first_float(value):
            return True
    return False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_golden_values_pass_their_own_gate(workload):
    golden = gate.load_golden(workload)
    assert golden, "golden values of %s not recorded" % workload
    iteration = _iteration(copy.deepcopy(golden), copy.deepcopy(golden))
    assert gate.check_iteration(workload, run.DEFAULT_SEED,
                                run.DEFAULT_SEED, iteration, golden) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_perturbed_golden_value_fails_the_gate(workload):
    golden = gate.load_golden(workload)
    outputs = copy.deepcopy(golden)
    key = sorted(outputs)[0]
    assert _perturb_first_float(outputs[key])
    iteration = _iteration(outputs)
    failures = gate.check_iteration(workload, run.DEFAULT_SEED,
                                    run.DEFAULT_SEED, iteration, golden)
    assert ("cold", key, "differs from golden") in failures
    attempted, failed, __ = run.apply_gate(workload, run.DEFAULT_SEED,
                                           [iteration], golden)
    assert attempted == len(outputs)
    assert failed == 1


def test_seed_free_outputs_are_checked_at_every_seed():
    golden = gate.load_golden("paper")
    outputs = copy.deepcopy(golden)
    outputs["fig4"]["actual"]["K"]["10y_actual_nd"] = 25  # seed-dependent
    assert gate.check_iteration("paper", 7, run.DEFAULT_SEED,
                                _iteration(outputs), golden) == []
    outputs["flow"]["constraint_ps"] += 1.0  # does not depend on the seed
    failures = gate.check_iteration("paper", 7, run.DEFAULT_SEED,
                                    _iteration(outputs), golden)
    assert failures == [("cold", "flow", "differs from golden")]


def test_warm_outputs_must_equal_cold_outputs():
    golden = gate.load_golden("campaigns")
    warm = copy.deepcopy(golden)
    warm["mc"]["samples"] += 1
    failures = gate.check_iteration("campaigns", 9, run.DEFAULT_SEED,
                                    _iteration(golden, warm), golden)
    assert ("warm", "mc", "differs from cold pass") in failures


def test_timed_sim_invariants():
    golden = gate.load_golden("timed_sim")
    outputs = copy.deepcopy(golden)
    assert gate.INVARIANTS["timed_sim"](outputs) == []
    outputs["fig1.adder.fresh"]["error_rate"] = 0.01
    outputs["fig1.multiplier.10y_worst"]["error_rate"] = 0.0
    bad = gate.INVARIANTS["timed_sim"](outputs)
    assert "fig1.adder.fresh" in bad
    assert "fig1.multiplier.10y_worst" in bad


def test_golden_values_keep_the_documented_paper_shapes():
    # The parts of EXPERIMENTS.md that still hold at the recorded commit.
    paper = gate.load_golden("paper")
    assert paper["fig4"]["worst"]["K"]["10y_worst"] == 24
    assert paper["flow"]["decisions"]["mult"][1] == 24
    scores = paper["fig8b"].values()
    drop = (statistics.mean(s[0] for s in scores)
            - statistics.mean(s[1] for s in scores))
    assert round(drop, 2) == 6.83
    assert round(paper["flow"]["constraint_ps"], 2) == 305.04
    assert round(paper["fig8c"]["ratios"]["frequency"], 3) == 1.167


def test_an_op_that_raised_counts_as_failed():
    golden = gate.load_golden("paper")
    iteration = _iteration(copy.deepcopy(golden))
    iteration["passes"][0]["ops"].append(
        {"name": "fig9", "seconds": 0.1, "error": "ValueError: boom"})
    attempted, failed, reasons = run.apply_gate(
        "paper", run.DEFAULT_SEED, [iteration], golden)
    assert (attempted, failed) == (len(golden) + 1, 1)
    assert ("cold", "fig9", "ValueError: boom") in reasons
