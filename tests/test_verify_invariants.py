"""Paper-fidelity invariant tests.

Real artifacts (characterizations, flow outcomes, timed simulations)
must satisfy the paper's structural claims — Eq. 2, the Section-V
slack rule, and the EXPERIMENTS.md error-shape facts — and the
checkers must actually *fail* on doctored artifacts.
"""

import dataclasses
import math

import pytest

from repro.aging import balance_case, worst_case
from repro.core import (Block, Microarchitecture, characterize,
                        remove_guardband)
from repro.rtl import Adder, Multiplier
from repro.verify import (check_characterization,
                          check_characterize_reference, check_error_shape,
                          check_slack_rule, oracles)
from repro.verify.invariants import InvariantResult, _scenario_years

pytestmark = pytest.mark.verify


@pytest.fixture(scope="module")
def adder8_char(lib):
    return characterize(Adder(8), lib,
                        scenarios=[worst_case(1), worst_case(10),
                                   balance_case(10)],
                        precisions=range(8, 3, -1), effort="high",
                        cache=None)


@pytest.fixture(scope="module")
def flow_outcome(lib):
    micro = Microarchitecture("mini", [
        Block("mult", Multiplier(10)), Block("acc", Adder(10))])
    return remove_guardband(micro, lib, worst_case(10),
                            effort="high").outcome


class TestResultType:
    def test_describe_tags(self):
        ok = InvariantResult("x", True, "fine")
        bad = InvariantResult("y", False, "broken")
        assert ok.describe().startswith("PASS x")
        assert bad.describe().startswith("FAIL y")

    def test_scenario_years_parser(self):
        assert _scenario_years("10y_worst") == (10.0, "worst")
        assert _scenario_years("1.5y_balance") == (1.5, "balance")
        assert _scenario_years("fresh") == (None, None)


class TestCharacterizationInvariants:
    def test_real_characterization_passes(self, adder8_char):
        results = check_characterization(adder8_char)
        assert results
        failed = [r for r in results if not r.passed]
        assert failed == [], "\n".join(r.describe() for r in failed)
        names = {r.name for r in results}
        assert "aging_never_helps" in names
        assert any(n.startswith("eq2_required_precision") for n in names)
        assert "aged_delay_monotone_in_lifetime" in names
        assert "aged_delay_monotone_in_stress" in names

    def test_detects_aging_that_helps(self, adder8_char):
        doctored = dataclasses.replace(
            adder8_char,
            aged_ps=dict(adder8_char.aged_ps))
        # Claim the aged full-precision path got *faster* than fresh.
        doctored.aged_ps[(8, "10y_worst")] = \
            adder8_char.fresh_ps[8] * 0.5
        results = {r.name: r for r in check_characterization(doctored)}
        assert not results["aging_never_helps"].passed

    def test_detects_nonmonotone_lifetime(self, adder8_char):
        doctored = dataclasses.replace(
            adder8_char, aged_ps=dict(adder8_char.aged_ps))
        # 10-year delay dips below the 1-year delay at full precision.
        doctored.aged_ps[(8, "10y_worst")] = \
            adder8_char.aged_ps[(8, "1y_worst")] * 0.9
        results = {r.name: r for r in check_characterization(doctored)}
        assert not results["aged_delay_monotone_in_lifetime"].passed

    def test_detects_balance_worse_than_worst(self, adder8_char):
        doctored = dataclasses.replace(
            adder8_char, aged_ps=dict(adder8_char.aged_ps))
        doctored.aged_ps[(8, "10y_balance")] = \
            adder8_char.aged_ps[(8, "10y_worst")] * 2.0
        results = {r.name: r for r in check_characterization(doctored)}
        assert not results["aged_delay_monotone_in_stress"].passed


class TestCharacterizeReference:
    def test_detects_one_ulp_reference_perturbation(self, lib, adder8_char,
                                                    monkeypatch):
        scenarios = [worst_case(1), worst_case(10), balance_case(10)]
        [ok] = check_characterize_reference(adder8_char, Adder(8), lib,
                                            scenarios, effort="high")
        assert ok.passed, ok.describe()

        reference = oracles.reference_characterize

        def perturbed(*args, **kw):
            table = reference(*args, **kw)
            key = (6, "10y_balance")
            table.aged_ps[key] = math.nextafter(table.aged_ps[key],
                                                math.inf)
            return table

        monkeypatch.setattr(oracles, "reference_characterize", perturbed)
        [bad] = check_characterize_reference(adder8_char, Adder(8), lib,
                                             scenarios, effort="high")
        assert not bad.passed
        assert "aged_ps" in bad.detail


class TestSlackRule:
    def test_real_outcome_passes(self, flow_outcome):
        results = check_slack_rule(flow_outcome)
        assert results
        failed = [r for r in results if not r.passed]
        assert failed == [], "\n".join(r.describe() for r in failed)

    def test_detects_spurious_approximation(self, flow_outcome):
        # Doctor one decision: positive slack yet reduced precision —
        # the Section-V rule says such a block must stay exact.
        name, decision = next(iter(flow_outcome.decisions.items()))
        doctored_decision = dataclasses.replace(
            decision, slack_before_ps=12.5,
            chosen_precision=decision.original_precision - 1)
        doctored = dataclasses.replace(
            flow_outcome,
            decisions={**flow_outcome.decisions,
                       name: doctored_decision})
        results = {r.name: r for r in check_slack_rule(doctored)}
        assert not results["slack_rule_trigger"].passed

    def test_detects_precision_increase(self, flow_outcome):
        name, decision = next(iter(flow_outcome.decisions.items()))
        doctored_decision = dataclasses.replace(
            decision,
            chosen_precision=decision.original_precision + 3)
        doctored = dataclasses.replace(
            flow_outcome,
            decisions={**flow_outcome.decisions,
                       name: doctored_decision})
        results = {r.name: r for r in check_slack_rule(doctored)}
        assert not results["precision_never_increases"].passed


class TestErrorShape:
    def test_adder_error_ladder(self, lib, adder8):
        results = check_error_shape(Adder(8), lib, years=(1.0, 10.0),
                                    vectors=192, rng=9, effort="high",
                                    netlist=adder8)
        failed = [r for r in results if not r.passed]
        assert failed == [], "\n".join(r.describe() for r in failed)
        names = {r.name for r in results}
        assert names == {"zero_fresh_errors",
                         "error_rate_monotone_in_lifetime",
                         "error_rate_monotone_in_stress"}
