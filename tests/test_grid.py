"""Tests for the grid-campaign kernel shared by ``repro.inject`` and
``repro.mc`` (:mod:`repro.core.grid`) and the worker shipping path of
:mod:`repro.core.parallel`.

Covers the derived spec wire format, :func:`ship` / :func:`land`,
pooled ``inject.point`` / ``mc.block`` spans and worker metrics coming
home through ``map_tasks``, netlist reuse across the two arms, and the
served ``/v1/inject`` / ``/v1/mc`` endpoints (bit-identity and 400 on a
mistyped spec). Spec validation cases live in ``test_mc.py``.
"""

import asyncio
import os

import pytest

from repro.core import cache as cache_mod
from repro.core.parallel import land, ship
from repro.inject import CampaignSpec, run_campaign
from repro.mc import MCSpec, run_mc
from repro.obs import metrics as obs_metrics, trace as obs_trace
from repro.serve import CharacterizationServer, ServeClient
from repro.serve.client import ServeError

CAMPAIGN = CampaignSpec(component="adder6", scenarios=("fresh", "worst10y"),
                        clock_scales=(1.0, 0.95), vectors=256, seed=11,
                        effort="high")
MC = MCSpec(component="adder6", scenarios=("fresh", "worst10y"),
            clock_scales=(1.0, 0.97), samples=96, block=32, seed=11,
            sweep_bits=2, effort="high")


def _traced_double(x):
    with obs_trace.span("test.double", x=x):
        obs_metrics.inc("test.doubled")
    return 2 * x


class TestWireFormat:
    def test_to_dict_fields(self):
        assert CampaignSpec(component="adder8").to_dict() == {
            "component": "adder8", "scenarios": ["fresh", "worst10y"],
            "clock_scales": [1.0], "vectors": 4096, "seed": 20170618,
            "stimulus": "normal", "activity": 0.5, "effort": "high",
            "width": None}
        assert MCSpec(component="adder8", width=8).to_dict() == {
            "component": "adder8", "scenarios": ["worst10y"],
            "clock_scales": [1.0], "sigma_mv": 30.0, "samples": 2000,
            "seed": 20170618, "sweep_bits": 8, "min_yield": 0.99,
            "effort": "high", "width": 8, "block": 256,
            "surrogate": "off"}

    def test_keys_name_the_arm(self):
        assert CampaignSpec(component="adder8").key()[0] == "CampaignSpec"
        assert MCSpec(component="adder8").key()[0] == "MCSpec"


class TestShipLand:
    def test_ship_then_land(self):
        outcome = ship(_traced_double, 21)
        assert outcome["payload"] == 42
        registry = obs_metrics.MetricsRegistry()
        with obs_trace.capture():
            with obs_trace.span("parent") as parent:
                assert land(outcome, registry) == 42
        assert [child.name for child in parent.children] == ["test.double"]
        assert parent.children[0].parent_id == parent.span_id
        assert registry.value("test.doubled") == 1


def _pooled_run(run, spec, jobs):
    with obs_trace.capture() as tracer, obs_metrics.scoped() as registry:
        result = run(spec, jobs=jobs)
    return result.to_dict(), tracer, registry.snapshot()["counters"]


@pytest.mark.parametrize("run,spec,root,point,counters", [
    (run_campaign, CAMPAIGN, "inject.campaign", "inject.point",
     (obs_metrics.INJECT_VECTORS, obs_metrics.INJECT_FAULTS)),
    (run_mc, MC, "mc.run", "mc.block", (obs_metrics.MC_SAMPLES,)),
], ids=["inject", "mc"])
def test_pooled_spans_and_metrics_come_home(run, spec, root, point,
                                            counters):
    serial, __, serial_counters = _pooled_run(run, spec, 1)
    pooled, tracer, pooled_counters = _pooled_run(run, spec, 2)
    assert pooled == serial
    for name in counters:
        assert pooled_counters[name] == serial_counters[name] > 0

    spans = {s.span_id: s for s, __d, __p in tracer.walk()}
    workers = [(s, parent) for s, __d, parent in tracer.walk()
               if s.name == point]
    assert len(workers) > 1
    assert {s.pid for s, __ in workers} - {os.getpid()}
    for span_, parent in workers:
        # The landed tree and the shipped identity name one parent.
        assert parent.span_id == span_.parent_id
        ancestors = []
        cursor = span_
        while cursor.parent_id in spans:
            cursor = spans[cursor.parent_id]
            ancestors.append(cursor.name)
        assert root in ancestors


def test_second_arm_reuses_the_first_arms_netlist(lib):
    cache_mod.clear_netlist_memo()
    campaign = CampaignSpec(component="ksa6", scenarios=("worst1y",),
                            vectors=64, seed=5, effort="high")
    mc = MCSpec(component="ksa6", scenarios=("worst1y",), samples=16,
                seed=5, sweep_bits=1, effort="high")
    with obs_trace.capture() as tracer, obs_metrics.scoped():
        run_campaign(campaign, library=lib)
        run_mc(mc, library=lib)
    assert tracer.totals()["synth.synthesize"]["calls"] == 1


def test_served_grid_endpoints(tmp_path):
    async def scenario():
        with obs_metrics.scoped():
            server = CharacterizationServer(str(tmp_path), workers=1)
            await server.start()
        errors = []
        try:
            async with ServeClient(server.host, server.port) as client:
                served = await client.mc(MC.to_dict())
                for call, body in (
                        (client.inject, {"component": "adder8",
                                         "vectors": "abc"}),
                        (client.mc, {"component": "adder8",
                                     "samples": "abc"}),
                        (client.mc, {"component": "adder8",
                                     "scenarios": 5})):
                    with pytest.raises(ServeError) as excinfo:
                        await call(body)
                    errors.append(excinfo.value)
        finally:
            await server.stop()
        return served, errors

    served, errors = asyncio.run(scenario())
    assert served["mc"] == run_mc(MC, jobs=1).to_dict()
    assert [exc.status for exc in errors] == [400, 400, 400]
    for exc, field in zip(errors, ("vectors", "samples", "scenarios")):
        assert repr(field) in str(exc)
