"""Child-process side of the in-process workloads.

Each workload has a ``setup_<name>(seed)`` that builds its inputs (the
set-up the parent times together with interpreter start and imports)
and a ``run_<name>(ctx, phase, tracer)`` that runs one or two timed
passes through the program's public entry points. A pass returns its
wall time, its operations (name, seconds, error) and its outputs, which
the parent checks (see ``gate.py``) before it reports any number.

Seed 1 (:data:`DEFAULT_SEED`) reproduces the inputs of the paper-figure
tests under ``benchmarks/``; its outputs are the recorded golden values.
Any other seed derives fresh stimuli from the seed; the work per pass,
and so the time, does not depend on the seed.
"""

import time

import numpy as np

from repro import core, inject, mc, quality
from repro.aging import balance_case, worst_case
from repro.aging.delay import multiplier_memo_info
from repro.approx import (ComponentArithmetic, GateLevelArithmetic,
                          RecordingArithmetic, TimedComponentModel)
from repro.cells import default_library
from repro.core import (ActualCaseSpec, AgingApproximationLibrary,
                        cache_enabled)
from repro.inject import CampaignSpec
from repro.mc import MCSpec
from repro.media import IMAGE_NAMES, TransformCodec, make_image
from repro.obs import metrics as obs_metrics
from repro.rtl import (CarrySelectAdder, Multiplier, MultiplyAccumulate,
                       WallaceMultiplier, idct_microarchitecture)

from tracing import ROOT_LAYER

# Wrapped entry points are called through their package (``core.``,
# ``inject.``, ``mc.``, ``quality.``) so that the layer wrappers
# installed after import apply.

DEFAULT_SEED = 1

#: Registry counters read before and after each pass.
COUNTERS = (obs_metrics.CACHE_HITS, obs_metrics.CACHE_MISSES,
            obs_metrics.CACHE_STORES, obs_metrics.TIMING_MEMO_HITS,
            obs_metrics.NETLIST_MEMO_HITS, obs_metrics.INJECT_VECTORS,
            obs_metrics.MC_SAMPLES)


def _memo_counts():
    hits = misses = 0
    for info in multiplier_memo_info():
        hits += info.hits
        misses += info.misses
    return hits, misses


def _counters():
    reg = obs_metrics.registry()
    values = {name: reg.value(name) for name in COUNTERS}
    values["aging.multiplier_memo_hits"], \
        values["aging.multiplier_memo_misses"] = _memo_counts()
    return values


class Pass:
    """One timed pass: wall time, operations, outputs, counters."""

    def __init__(self, label, tracer):
        self.label = label
        self.tracer = tracer
        self.ops = []
        self.outputs = {}

    def __enter__(self):
        self._before = _counters()
        self._root = (self.tracer.span(self.label, ROOT_LAYER)
                      if self.tracer is not None else None)
        if self._root is not None:
            self._root.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.wall_s = time.perf_counter() - self._start
        if self._root is not None:
            self._root.__exit__(*exc_info)
        after = _counters()
        self.counters = {k: after[k] - self._before[k] for k in after}
        return False

    def op(self, name, fn, *args, out=None, **kwargs):
        """Run one operation; record its time and any error it raised.

        Returns the result, or None when the operation raised (the
        failure is counted, the pass goes on). With *out*, the output
        ``out(result)`` is kept under *name* for the gate.
        """
        start = time.perf_counter()
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # recorded and counted as failed
            error = "%s: %s" % (type(exc).__name__, exc)
        self.ops.append({"name": name,
                         "seconds": time.perf_counter() - start,
                         "error": error})
        if out is not None and result is not None:
            self.outputs[name] = out(result)
        return result

    def as_dict(self):
        return {"label": self.label, "wall_s": self.wall_s, "ops": self.ops,
                "outputs": self.outputs, "counters": self.counters}


def _keyed(mapping):
    """JSON-safe copy of a dict with tuple or int keys."""
    return {"/".join(str(k) for k in key) if isinstance(key, tuple)
            else str(key): value for key, value in mapping.items()}


# ---------------------------------------------------------------------------
# paper: Section IV characterization -> Section V flow -> Fig. 8
# ---------------------------------------------------------------------------

FIG4_PRECISIONS = range(32, 19, -1)
FIG7_PRECISIONS = range(32, 21, -1)
STIMULUS_VECTORS = 3000
IMAGE_SIZE = 64


def setup_paper(seed):
    lib = default_library()
    adder = CarrySelectAdder(32)
    default = seed == DEFAULT_SEED
    nd_ops = adder.random_operands(STIMULUS_VECTORS,
                                   rng=41 if default else seed)
    record_image = ("foreman" if default
                    else IMAGE_NAMES[seed % len(IMAGE_NAMES)])
    recorder = RecordingArithmetic()
    TransformCodec(decode_arithmetic=recorder).roundtrip(
        make_image(record_image, IMAGE_SIZE))
    idct_ops = recorder.recorded_add_stream(limit=STIMULUS_VECTORS)
    images = {name: make_image(name, IMAGE_SIZE,
                               seed=None if default
                               else 1000 * seed + index)
              for index, name in enumerate(IMAGE_NAMES)}
    return {"lib": lib, "adder": adder, "images": images,
            "baseline_rng": 2017 if default else seed,
            "scenarios": [worst_case(1), worst_case(10),
                          ActualCaseSpec(10, "actual_nd", tuple(nd_ops)),
                          ActualCaseSpec(10, "actual_idct",
                                         tuple(idct_ops))]}


def _characterization(entry, labels):
    return {
        "K": {label: entry.required_precision(label) for label in labels},
        "fresh_ps": _keyed(entry.fresh_ps),
        "aged_ps": _keyed({key: value for key, value in entry.aged_ps.items()
                           if key[1] in labels}),
    }


def _fig4_output(entry):
    return {"worst": _characterization(entry, ["1y_worst", "10y_worst"]),
            "actual": _characterization(
                entry, ["10y_actual_nd", "10y_actual_idct"])}


def _fig7_output(entry):
    return _characterization(entry, ["1y_worst", "10y_worst"])


def _flow_output(report):
    outcome = report.outcome
    return {
        "constraint_ps": report.constraint_ps,
        "original_delays_ps": report.original_delays_ps,
        "approximated_delays_ps": report.approximated_delays_ps,
        "decisions": {
            name: [d.original_precision, d.chosen_precision,
                   d.relative_slack]
            for name, d in sorted(outcome.decisions.items())},
        "validated": bool(outcome.validated),
        "residual_guardband_ps": outcome.residual_guardband_ps,
    }


def _fig8b(images, precision):
    arithmetic = ComponentArithmetic(
        mul_component=Multiplier(32, precision=precision))
    scores = {}
    for name, image in images.items():
        fresh = quality.psnr_db(image, TransformCodec().roundtrip(image))
        approx = quality.psnr_db(image, TransformCodec(
            decode_arithmetic=arithmetic).roundtrip(image))
        scores[name] = [fresh, approx]
    return scores


def _fig8c_output(comparison):
    return {"ratios": dict(comparison.ratios),
            "baseline_guardband_ps": comparison.baseline_guardband_ps}


def _paper_pass(ctx, label, cache_dir, tracer):
    lib = ctx["lib"]
    store = AgingApproximationLibrary()
    worst = [worst_case(1), worst_case(10)]
    with cache_enabled(cache_dir), Pass(label, tracer) as run:
        fig4 = run.op("fig4", core.characterize, ctx["adder"], lib,
                      scenarios=ctx["scenarios"], precisions=FIG4_PRECISIONS,
                      jobs=1, out=_fig4_output)
        fig7 = [run.op("fig7." + name, core.characterize, cls(32), lib,
                       scenarios=worst, precisions=FIG7_PRECISIONS, jobs=1,
                       out=_fig7_output)
                for name, cls in (("multiplier", Multiplier),
                                  ("mac", MultiplyAccumulate))]
        for entry in [fig4] + fig7:
            if entry is not None:
                store.add(entry)
        micro = idct_microarchitecture(32)
        report = run.op("flow", core.remove_guardband, micro, lib,
                        worst_case(10),
                        report_scenarios=[worst_case(1), balance_case(10)],
                        approx_library=store, jobs=1, out=_flow_output)
        if report is not None:
            outcome = report.outcome
            run.op("fig8b", _fig8b, ctx["images"],
                   outcome.decisions["mult"].chosen_precision, out=dict)
            run.op("fig8c", core.compare_with_baseline, micro, outcome, lib,
                   worst_case(10), activity_count=512,
                   rng_seed=ctx["baseline_rng"], out=_fig8c_output)
    return run.as_dict()


def run_paper(ctx, phase, cache_dir, tracer):
    return [_paper_pass(ctx, phase, cache_dir, tracer)]


# ---------------------------------------------------------------------------
# timed_sim: the Fig. 1 error-rate ladder and a reduced Fig. 2
# ---------------------------------------------------------------------------

FIG1_SCENARIOS = (("fresh", None),
                  ("1y_balance", balance_case(1)),
                  ("10y_balance", balance_case(10)),
                  ("1y_worst", worst_case(1)),
                  ("10y_worst", worst_case(10)))
FIG1_ADDER_VECTORS = 4000
FIG1_MULT_VECTORS = 2000
FIG2_IMAGE = "akiyo"
FIG2_SIZE = 16


def setup_timed_sim(seed):
    lib = default_library()
    adder = CarrySelectAdder(32)
    mult = WallaceMultiplier(32, final_adder="ks")
    rng = np.random.default_rng([seed, 2017])
    image = make_image(FIG2_IMAGE, FIG2_SIZE)
    return {
        "lib": lib,
        "components": (
            ("adder", adder, adder.random_operands(FIG1_ADDER_VECTORS,
                                                   rng=rng)),
            ("multiplier", mult, mult.random_operands(FIG1_MULT_VECTORS,
                                                      rng=rng))),
        "mult": mult,
        "image": image,
        "reference": TransformCodec().roundtrip(image),
    }


def _fig2(ctx):
    model = TimedComponentModel(ctx["mult"], ctx["lib"],
                                scenario=balance_case(1))
    arithmetic = GateLevelArithmetic(mul_model=model)
    codec = TransformCodec(encode_arithmetic=arithmetic,
                           decode_arithmetic=arithmetic)
    recon = codec.roundtrip(ctx["image"])
    return {"psnr_db": quality.psnr_db(ctx["image"], recon),
            "pixel_error_rate": float((recon != ctx["reference"]).mean())}


def _fig1_point(ctx, component, label, scenario, operands, models):
    model = TimedComponentModel(component, ctx["lib"], scenario=scenario)
    models[(component.name, label)] = model
    return model.error_statistics(*operands)


def run_timed_sim(ctx, phase, cache_dir, tracer):
    """Cold pass builds every timed model and simulates; the warm pass
    re-simulates the Fig. 1 stimuli on the already-built models."""
    models = {}
    with Pass("cold", tracer) as cold:
        for name, component, operands in ctx["components"]:
            for label, scenario in FIG1_SCENARIOS:
                cold.op("fig1.%s.%s" % (name, label), _fig1_point, ctx,
                        component, label, scenario, operands, models,
                        out=dict)
        cold.op("fig2", _fig2, ctx, out=dict)
    with Pass("warm", tracer) as warm:
        for name, component, operands in ctx["components"]:
            for label, __ in FIG1_SCENARIOS:
                model = models.get((component.name, label))
                if model is not None:
                    warm.op("fig1.%s.%s" % (name, label),
                            model.error_statistics, *operands, out=dict)
    return [cold.as_dict(), warm.as_dict()]


# ---------------------------------------------------------------------------
# campaigns: fault-injection campaign and Monte Carlo yield curves
# ---------------------------------------------------------------------------

def setup_campaigns(seed):
    lib = default_library()
    spec_seed = 20170618 if seed == DEFAULT_SEED else seed
    return {
        "lib": lib,
        "campaign": CampaignSpec(
            component="mult32",
            scenarios=("fresh", "worst1y", "worst10y"),
            clock_scales=(1.0, 0.95), seed=spec_seed).validated(),
        "mc": MCSpec(component="mult32", scenarios=("fresh", "worst10y"),
                     clock_scales=(1.0, 0.97), seed=spec_seed).validated(),
    }


def _campaign_pass(ctx, label, tracer):
    def to_dict(result):
        return result.to_dict()

    with Pass(label, tracer) as run:
        run.op("inject", inject.run_campaign, ctx["campaign"], ctx["lib"],
               jobs=1, out=to_dict)
        run.op("mc", mc.run_mc, ctx["mc"], ctx["lib"], jobs=1, out=to_dict)
    return run.as_dict()


def run_campaigns(ctx, phase, cache_dir, tracer):
    """Cold pass, then the same two calls again in the same process
    (warm per-process preludes); the results must be identical."""
    return [_campaign_pass(ctx, "cold", tracer),
            _campaign_pass(ctx, "warm", tracer)]


SETUP = {"paper": setup_paper, "timed_sim": setup_timed_sim,
         "campaigns": setup_campaigns}
RUN = {"paper": run_paper, "timed_sim": run_timed_sim,
       "campaigns": run_campaigns}
