"""End-to-end component verification (the ``repro-aging verify`` core).

:func:`verify_component` chains the whole differential stack on one RTL
component:

1. **golden** — the pure-Python golden model, the NumPy arithmetic
   model and the synthesized netlist are diffed on random + corner
   operands (:func:`repro.verify.golden.check_golden`);
2. **oracle** — the same netlist runs through every simulation engine
   and the outputs are diffed bit-exactly
   (:func:`repro.verify.oracles.cross_engine_check`);
3. **invariants** — the component is characterized across precisions
   and scenarios, the tables are compared with the from-scratch
   reference, then Eq. 2 / monotonicity and the error-shape claims are
   checked (:mod:`repro.verify.invariants`);
4. **fuzz** (optional) — random netlists stress the engines beyond
   this component's structure
   (:func:`repro.verify.fuzz.fuzz_engines`).

The returned :class:`VerificationReport` aggregates pass/fail plus
human-readable describe() output for the CLI.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..aging.scenario import AgingScenario
from ..core import cache as cache_mod
from ..core.characterize import characterize
from ..obs import logs, trace as obs_trace
from .fuzz import FuzzReport, fuzz_engines
from .golden import GoldenMismatch, check_golden
from .invariants import (InvariantResult, check_characterization,
                         check_characterize_reference, check_error_shape,
                         check_injection, check_mc, check_sta_engine,
                         check_synth_sweep)
from .oracles import ENGINES, EVENT_VECTOR_CAP, OracleReport, \
    cross_engine_check

_log = logs.get_logger("verify")


@dataclass
class VerificationReport:
    """Everything :func:`verify_component` checked, aggregated."""

    component: str
    scenario_labels: List[str]
    golden_mismatches: List[GoldenMismatch] = field(default_factory=list)
    golden_vectors: int = 0
    oracle: Optional[OracleReport] = None
    invariants: List[InvariantResult] = field(default_factory=list)
    fuzz: Optional[FuzzReport] = None

    @property
    def passed(self):
        return (not self.golden_mismatches
                and (self.oracle is None or self.oracle.passed)
                and all(r.passed for r in self.invariants)
                and (self.fuzz is None or self.fuzz.passed))

    @property
    def counterexamples(self):
        """Every minimized counterexample collected along the way."""
        found = []
        if self.oracle is not None and self.oracle.counterexample:
            found.append(self.oracle.counterexample)
        if self.fuzz is not None:
            found.extend(self.fuzz.counterexamples)
        return found

    def describe(self):
        lines = ["verify %s [%s]" % (self.component,
                                     "PASS" if self.passed else "FAIL")]
        tag = "PASS" if not self.golden_mismatches else "FAIL"
        lines.append("%s golden: 3-way diff (golden/arithmetic/netlist) "
                     "on %d operand tuples, %d mismatch(es)"
                     % (tag, self.golden_vectors,
                        len(self.golden_mismatches)))
        lines += ["  " + m.describe()
                  for m in self.golden_mismatches[:5]]
        if self.oracle is not None:
            tag = "PASS" if self.oracle.passed else "FAIL"
            lines.append("%s oracle: %s" % (tag, self.oracle.describe()))
        for inv in self.invariants:
            lines.append(inv.describe())
        if self.fuzz is not None:
            tag = "PASS" if self.fuzz.passed else "FAIL"
            lines.append("%s %s" % (tag, self.fuzz.describe()))
        return "\n".join(lines)


def verify_component(component, library, scenarios, vectors=96,
                     oracle_vectors=None, engines=ENGINES,
                     event_cap=EVENT_VECTOR_CAP, precisions=None,
                     error_shape_years=(1.0, 10.0), fuzz_rounds=0,
                     corpus_dir=None, rng=None, effort="ultra",
                     bti=DEFAULT_BTI, degradation=None, jobs=None,
                     cache=cache_mod.AMBIENT):
    """Run the full differential-verification stack on one component.

    Parameters
    ----------
    component:
        Full-precision :class:`~repro.rtl.component.RTLComponent`.
    scenarios:
        Aging scenarios for the characterization invariants (e.g.
        ``[worst_case(1), worst_case(10), balance_case(10)]`` — at
        least the design scenario).
    vectors:
        Random operand tuples for the golden three-way diff.
    oracle_vectors:
        Stimulus vectors for the cross-engine oracle (None: exhaustive
        for narrow interfaces, 128 random otherwise).
    event_cap:
        Vector cap for the scalar event engine inside the oracle.
    precisions:
        Precision sweep for characterization (None: the
        :func:`~repro.core.characterize.characterize` default).
    fuzz_rounds:
        Extra random-netlist fuzzing rounds (0 to skip).
    corpus_dir:
        Corpus directory for interesting fuzzed netlists.

    Returns
    -------
    VerificationReport
    """
    rng = np.random.default_rng(rng)
    labels = [s.label for s in scenarios]
    report = VerificationReport(component=component.name,
                                scenario_labels=labels)

    with obs_trace.span("verify.component", component=component.name,
                        scenarios=labels):
        from ..synth.synthesize import synthesize_netlist
        with obs_trace.span("verify.synthesize"):
            netlist = synthesize_netlist(component, library, effort=effort)

        with obs_trace.span("verify.golden", vectors=vectors):
            report.golden_vectors = vectors + 7   # corner rows ride along
            report.golden_mismatches = check_golden(
                component, library, vectors=vectors, rng=rng,
                netlist=netlist)
        _log.info("golden: %d mismatches on %s",
                  len(report.golden_mismatches), component.name)

        with obs_trace.span("verify.oracle", engines=list(engines)):
            report.oracle = cross_engine_check(
                netlist, library, vectors=oracle_vectors, engines=engines,
                rng=rng, event_cap=event_cap)
        _log.info("oracle: %s", report.oracle.describe())

        with obs_trace.span("verify.invariants"):
            char = characterize(component, library, scenarios,
                                precisions=precisions, effort=effort,
                                bti=bti, degradation=degradation,
                                jobs=jobs, cache=cache)
            report.invariants = check_characterization(char)
            report.invariants += check_characterize_reference(
                char, component, library, scenarios, effort=effort,
                bti=bti, degradation=degradation)
            uniform = [s for s in scenarios
                       if isinstance(s, AgingScenario)]
            report.invariants += check_sta_engine(
                netlist, library, uniform, bti=bti,
                degradation=degradation)
            report.invariants += check_error_shape(
                component, library, years=error_shape_years, rng=rng,
                effort=effort, netlist=netlist)
            report.invariants += check_synth_sweep(
                component, library, efforts=(effort,))
            report.invariants += check_injection(
                component, library, years=error_shape_years,
                effort=effort)
            report.invariants += check_mc(
                component, library, years=error_shape_years,
                effort=effort)
        failed = [r.name for r in report.invariants if not r.passed]
        _log.info("invariants: %d checked, %d failed%s",
                  len(report.invariants), len(failed),
                  " (%s)" % ", ".join(failed) if failed else "")

        if fuzz_rounds:
            with obs_trace.span("verify.fuzz", rounds=fuzz_rounds):
                report.fuzz = fuzz_engines(
                    library, rounds=fuzz_rounds, rng=rng, engines=engines,
                    corpus_dir=corpus_dir, event_cap=event_cap,
                    log=_log.info)
    return report
