"""The scenario x clock-scale grid kernel shared by the analysis arms.

:mod:`repro.inject` (fault-injection ladders) and :mod:`repro.mc`
(Monte Carlo yield curves) both ask the paper's Eq. 2 question over one
grid: a component synthesized once, a fresh corner that fixes the
guardband-free clock, and aged scenarios timed against multiples of
that clock. This module holds what the two arms share; the
arm-specific science (faultloads, masks, sample blocks, yield) stays in
the arms:

* :class:`GridSpec` — the six common spec fields, their validation and
  the JSON wire format (``to_dict`` / ``from_dict`` / ``key``), derived
  once from the dataclass fields;
* :func:`grid_corners` — fresh first, then the spec's scenarios
  deduplicated by label;
* :class:`GridPrelude` / :func:`memoized_prelude` — the per-process
  synthesis + batched-STA prelude each arm extends with its own fields;
* :func:`run_whole` — the whole-run pool worker behind the served
  ``/v1/inject`` and ``/v1/mc`` endpoints.
"""

import typing
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..cells.library import default_library
from ..sta.engine import analyze_batch, compile_timing, corner_label
from .cache import synthesize_netlist_memoized
from .specs import SpecError, parse_component, parse_effort, parse_scenario


def _coercer(annotation):
    """Wire-value -> field-value conversion of one annotated field."""
    args = typing.get_args(annotation)
    if typing.get_origin(annotation) is tuple:
        return lambda value: tuple(args[0](item) for item in value)
    if type(None) in args:                          # Optional[X]
        return lambda value: None if value is None else args[0](value)
    return annotation


@dataclass(frozen=True)
class GridSpec:
    """Fields every grid campaign has; arms subclass and add their own.

    ``scenarios`` are textual corner specs (``fresh``, ``worst10y``,
    ``balance1y``, ``10y_worst``); ``clock_scales`` multiply the fresh
    (guardband-free) critical path, so ``1.0`` keeps the fresh clock
    and ``0.9`` overclocks by 10%. Subclasses set :attr:`kind` (the
    noun in error messages) and extend :meth:`validated` with their
    own range checks.
    """

    component: str
    scenarios: Tuple[str, ...] = ("worst10y",)
    clock_scales: Tuple[float, ...] = (1.0,)
    seed: int = 20170618
    effort: str = "high"
    width: Optional[int] = None

    kind = "grid"

    def labels(self):
        """Corner labels of the spec's scenarios, in spec order."""
        return [corner_label(parse_scenario(s)) for s in self.scenarios]

    def validated(self):
        """Parse/normalize every field; raises :class:`SpecError`."""
        parse_component(self.component, width=self.width)
        parse_effort(self.effort)
        labels = self.labels()
        if not labels:
            raise SpecError("%s spec needs at least one scenario"
                            % self.kind)
        if len(set(labels)) != len(labels):
            raise SpecError("duplicate scenarios in %r" % (self.scenarios,))
        if not self.clock_scales:
            raise SpecError("%s spec needs at least one clock scale"
                            % self.kind)
        if any(not (0.0 < float(s) <= 4.0) for s in self.clock_scales):
            raise SpecError("clock scales must be in (0, 4], got %r"
                            % (self.clock_scales,))
        if int(self.seed) < 0:
            raise SpecError("seed must be non-negative, got %r"
                            % (self.seed,))
        return self

    def _wire(self):
        """``(name, normalized value)`` of every field, in field order."""
        return [(f.name, _coercer(f.type)(getattr(self, f.name)))
                for f in fields(self)]

    def to_dict(self):
        """JSON-serializable form (see :meth:`from_dict`)."""
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in self._wire()}

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; unknown fields and values that do
        not convert to the field's type raise :class:`SpecError`."""
        if not isinstance(data, dict):
            raise SpecError("%s spec must be an object, got %r"
                            % (cls.kind, type(data).__name__))
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise SpecError("unknown %s spec fields: %s"
                            % (cls.kind, ", ".join(unknown)))
        if "component" not in data:
            raise SpecError("%s spec needs a component" % cls.kind)
        kwargs = {}
        for name, value in data.items():
            try:
                kwargs[name] = _coercer(known[name].type)(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecError("%s spec field %r has a bad value %.60s "
                                "(%s)" % (cls.kind, name, repr(value), exc))
        return cls(**kwargs).validated()

    def key(self):
        """Stable fingerprint for per-process prelude memoization."""
        return (type(self).__name__,) + tuple(v for __, v in self._wire())


def grid_corners(spec):
    """Corner grid: fresh first (it defines the guardband-free clock),
    then the spec's scenarios in order, deduplicated by label."""
    corners = [parse_scenario("fresh")]
    labels = ["fresh"]
    for text in spec.scenarios:
        scenario = parse_scenario(text)
        label = corner_label(scenario)
        if label not in labels:
            corners.append(scenario)
            labels.append(label)
    return tuple(corners), tuple(labels)


@dataclass
class GridPrelude:
    """Synthesis + batched STA of one spec's component at every corner."""

    component: object
    netlist: object
    program: object
    corners: tuple
    labels: tuple
    batch: object
    fresh_clock_ps: float
    library: object


def grid_prelude(spec, library=None):
    """Build the shared prelude of *spec*.

    The netlist comes from the per-process synthesized-netlist memo and
    the timing program from the memoized lowering, so a second arm on
    the same component, effort and library reuses both.
    """
    component = parse_component(spec.component, width=spec.width)
    lib = library if library is not None else default_library()
    netlist = synthesize_netlist_memoized(component, lib, effort=spec.effort)
    program = compile_timing(netlist, lib)
    corners, labels = grid_corners(spec)
    batch = analyze_batch(netlist, lib, corners, program=program)
    return GridPrelude(component=component, netlist=netlist, program=program,
                       corners=corners, labels=labels, batch=batch,
                       fresh_clock_ps=float(batch.critical_path_ps[0]),
                       library=lib)


_preludes = {}
_PRELUDE_LIMIT = 8


def memoized_prelude(spec, library, build):
    """Per-process memo of arm preludes, ``build(spec, library)`` on miss.

    Keyed by the spec fingerprint (which names the spec class, so arms
    never collide) plus the library's identity: with the default
    library the memo is effective across the tasks of a run and across
    runs of the same spec; an explicit library instance keys by ``id``
    so custom libraries stay correct. Oldest entry out first.
    """
    key = (spec.key(), "default" if library is None else id(library))
    prelude = _preludes.get(key)
    if prelude is None:
        if len(_preludes) >= _PRELUDE_LIMIT:
            _preludes.pop(next(iter(_preludes)))
        prelude = build(spec, library)
        _preludes[key] = prelude
    return prelude


def run_whole(task):
    """Module-level whole-run worker of the served grid endpoints.

    ``task`` carries the spec's wire form, its class and the arm's
    runner; the run is serial inside this one pool worker, and its
    result dict is a pure function of the spec.
    """
    spec = task["spec_type"].from_dict(task["spec"])
    return task["run"](spec, jobs=1).to_dict()
