"""Spans around homsim's public functions, for the benchmark's traced run.

`installed(tracer)` replaces each traced function in every homsim module
that holds it, where it is defined and where it is imported, with a
wrapper that records a span; nested calls into traced functions become
child spans.  The Scenario stage properties are wrapped the same way.
Spans stay in memory until the run writes them out.  A layer's self time
is its span's duration minus the time its direct children cover.  Each
span also records the time its wrapper spent outside it, so the cost of
tracing is measured inside the task rather than only as a difference of
two noisy task times.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from homsim import experiment

from workloads import STAGES


@dataclass(slots=True)
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    rep: int | None = None
    wrapper: float = 0.0  # time the wrapper spent outside [start, end]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; `rep` labels the workload repetition they belong to."""

    def __init__(self):
        self.spans = []
        self.rep = None
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        span = Span(name, parent=self._open[-1] if self._open else None, rep=self.rep)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._open.pop()

    def wrap(self, name, fn, note=None):
        """`fn` with a span per call; `note(arguments, result)` adds counts."""
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if note:
                span.attrs = note(signature.bind(*args, **kwargs).arguments, result)
            span.wrapper = perf_counter() - entered - span.duration
            return result

        return traced


def _note_grids(arguments, grids):
    return {"pump_points": grids["pump"].n_points,
            "band_points": max(g.n_points for k, g in grids.items() if k != "pump")}


def _note_retained(arguments, basis):
    return {"retained_modes": basis.retained()}


def _note_raman(arguments, block):
    # (nb x n_nu) @ (n_nu x nb) complex product, n_nu = nb + n_pump - 1,
    # 8 real flops per complex multiply-add
    nb = arguments["grid"].n_points
    n_nu = nb + arguments["pump"].grid.n_points - 1
    return {"gflop": 8.0 * nb * nb * n_nu / 1e9}


def _note_register(arguments, value):
    return {"register_modes": arguments["normal"].shape[0]}


# (span name, defining module, function, note)
TRACED = (
    ("experiment.preset_scenario", "homsim.experiment", "preset_scenario", None),
    ("experiment.run_delay_scan", "homsim.experiment", "run_delay_scan", None),
    ("experiment.fit_visibility", "homsim.experiment", "fit_visibility", None),
    ("modes.build_kernel", "homsim.modes", "build_kernel", None),
    ("modes.schmidt_decompose", "homsim.modes", "schmidt_decompose", _note_retained),
    ("source.calibrate_gain", "homsim.source", "calibrate_gain", None),
    ("source.source_moments", "homsim.source", "source_moments", None),
    ("source.raman_moments", "homsim.source", "raman_moments", _note_raman),
    ("network.detection_mode_projection", "homsim.network",
     "detection_mode_projection", None),
    ("detection.coincidence_probability", "homsim.detection",
     "coincidence_probability", None),
    ("detection.singles_probability", "homsim.detection", "singles_probability", None),
    ("detection.no_click_expectation", "homsim.detection", "no_click_expectation",
     _note_register),
    ("fock.random_equivalence_comparison", "homsim.fock",
     "random_equivalence_comparison", None),
    ("fock.moments_from_state_spec", "homsim.fock", "moments_from_state_spec", None),
    ("fock.fock_state_diagonal", "homsim.fock", "fock_state_diagonal", None),
    ("fock.expectation_from_diagonal", "homsim.fock", "expectation_from_diagonal", None),
)
STAGE_NOTES = {"grids": _note_grids}

# per-layer metric -> span name whose self time it sums over a repetition
SELF_TIMES = {
    "modes.build_kernel_s": "modes.build_kernel",
    "modes.schmidt_decompose_s": "modes.schmidt_decompose",
    "source.calibrate_gain_s": "source.calibrate_gain",
    "source.source_moments_self_s": "source.source_moments",
    "source.raman_moments_s": "source.raman_moments",
    "experiment.preset_scenario_s": "experiment.preset_scenario",
    **{f"experiment.stage.{s}_s": f"experiment.stage.{s}" for s in STAGES},
    "experiment.scan_self_s": "experiment.run_delay_scan",
    "experiment.fit_visibility_s": "experiment.fit_visibility",
    "network.projection_s": "network.detection_mode_projection",
    "detection.coincidence_self_s": "detection.coincidence_probability",
    "detection.singles_self_s": "detection.singles_probability",
    "detection.no_click_s": "detection.no_click_expectation",
    "fock.sweep_self_s": "fock.random_equivalence_comparison",
    "fock.moments_s": "fock.moments_from_state_spec",
    "fock.state_diagonal_s": "fock.fock_state_diagonal",
    "fock.expectation_s": "fock.expectation_from_diagonal",
}
# per-layer metric -> span name whose calls it counts over a repetition
CALLS = {
    "network.projection_calls": "network.detection_mode_projection",
    "detection.no_click_calls": "detection.no_click_expectation",
    "fock.comparisons": "fock.expectation_from_diagonal",
}
# per-layer metric -> (span attribute, how repetitions' values combine)
ATTRS = {
    "grids.pump_points": ("pump_points", max),
    "grids.band_points": ("band_points", max),
    "modes.retained_modes": ("retained_modes", max),
    "detection.register_modes": ("register_modes", max),
    "source.raman_gflop_computed": ("gflop", sum),
}
# per-layer metrics about the tracing itself, computed in layer_metrics
TRACE = ("trace.unattributed_s", "trace.wrapper_s")


def unit(metric):
    if metric == "source.raman_gflop_computed":
        return "GFLOP"
    return "s" if metric.endswith("_s") else "count"


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced function and stage property; restore them on exit.

    A traced function the program no longer defines raises AttributeError,
    so a renamed layer fails the traced task instead of reading 0.
    """
    patches = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "homsim" or name.startswith("homsim."))]
    try:
        for span_name, module, attr, note in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapped = tracer.wrap(span_name, original, note)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        for stage in STAGES:
            original = experiment.Scenario.__dict__[stage]
            wrapped = cached_property(tracer.wrap(f"experiment.stage.{stage}",
                                                  original.func, STAGE_NOTES.get(stage)))
            wrapped.__set_name__(experiment.Scenario, stage)
            patches.append((experiment.Scenario, stage, original))
            setattr(experiment.Scenario, stage, wrapped)
        yield tracer
    finally:
        for obj, attr, original in reversed(patches):
            setattr(obj, attr, original)


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_metrics(spans, solve_s):
    """Median over repetitions of each per-layer metric derived from spans.

    `solve_s` maps each traced repetition to its solve time.  Two metrics
    check the tracing itself: trace.unattributed_s, the part of solve_s
    that no top-level module span covers, and trace.wrapper_s, the time
    spent in the wrappers outside their spans.  A metric whose module did
    not run in a repetition reads 0 for it.
    """
    own = self_times(spans)
    per_rep = {name: [] for name in (*SELF_TIMES, *CALLS, *ATTRS, *TRACE)}
    for rep, solve in sorted(solve_s.items()):
        mine = [(s, t) for s, t in zip(spans, own) if s.rep == rep]
        for metric, span_name in SELF_TIMES.items():
            per_rep[metric].append(sum(t for s, t in mine if s.name == span_name))
        for metric, span_name in CALLS.items():
            per_rep[metric].append(sum(1 for s, _ in mine if s.name == span_name))
        for metric, (key, combine) in ATTRS.items():
            values = [s.attrs[key] for s, _ in mine if key in s.attrs]
            per_rep[metric].append(combine(values) if values else 0)
        top = sum(s.duration for s, _ in mine if s.parent is None)
        per_rep["trace.unattributed_s"].append(solve - top)
        per_rep["trace.wrapper_s"].append(sum(s.wrapper for s, _ in mine))
    return {metric: statistics.median(values) for metric, values in per_rep.items()}


def as_records(spans):
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "rep": s.rep, "wrapper": s.wrapper, **s.attrs} for s in spans]
