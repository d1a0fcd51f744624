"""Self-tests for the benchmark harness (not part of the tier-1 suite).

    python3 bench/selftest.py

They run each preset a few times, about half a minute in all.
"""

from __future__ import annotations

import json
import sys
import unittest
import unittest.mock

import run

run.pin_threads()
run.import_program()

from homsim import experiment  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

PRESET_WORKLOADS = {"single_mode": "preset_single_mode", "multimode": "preset_multimode"}


class TracedPresetRuns(unittest.TestCase):
    """One untraced and one traced task per preset at the default seed."""

    @classmethod
    def setUpClass(cls):
        cls.untraced, cls.traced, cls.tracers, cls.layers = {}, {}, {}, {}
        for preset, name in PRESET_WORKLOADS.items():
            workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
            cls.untraced[preset] = workload.task(0)[1]
            tracer = spans.Tracer()
            tracer.rep = 0
            with spans.installed(tracer):
                timings, cls.traced[preset] = workload.task(0)
            cls.tracers[preset] = tracer
            cls.layers[preset] = spans.layer_metrics(tracer.spans, {0: timings["solve_s"]})

    def test_wrappers_leave_answers_bit_identical(self):
        for preset in PRESET_WORKLOADS:
            self.assertEqual(self.traced[preset], self.untraced[preset], preset)

    def test_wrappers_are_removed(self):
        for _, module, attr, _ in spans.TRACED:
            fn = getattr(sys.modules[module], attr)
            self.assertFalse(hasattr(fn, "__wrapped__"), f"{module}.{attr}")
        for stage in workloads.STAGES:
            prop = experiment.Scenario.__dict__[stage]
            self.assertFalse(hasattr(prop.func, "__wrapped__"), stage)

    def test_every_layer_is_traced(self):
        names = {s.name for s in self.tracers["multimode"].spans}
        for span_name in spans.SELF_TIMES.values():
            if not span_name.startswith("fock."):
                self.assertIn(span_name, names)

    def test_children_never_exceed_their_parent(self):
        for preset, tracer in self.tracers.items():
            covered = {}
            for span in tracer.spans:
                if span.parent is not None:
                    covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
            for i, span in enumerate(tracer.spans):
                self.assertLessEqual(covered.get(i, 0.0), span.duration, (preset, span.name))
            self.assertTrue(all(t >= 0.0 for t in spans.self_times(tracer.spans)), preset)

    def test_module_spans_cover_the_task_within_the_wrapper_time(self):
        for preset, layer in self.layers.items():
            self.assertGreaterEqual(layer["trace.unattributed_s"], 0.0, preset)
            self.assertLessEqual(layer["trace.unattributed_s"], layer["trace.wrapper_s"], preset)

    def test_layer_counts(self):
        single, multi = self.layers["single_mode"], self.layers["multimode"]
        self.assertEqual((single["modes.retained_modes"], multi["modes.retained_modes"]), (2, 9))
        self.assertEqual((single["detection.register_modes"],
                          multi["detection.register_modes"]), (8, 36))
        self.assertEqual(multi["network.projection_calls"], 41)
        self.assertEqual(multi["detection.no_click_calls"], 41 * 24)
        self.assertGreater(single["source.raman_gflop_computed"], 0.0)

    def test_default_seed_reproduces_the_presets(self):
        for preset, name in PRESET_WORKLOADS.items():
            workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
            self.assertEqual(workload.overrides, [])
            self.assertEqual(workload.check(self.untraced[preset]), (True, ""))
        scenario = experiment.preset_scenario("single_mode")
        scan = experiment.run_delay_scan(scenario)
        fit = experiment.fit_visibility(scan)
        self.assertEqual(self.untraced["single_mode"],
                         (fit.visibility, float(scan.p4[len(scan.tau) // 2])))

    def test_wrong_reference_is_counted_not_raised(self):
        wrong = dict(workloads.REFERENCE, presets=workloads.REFERENCE["wrong_reference"])
        workload = workloads.PresetWorkload("single_mode", workloads.DEFAULT_SEED,
                                            reference=wrong)
        tally = workloads.Tally()
        answer = self.untraced["single_mode"]
        self.assertIsNone(tally.attempt(lambda: ({}, answer), workload.check))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("reference", tally.errors[0])


class Harness(unittest.TestCase):
    def test_raising_task_is_counted(self):
        tally = workloads.Tally()
        self.assertIsNone(tally.attempt(lambda: 1 / 0, lambda answer: (True, "")))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))

    def test_a_layer_missing_from_the_program_fails_the_traced_task(self):
        renamed = (("detection.no_click", "homsim.detection", "no_click_renamed", None),)
        tracer, tally = spans.Tracer(), workloads.Tally()

        def task():
            with spans.installed(tracer):
                return {}, None

        with unittest.mock.patch.object(spans, "TRACED", spans.TRACED + renamed):
            self.assertIsNone(tally.attempt(task, lambda answer: (True, "")))
        self.assertEqual((tally.attempted, tally.failed), (1, 1))
        self.assertIn("no_click_renamed", tally.errors[0])
        for _, module, attr, _ in spans.TRACED:
            self.assertFalse(hasattr(getattr(sys.modules[module], attr), "__wrapped__"))

    def test_other_seeds_perturb_values_only(self):
        base = experiment.preset_scenario("multimode").config
        overrides = workloads.preset_overrides("multimode", 5)
        self.assertEqual(overrides, workloads.preset_overrides("multimode", 5))
        self.assertEqual(len(overrides), len(workloads.PERTURBED))
        for text, (section, key) in zip(overrides, workloads.PERTURBED):
            target, value = text.split("=")
            self.assertEqual(target, f"{section}.{key}")
            ratio = float(value) / base.getfloat(section, key)
            self.assertLessEqual(abs(ratio - 1.0), workloads.PERTURBATION)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"] for m in spec["end_to_end"]}, set(run.END_TO_END))
        layer = {*spans.SELF_TIMES, *spans.CALLS, *spans.ATTRS, *spans.TRACE,
                 "trace.overhead_s"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, layer)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOAD_NAMES))
        self.assertEqual(set(workloads.WORKLOADS), set(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
