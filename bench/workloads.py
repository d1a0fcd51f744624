"""The benchmark's workloads: seeded inputs, one timed task, and its gate.

Each workload turns the benchmark seed into the inputs the program
receives (override strings for the presets, a sweep seed for the oracle),
runs one complete task through the public API, and checks the answer.
Calls go through module attributes (``experiment.run_delay_scan``, not a
name imported here) so that the traced run's wrappers are seen.

Import this module only after the BLAS thread count is pinned.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from homsim import experiment, fock

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

DEFAULT_SEED = 0

# Scenario cached properties, in dependency order: accessing all of them
# materialises everything `run_delay_scan` needs.
STAGES = ("grids", "pump", "filters", "bases", "source_params", "source",
          "detectors", "tau_list")

# Values a non-default seed scales by a factor in [1 - PERTURBATION,
# 1 + PERTURBATION]; none of them changes an array shape or the delay list.
PERTURBED = (("source", "pair_probability"),
             ("detectors", "signal_transmission"),
             ("detectors", "idler_transmission"))
PERTURBATION = 0.03

# One oracle sweep: 4 three-mode and 12 two-mode states at the CLI's cutoff.
# A three-mode state costs 2 or 3 gate applications depending on its draw,
# so each repetition sweeps fresh states and the median covers many draws.
ORACLE_STATES = 16
ORACLE_CUTOFF = 12


@dataclass
class Tally:
    """Operations attempted and failed; a failure is recorded, not raised."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def attempt(self, task, check):
        """Run `task` once; return its (timings, answer), or None if it failed.

        An operation fails when it raises or when `check(answer)` reports a
        wrong answer; either way the benchmark goes on.
        """
        self.attempted += 1
        try:
            timings, answer = task()
        except Exception as exc:  # counted in error_rate, never propagated
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        ok, message = check(answer)
        if not ok:
            self.failed += 1
            self.errors.append(message)
            return None
        return timings, answer


class PresetWorkload:
    """One preset end to end: scenario, every stage, the 41-point scan, the fit."""

    kind = "preset"

    def __init__(self, preset, seed, reference=REFERENCE):
        self.preset = preset
        self.seed = seed
        self.reference = reference
        self.overrides = preset_overrides(preset, seed)

    def describe(self):
        return {"preset": self.preset, "overrides": self.overrides}

    def setup_sample(self):
        return None  # set-up is timed inside the task

    def task(self, rep=0):
        """Every repetition repeats the same scenario."""
        t0 = perf_counter()
        scenario = experiment.preset_scenario(self.preset, overrides=self.overrides)
        for stage in STAGES:
            getattr(scenario, stage)
        t1 = perf_counter()
        scan = experiment.run_delay_scan(scenario)
        t2 = perf_counter()
        fit = experiment.fit_visibility(scan)
        t3 = perf_counter()
        i0 = int(np.argmin(np.abs(scan.tau)))
        if abs(scan.tau[i0]) > 1e-3 * scan.dip_width:
            raise ValueError("the delay list does not contain tau = 0")
        timings = {"solve_s": t3 - t0, "setup_s": t1 - t0, "scan_s": t2 - t1}
        return timings, (fit.visibility, float(scan.p4[i0]))

    def check(self, answer):
        v, p4 = answer
        if not (math.isfinite(v) and math.isfinite(p4) and p4 > 0):
            return False, f"{self.preset}: non-finite answer V={v!r} p4={p4!r}"
        if self.seed == DEFAULT_SEED:
            ref = self.reference["presets"][self.preset]
            tol = self.reference["tolerance"]
            if (abs(v - ref["visibility"]) > tol["visibility_abs"]
                    or abs(p4 - ref["p4_tau0"]) > tol["p4_tau0_rel"] * ref["p4_tau0"]):
                return False, (f"{self.preset}: V={v!r} p4(0)={p4!r} differ from the "
                               f"reference V={ref['visibility']!r} p4(0)={ref['p4_tau0']!r}")
            return True, ""
        band = self.reference["criterion_7_band"][self.preset]
        if abs(v - band["center"]) > band["half_width"]:
            return False, (f"{self.preset}: V={v!r} outside "
                           f"{band['center']} +- {band['half_width']}")
        return True, ""


class OracleWorkload:
    """Engine-vs-Fock equivalence sweep over seeded random 2-3-mode states.

    It has no scenario to build; its set-up is the package import that
    `homsim oracle-check` pays before the sweep, timed in a fresh
    interpreter.  The task is the sweep, so solve_s and scan_s coincide.
    """

    kind = "oracle"

    def __init__(self, seed):
        self.seed = seed

    def describe(self):
        return {"sweep_seeds": f"SeedSequence([{self.seed}, rep])",
                "states": ORACLE_STATES, "cutoff": ORACLE_CUTOFF}

    def setup_sample(self):
        return import_seconds()

    def sweep_seed(self, rep):
        return int(np.random.SeedSequence([self.seed, rep]).generate_state(1)[0])

    def task(self, rep=0):
        """Repetition `rep` sweeps the states drawn from its own sweep seed."""
        seed = self.sweep_seed(rep)
        t0 = perf_counter()
        worst, checked = fock.random_equivalence_comparison(
            n_states=ORACLE_STATES, seed=seed, cutoff=ORACLE_CUTOFF)
        t1 = perf_counter()
        return {"solve_s": t1 - t0, "scan_s": t1 - t0}, (worst, checked)

    def check(self, answer):
        worst, checked = answer
        expected = sum(2 ** (3 if i % 4 == 0 else 2) for i in range(ORACLE_STATES))
        if checked != expected:
            return False, f"oracle: {checked} comparisons, expected {expected}"
        if not worst <= REFERENCE["oracle_max_deviation"]:
            return False, (f"oracle: max deviation {worst:.3e} exceeds "
                           f"{REFERENCE['oracle_max_deviation']:.1e}")
        return True, ""


WORKLOADS = {
    "preset_single_mode": lambda seed: PresetWorkload("single_mode", seed),
    "preset_multimode": lambda seed: PresetWorkload("multimode", seed),
    "oracle_sweep": OracleWorkload,
}


def preset_overrides(preset, seed):
    """Override strings for `seed`: none for the default seed, otherwise
    a few per cent on each PERTURBED value."""
    if seed == DEFAULT_SEED:
        return []
    config = experiment.preset_scenario(preset).config
    rng = np.random.default_rng(seed)
    return [f"{section}.{key}="
            f"{config.getfloat(section, key) * rng.uniform(1 - PERTURBATION, 1 + PERTURBATION)!r}"
            for section, key in PERTURBED]


def import_seconds():
    """Time `import homsim` in a fresh interpreter with this process's environment."""
    code = ("import time; t = time.perf_counter(); import homsim; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])
