"""Seeded fuzzing of scenario values: every draw either runs to valid
probabilities or fails as input the user can correct.

Each draw overrides 1-3 float keys that the preset's shapes read: detector
keys uniformly in [0, 1], `source.pair_probability` log-uniformly over
1e-6...3, and every other key at the preset's value times a log-uniform
factor within +-1.5 decades.  The grid and the scan are cut small
(`filters.grid_points=129`, `scan.points=5`) to keep the draws cheap.
"""

import collections

import numpy as np

from homsim.experiment import (
    PRESET_NAMES,
    SCENARIO_KEYS,
    ExperimentError,
    preset_scenario,
    run_delay_scan,
)
from homsim.source import SourceModelError

DRAWS = 60
SMALL = ["filters.grid_points=129", "scan.points=5"]
# Physical-range errors that a valid scenario can still raise: the inputs
# parse and lie within their bounds, but the physics they ask for is out of
# the model's range.
PHYSICAL_RANGE = ("outside the perturbative range",)


def _float_keys(scenario):
    """The float keys the scenario sets and its shapes read."""
    keys = []
    for name, key in SCENARIO_KEYS.items():
        if key.kind is not float or scenario.value(name) is None:
            continue
        if key.read_when and scenario.value(key.read_when[0]) not in key.read_when[1:]:
            continue
        keys.append(name)
    return keys


def _draw(rng, preset):
    base = preset_scenario(preset)
    keys = _float_keys(base)
    overrides = []
    for name in rng.choice(keys, size=rng.integers(1, 4), replace=False):
        if name.startswith("detectors."):
            value = rng.uniform(0, 1)
        elif name == "source.pair_probability":
            value = 10 ** rng.uniform(-6, np.log10(3))
        else:
            value = base.value(name) * 10 ** rng.uniform(-1.5, 1.5)
        overrides.append(f"{name}={value!r}")
    return overrides


def _outcome(preset, overrides):
    """"ran", "named" or "physical", or a string saying what went wrong."""
    try:
        scan = run_delay_scan(preset_scenario(preset, overrides + SMALL))
    except ExperimentError as exc:
        return "named" if any(name in str(exc) for name in SCENARIO_KEYS) else f"unnamed: {exc}"
    except SourceModelError as exc:
        if any(text in str(exc) for text in PHYSICAL_RANGE):
            return "physical"
        return f"SourceModelError: {exc}"
    except Exception as exc:  # noqa: BLE001 - every other failure is a finding
        return f"{type(exc).__name__}: {exc}"
    values = np.concatenate([scan.p4, scan.p2_ab, scan.p2_acc, *scan.singles.values()])
    if not np.all(np.isfinite(values) & (values >= 0) & (values <= 1)):
        return f"probabilities outside [0, 1]: {values}"
    return "ran"


def test_seeded_draws_run_or_name_a_key():
    rng = np.random.default_rng(2026)
    outcomes = collections.Counter()
    failures = []
    for i in range(DRAWS):
        preset = PRESET_NAMES[i % 2]
        overrides = _draw(rng, preset)
        outcome = _outcome(preset, overrides)
        outcomes[outcome if outcome in ("ran", "named", "physical") else "failed"] += 1
        if outcome not in ("ran", "named", "physical"):
            failures.append((preset, overrides, outcome))
    assert not failures, failures
    # the draws must reach both the physics and the input checks
    assert outcomes["ran"] >= DRAWS // 2 and outcomes["named"] >= 1, outcomes

