"""Seeded fuzzing of scenario values: every draw either runs to valid
probabilities or fails as input the user can correct.

Each draw overrides 1-3 float keys that the preset's shapes read: detector
keys uniformly in [0, 1], `source.pair_probability` log-uniformly over
1e-6...3, and every other key at the preset's value times a log-uniform
factor within +-1.5 decades.  The grid and the scan are cut small
(`filters.grid_points=129`, `scan.points=5`) to keep the draws cheap.

The same draws also check two exact relations between runs, which test
the answer without an oracle: the two spools are identical, so
p4(tau) = p4(-tau), and the model depends on frequency offsets alone, so
moving `pump.center_nm` from 1310 to 1550 changes no probability.
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
# Relative tolerances of the exact relations.  p4 is an alternating sum of
# no-click expectations near 1, and its rounding grows as p4 falls: the
# worst of these draws is ~1e-7 at p4 ~ 1e-15 (4.6e-10 on single_mode).
# Pair and singles probabilities round to ~1e-13.
P4_RTOL = 1e-6
PROBABILITY_RTOL = 1e-11


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



def _symmetric_scan(preset, overrides):
    """The scan of the draw on a delay list that is exactly odd about 0."""
    scenario = preset_scenario(preset, overrides + SMALL)
    half = scenario.tau_list[len(scenario.tau_list) // 2 + 1:]
    scenario.tau_list = np.concatenate((-half[::-1], [0.0], half))
    return run_delay_scan(scenario)


def _defect(a, b):
    """Largest |a - b| / max(|a|, |b|), zero where both vanish."""
    scale = np.maximum(np.abs(a), np.abs(b))
    return float(np.max(np.divide(np.abs(a - b), scale, out=np.zeros_like(scale),
                                  where=scale > 0)))


def test_seeded_draws_keep_delay_symmetry_and_pump_centre_invariance():
    rng = np.random.default_rng(32)
    ran, worst = 0, collections.defaultdict(float)
    for i in range(24):
        preset = PRESET_NAMES[i % 2]
        overrides = _draw(rng, preset)
        try:
            scans = [_symmetric_scan(preset, overrides + [f"pump.center_nm={nm}"])
                     for nm in (1310, 1550)]
        except (ExperimentError, SourceModelError):
            continue
        ran += 1
        at_1310, at_1550 = scans
        for name, col in (("p4", "p4"), ("pair", "p2_ab")):
            values = getattr(at_1310, col)
            worst[f"{name} tau"] = max(worst[f"{name} tau"], _defect(values, values[::-1]))
            worst[f"{name} centre"] = max(worst[f"{name} centre"],
                                          _defect(values, getattr(at_1550, col)))
        for key in "ABCD":
            single = at_1310.singles[key]
            worst["singles tau"] = max(worst["singles tau"], _defect(single, single[::-1]))
            worst["singles centre"] = max(worst["singles centre"],
                                          _defect(single, at_1550.singles[key]))
    assert ran >= 12, ran
    assert worst["p4 tau"] <= P4_RTOL and worst["p4 centre"] <= P4_RTOL, dict(worst)
    assert max(v for k, v in worst.items() if not k.startswith("p4")) <= PROBABILITY_RTOL, \
        dict(worst)
