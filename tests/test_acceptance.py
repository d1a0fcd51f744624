"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from homsim.detection import ClickQuery, coincidence_probability, no_click_expectation
from homsim.experiment import (
    fit_visibility,
    load_scenario,
    preset_scenario,
    run_delay_scan,
)
from homsim.fock import (
    fock_oracle_click_probability,
    fock_state_diagonal,
    random_equivalence_comparison,
)
from homsim.grids import TWO_PI, FrequencyGrid
from homsim.modes import build_kernel, make_profile, rect_rect_basis, schmidt_decompose


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. eigenvalue regimes of the rect-rect chain
# ---------------------------------------------------------------------------

def test_criterion_1_eigenvalue_regimes():
    t0 = time.perf_counter()
    hi = rect_rect_basis(3.8).eigenvalues
    lo = rect_rect_basis(0.7).eigenvalues
    elapsed = time.perf_counter() - t0
    ok = (hi[0] >= 0.97 and abs(hi[1] - 0.90) <= 0.05 and abs(hi[2] - 0.50) <= 0.08
          and abs(lo[0] - 0.40) <= 0.05 and lo[1] <= 0.05 and lo[2] <= 0.05
          and elapsed < 5.0)
    report(1, ok, f"c=3.8 -> ({hi[0]:.3f}, {hi[1]:.3f}, {hi[2]:.3f}); "
                  f"c=0.7 -> ({lo[0]:.3f}, {lo[1]:.3f}, {lo[2]:.3f}); {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. independent dense discretization at 4x resolution
# ---------------------------------------------------------------------------

def _band_limited_oracle(c, factor=4):
    """Independent path: midpoint discretization of the sinc kernel on the
    band alone, at `factor` times the production in-band resolution."""
    n_inband = 513 // 4  # production: 513 points spanning 4 bandwidths
    n = factor * n_inband
    x = (np.arange(n) + 0.5) / n * 2.0 - 1.0  # midpoints on [-1, 1]
    dx = 2.0 / n
    kernel = (c / np.pi) * np.sinc(c * (x[:, None] - x[None, :]) / np.pi)
    return np.linalg.eigvalsh(kernel * dx)[::-1]


def test_criterion_2_dense_oracle_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (0.5, 1.0, 2.0, 4.0):
        prod = rect_rect_basis(c).eigenvalues[:6]
        oracle = _band_limited_oracle(c)[:6]
        worst = max(worst, float(np.max(np.abs(prod - oracle))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    report(2, ok, f"max |dchi| = {worst:.2e} over c in 0.5..4, j<=5; {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. trace identity for random chains
# ---------------------------------------------------------------------------

def test_criterion_3_trace_identity():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        bw = rng.uniform(0.3, 25.0)
        dur = rng.uniform(0.02, 4.0)
        grid = FrequencyGrid(center=0.0, span=4 * bw, n_points=257)
        filt = make_profile("rectangular", {"bandwidth": bw}, grid)
        basis = schmidt_decompose(build_kernel(filt, dur))
        total = float(np.sum(basis.eigenvalues))
        worst = max(worst, abs(total - bw * dur / TWO_PI) / (bw * dur / TWO_PI))
    ok = worst < 1e-8
    report(3, ok, f"worst relative trace error = {worst:.2e} over 20 random (B, T)")


# ---------------------------------------------------------------------------
# 4. Gaussian engine vs Fock oracle
# ---------------------------------------------------------------------------

def test_criterion_4_engine_oracle_equivalence():
    t0 = time.perf_counter()
    worst, checked = random_equivalence_comparison(n_states=200, seed=11, cutoff=14)
    # thermal single-mode closed form to 1e-10
    nbar, w = 0.37, 0.81
    n = np.array([[nbar]], complex)
    m = np.zeros((1, 1), complex)
    q = ClickQuery(forms={"A": np.diag([w])})
    thermal_dev = abs(no_click_expectation(n, m, q, ("A",)) - 1 / (1 + w * nbar))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and thermal_dev < 1e-10 and elapsed < 120.0
    report(4, ok, f"{checked} subset expectations over 200 states, "
                  f"max dev = {worst:.2e}; thermal closed form dev = {thermal_dev:.1e}; "
                  f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 5. ideal HOM null
# ---------------------------------------------------------------------------

IDEAL = """
[scenario]
pulses = 1e10

[pump]
shape = transform_limited_gaussian
center_nm = 1310
power_fwhm_ghz = 68.3
energy_pj = 1

[source]
detuning_thz = 1.2
length_m = 1000
temperature_k = 77
pair_probability = 1e-3
raman_scale = 0.0

[filters]
signal_shape = rectangular
signal_bandwidth_ghz = 6.0
idler_shape = rectangular
idler_bandwidth_ghz = 6.0
grid_points = 257
grid_span_factor = 4

[detectors]
signal_transmission = 1.0
idler_transmission = 1.0
quantum_efficiency = 1.0
dark_count_probability = 0.0

[scan]
points = 21
"""


def test_criterion_5_ideal_hom_null():
    # lossless, noiseless, single-mode chain: B*T/4 = 0.12 passes one mode
    scenario = load_scenario(IDEAL)
    scan = run_delay_scan(scenario)
    fit = fit_visibility(scan)
    spec = [("fock", 0, 1), ("fock", 1, 1), ("bs", (0, 1), np.pi / 4, 0.0)]
    p_fock = fock_oracle_click_probability(
        fock_state_diagonal(spec, 2, 6), {"A": [1.0, 0.0], "B": [0.0, 1.0]}, ("A", "B"))
    ok = fit.visibility > 0.99 and p_fock == pytest.approx(0.0, abs=1e-12)
    report(5, ok, f"pipeline V = {fit.visibility:.4f} at pair prob 1e-3; "
                  f"Fock-oracle HOM coincidence = {p_fock:.1e}")


# ---------------------------------------------------------------------------
# 6. thermal classical bound
# ---------------------------------------------------------------------------

def test_criterion_6_thermal_bound():
    worst = 0.0
    for nbar in (0.05, 0.35, 1.2):
        w = 0.9
        u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        n_src = np.diag([nbar, nbar]).astype(complex)
        n_mix = u.conj() @ n_src @ u.T
        m_mix = np.zeros((2, 2), complex)
        q = ClickQuery(forms={"A": np.diag([w, 0.0]), "B": np.diag([0.0, w])})
        p_dip = coincidence_probability(n_mix, m_mix, q, ("A", "B"))
        w_map = np.array([[1, 0], [0, 1], [1, 0], [0, -1]]) / np.sqrt(2)
        n4 = w_map.conj() @ n_src @ w_map.T
        q4 = ClickQuery(forms={"A": np.diag([w, w, 0, 0]),
                               "B": np.diag([0, 0, w, w])})
        p_far = coincidence_probability(n4, np.zeros((4, 4), complex),
                                        q4, ("A", "B"))
        worst = max(worst, 1 - p_dip / p_far)
    ok = worst <= 0.5 + 1e-9
    report(6, ok, f"max twofold thermal dip visibility = {worst:.6f} <= 0.5")


# ---------------------------------------------------------------------------
# 7. preset visibility predictions (and 9: plateau counts)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def preset_results():
    out = {}
    t0 = time.perf_counter()
    for name in ("single_mode", "multimode"):
        scenario = preset_scenario(name)
        scan = run_delay_scan(scenario)
        out[name] = (scenario, scan, fit_visibility(scan))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_7_preset_visibilities(preset_results):
    v_single = preset_results["single_mode"][2].visibility
    v_multi = preset_results["multimode"][2].visibility
    elapsed = preset_results["elapsed"]
    ok = (abs(v_single - 0.72) <= 0.05 and abs(v_multi - 0.17) <= 0.05
          and elapsed < 600.0)
    # ordering robust to +-20% scaling of the bundled Raman profile
    margins = []
    for scale in (0.8, 1.2):
        vs = {}
        for name in ("single_mode", "multimode"):
            scenario = preset_scenario(
                name, overrides=[f"source.raman_scale={scale}", "scan.points=21"])
            vs[name] = fit_visibility(run_delay_scan(scenario)).visibility
        margins.append(vs["single_mode"] - vs["multimode"])
    ok = ok and all(m >= 0.3 for m in margins)
    report(7, ok, f"V_single = {v_single:.3f} (0.72 +- 0.05), "
                  f"V_multi = {v_multi:.3f} (0.17 +- 0.05), "
                  f"ordering margins at 0.8x/1.2x Raman = "
                  f"{margins[0]:.3f}/{margins[1]:.3f} >= 0.3; scans {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. degradation monotonicity
# ---------------------------------------------------------------------------

CHEAP = """
[scenario]
pulses = 1e10

[pump]
shape = cw_carved_rect
center_nm = 1310
duration_ps = 100
rise_time_ps = 30
energy_pj = 50

[source]
detuning_thz = 1.2
length_m = 1000
temperature_k = 77
pair_probability = 0.08
raman_scale = 1.0

[filters]
signal_shape = gaussian
signal_bandwidth_ghz = 24.6
idler_shape = gaussian
idler_bandwidth_ghz = 24.6
grid_points = 171

[detectors]
signal_transmission = 0.034
idler_transmission = 0.050
quantum_efficiency = 0.20
dark_count_probability = 1.6e-4

[scan]
points = 13
"""


def test_criterion_8_degradation_monotonic():
    def vis(overrides):
        scan = run_delay_scan(load_scenario(CHEAP, overrides=overrides))
        return fit_visibility(scan).visibility

    results = {}
    ok = True
    # the pair-production sweep runs with the Raman term off: at fixed pump
    # energy more pairs also means a higher FWM-to-Raman ratio, which would
    # mask the multi-pair degradation being checked here
    for knob, values, key, extra in (
            ("g-scale", (0.5, 1.0, 2.0), "source.raman_scale", []),
            ("dark", (0.0, 1.6e-4, 1.6e-3), "detectors.dark_count_probability", []),
            ("pairs", (0.02, 0.08, 0.16), "source.pair_probability",
             ["source.raman_scale=0.0"])):
        vs = [vis([f"{key}={v}"] + extra) for v in values]
        results[knob] = vs
        ok = ok and vs[0] >= vs[1] - 1e-6 and vs[1] >= vs[2] - 1e-6
    detail = "; ".join(f"{k}: " + " >= ".join(f"{v:.3f}" for v in vs)
                       for k, vs in results.items())
    report(8, ok, detail)


# ---------------------------------------------------------------------------
# 9. plateau counts at the stated pulse totals
# ---------------------------------------------------------------------------

def test_criterion_9_plateau_counts(preset_results):
    details = []
    ok = True
    for name in ("single_mode", "multimode"):
        scenario, scan, _ = preset_results[name]
        plateau = 0.5 * (scan.p4[0] + scan.p4[-1]) * scenario.pulses
        # absolute Fig-5-style axes are not reproducible; the substitute scale
        # check is one order of magnitude around tens of counts
        good = np.isfinite(plateau) and 1.0 <= plateau <= 1000.0
        ok = ok and good
        details.append(f"{name}: {plateau:.1f} counts per {scenario.pulses:.0e} pulses")
        # far-delay plateau is flat: relative slope < 1e-2 over the last 10%
        tail = max(2, len(scan.tau) // 10)
        seg = scan.p4[-tail:]
        slope = abs(seg[-1] - seg[0]) / np.mean(seg)
        ok = ok and slope < 1e-2
        details.append(f"tail slope {slope:.1e}")
    report(9, ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 10. heralded visibility equals heralded purity
# ---------------------------------------------------------------------------

# The presets' pumps behind other filters.  tau_far lies far beyond the dip
# and inside half the band grid's alias period 2 pi / dw (320 ps for 100 GHz
# filters on 257 points).
@pytest.mark.parametrize("preset, shape, ghz, tau_far_ps", [
    ("single_mode", "rectangular", 69.9, 60),  # c = 0.71
    ("single_mode", "gaussian", 40.0, 60),     # c = 0.41
    ("multimode", "rectangular", 24.6, 300),   # c = 3.9
    ("multimode", "gaussian", 24.6, 300),      # c = 3.9
    ("multimode", "gaussian", 100.0, 200),     # c = 15.7, 33 modes per band
])
def test_criterion_10_heralded_purity(preset, shape, ghz, tau_far_ps):
    # At low gain, with no noise and no loss, the HOM visibility of two
    # heralded photons is the purity Tr sigma^2 of the heralded state
    # (Mosley et al., PRL 100, 133601 (2008)), up to O(p) multi-pair terms.
    p = 1e-4
    overrides = ["source.raman_scale=0", f"source.pair_probability={p}",
                 "detectors.dark_count_probability=0", "detectors.quantum_efficiency=1",
                 "detectors.signal_transmission=1", "detectors.idler_transmission=1",
                 "filters.grid_points=257", "scan.points=2", "scan.tau_min_ps=0",
                 f"scan.tau_max_ps={tau_far_ps}"]
    for arm in ("signal", "idler"):
        overrides += [f"filters.{arm}_shape={shape}", f"filters.{arm}_bandwidth_ghz={ghz}"]
    scenario = preset_scenario(preset, overrides=overrides)
    scan = run_delay_scan(scenario)
    vis = 1.0 - scan.p4[0] / scan.p4[1]
    # the oracle reads the chain kernels and the unit-gain pair amplitude
    # J = u diag(s) vt only: sigma ~ K_s^(1/2) J K_a* J^dag K_s^(1/2)
    k_s, k_a = (build_kernel(scenario.filters[band], scenario.pump.duration).scaled
                for band in ("signal", "idler"))
    modes = scenario.pair_modes
    pair = (modes.u * modes.s) @ modes.vt
    chi, vecs = np.linalg.eigh(k_s)
    root = (vecs * np.sqrt(np.clip(chi, 0.0, None))) @ vecs.conj().T
    sigma = root @ pair @ k_a.conj() @ pair.conj().T @ root
    purity = np.trace(sigma @ sigma).real / np.trace(sigma).real ** 2
    gap = vis - purity
    ok = abs(gap) <= 20 * p
    report(10, ok, f"{preset} pump, {shape} {ghz} GHz: V = {vis:.6f}, "
                   f"purity = {purity:.6f}, V - purity = {gap:+.1e} (bound 20 p) "
                   f"({scenario.bases['signal'].retained()} modes per band)")
