import configparser
import copy
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import homsim
from homsim import experiment
from homsim.detection import ClickQuery, DetectionError
from homsim.experiment import (
    CSV_HEADER,
    REQUIRED,
    SCENARIO_KEYS,
    DelayScan,
    ExperimentError,
    FitError,
    expected_counts,
    fit_visibility,
    load_scenario,
    preset_scenario,
    run_delay_scan,
)
from homsim.grids import FrequencyGrid
from homsim.modes import MODE_RETENTION_CUTOFF, build_kernel, schmidt_decompose
from homsim.network import retained_register
from homsim.source import default_raman_gain

CHEAP = """
[scenario]
pulses = 1e10

[pump]
shape = cw_carved_rect
center_nm = 1310
duration_ps = 100
rise_time_ps = 30
energy_pj = 40

[source]
detuning_thz = 1.2
length_m = 1000
temperature_k = 77
pair_probability = 0.10
raman_scale = 1.0

[filters]
signal_shape = rectangular
signal_bandwidth_ghz = 24.6
idler_shape = rectangular
idler_bandwidth_ghz = 24.6
grid_points = 121
grid_span_factor = 4

[detectors]
signal_transmission = 0.034
idler_transmission = 0.050
quantum_efficiency = 0.20
dark_count_probability = 1.6e-4

[scan]
points = 11
"""


def synthetic_scan(vis, sigma_ps=20.0, base=1e-9, n=41, span_ps=120.0):
    tau = np.linspace(-span_ps, span_ps, n) * 1e-12
    p4 = base * (1 - vis * np.exp(-(tau**2) / (2 * (sigma_ps * 1e-12) ** 2)))
    z = np.zeros_like(tau)
    return DelayScan(tau=tau, p4=p4, p2_ab=z + base, p2_acc=z,
                     singles={k: z for k in "ABCD"}, dip_width=sigma_ps * 2e-12)


class TestPresets:
    def test_multimode_fields(self):
        sc = preset_scenario("multimode")
        assert sc.pump.duration == pytest.approx(100e-12)
        assert sc.config.getfloat("filters", "signal_bandwidth_ghz") == 24.6
        assert sc.config.getfloat("detectors", "signal_transmission") == 0.034
        assert sc.config.getfloat("detectors", "idler_transmission") == 0.050
        assert sc.config.getfloat("detectors", "quantum_efficiency") == 0.20
        assert sc.config.getfloat("detectors", "dark_count_probability") == 1.6e-4
        assert sc.config.getfloat("source", "pair_probability") == 0.125
        assert sc.pulses == 2e10

    def test_single_mode_fields(self):
        sc = preset_scenario("single_mode")
        assert sc.pump.duration == pytest.approx(6.46e-12, rel=0.01)
        assert sc.config.getfloat("filters", "signal_bandwidth_ghz") == pytest.approx(69.9)
        assert sc.config.getfloat("detectors", "signal_transmission") == 0.055
        assert sc.config.getfloat("detectors", "idler_transmission") == 0.070
        assert sc.config.getfloat("source", "pair_probability") == 0.039
        assert sc.pulses == 1e10

    def test_empty_config_lists_missing(self):
        with pytest.raises(ExperimentError) as err:
            load_scenario("")
        msg = str(err.value)
        assert "scenario.pulses" in msg and "pump.shape" in msg
        assert "detectors.dark_count_probability" in msg

    def test_config_holds_every_default(self):
        config = preset_scenario("single_mode").config
        for name, key in SCENARIO_KEYS.items():
            if key.default not in (REQUIRED, None):
                assert config.has_option(*name.split(".")), name

    @pytest.mark.parametrize("preset", experiment.PRESET_NAMES)
    def test_preset_keys_are_declared(self, preset):
        config = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        config.read_string((resources.files("homsim.presets") / f"{preset}.ini").read_text())
        names = [f"{s}.{k}" for s in config.sections() for k in config.options(s)]
        assert names and set(names) <= set(SCENARIO_KEYS)

    def test_undeclared_key_cannot_be_read(self):
        sc = load_scenario(CHEAP)
        assert sc.value("scan.points") == 11 and sc.value("scan.tau_min_ps") is None
        with pytest.raises(KeyError, match="scan.point"):
            sc.value("scan.point")
        # declared nowhere, though the parser holds it
        sc.config.set("scan", "label", "x")
        with pytest.raises(KeyError, match="scan.label"):
            sc.value("scan.label")

    @pytest.mark.parametrize("override, problem", [
        ("detectors.dark_count_probability=nan", "is not finite"),
        ("source.length_m=inf", "is not finite"),
        ("pump.energy_pj=-inf", "is not finite"),
        ("detectors.dark_count_probability=1.5", "is outside [0, 1]"),
        ("detectors.dark_count_probability=-1e-6", "is outside [0, 1]"),
        ("scenario.pulses=0.5", "is outside [1, inf]"),
    ])
    def test_bad_float_is_named(self, override, problem):
        key = override.split("=")[0]
        with pytest.raises(ExperimentError, match=f"^{key} = .* {re.escape(problem)}$"):
            load_scenario(CHEAP, overrides=[override])

    @pytest.mark.parametrize("override, shape", [
        ("pump.duration_ps=100", "pump.shape = transform_limited_gaussian"),
        ("filters.signal_files=x.txt", "filters.signal_shape = rectangular"),
        ("filters.idler_files=x.txt", "filters.idler_shape = rectangular"),
    ])
    def test_key_of_another_shape_is_named(self, override, shape):
        key = override.split("=")[0]
        with pytest.raises(ExperimentError, match=f"^{key}: not read when {shape}$"):
            preset_scenario("single_mode", overrides=[override])

    def test_keys_something_reads_stay_accepted(self):
        # the signal bandwidth sizes the grids whatever the signal shape, and
        # the rise time has a default under either pump shape
        preset_scenario("single_mode", overrides=["filters.signal_shape=tabulated",
                                                  "filters.signal_files=x.txt",
                                                  "pump.rise_time_ps=0"])
        with pytest.raises(ExperimentError, match="^filters.idler_bandwidth_ghz: not read"):
            preset_scenario("single_mode", overrides=["filters.idler_shape=tabulated",
                                                      "filters.idler_files=x.txt"])

    def test_unknown_preset(self):
        with pytest.raises(ExperimentError, match="unknown preset"):
            preset_scenario("nope")

    def test_overrides_last_wins(self):
        sc = load_scenario(CHEAP, overrides=["scan.points=7", "scan.points=9"])
        assert len(sc.tau_list) == 9
        with pytest.raises(ExperimentError):
            load_scenario(CHEAP, overrides=["notasection"])


class TestFit:
    def test_perfect_dip(self):
        fit = fit_visibility(synthetic_scan(1.0))
        assert fit.visibility == pytest.approx(1.0, abs=1e-6)
        assert fit.width == pytest.approx(20e-12, rel=1e-4)

    def test_constant_data_pins_zero(self):
        fit = fit_visibility(synthetic_scan(0.0))
        assert fit.visibility == 0.0

    def test_poisson_monte_carlo_recovery(self):
        rng = np.random.default_rng(2024)
        pulses = 5e12
        clean = synthetic_scan(0.5, base=2e-9)
        counts = rng.poisson(clean.p4 * pulses)
        noisy = DelayScan(tau=clean.tau, p4=counts / pulses,
                          p2_ab=clean.p2_ab, p2_acc=clean.p2_acc,
                          singles=clean.singles, dip_width=clean.dip_width)
        errors = np.sqrt(np.maximum(counts, 1)) / pulses
        fit = fit_visibility(noisy, sigma=errors)
        assert abs(fit.visibility - 0.5) < 2 * fit.visibility_err

    def test_too_few_rows_rejected(self):
        scan = synthetic_scan(0.5, n=3)
        with pytest.raises(FitError):
            fit_visibility(scan)

    def test_narrow_span_rejected(self):
        scan = synthetic_scan(0.5, sigma_ps=200.0, span_ps=100.0)
        with pytest.raises(FitError, match="3x"):
            fit_visibility(scan)

    @pytest.mark.parametrize("value, error", [(np.nan, 1e-12), (np.inf, 1e-12),
                                              (1e-9, 0.0), (1e-9, np.nan)])
    def test_non_finite_input_rejected(self, value, error):
        scan = synthetic_scan(0.5)
        p4, errors = scan.p4.copy(), np.full(len(scan.tau), 1e-12)
        p4[3], errors[3] = value, error
        with pytest.raises(ExperimentError, match="finite"):
            fit_visibility(replace(scan, p4=p4), sigma=errors)

    def test_no_convergence_raises(self, monkeypatch):
        # one trial step cannot bring the Gauss-Newton step under the tolerance
        monkeypatch.setattr(experiment, "FIT_MAX_STEPS", 1)
        with pytest.raises(FitError, match="did not converge"):
            fit_visibility(synthetic_scan(0.5))


@pytest.fixture(scope="module")
def preset_scans():
    return {name: run_delay_scan(preset_scenario(name)) for name in ("single_mode", "multimode")}


class TestFitMatchesCurveFit:
    """The numpy Levenberg-Marquardt against scipy's curve_fit, a test-only
    reference, on the presets' own scans."""

    @pytest.mark.parametrize("observable", ["fourfold", "twofold_accsub"])
    @pytest.mark.parametrize("preset", ["single_mode", "multimode"])
    def test_visibility_and_error(self, preset_scans, preset, observable):
        optimize = pytest.importorskip("scipy.optimize")
        scan = preset_scans[preset]
        fit = fit_visibility(scan, observable)
        y = np.asarray(scan.observable(observable))
        ts = (scan.tau - scan.tau.min()) / np.ptp(scan.tau)
        ys = y / y.max()
        centroid = np.sum(ts * (1 - ys)) / np.sum(1 - ys)

        def model(t, base, vis, t0, sig):
            return base * (1 - vis * np.exp(-((t - t0) ** 2) / (2 * sig**2)))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, pcov = optimize.curve_fit(model, ts, ys, p0=[1.0, 1 - ys.min(), centroid, 0.125],
                                            bounds=([0, 0, -1, 1e-3], [np.inf, 1.5, 2, 10]),
                                            maxfev=20000)
        assert abs(fit.visibility - popt[1]) <= 1e-7
        assert fit.visibility_err == pytest.approx(np.sqrt(pcov[1, 1]), rel=1e-6)


def random_overrides(seed):
    """CHEAP with a drawn pair probability, arm transmissions, dark count
    and filter width per arm; the seed picks one of the four (signal,
    idler) filter shape pairs.  The delay range is symmetric and its 16
    steps are a power of two, so the middle delay is an exact 0."""
    rng = np.random.default_rng(seed)
    overrides = [f"source.pair_probability={rng.uniform(1e-3, 0.15)}",
                 f"detectors.signal_transmission={rng.uniform(0.01, 1)}",
                 f"detectors.idler_transmission={rng.uniform(0.01, 1)}",
                 f"detectors.dark_count_probability={rng.uniform(0, 1e-3)}",
                 "scan.tau_min_ps=-200", "scan.tau_max_ps=200", "scan.points=17"]
    shapes = ("rectangular", "gaussian")
    for arm, shape in (("signal", shapes[seed % 2]), ("idler", shapes[seed // 2 % 2])):
        overrides += [f"filters.{arm}_shape={shape}",
                      f"filters.{arm}_bandwidth_ghz={rng.uniform(18, 30)}"]
    return overrides


IDENTITY_CASES = ["single_mode", "multimode", "draw0", "draw1", "draw2", "draw3"]


@pytest.fixture(scope="module")
def identity_scans(preset_scans):
    draws = {f"draw{seed}": run_delay_scan(load_scenario(CHEAP, overrides=random_overrides(seed)))
             for seed in range(4)}
    return {**preset_scans, **draws}


class TestExactIdentities:
    """Identities that the scans satisfy to rounding, on the presets and on
    random draws of CHEAP (unequal arms among them)."""

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_zero_delay_pair_rate_is_product_of_singles(self, identity_scans, case):
        # two identical phase-insensitive Gaussian marginals are invariant
        # under 50:50 mixing, and darks are independent, so at tau = 0 the
        # ports click independently: p2_ab(0) = P_A(0) P_B(0)
        scan = identity_scans[case]
        (i,) = np.flatnonzero(scan.tau == 0.0)
        singles = scan.singles
        assert abs(scan.p2_ab[i] / (singles["A"][i] * singles["B"][i]) - 1) <= 1e-12

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_fourfold_symmetric_in_delay(self, identity_scans, case):
        # the two spools are identical, so swapping them maps tau to -tau
        scan = identity_scans[case]
        assert np.max(np.abs(scan.p4 / scan.p4[::-1] - 1)) <= 1e-8

    @pytest.mark.parametrize("case", IDENTITY_CASES)
    def test_port_and_herald_singles_symmetric(self, identity_scans, case):
        # A and B share one efficiency and see mirrored forms; C and D see
        # one spool's anti-Stokes field each, which no delay touches
        singles = identity_scans[case].singles
        np.testing.assert_array_equal(singles["A"], singles["B"])
        np.testing.assert_array_equal(singles["C"], singles["D"])
        np.testing.assert_array_equal(singles["C"], np.full_like(singles["C"], singles["C"][0]))


@pytest.mark.parametrize("preset", ["single_mode", "multimode"])
def test_raman_product_identity(preset):
    # gamma L is solved from the pair probability, so the pump energy E
    # enters only the Raman block, as E times the length L and the Raman
    # scale s: (E, L) -> (aE, L/a) and (E, s) -> (aE, s/a) leave every
    # probability of the scan unchanged
    base = preset_scenario(preset, ["scan.points=9"])
    energy = base.value("pump.energy_pj")
    length, scale = base.value("source.length_m"), base.value("source.raman_scale")
    ref = run_delay_scan(base)
    for a in (2.0, 0.5):
        for other in (f"source.length_m={length / a!r}", f"source.raman_scale={scale / a!r}"):
            scan = run_delay_scan(preset_scenario(
                preset, ["scan.points=9", f"pump.energy_pj={a * energy!r}", other]))
            for name in ("p4", "p2_ab", "p2_acc"):
                got, want = getattr(scan, name), getattr(ref, name)
                assert np.max(np.abs(got / want - 1)) <= 1e-8, (a, other, name)


class TestCounts:
    def test_arithmetic(self):
        scan = synthetic_scan(0.0, base=1e-9, n=5)
        counts, errs = expected_counts(scan, 2e10)
        assert counts[0] == pytest.approx(20.0)
        assert errs[0] == pytest.approx(np.sqrt(20.0))

    def test_zero_count_convention(self):
        scan = synthetic_scan(1.0, base=1e-9, n=5, span_ps=1e-4)
        counts, errs = expected_counts(scan, 1e9)
        mid = len(counts) // 2
        assert counts[mid] == pytest.approx(0.0, abs=1e-12)
        assert errs[mid] == 1.0

    def test_nonpositive_pulses_rejected(self):
        with pytest.raises(ExperimentError):
            expected_counts(synthetic_scan(0.5), 0)


@pytest.fixture(scope="module")
def cheap():
    sc = load_scenario(CHEAP)
    return sc, run_delay_scan(sc)


class TestScan:

    def test_probabilities_bounded(self, cheap):
        _, scan = cheap
        for arr in (scan.p4, scan.p2_ab, scan.p2_acc):
            assert np.all(arr >= 0) and np.all(arr <= 1)

    def test_symmetric_in_delay(self, cheap):
        _, scan = cheap
        assert np.allclose(scan.p4, scan.p4[::-1], rtol=1e-8)

    def test_dip_at_zero(self, cheap):
        _, scan = cheap
        mid = len(scan.tau) // 2
        assert scan.p4[mid] == np.min(scan.p4)
        assert scan.p4[0] > scan.p4[mid]

    def test_determinism(self, cheap):
        sc, scan = cheap
        again = run_delay_scan(load_scenario(CHEAP))
        assert scan.to_csv() == again.to_csv()

    def test_csv_roundtrip(self, cheap):
        _, scan = cheap
        text = scan.to_csv()
        assert text.splitlines()[0] == CSV_HEADER
        back = DelayScan.from_csv(text)
        np.testing.assert_allclose(back.tau, scan.tau, rtol=1e-10)
        np.testing.assert_allclose(back.p4, scan.p4, rtol=1e-10)
        np.testing.assert_allclose(back.singles["C"], scan.singles["C"], rtol=1e-10)

    def test_empty_csv_rejected(self):
        with pytest.raises(ExperimentError):
            DelayScan.from_csv("")
        with pytest.raises(ExperimentError):
            DelayScan.from_csv(CSV_HEADER + "\n")

    def test_raman_degrades_visibility(self):
        vis = []
        for scale in (0.0, 1.0, 2.0):
            sc = load_scenario(CHEAP, overrides=[f"source.raman_scale={scale}"])
            fit = fit_visibility(run_delay_scan(sc))
            vis.append(fit.visibility)
        assert vis[0] > vis[1] > vis[2]

    def test_darks_degrade_visibility(self):
        vis = []
        for mu in (0.0, 1.6e-4, 1.6e-3):
            sc = load_scenario(CHEAP,
                               overrides=[f"detectors.dark_count_probability={mu}"])
            fit = fit_visibility(run_delay_scan(sc))
            vis.append(fit.visibility)
        assert vis[0] >= vis[1] >= vis[2]
        assert vis[0] > vis[2]

    def test_accidentals_match_singles_product(self, cheap):
        _, scan = cheap
        np.testing.assert_allclose(scan.p2_acc,
                                   scan.singles["A"] * scan.singles["B"], rtol=1e-12)

    def test_schmidt_mode_phases_change_nothing(self, cheap):
        # the phase of each Schmidt mode is free (K = psi chi psi^dag does
        # not see it), so the spool's register blocks and the port forms
        # must transform together and leave every probability unchanged
        _, scan = cheap
        phased = load_scenario(CHEAP)
        rng = np.random.default_rng(7)
        for band in ("signal", "idler"):
            basis = phased.bases[band]
            phases = np.exp(2j * np.pi * rng.random(basis.eigenmodes.shape[1]))
            phased.bases[band] = replace(basis, eigenmodes=basis.eigenmodes * phases)
        got = run_delay_scan(phased)
        np.testing.assert_allclose(got.p4, scan.p4, rtol=1e-6, atol=0)
        np.testing.assert_allclose(got.p2_ab, scan.p2_ab, rtol=1e-10, atol=0)
        for name in "ABCD":
            np.testing.assert_allclose(got.singles[name], scan.singles[name],
                                       rtol=1e-12, atol=0)


class TestScanErrors:
    def test_engine_error_keeps_its_type(self):
        # a pair block with no photons in either band is unphysical
        sc = load_scenario(CHEAP)
        sc.source = replace(sc.source, normal_stokes=0 * sc.source.normal_stokes,
                            normal_antistokes=0 * sc.source.normal_antistokes)
        with pytest.raises(DetectionError, match="physicality"):
            run_delay_scan(sc)


class TestConfigPaths:
    def test_custom_raman_file(self, tmp_path):
        gain_file = tmp_path / "gain.txt"
        gain_file.write_text("0.0 0.0\n5.0 1e-4\n40.0 1e-5\n")
        sc = load_scenario(CHEAP, overrides=[f"source.raman_file={gain_file}"])
        default = load_scenario(CHEAP)
        got = sc.source_params.raman_gain(2 * np.pi * 1.2e12)
        ref = default.source_params.raman_gain(2 * np.pi * 1.2e12)
        assert got == pytest.approx(2.4e-5, rel=1e-6)
        assert got != pytest.approx(ref)

    def test_raman_scale_multiplies_the_gain_table(self):
        sc = load_scenario(CHEAP, overrides=["source.raman_scale=2.5"])
        gain = sc.source_params.raman_gain
        default = default_raman_gain()
        np.testing.assert_array_equal(gain.detuning, default.detuning)
        np.testing.assert_array_equal(gain.gain, 2.5 * default.gain)

    def test_negative_raman_scale_rejected(self):
        # by its key, when the scenario loads, before the source layer's
        # own "non-negative" check could see it
        with pytest.raises(ExperimentError, match=r"^source.raman_scale = -1.0 is outside"):
            load_scenario(CHEAP, overrides=["source.raman_scale=-1"])

    def test_pump_containment_names_the_span_key(self):
        # the pump grid scales with filters.grid_span_factor, and raising it
        # is what the error asks for
        wide = ["pump.power_fwhm_ghz=3000"]
        with pytest.raises(ExperimentError, match="raise filters.grid_span_factor$"):
            preset_scenario("single_mode", overrides=wide).pump
        preset_scenario("single_mode", overrides=wide + ["filters.grid_span_factor=10"]).pump

    def test_negative_detuning_mirrors_the_bands(self):
        # Stokes above the pump: the same grids with the bands swapped, and the scan runs
        plus, minus = (load_scenario(CHEAP, overrides=[f"source.detuning_thz={d}"])
                       for d in (1.2, -1.2))
        assert minus.grids["stokes"].center == plus.grids["antistokes"].center
        assert minus.grids["antistokes"].center == plus.grids["stokes"].center
        assert minus.grids["stokes"].center > minus.grids["pump"].center
        scan = run_delay_scan(minus)
        assert np.all(np.isfinite(scan.p4)) and scan.p4[len(scan.tau) // 2] < scan.p4[0]

    def test_tabulated_filter_in_scenario(self, tmp_path):
        from homsim.grids import nm_from_angular
        sc0 = load_scenario(CHEAP)
        grid = sc0.grids["stokes"]
        lo_nm = nm_from_angular(grid.points[-1] + 2 * grid.spacing)
        hi_nm = nm_from_angular(grid.points[0] - 2 * grid.spacing)
        filt_file = tmp_path / "filter.txt"
        filt_file.write_text(f"{lo_nm:.6f} -3.0\n{hi_nm:.6f} -3.0\n")
        sc = load_scenario(CHEAP, overrides=[
            "filters.signal_shape=tabulated",
            f"filters.signal_files={filt_file}"])
        amp = np.abs(sc.filters["signal"].amplitude)
        np.testing.assert_allclose(amp, 10 ** (-3.0 / 20.0), rtol=1e-6)


class TestTwofoldDip:
    def test_accidental_subtracted_dip_well_formed(self, cheap):
        # bunching excess dips at zero delay and fits a clean Gaussian
        _, scan = cheap
        excess = scan.p2_ab - scan.p2_acc
        assert np.all(excess > -1e-9 * excess.max())
        mid = len(scan.tau) // 2
        assert excess[mid] == np.min(excess)
        fit = fit_visibility(scan, observable="twofold_accsub")
        assert 0.0 < fit.visibility <= 1.2
        assert 0.1 * scan.dip_width < fit.width < 3 * scan.dip_width


# Scenario stages that together materialise everything a scan needs.
SETUP_STAGES = ("grids", "pump", "filters", "bases", "source_params", "source",
                "detectors", "tau_list")


class TestSetup:
    def test_conditioned_transmissions_match_dense_trace(self):
        # unequal arms, so the signal and idler transmissions differ
        sc = load_scenario(CHEAP, overrides=["filters.idler_bandwidth_ghz=40"])

        def chain(basis):
            psi, chi = retained_register(basis)
            return (psi * chi[None, :]) @ psi.conj().T

        k_s, k_a = chain(sc.bases["signal"]), chain(sc.bases["idler"])
        # the pair block on the grid, from the Schmidt pairs at the calibrated gain
        modes = sc.pair_modes
        r = sc.source_params.gamma_length * modes.s
        m = (modes.u * (np.sinh(r) * np.cosh(r))) @ modes.vt
        n_s = m @ k_a.conj() @ m.conj().T
        n_a = m.T @ k_s.conj() @ m.conj()
        ref = (np.trace(k_s @ n_s).real / np.trace(n_s).real,
               np.trace(k_a @ n_a).real / np.trace(n_a).real)
        assert abs(ref[0] - ref[1]) > 1e-3
        np.testing.assert_allclose(sc.conditioned_transmissions, ref, rtol=1e-12, atol=0)

    def test_efficiencies_at_zero_gain_are_the_low_gain_limit(self):
        # the Klyshko ratios need only the pair modes, not the spool state,
        # and at pair_probability = 0 they take the unit-gain pair weights
        zero, small = (load_scenario(CHEAP, overrides=["filters.idler_bandwidth_ghz=40",
                                                       f"source.pair_probability={p}"])
                       for p in (0, 1e-9))
        assert zero.source_params.gamma_length == 0.0
        for a, b in zip(zero.conditioned_transmissions, small.conditioned_transmissions):
            assert 0 < a < 1 and a == pytest.approx(b, rel=1e-8)
        assert zero.detectors.signal_efficiency == pytest.approx(
            small.detectors.signal_efficiency, rel=1e-8)
        assert zero.detectors.idler_efficiency == pytest.approx(
            small.detectors.idler_efficiency, rel=1e-8)
        assert "source" not in vars(zero) and "source" not in vars(small)

    def test_source_holds_register_blocks_only(self):
        # single_mode keeps 2 modes per arm, so its spool is three 2 x 2 blocks
        spool = preset_scenario("single_mode").source
        assert [f.name for f in fields(spool)] == ["normal_stokes", "normal_antistokes",
                                                   "anomalous"]
        for f in fields(spool):
            assert getattr(spool, f.name).shape == (2, 2)

    def test_one_pair_amplitude_eigh_per_scenario(self, monkeypatch):
        # the carved pump's spectrum is real and the band grids are square,
        # so the pair amplitude is real symmetric and takes one real
        # mirror-split eigh and no svd: the i of the pair amplitude never
        # enters a grid-sized array.  The bands' kernels are equal, so the one
        # kernel decomposition runs on the flat-top filters' 31-sample
        # passband.  Both matrices are mirror-symmetric, so each is an eigh of
        # its even half and one of its odd half
        calls = {"svd": [], "eigh": []}
        for name, log in calls.items():
            def counting(*args, _real=getattr(np.linalg, name), _log=log, **kwargs):
                _log.append((np.shape(args[0]), np.asarray(args[0]).dtype))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        sc = load_scenario(CHEAP)
        for stage in SETUP_STAGES:
            getattr(sc, stage)
        assert calls == {"svd": [],
                         "eigh": [((16, 16), np.float64), ((15, 15), np.float64),
                                  ((61, 61), np.float64), ((60, 60), np.float64)]}

    @pytest.mark.parametrize("preset", experiment.PRESET_NAMES)
    def test_set_up_and_scan_never_import_numpy_random(self, preset):
        # the Schmidt solver's probe block is a fixed hash, not a generator:
        # importing numpy.random alone raises a process's peak RSS by ~6 MiB
        stages = (*SETUP_STAGES, "pair_modes", "conditioned_transmissions", "dip_width")
        code = ("import sys\n"
                "from homsim.experiment import fit_visibility, preset_scenario, run_delay_scan\n"
                f"sc = preset_scenario({preset!r}, ['scan.points=9'])\n"
                f"for stage in {stages!r}:\n"
                "    getattr(sc, stage)\n"
                "fit_visibility(run_delay_scan(sc))\n"
                "print('numpy.random' in sys.modules)\n")
        # a fresh interpreter that imports this same homsim package
        path = [str(Path(homsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "False"

    def test_plain_eigh_gives_the_same_scans(self, preset_scans, monkeypatch):
        # the mirror-split, certified low-rank kernel decomposition and the
        # mirror-split pair amplitude against one plain eigh per matrix: the
        # same physics to the rounding of the solvers
        shapes = []

        def plain_eigh(a):
            shapes.append(a.shape)
            return np.linalg.eigh(a)

        def plain_eigh_above(a, floor):
            vals, vecs = plain_eigh(a)
            return vals[vals >= floor], vecs[:, vals >= floor]

        monkeypatch.setattr("homsim.modes.eigh_above", plain_eigh_above)
        monkeypatch.setattr("homsim.source.mirror_eigh", plain_eigh)
        for name, split in preset_scans.items():
            scan = run_delay_scan(preset_scenario(name))
            np.testing.assert_array_equal(scan.tau, split.tau)
            assert np.max(np.abs(scan.p4 / split.p4 - 1)) <= 1e-8
            assert abs(fit_visibility(scan).visibility
                       - fit_visibility(split).visibility) <= 1e-9
        # single_mode's flat-top passband and multimode's whole Gaussian
        # grid, and each preset's pair amplitude
        assert shapes == [(129, 129), (513, 513), (513, 513), (513, 513)]

    @pytest.mark.parametrize("overrides, shared", [
        ([], True), (["filters.idler_bandwidth_ghz=40"], False)])
    def test_idler_basis_shared_only_for_an_equal_kernel(self, overrides, shared):
        # equal band kernels give one decomposition whose arrays both bases
        # hold, each on its own grid; a wider idler filter gets its own
        sc = load_scenario(CHEAP, overrides=overrides)
        signal, idler = sc.bases["signal"], sc.bases["idler"]
        assert signal.grid is sc.grids["stokes"] and idler.grid is sc.grids["antistokes"]
        assert (idler.eigenmodes is signal.eigenmodes) == shared
        assert (idler.eigenvalues is signal.eigenvalues) == shared
        own = schmidt_decompose(build_kernel(sc.filters["idler"], sc.pump.duration))
        np.testing.assert_array_equal(idler.eigenvalues, own.eigenvalues)
        np.testing.assert_array_equal(idler.eigenmodes, own.eigenmodes)
        assert (idler.retained() == signal.retained()) == shared

    @pytest.mark.parametrize("preset, dip_width, tau_max", [
        ("single_mode", 1.4306151645202653e-11, 4.2918454935607956e-11),
        ("multimode", 1.1825572801182876e-10, 3.547671840354863e-10),
    ])
    def test_preset_delay_lists_unchanged(self, preset, dip_width, tau_max):
        sc = preset_scenario(preset)
        assert sc.dip_width == dip_width
        assert len(sc.tau_list) == 41
        assert sc.tau_list[0] == -tau_max and sc.tau_list[-1] == tau_max
        np.testing.assert_array_equal(sc.tau_list, np.linspace(-tau_max, tau_max, 41))

    @pytest.mark.parametrize("points", [11, 41])
    def test_symmetric_range_has_exact_zero_delay(self, points):
        # np.linspace(-200e-12, 200e-12, points) puts 2.6e-26 s in the middle
        sc = preset_scenario("multimode", [f"scan.points={points}", "scan.tau_min_ps=-200",
                                           "scan.tau_max_ps=200"])
        taus = sc.tau_list
        assert taus[points // 2] == 0.0
        assert taus[0] == -200e-12 and taus[-1] == 200e-12
        np.testing.assert_allclose(np.diff(taus), 400e-12 / (points - 1), rtol=1e-12)

    @pytest.mark.parametrize("preset, overrides, shapes", [
        pytest.param("single_mode", [], [(513, 6)], id="single_mode"),
        pytest.param("multimode", [], [(513, 19)], id="multimode"),
        pytest.param("multimode", ["filters.idler_bandwidth_ghz=30"], [(513, 19)] * 2,
                     id="multimode-unequal-bands"),
    ])
    def test_one_grid_sized_array_per_band(self, preset, overrides, shapes):
        # after set-up the scenario holds, besides the pair amplitude's
        # Stokes factor u, exactly one array with a row per grid sample per
        # distinct band kernel: its transmitting Schmidt modes, one column
        # per non-zero chi, shared by both bands when their kernels are
        # equal (both presets); a view keeps its base alive, so each
        # array's base is walked too
        sc = preset_scenario(preset, overrides=overrides)
        for stage in (*SETUP_STAGES, "pair_modes", "conditioned_transmissions",
                      "dip_width"):
            getattr(sc, stage)
        n = sc.grids["stokes"].n_points
        seen, grid_sized = set(), []
        stack = [sc]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.ndim == 2 and obj.shape[0] == n:
                    grid_sized.append(obj)
                stack.append(obj.base)
            elif isinstance(obj, dict):
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple)):
                stack.extend(obj)
            elif type(obj).__module__.startswith("homsim"):
                stack.extend(vars(obj).values())
        modes = [a for a in grid_sized if a is not sc.pair_modes.u]
        assert len(modes) == len(grid_sized) - 1
        assert sorted(a.shape for a in modes) == shapes
        assert {id(a) for a in modes} == {id(sc.bases[band].eigenmodes)
                                          for band in ("signal", "idler")}
        for basis in sc.bases.values():
            assert basis.eigenmodes.shape[1] == np.count_nonzero(basis.eigenvalues)

    def test_register_keeps_every_mode_above_cutoff(self):
        # 40 GHz filters on the multimode chains leave 14 modes at chi >= 1e-3,
        # and the register keeps all of them without a warning
        sc = preset_scenario("multimode", overrides=["filters.signal_bandwidth_ghz=40",
                                                     "filters.idler_bandwidth_ghz=40"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = [sc.bases[band].retained() for band in ("signal", "idler")]
        assert counts == [14, 14]
        for basis in sc.bases.values():
            assert basis.eigenvalues[13] >= MODE_RETENTION_CUTOFF > basis.eigenvalues[14]
        # the presets keep every mode above the cutoff: 2 and 9 per band
        for preset, kept in (("single_mode", 2), ("multimode", 9)):
            bases = preset_scenario(preset).bases
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for basis in bases.values():
                    assert basis.retained() == kept


class TestRecords:
    """Records that hold arrays compare and hash by identity: value equality
    would compare their arrays elementwise and raise."""

    @pytest.fixture(scope="class")
    def records(self):
        sc = load_scenario(CHEAP)
        scan = synthetic_scan(0.5)
        records = [ClickQuery(forms={"A": 0.5 * np.eye(2)}), sc.source, sc.pair_modes, sc.pump,
                   sc.source_params.raman_gain, sc.source_params, sc.filters["signal"],
                   build_kernel(sc.filters["signal"], sc.pump.duration), sc.bases["signal"],
                   scan, fit_visibility(scan)]
        return {type(record).__name__: record for record in records}

    @pytest.mark.parametrize("name", [
        "ClickQuery", "SpoolMoments", "PairModes", "PumpPulse", "RamanGain", "SourceParams",
        "FilterProfile", "KernelMatrix", "ModeBasis", "DelayScan", "VisibilityFit"])
    def test_identity_equality_and_hash(self, records, name):
        record = records[name]
        twin = copy.deepcopy(record)
        assert record == record and record != twin
        assert hash(record) == hash(record) and len({record, twin}) == 2

    def test_grid_and_detectors_compare_by_value(self):
        grid = FrequencyGrid(center=1.0, span=2.0, n_points=5)
        assert grid == FrequencyGrid(center=1.0, span=2.0, n_points=5)
        assert hash(grid) == hash(FrequencyGrid(center=1.0, span=2.0, n_points=5))
        detectors = load_scenario(CHEAP).detectors
        assert detectors == copy.deepcopy(detectors)
