import os
import re
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import homsim
from homsim import experiment, fock, modes
from homsim.cli import main
from homsim.grids import nm_from_angular

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

[filters]
signal_shape = rectangular
signal_bandwidth_ghz = 24.6
idler_shape = rectangular
idler_bandwidth_ghz = 24.6
grid_points = 121

[detectors]
signal_transmission = 0.034
idler_transmission = 0.050
quantum_efficiency = 0.20
dark_count_probability = 1.6e-4

[scan]
points = 9
"""


class TestModesCommand:
    def test_table_near_c38(self, capsys):
        assert main(["modes", "--c-range", "3.8:3.8:1.0"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("c,")
        c, x0, x1, x2 = (float(v) for v in lines[1].split(","))
        assert c == pytest.approx(3.8)
        assert x0 > 0.97 and abs(x1 - 0.9) < 0.05 and abs(x2 - 0.5) < 0.08

    def test_eigenmode_samples(self, capsys):
        assert main(["modes", "--c-range", "0.7:0.7:1.0", "--eigenmodes", "0.785"]) == 0
        out = capsys.readouterr().out
        assert "eigenmodes at c" in out
        # phi_1 is odd: zero at the centre and off the band, where rounding
        # leaves +-1e-17 or a signed zero; no value prints as -0
        rows = out.split("(omega/B, phi_0, phi_1, phi_2)\n")[1].splitlines()
        assert "0.000000, 1.461760, 0.000000, -1.555994" in rows
        assert not any(re.search(r"-0\.0+(,|$)", row) for row in rows)
        assert len(rows) == 65

    def test_mode_that_does_not_transmit_prints_zeros(self, capsys):
        # at c = 0.01 only chi_0 and chi_1 survive the eigenvalue floor, so
        # the basis stores two modes and phi_2 prints as zeros
        assert main(["modes", "--c-range", "0.01:0.01:1.0", "--eigenmodes", "0.01"]) == 0
        out = capsys.readouterr().out
        rows = out.split("(omega/B, phi_0, phi_1, phi_2)\n")[1].splitlines()
        phi = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
        assert np.any(phi[:, 0] != 0) and np.any(phi[:, 1] != 0)
        assert np.all(phi[:, 2] == 0)
        assert rows[32] == "0.000000, 12.533211, 0.000000, 0.000000"

    def test_bad_range(self, capsys):
        assert main(["modes", "--c-range", "5:1:0.1"]) == 2


class TestBadArguments:
    @pytest.mark.parametrize("argv", [
        ["modes", "--c-range", "a:b:c"],
        ["modes", "--c-range", "0.1:1:nan"],
        ["modes", "--c-range", "0.1:inf:0.1"],
        ["modes", "--c-range=-0.5:0.6:0.5"],
        ["modes", "--n-modes", "-2"],
        ["modes", "--n-modes", "0"],
        ["modes", "--eigenmodes", "0"],
        ["modes", "--eigenmodes=-0.5"],
        # too many rows: hours of work, counted before any array is built
        ["modes", "--c-range", "0:5:1e-6"],
        ["modes", "--c-range", "0:5:1e-320"],
        ["oracle-check", "--seed", "-1"],
        ["oracle-check", "--states", "10001"],
    ], ids=" ".join)
    def test_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        work = []
        for module, name in ((modes, "eigenvalue_curve"), (modes, "rect_rect_basis"),
                             (fock, "random_equivalence_comparison")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: work.append(args))
        out = tmp_path / "out.txt"
        if argv[0] == "modes":
            argv = [*argv, "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ExperimentError: ")
        assert work == [] and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["modes", "--c-range", "5:1:0.1"], "--c-range stop = 1.0 is outside [5.0, inf]"),
        (["modes", "--n-modes", "0"], "--n-modes = 0 is outside [1, inf]"),
        (["modes", "--eigenmodes", "0"], "--eigenmodes = 0.0 must be > 0"),
        (["oracle-check", "--tolerance", "nan"], "--tolerance = nan is not finite"),
        (["modes", "--c-range", "0:5:1e-6"], "--c-range rows = 5000001.0 is outside [1, 10001]"),
        (["oracle-check", "--states", "100000000"],
         "--states = 100000000 is outside [1, 10000]"),
    ])
    def test_scenario_keys_and_arguments_share_one_message_format(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: ExperimentError: {message}\n"

    @pytest.mark.parametrize("c_range, rows", [("0:1:1e-4", 10001), ("0.7:0.7:1", 1),
                                               ("0.1:5:0.1", 50)])
    def test_row_count_is_the_table_length(self, monkeypatch, c_range, rows):
        # the bound counts the rows np.arange gives: the cap itself passes
        tables = []
        monkeypatch.setattr(modes, "eigenvalue_curve",
                            lambda c_values, n_modes: tables.append(c_values) or [])
        assert main(["modes", "--c-range", c_range]) == 0
        assert len(tables[0]) == rows


class TestScanFit:
    def test_scan_then_fit(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        out_csv = tmp_path / "scan.csv"
        assert main(["scan", "--config", str(cfg), "--output", str(out_csv)]) == 0
        text = out_csv.read_text()
        assert text.splitlines()[0].startswith("tau_ps")
        fit_out = tmp_path / "fit.txt"
        assert main(["fit", "--input", str(out_csv), "--output", str(fit_out)]) == 0
        body = fit_out.read_text()
        assert "V = " in body and "sigma_ps" in body
        vis = float(body.splitlines()[0].split("=")[1])
        assert 0.0 < vis < 1.0

    @pytest.mark.parametrize("observable, visibility", [
        ("fourfold", 0.3), ("twofold", 0.6), ("twofold_accsub", 0.75)])
    def test_fit_each_observable(self, tmp_path, capsys, observable, visibility):
        # p4 dips by 0.3, p2_ab by 0.6, and p2_ab less its flat accidental
        # level 0.2 p2_ab(far) by 0.6 / 0.8
        tau = np.linspace(-60e-12, 60e-12, 25)
        dip = np.exp(-tau**2 / (2 * (10e-12) ** 2))
        p2 = 1e-3 * (1 - 0.6 * dip)
        flat = np.full_like(tau, 0.03)
        scan = experiment.DelayScan(tau=tau, p4=1e-6 * (1 - 0.3 * dip), p2_ab=p2,
                                    p2_acc=np.full_like(tau, 0.2e-3),
                                    singles=dict.fromkeys("ABCD", flat))
        csv = tmp_path / "scan.csv"
        csv.write_text(scan.to_csv())
        assert main(["fit", "--input", str(csv), "--observable", observable]) == 0
        out = capsys.readouterr().out
        assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(visibility, abs=1e-6)

    def test_identical_invocations_identical_files(self, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["scan", "--config", str(cfg), "--output", str(a)]) == 0
        assert main(["scan", "--config", str(cfg), "--output", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_overrides(self, tmp_path):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        out_csv = tmp_path / "scan.csv"
        assert main(["scan", "--config", str(cfg), "--set", "scan.points=5",
                     "--output", str(out_csv)]) == 0
        assert len(out_csv.read_text().strip().splitlines()) == 6

    def test_missing_config_file(self, capsys):
        assert main(["scan", "--config", "/does/not/exist.ini"]) == 4

    def test_config_missing_fields(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[scenario]\nlabel = x\n")
        assert main(["scan", "--config", str(cfg)]) == 2
        assert "missing required fields" in capsys.readouterr().err
        # the grids are sized by the signal bandwidth whatever the filter shape
        cfg.write_text(CHEAP.replace("signal_bandwidth_ghz = 24.6\n", ""))
        assert main(["calibrate", "--config", str(cfg)]) == 2
        assert "filters.signal_bandwidth_ghz" in capsys.readouterr().err

    def test_fit_empty_csv(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["fit", "--input", str(empty)]) == 2

    def test_calibrate(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        assert main(["calibrate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "gammaL_per_W" in out
        pair = float(out.splitlines()[1].split("=")[1])
        assert pair == pytest.approx(0.10, rel=1e-4)

    def test_calibrate_writes_its_output_file(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        out_file = tmp_path / "calibrate.txt"
        assert main(["calibrate", "--config", str(cfg), "--output", str(out_file)]) == 0
        assert capsys.readouterr().out == ""
        lines = out_file.read_text().splitlines()
        assert [line.split(" = ")[0] for line in lines] == ["gammaL_per_W", "pair_probability"]
        assert float(lines[1].split("=")[1]) == pytest.approx(0.10, rel=1e-4)

    @pytest.mark.parametrize("preset, target", [("single_mode", 0.039), ("multimode", 0.125)])
    def test_calibrate_hits_the_preset_target(self, capsys, preset, target):
        # the calibrated gain is the root itself: the pair probability it
        # gives prints as the target to every printed digit
        assert main(["calibrate", "--preset", preset]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"pair_probability = {target:.9f}"


class TestColdImport:
    """homsim is numpy-only at run time: neither `import homsim` nor any
    command loads a scipy module, which is a test-only reference."""

    @pytest.mark.parametrize("argv", [None, ["oracle-check", "--states", "2"],
                                      ["modes", "--c-range", "0.7:0.7:1.0",
                                       "--eigenmodes", "0.785"],
                                      ["calibrate", "--preset", "single_mode"],
                                      ["scan", "--preset", "single_mode",
                                       "--set", "scan.points=5"],
                                      ["fit", "--input"]],
                             ids=["import", "oracle-check", "modes", "calibrate", "scan", "fit"])
    def test_no_scipy_module_loaded(self, argv, tmp_path):
        if argv and argv[0] == "fit":
            csv = tmp_path / "scan.csv"
            csv.write_text(experiment.run_delay_scan(experiment.load_scenario(CHEAP)).to_csv())
            argv = argv + [str(csv)]
        code = "import sys\nimport homsim\n"
        if argv:
            code += f"from homsim.cli import main\nassert main({argv!r}) == 0\n"
        code += "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        # a fresh interpreter that imports this same homsim package
        path = [str(Path(homsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


class TestOracleCheck:
    def test_small_sweep(self, capsys):
        assert main(["oracle-check", "--states", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "max_deviation" in out
        worst = float(out.strip().splitlines()[-1].split("=")[1])
        assert worst < 1e-6

    @pytest.mark.parametrize("argv", [
        ["--tolerance", "nan"], ["--tolerance", "inf"], ["--tolerance=-1e-6"],
        ["--states", "0"], ["--states=-3"], ["--states", "10001"]],
        ids=lambda argv: "=".join(argv).lstrip("-"))
    def test_bad_arguments_exit_2_before_the_sweep(self, capsys, monkeypatch, argv):
        # a nan tolerance could never be exceeded, a negative one always,
        # and no states make no comparison
        sweeps = []
        monkeypatch.setattr(fock, "random_equivalence_comparison",
                            lambda **kwargs: sweeps.append(kwargs))
        assert main(["oracle-check", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ExperimentError: ")
        assert sweeps == []

    def test_deviation_above_tolerance_exits_3(self, capsys):
        assert main(["oracle-check", "--states", "2", "--tolerance", "0"]) == 3
        out, err = capsys.readouterr()
        worst = float(out.strip().splitlines()[-1].split("=")[1])
        assert worst > 0
        assert err == f"error: max deviation {worst:.3e} exceeds 0.0e+00\n"


class TestExitCodes:
    """Each failure keeps its type; `main` maps the type to the exit code."""

    @staticmethod
    def run(capsys, argv):
        code = main(argv)
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides, code, kind", [
        ("scan", ["filters.signal_shape=foo"], 2, "ExperimentError"),
        ("calibrate", ["filters.signal_shape=foo"], 2, "ExperimentError"),
        ("scan", ["pump.shape=foo"], 2, "ExperimentError"),
        ("scan", ["scan.tau_min_ps=5", "scan.tau_max_ps=1"], 2, "ExperimentError"),
        ("scan", ["source.raman_file={tmp}/missing.txt"], 4, "FileNotFoundError"),
        ("calibrate", ["pump.rise_time_ps=200"], 2, "ExperimentError"),
        # a key that the chosen shape needs is missing
        ("calibrate", ["pump.shape=transform_limited_gaussian"], 2, "ExperimentError"),
        ("scan", ["filters.signal_shape=tabulated"], 2, "ExperimentError"),
    ])
    def test_scenario_failures(self, tmp_path, capsys, command, overrides, code, kind):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        argv = [command, "--config", str(cfg)]
        for ov in overrides:
            argv += ["--set", ov.format(tmp=tmp_path)]
        got, err = self.run(capsys, argv)
        assert got == code
        assert err.startswith(f"error: {kind}: ")

    @pytest.mark.parametrize("override, key", [
        ("scan.point=5", "scan.point"),
        ("pump.grid_half_span_thz=1", "pump.grid_half_span_thz"),
        ("source.length_m=abc", "source.length_m"),
        ("scan.points=5%", "scan.points"),
        ("scan.points=0", "scan.points"),
        ("scan.points=10002", "scan.points"),
        ("scan.points=100000000", "scan.points"),
        ("detectors.quantum_efficiency=1.5", "detectors.quantum_efficiency"),
        ("scan.tau_min_ps=-5", "scan.tau_min_ps"),
        ("detectors.dark_count_probability=nan", "detectors.dark_count_probability"),
        ("scenario.pulses=-1", "scenario.pulses"),
        # read only by another pump or filter shape
        ("pump.power_fwhm_ghz=68.3", "pump.power_fwhm_ghz"),
        ("filters.signal_files=x.txt", "filters.signal_files"),
        # the grids divide by these before any physics layer checks them
        ("filters.grid_points=1", "filters.grid_points"),
        ("filters.grid_points=0", "filters.grid_points"),
        ("filters.grid_span_factor=0", "filters.grid_span_factor"),
        ("filters.grid_span_factor=-4", "filters.grid_span_factor"),
        ("filters.signal_bandwidth_ghz=0", "filters.signal_bandwidth_ghz"),
        ("filters.signal_bandwidth_ghz=-24.6", "filters.signal_bandwidth_ghz"),
        ("pump.center_nm=0", "pump.center_nm"),
    ])
    def test_bad_key_is_named(self, tmp_path, capsys, override, key):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        code, err = self.run(capsys, ["scan", "--config", str(cfg), "--set", override])
        assert code == 2
        assert err.startswith("error: ExperimentError: ")
        assert key in err

    @pytest.mark.parametrize("overrides, kind", [
        (["source.raman_file={table}"], "SourceModelError"),
        (["filters.signal_shape=tabulated", "filters.signal_files={table}"],
         "ModeAnalysisError"),
    ], ids=["raman_gain", "tabulated_filter"])
    def test_non_finite_table_exits_3_naming_its_path(self, tmp_path, capsys, overrides, kind):
        # a NaN row is refused where the table is read, not dropped later
        # (a Raman gain table) or left to fail as an IndexError (a filter)
        table = tmp_path / "nan_table.txt"
        table.write_text("1300.0 0.0\n1310.0 nan\n1320.0 0.0\n")
        argv = ["calibrate", "--preset", "single_mode"]
        for ov in overrides:
            argv += ["--set", ov.format(table=table)]
        code, err = self.run(capsys, argv)
        assert code == 3
        assert err.startswith(f"error: {kind}: ")
        assert "nan_table.txt" in err and "non-finite value at row 2" in err

    def test_negative_detuning_gain_row_exits_3_naming_its_row(self, tmp_path, capsys):
        # the bundled table with one row at -1.2 THz appended, which the
        # gain's |detuning| lookup would otherwise never read
        bundled = (resources.files("homsim.data") / "raman_silica.txt").read_text()
        rows = sum(1 for line in bundled.splitlines() if line.strip() and line[0] != "#")
        table = tmp_path / "negative_gain.txt"
        table.write_text(bundled + "-1.2 1e-3\n")
        code, err = self.run(capsys, ["calibrate", "--preset", "single_mode",
                                      "--set", f"source.raman_file={table}"])
        assert code == 3
        assert err.startswith("error: SourceModelError: Raman gain file ")
        assert f"negative_gain.txt': negative detuning at row {rows + 1} (-1.2, 0.001)" in err

    @pytest.mark.parametrize("preset, detuning", [("single_mode", "0"), ("single_mode", "0.1"),
                                                  ("single_mode", "-0.1"), ("multimode", "0")])
    def test_overlapping_bands_exit_2_before_any_work(self, capsys, monkeypatch,
                                                      preset, detuning):
        # single_mode's bands are 0.28 THz wide: centres 0.2 THz apart share frequencies
        work = []
        monkeypatch.setattr(experiment, "pump_spectrum", lambda *args: work.append(args))
        code, err = self.run(capsys, ["calibrate", "--preset", preset,
                                      "--set", f"source.detuning_thz={detuning}"])
        assert code == 2 and work == []
        assert err.startswith("error: ExperimentError: source.detuning_thz ")
        assert "filters.grid_span_factor" in err and "filters.signal_bandwidth_ghz" in err

    @pytest.mark.parametrize("rise", ["100", "250", "-1"])
    def test_rise_time_rule_exits_2_before_any_work(self, capsys, monkeypatch, rise):
        # multimode's pump is 100 ps long: its rise time must lie in [0, 100) ps
        work = []
        monkeypatch.setattr(experiment, "pump_spectrum", lambda *args: work.append(args))
        code, err = self.run(capsys, ["calibrate", "--preset", "multimode",
                                      "--set", f"pump.rise_time_ps={rise}"])
        assert code == 2 and work == []
        assert err == (f"error: ExperimentError: pump.rise_time_ps = {float(rise)} must satisfy "
                       "0 <= pump.rise_time_ps < pump.duration_ps = 100.0\n")

    @pytest.mark.parametrize("override, problem", [
        ("source.length_m=-1", "must be > 0"),
        ("source.temperature_k=-5", "must be > 0"),
        ("source.raman_scale=-1", "is outside [0, inf]"),
    ])
    def test_invalid_source_key_exits_2_before_any_work(self, capsys, monkeypatch,
                                                        override, problem):
        # the source layer refuses these too, but only after the pump, the
        # bases and the pair amplitude, and naming no key
        work = []
        monkeypatch.setattr(experiment, "pump_spectrum", lambda *args: work.append(args))
        code, err = self.run(capsys, ["calibrate", "--preset", "single_mode",
                                      "--set", override])
        key, value = override.split("=")
        assert code == 2 and work == []
        assert err == f"error: ExperimentError: {key} = {float(value)} {problem}\n"

    @pytest.mark.parametrize("preset, overrides, key", [
        # 200 GHz bands, spanned 4x by 513 samples, space the grid 1.56 GHz
        # apart: a 1 GHz pump holds one sample above half its peak
        ("single_mode", ["filters.signal_bandwidth_ghz=200", "filters.idler_bandwidth_ghz=200",
                         "pump.power_fwhm_ghz=1"], "pump.power_fwhm_ghz"),
        # a 4 ns rectangle is 0.22 GHz wide, on a 0.19 GHz grid
        ("multimode", ["pump.duration_ps=4000", "pump.rise_time_ps=0"], "pump.duration_ps"),
    ])
    def test_unresolved_pump_exits_2_before_bases_and_source(self, capsys, monkeypatch,
                                                             preset, overrides, key):
        work = []
        for name in ("build_kernel", "factor_pair_amplitude", "source_moments"):
            monkeypatch.setattr(experiment, name, lambda *args, name=name: work.append(name))
        argv = ["scan", "--preset", preset, "--set", "scan.points=5"]
        for override in overrides:
            argv += ["--set", override]
        code, err = self.run(capsys, argv)
        assert code == 2 and work == []
        assert err.startswith(f"error: ExperimentError: {key} ")
        assert "filters.grid_points" in err

    def test_unresolved_signal_filter_is_named(self):
        # three samples 140 GHz apart: only the centre one lies in the 69.9 GHz band
        scenario = experiment.preset_scenario("single_mode", ["filters.grid_points=3"])
        with pytest.raises(experiment.ExperimentError,
                           match="^filters.signal_bandwidth_ghz .*filters.grid_points"):
            scenario.filters

    @pytest.mark.parametrize("preset, override", [
        # a 0.3 GHz Gaussian holds one sample above half its peak on
        # multimode's 0.19 GHz grid
        ("multimode", "filters.idler_bandwidth_ghz=0.3"),
        # a 0.01 GHz flat-top holds no power on single_mode's 0.55 GHz grid,
        # which the detection layer would refuse, naming no key
        ("single_mode", "filters.idler_bandwidth_ghz=0.01"),
    ])
    def test_unresolved_idler_filter_exits_2_before_bases(self, capsys, monkeypatch,
                                                          preset, override):
        work = []
        monkeypatch.setattr(experiment, "build_kernel", lambda *args: work.append(args))
        code, err = self.run(capsys, ["scan", "--preset", preset, "--set", override,
                                      "--set", "scan.points=5"])
        assert code == 2 and work == []
        assert err.startswith("error: ExperimentError: filters.idler_bandwidth_ghz gives "
                              "the idler filter no resolved width")

    def test_unresolved_tabulated_idler_filter_names_its_files(self, tmp_path, capsys):
        # a table at 0 dB on the idler grid's centre sample alone, and -200 dB
        # from half a spacing on either side
        text = CHEAP.replace("idler_shape = rectangular\nidler_bandwidth_ghz = 24.6",
                             "idler_shape = tabulated\nidler_files = {table}")
        grid = experiment.load_scenario(CHEAP).grids["antistokes"]
        omega = grid.center + grid.spacing * np.array([-grid.n_points, -0.5, 0, 0.5,
                                                       grid.n_points])
        table = tmp_path / "needle.txt"
        table.write_text("".join(f"{nm:.17g} {db}\n" for nm, db in
                                 zip(nm_from_angular(omega), [-200, -200, 0, -200, -200])))
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(text.format(table=table))
        code, err = self.run(capsys, ["scan", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("error: ExperimentError: filters.idler_files gives "
                              "the idler filter no resolved width")

    @pytest.mark.parametrize("preset, override", [
        ("multimode", "filters.grid_span_factor=0.1"),
        ("multimode", "filters.grid_span_factor=1e-3"),
        # the band offset in grid steps would overflow
        ("multimode", "filters.grid_span_factor=1e-320"),
        ("multimode", "filters.grid_points=4098"),
        ("single_mode", "filters.grid_points=4098"),
        ("multimode", "filters.signal_bandwidth_ghz=1"),
    ])
    def test_oversized_pump_grid_exits_2_before_any_work(self, capsys, monkeypatch,
                                                         preset, override):
        work = []
        monkeypatch.setattr(experiment, "pump_spectrum", lambda *args: work.append(args))
        code, err = self.run(capsys, ["calibrate", "--preset", preset, "--set", override])
        assert code == 2 and work == []
        assert err.startswith("error: ExperimentError: filters.grid_points, "
                              "filters.grid_span_factor and filters.signal_bandwidth_ghz ")
        assert f"above the cap of {experiment.MAX_PUMP_POINTS}" in err

    @pytest.mark.parametrize("preset", experiment.PRESET_NAMES)
    def test_pump_grid_cap_admits_the_presets_at_4097_points(self, preset):
        scenario = experiment.preset_scenario(preset, overrides=["filters.grid_points=4097"])
        assert scenario.grids["pump"].n_points == experiment.MAX_PUMP_POINTS

    def test_unparsable_config(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.ini"
        cfg.write_text("[scenario\npulses = 1e10\n")
        code, err = self.run(capsys, ["scan", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("error: ExperimentError: config parse failure: ")

    def test_scan_csv_with_another_header(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("tau_ps, p4\n0, 1e-6\n")
        code, err = self.run(capsys, ["fit", "--input", str(scan)])
        assert code == 2
        assert err.startswith("error: ExperimentError: unexpected CSV header 'tau_ps, p4'")

    @pytest.mark.parametrize("row", [
        pytest.param("0, 1e-6, 1e-3, 1e-3, 0.03, 0.03, 0.05", id="ragged"),
        pytest.param("0, 1e-6, 1e-3, 1e-3, 0.03, x, 0.05, 0.05", id="not-a-number"),
        pytest.param("0, 1e-6, 1e-3, 1e-3, nan, 0.03, 0.05, 0.05", id="nan"),
        pytest.param("0, inf, 1e-3, 1e-3, 0.03, 0.03, 0.05, 0.05", id="inf-p4"),
    ])
    def test_malformed_scan_csv_names_the_line(self, tmp_path, capsys, row):
        # enough good rows to fit, so that only the bad row can fail the run
        good = "1e-6, 1e-3, 1e-3, 0.03, 0.03, 0.05, 0.05"
        rows = [f"{tau}, {good}" for tau in (-10, -5, 5, 10)]
        scan = tmp_path / "scan.csv"
        scan.write_text("\n".join([experiment.CSV_HEADER, *rows[:2], "", row, *rows[2:]]))
        code, err = self.run(capsys, ["fit", "--input", str(scan)])
        assert code == 2
        assert err.startswith("error: ExperimentError: scan CSV line 5: ")

    def test_uncontained_pump_names_the_span_key(self, capsys):
        code, err = self.run(capsys, ["calibrate", "--preset", "single_mode",
                                      "--set", "pump.power_fwhm_ghz=3000"])
        assert code == 2
        assert err.startswith("error: ExperimentError: pump.energy_pj, pump.power_fwhm_ghz: "
                              "grid holds only")
        assert "filters.grid_span_factor" in err

    def test_coarse_pump_grid_names_its_keys(self, capsys):
        # multimode's dual window 2 pi / dw is 5.2 ns: a 6 ns pulse does not fit
        code, err = self.run(capsys, ["calibrate", "--preset", "multimode",
                                      "--set", "pump.duration_ps=6000"])
        assert code == 2
        assert err.startswith("error: ExperimentError: pump.energy_pj, pump.duration_ps, "
                              "pump.rise_time_ps: grid spacing too coarse")
        for key in ("pump.duration_ps", "pump.rise_time_ps", "filters.grid_points",
                    "filters.grid_span_factor", "filters.signal_bandwidth_ghz"):
            assert key in err

    @pytest.mark.parametrize("override, problem", [
        ("pump.energy_pj=-1", "pump energy must be positive"),
        ("pump.power_fwhm_ghz=-5", "power_fwhm must be positive"),
    ])
    def test_invalid_pump_names_its_keys(self, capsys, override, problem):
        # pump_spectrum's own message names no key; the pump stage adds them
        code, err = self.run(capsys, ["calibrate", "--preset", "single_mode",
                                      "--set", override])
        assert code == 2
        assert err == f"error: ExperimentError: pump.energy_pj, pump.power_fwhm_ghz: {problem}\n"

    def test_missing_files(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        for argv in (["scan", "--config", str(missing / "scenario.ini")],
                     ["fit", "--input", str(missing / "scan.csv")],
                     ["modes", "--c-range", "0.7:0.7:1", "--output",
                      str(missing / "table.csv")]):
            code, err = self.run(capsys, argv)
            assert code == 4
            assert err.startswith("error: FileNotFoundError: ")

    def test_bad_output_fails_before_the_scan(self, tmp_path, capsys, monkeypatch):
        scans = []
        monkeypatch.setattr(experiment, "run_delay_scan", scans.append)
        code, err = self.run(capsys, ["scan", "--preset", "multimode", "--output",
                                      str(tmp_path / "missing" / "scan.csv")])
        assert code == 4
        assert err.startswith("error: FileNotFoundError: ")
        assert scans == []

    def test_argument_errors(self, capsys):
        for argv in (["modes", "--c-range", "5:1:0.1"], ["modes", "--c-range", "1:2"],
                     ["scan"]):
            code, err = self.run(capsys, argv)
            assert code == 2
            assert err.startswith("error: ExperimentError: ")

    def test_engine_error_exits_3(self, tmp_path, capsys, monkeypatch):
        # a spool whose pair block carries no photons is unphysical, so the
        # click engine rejects it in the first delay of the scan
        source_moments = experiment.source_moments

        def without_photons(*args):
            spool = source_moments(*args)
            return replace(spool, normal_stokes=0 * spool.normal_stokes,
                           normal_antistokes=0 * spool.normal_antistokes)

        monkeypatch.setattr(experiment, "source_moments", without_photons)
        cfg = tmp_path / "scenario.ini"
        cfg.write_text(CHEAP)
        code, err = self.run(capsys, ["scan", "--config", str(cfg)])
        assert code == 3
        assert err.startswith("error: DetectionError: ")
