import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.constants
from scipy.constants import hbar, k as k_B

from homsim import grids, source
from homsim.detection import physicality_min_eig
from homsim.experiment import preset_scenario
from homsim.grids import TWO_PI, FrequencyGrid
from homsim.modes import FilterProfile, build_kernel, make_profile, schmidt_decompose
from homsim.network import DetectorModel, detection_mode_projection, retained_register
from homsim.source import (
    ANTISTOKES,
    STOKES,
    PairModes,
    PumpPulse,
    RamanGain,
    SourceModelError,
    SourceParams,
    _pair_sum_matrix,
    calibrate_gain,
    default_raman_gain,
    factor_pair_amplitude,
    fwm_joint_amplitude,
    load_raman_gain,
    pair_production_probability,
    pump_spectrum,
    raman_moments,
    source_moments,
    thermal_occupation,
)

WP = 1.438e15  # ~1310 nm carrier


def make_grids(spacing, n=257, detune=TWO_PI * 1.2e12):
    span = spacing * (n - 1)
    gs = FrequencyGrid(center=WP - detune, span=span, n_points=n)
    ga = FrequencyGrid(center=WP + detune, span=span, n_points=n)
    return gs, ga


def pump_grid(spacing, half):
    n = int(2 * half / spacing) // 2 * 2 + 1
    return FrequencyGrid(center=WP, span=spacing * (n - 1), n_points=n)


def identity(grid):
    """The register of every grid cell: blocks on it are the full blocks."""
    return np.eye(grid.n_points, dtype=complex)


def full_moments(params, modes):
    """A spool's state on the identity registers of both bands."""
    return source_moments(params, modes, identity(modes.grids[STOKES]),
                          identity(modes.grids[ANTISTOKES]))


def simple_params(gamma_length=1e-3, g_zero=False, temperature=77.0):
    gain = default_raman_gain() if not g_zero else RamanGain(
        detuning=np.array([0.0, 1e14]), gain=np.array([0.0, 0.0]))
    return SourceParams(gamma_length=gamma_length, length=1000.0,
                        temperature=temperature, raman_gain=gain)


class TestPump:
    def test_gaussian_duration_matches_transform_limit(self):
        # 68.3 GHz power FWHM should give a 6.4 ps intensity FWHM
        fw = TWO_PI * 68.3e9
        grid = pump_grid(TWO_PI * 0.5e9, 4 * fw)
        pump = pump_spectrum("transform_limited_gaussian", {"power_fwhm": fw}, 1e-12, grid)
        assert pump.duration == pytest.approx(6.46e-12, rel=0.01)
        # oracle: numeric FWHM of |a(t)|^2 from the sampled spectrum
        t = np.linspace(-30e-12, 30e-12, 4001)
        a_t = np.array([np.sum(pump.amplitude * np.exp(-1j * (pump.grid.points - WP) * ti))
                        for ti in t])
        inten = np.abs(a_t) ** 2
        above = t[inten >= inten.max() / 2]
        assert (above[-1] - above[0]) == pytest.approx(pump.duration, rel=0.02)

    def test_energy_normalization(self):
        fw = TWO_PI * 68.3e9
        grid = pump_grid(TWO_PI * 0.5e9, 4 * fw)
        pump = pump_spectrum("transform_limited_gaussian", {"power_fwhm": fw}, 3.7e-12, grid)
        assert pump.energy == pytest.approx(3.7e-12, rel=1e-10)

    def test_rect_spectral_fwhm(self):
        # ideal 100 ps rectangle: sinc^2 power FWHM ~ 0.886/T = 8.86 GHz
        T = 100e-12
        grid = pump_grid(TWO_PI * 0.05e9, TWO_PI * 1.05e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": T}, 1e-12, grid)
        p = np.abs(pump.amplitude) ** 2
        nu = (pump.grid.points - WP) / TWO_PI
        above = nu[p >= p.max() / 2]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(0.886 / T, rel=0.02)

    def test_carved_with_rise_time_contained_on_narrow_grid(self):
        T, rise = 100e-12, 30e-12
        grid = pump_grid(TWO_PI * 0.2e9, TWO_PI * 0.6e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": T, "rise_time": rise},
                             2e-12, grid)
        assert pump.energy == pytest.approx(2e-12, rel=1e-10)

    def test_narrow_grid_rejected_for_ideal_rect(self):
        # the sinc tails of an ideal rectangle hold >0.1% energy beyond +-100 GHz
        grid = pump_grid(TWO_PI * 0.2e9, TWO_PI * 0.1e12)
        with pytest.raises(SourceModelError, match="pump energy"):
            pump_spectrum("cw_carved_rect", {"duration": 100e-12}, 1e-12, grid)

    def test_nonpositive_energy_rejected(self):
        grid = pump_grid(TWO_PI * 1e9, TWO_PI * 0.5e12)
        with pytest.raises(SourceModelError):
            pump_spectrum("cw_carved_rect", {"duration": 1e-10}, 0.0, grid)

    @pytest.mark.parametrize("rise_fraction", [0.0, 0.3])
    def test_carved_spectrum_matches_quadrature(self, rise_fraction):
        # brute-force trapezoid transform of the field, flat over
        # |t| <= (T - r)/2 with quarter-cosine edges of width r, with the
        # breakpoints on the time lattice
        T = 100e-12
        rise = rise_fraction * T
        grid = pump_grid(TWO_PI * 2e9, TWO_PI * 1.05e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": T, "rise_time": rise},
                             1e-12, grid)
        flat = (T - rise) / 2
        detuning = grid.points - WP
        t_flat = np.linspace(0.0, flat, 20001)
        t_edge = np.linspace(flat, flat + rise, 8001)
        quad = np.zeros(grid.n_points)
        for rows in np.array_split(np.arange(grid.n_points), 16):
            dt = detuning[rows, None]
            quad[rows] = 2 * np.trapezoid(np.cos(dt * t_flat), t_flat, axis=1)
            if rise:
                edge = np.cos(np.pi * (t_edge - flat) / (2 * rise))
                quad[rows] += 2 * np.trapezoid(edge * np.cos(dt * t_edge), t_edge, axis=1)
        # both normalized to the same energy on the lattice
        quad *= np.sqrt(1e-12 / (TWO_PI * grid.integrate(quad**2)))
        assert np.max(np.abs(pump.amplitude - quad)) <= 1e-6 * np.max(np.abs(quad))

    def test_carved_pulse_must_fit_the_dual_window(self):
        # 2 pi / dw = 125 ps holds the 100 ps rectangle but not 100 + 30 ps
        grid = pump_grid(TWO_PI * 8e9, TWO_PI * 2e12)
        pump_spectrum("cw_carved_rect", {"duration": 1e-10}, 1e-12, grid)
        with pytest.raises(SourceModelError, match="too coarse"):
            pump_spectrum("cw_carved_rect", {"duration": 1e-10, "rise_time": 3e-11},
                          1e-12, grid)


def test_si_constants_equal_scipy():
    # exact SI-2019 literals, so no scipy import is needed to define them
    assert grids.C_LIGHT == scipy.constants.c
    assert source.hbar == scipy.constants.hbar
    assert source.k_B == scipy.constants.k


class TestThermalOccupation:
    def test_zero_temperature_limits(self):
        assert thermal_occupation(1e12, 1e-6) == pytest.approx(0.0, abs=1e-30)
        assert thermal_occupation(-1e12, 1e-6) == pytest.approx(1.0, abs=1e-30)

    def test_bose_einstein_at_77k(self):
        nu = TWO_PI * 1e12
        x = hbar * nu / (k_B * 77.0)
        expect = 1.0 / np.expm1(x)
        assert thermal_occupation(nu, 77.0) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(1.156, abs=2e-3)
        assert thermal_occupation(-nu, 77.0) == pytest.approx(expect + 1.0, rel=1e-12)

    def test_zero_detuning_capped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            val = thermal_occupation(0.0, 77.0)
        assert val == pytest.approx(1e12 + 1)


class TestJSA:
    def test_monochromatic_pump_anticorrelation(self):
        d = TWO_PI * 1e9
        gs, ga = make_grids(d, n=101)
        # single-point pump: amplitude concentrated in one cell
        pg = pump_grid(d, 5 * d)
        amp = np.zeros(pg.n_points, complex)
        amp[pg.n_points // 2] = 1.0
        pump = PumpPulse(grid=pg, amplitude=amp, duration=0.0)
        jsa = fwm_joint_amplitude(pump, 1.0, gs, ga)
        nz = np.argwhere(np.abs(jsa) > 0)
        sums = gs.points[nz[:, 0]] + ga.points[nz[:, 1]]
        np.testing.assert_allclose(sums, 2 * WP, rtol=1e-12)

    def test_gaussian_pump_autoconvolution_width(self):
        # oracle: Phi of a gaussian with amplitude std sigma has std sigma*sqrt(2)
        d = TWO_PI * 0.5e9
        fw = TWO_PI * 68.3e9
        pg = pump_grid(d, 4 * fw)
        pump = pump_spectrum("transform_limited_gaussian", {"power_fwhm": fw}, 1e-12, pg)
        gs, ga = make_grids(d, n=513, detune=TWO_PI * 0.5e12)
        jsa = fwm_joint_amplitude(pump, 1.0, gs, ga)
        sig_amp = fw / (4 * np.sqrt(np.log(2)))  # field std of the pump
        profile = np.abs(jsa[:, ga.n_points // 2])
        x = gs.points - gs.center
        sig_meas = np.sqrt(np.sum(profile**2 * x**2) / np.sum(profile**2)) / np.sqrt(2)
        assert sig_meas == pytest.approx(sig_amp * np.sqrt(2), rel=0.02)

    def test_zero_gain_zero_jsa(self):
        d = TWO_PI * 1e9
        gs, ga = make_grids(d, n=51)
        pg = pump_grid(d, TWO_PI * 0.5e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": 1e-10, "rise_time": 3e-11},
                             1e-12, pg)
        assert np.all(fwm_joint_amplitude(pump, 0.0, gs, ga) == 0)

    def test_energy_nonconserving_band_pair_rejected(self):
        # both bands on the pump lattice, but their centers sum two spacings
        # away from twice the pump carrier
        d = TWO_PI * 1e9
        gs, ga = make_grids(d, n=51)
        ga_far = FrequencyGrid(center=ga.center + 2 * d, span=ga.span, n_points=ga.n_points)
        pg = pump_grid(d, TWO_PI * 0.5e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": 1e-10, "rise_time": 3e-11},
                             1e-12, pg)
        assert pg.aligned_with(ga_far)
        fwm_joint_amplitude(pump, 1.0, gs, ga)
        with pytest.raises(SourceModelError, match="energy conservation"):
            fwm_joint_amplitude(pump, 1.0, gs, ga_far)

    @staticmethod
    def _float_index_fill(pump, gs, ga):
        """The pair-sum fill through a float sum grid and a rounded index."""
        phi = pump.autoconvolution
        d = pump.grid.spacing
        om0 = 2 * pump.grid.center - (pump.grid.n_points - 1) * d
        total = gs.points[:, None] + ga.points[None, :]
        idx = np.rint((total - om0) / d).astype(int)
        inside = (idx >= 0) & (idx < len(phi))
        matrix = np.zeros(total.shape, dtype=phi.dtype)
        matrix[inside] = phi[idx[inside]]
        return matrix

    @pytest.mark.parametrize("preset", ["single_mode", "multimode"])
    def test_pair_sum_matrix_on_the_presets(self, preset):
        scenario = preset_scenario(preset)
        pump, gs, ga = scenario.pump, scenario.grids[STOKES], scenario.grids[ANTISTOKES]
        fill = _pair_sum_matrix(pump, gs, ga)
        assert fill.dtype == np.float64 and fill.flags.writeable
        assert np.array_equal(fill, self._float_index_fill(pump, gs, ga))

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_pair_sum_matrix_off_the_lattice(self, shift):
        # a pump grid narrower than the pair sums, and a Stokes grid of a
        # different size whose centre moves by a spacing: most entries fall
        # off Phi's lattice on both ends and must stay exactly zero
        d = TWO_PI * 1e9
        gs, ga = make_grids(d, n=61)
        gs = FrequencyGrid(center=gs.center + shift * d, span=40 * d, n_points=41)
        pg = pump_grid(d, 15 * d)
        amp = np.exp(-(((pg.points - pg.center) / (6 * d)) ** 2))
        pump = PumpPulse(grid=pg, amplitude=amp, duration=0.0)
        fill = _pair_sum_matrix(pump, gs, ga)
        assert fill.shape == (41, 61)
        assert np.array_equal(fill, self._float_index_fill(pump, gs, ga))
        assert np.all(fill[0, :15] == 0) and np.all(fill[-1, -15:] == 0)
        assert np.all(fill[0, 25:] != 0)

    def test_grid_mismatch_rejected(self):
        d = TWO_PI * 1e9
        gs, _ = make_grids(d, n=51)
        ga_bad = FrequencyGrid(center=WP + TWO_PI * 1.2e12, span=3e11, n_points=77)
        pg = pump_grid(d, TWO_PI * 0.5e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": 1e-10, "rise_time": 3e-11},
                             1e-12, pg)
        with pytest.raises(SourceModelError):
            fwm_joint_amplitude(pump, 1.0, gs, ga_bad)


class TestRaman:
    def _pump(self, d=TWO_PI * 2e9):
        pg = pump_grid(d, TWO_PI * 0.6e12)
        return pump_spectrum("cw_carved_rect", {"duration": 1e-10, "rise_time": 3e-11},
                             10e-12, pg)

    def test_zero_gain_zero_block(self):
        pump = self._pump()
        gs, _ = make_grids(pump.grid.spacing, n=101)
        params = simple_params(g_zero=True)
        assert np.all(raman_moments(pump, params, gs, identity(gs)) == 0)

    def test_cold_antistokes_vanishes(self):
        pump = self._pump()
        _, ga = make_grids(pump.grid.spacing, n=101)
        params = simple_params(temperature=1e-3)
        block = raman_moments(pump, params, ga, identity(ga))
        assert np.max(np.abs(block)) < 1e-30

    def test_trace_linear_in_length(self):
        pump = self._pump()
        gs, _ = make_grids(pump.grid.spacing, n=101)
        p1 = simple_params()
        p2 = replace(p1, length=2 * p1.length)
        t1 = np.trace(raman_moments(pump, p1, gs, identity(gs))).real
        t2 = np.trace(raman_moments(pump, p2, gs, identity(gs))).real
        assert t2 / t1 == pytest.approx(2.0, rel=1e-10)

    def test_stokes_exceeds_antistokes_at_77k(self):
        pump = self._pump()
        gs, ga = make_grids(pump.grid.spacing, n=101)
        params = simple_params()
        ts = np.trace(raman_moments(pump, params, gs, identity(gs))).real
        ta = np.trace(raman_moments(pump, params, ga, identity(ga))).real
        assert ts > ta > 0

    def test_psd(self):
        pump = self._pump()
        gs, _ = make_grids(pump.grid.spacing, n=101)
        block = raman_moments(pump, simple_params(), gs, identity(gs))
        eigs = np.linalg.eigvalsh(block)
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1e-300)

    def test_gain_file_roundtrip(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("# test\n0.0 0.0\n1.0 2e-5\n2.0 4e-5\n")
        gain = load_raman_gain(path)
        assert gain(TWO_PI * 1.5e12) == pytest.approx(3e-5)
        assert gain(-TWO_PI * 1.5e12) == pytest.approx(3e-5)
        with pytest.warns(RuntimeWarning):
            assert gain(TWO_PI * 5e12) == 0.0

    def test_ragged_gain_file_names_its_path(self, tmp_path):
        path = tmp_path / "gain.txt"
        path.write_text("0.0 0.0\n1.0 2e-5 7\n2.0 4e-5\n")
        with pytest.raises(SourceModelError, match="gain.txt"):
            load_raman_gain(path)

    @pytest.mark.parametrize("text", [
        pytest.param("0.0\n1.0\n", id="one_column"),
        pytest.param("1.0 2e-5\n", id="one_row"),
        pytest.param("0.0 0.0\n1.0 x\n", id="non_numeric"),
        pytest.param("0.0 0.0\n1.25 nan\n2.0 4e-5\n", id="non_finite"),
        # the gain is read at |detuning|, so a negative row would be dropped
        pytest.param("0.0 0.0\n1.25 4e-5\n-1.2 1e-3\n", id="negative_detuning")])
    def test_malformed_gain_file_names_its_path(self, tmp_path, text):
        path = tmp_path / "malformed.txt"
        path.write_text(text)
        with pytest.raises(SourceModelError, match="Raman gain file .*malformed.txt"):
            load_raman_gain(path)


def dense_raman_block(pump, params, grid, weight=None):
    """Brute-force reference for the Raman block.

    N[m,n] = L dw^2 sum_k weight(nu_k) conj(A_p(w_m - nu_k)) A_p(w_n - nu_k)
    as a dense product over every detuning nu_k on the common lattice, with
    A_p looked up by frequency.  The default weight is g(nu) n_T(nu)
    outside the elastic |nu| < dw/2 cell.
    """
    d = grid.spacing
    n_p = pump.grid.n_points
    nu = (grid.points[0] - pump.grid.points[-1]) + np.arange(grid.n_points + n_p - 1) * d
    if weight is None:
        gain = params.raman_gain(nu)
        active = (gain > 0) & (np.abs(nu) >= 0.5 * d)
        weight = np.zeros_like(nu)
        weight[active] = gain[active] * thermal_occupation(nu[active], params.temperature)
    else:
        weight = weight(nu)
    idx = np.rint((grid.points[:, None] - nu[None, :] - pump.grid.points[0]) / d).astype(int)
    inside = (idx >= 0) & (idx < n_p)
    shifted = np.where(inside, pump.amplitude[np.clip(idx, 0, n_p - 1)], 0.0)
    return params.length * d * d * ((shifted.conj() * weight[None, :]) @ shifted.T)


def commutator_residual(pump, params, grid):
    """Deviation of [a, a^dag] from the identity after the self-consistent
    vacuum-scattering correction, normalized as a spectral norm.

    The squeezer part preserves commutators exactly; the Raman term adds
    its commutator C_r (the Raman block with weight g alone), compensated
    at leading order by the correction alpha = (I + C_r)^(-1/2).  The
    residual is therefore O(C_r^2).
    """
    c_r = dense_raman_block(pump, params, grid, weight=params.raman_gain).conj()
    c_r = 0.5 * (c_r + c_r.conj().T)
    vals, vecs = np.linalg.eigh(c_r)
    inv = (vecs / (1.0 + vals)[None, :]) @ vecs.conj().T
    return float(np.linalg.norm(inv + c_r - np.eye(grid.n_points), 2))


def gaussian_pump_with_underflowing_tails():
    """A 68.3 GHz Gaussian pump whose grid reaches far enough that its tails
    hold subnormal samples and exact zeros, like the single_mode preset's."""
    fw = TWO_PI * 68.3e9
    d = fw / 8
    pump = pump_spectrum("transform_limited_gaussian", {"power_fwhm": fw}, 2e-12,
                         pump_grid(d, 30 * fw))
    amp = np.abs(pump.amplitude)
    assert np.any(amp == 0.0)
    assert np.any((amp > 0) & (amp < np.finfo(float).tiny))
    return pump


def skewed_pump():
    """The carved pump with a lopsided amplitude and a linear spectral phase
    (a time shift), so that A_p(w) and A_p(-w) differ: symmetric pumps
    cannot tell a convolution from a correlation."""
    pump = TestRaman()._pump()
    x = (pump.grid.points - pump.center) / (pump.grid.span / 2)
    return replace(pump, amplitude=pump.amplitude * (1 + 0.5 * x) * np.exp(3j * x))


def make_test_pump(name):
    if name == "gaussian":
        return gaussian_pump_with_underflowing_tails()
    return skewed_pump() if name == "skewed" else TestRaman()._pump()


class TestRamanDenseReference:
    """The FFT Raman block on the identity register against the dense formula."""

    @pytest.mark.parametrize("make_pump", ["gaussian", "carved", "skewed"])
    @pytest.mark.parametrize("band", [STOKES, ANTISTOKES])
    def test_matches_dense_formula(self, make_pump, band):
        pump = make_test_pump(make_pump)
        d = pump.grid.spacing
        gs, ga = make_grids(d, n=101, detune=round(TWO_PI * 1.2e12 / d) * d)
        grid = gs if band == STOKES else ga
        params = simple_params()
        block = raman_moments(pump, params, grid, identity(grid))
        ref = dense_raman_block(pump, params, grid)
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))
        np.testing.assert_array_equal(block, block.conj().T)

    def test_band_wider_than_pump(self):
        # diagonals longer than the pump's support are zero, not wrapped
        d = TWO_PI * 2e9
        pump = pump_spectrum("transform_limited_gaussian", {"power_fwhm": 4 * d}, 1e-12,
                             pump_grid(d, 40 * d))
        gs, _ = make_grids(d, n=201)
        params = simple_params()
        block = raman_moments(pump, params, gs, identity(gs))
        ref = dense_raman_block(pump, params, gs)
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))


def random_register(grid, k, seed):
    """k orthonormal complex unit vectors on `grid`, from a seeded draw."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((grid.n_points, k)) + 1j * rng.standard_normal((grid.n_points, k))
    return np.linalg.qr(z)[0]


class TestRegisterProjection:
    """Blocks built on a register equal the projections of the full blocks."""

    @staticmethod
    def assert_projects(block, ref):
        assert np.max(np.abs(ref)) > 0
        assert np.max(np.abs(block - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("make_pump", ["gaussian", "carved", "skewed"])
    def test_register_blocks_are_projected_full_blocks(self, make_pump):
        pump = make_test_pump(make_pump)
        d = pump.grid.spacing
        detune = round(TWO_PI * 1.2e12 / d) * d
        gs, ga = make_grids(d, n=101, detune=detune)
        grids = {STOKES: gs, ANTISTOKES: ga}
        psi = {STOKES: random_register(gs, 5, seed=1),
               ANTISTOKES: random_register(ga, 4, seed=2)}
        modes = factor_pair_amplitude(pump, grids)
        params = simple_params(gamma_length=0.3 / modes.s[0])
        for band, grid in grids.items():
            self.assert_projects(
                raman_moments(pump, params, grid, psi[band]),
                psi[band].conj().T @ dense_raman_block(pump, params, grid) @ psi[band])
        # the register modes are b_j = sum_m conj(psi_mj) a_m
        spool = source_moments(params, modes, psi[STOKES], psi[ANTISTOKES])
        full = full_moments(params, modes)
        psi_s, psi_a = psi[STOKES], psi[ANTISTOKES]
        self.assert_projects(spool.normal_stokes, psi_s.T @ full.normal_stokes @ psi_s.conj())
        self.assert_projects(spool.normal_antistokes,
                             psi_a.T @ full.normal_antistokes @ psi_a.conj())
        self.assert_projects(spool.anomalous, psi_s.conj().T @ full.anomalous @ psi_a.conj())


class TestPumpDtype:
    """The pump amplitude keeps its dtype: real for the shipped shapes, and a
    complex one (a spectral phase) goes through the same calls."""

    @pytest.mark.parametrize("make_pump", ["gaussian", "carved"])
    def test_shipped_shapes_stay_real(self, make_pump):
        pump = make_test_pump(make_pump)
        assert pump.amplitude.dtype == np.float64
        assert pump.autoconvolution.dtype == np.float64
        # a window inside the grid, so that the support ends short of both edges
        x = np.abs(pump.grid.points - pump.center) / (pump.grid.span / 2)
        for amp in (pump.amplitude, np.where(x < 0.4, pump.amplitude, 0.0)):
            windowed = replace(pump, amplitude=amp)
            phi, support = windowed.autoconvolution, windowed.support
            lo, hi = 2 * support.start, 2 * support.stop - 1
            assert np.all(phi[:lo] == 0.0) and np.all(phi[hi:] == 0.0)
            a = amp[support]
            direct = np.convolve(a, a) * pump.grid.spacing
            assert np.max(np.abs(phi[lo:hi] - direct)) <= 1e-12 * np.max(np.abs(direct))
        assert lo > 0 and hi < len(phi)

    @staticmethod
    def _time_shifted(pump, shift=20e-12):
        return replace(pump, amplitude=pump.amplitude
                       * np.exp(1j * (pump.grid.points - pump.center) * shift))

    def test_complex_pump_rebuilds_the_pair_amplitude(self):
        # a linear spectral phase delays the pulse: a complex Phi and a complex SVD
        pump = self._time_shifted(make_test_pump("carved"))
        gs, ga = make_grids(pump.grid.spacing, n=101)
        modes = factor_pair_amplitude(pump, {STOKES: gs, ANTISTOKES: ga})
        assert pump.autoconvolution.dtype == modes.vt.dtype == np.complex128
        # the i of J = i Phi dw is carried by u
        jsa = fwm_joint_amplitude(pump, 1.0, gs, ga) * gs.spacing
        assert np.max(np.abs((modes.u * modes.s) @ modes.vt - jsa)) <= 1e-13 * modes.s[0]

    @pytest.mark.parametrize("make_pump", ["gaussian", "carved"])
    def test_real_pump_takagi_factors(self, make_pump):
        # a real pump on square grids: Phi dw is real symmetric, and its one
        # eigh gives J = i Phi dw = u diag(s) vt with u = i V sign(lam), vt = V^T
        pump = make_test_pump(make_pump)
        d = pump.grid.spacing
        gs, ga = make_grids(d, n=101, detune=round(TWO_PI * 1.2e12 / d) * d)
        modes = factor_pair_amplitude(pump, {STOKES: gs, ANTISTOKES: ga})
        jsa = fwm_joint_amplitude(pump, 1.0, gs, ga) * gs.spacing
        s0, k = modes.s[0], modes.s.size
        assert np.max(np.abs((modes.u * modes.s) @ modes.vt - jsa)) <= 1e-13 * s0
        assert np.max(np.abs(modes.u.conj().T @ modes.u - np.eye(k))) <= 1e-13
        assert np.max(np.abs(modes.vt @ modes.vt.conj().T - np.eye(k))) <= 1e-13
        assert np.all(np.diff(modes.s) <= 0)
        assert np.all(modes.s > 1e-12 * s0)
        singular = np.linalg.svd(jsa, compute_uv=False)
        assert np.max(np.abs(modes.s - singular[:k])) <= 1e-13 * s0
        assert np.all(singular[k:] <= 1e-12 * s0)
        # the Takagi form: u and vt^T differ column by column by i or -i only
        assert np.array_equal(np.abs(modes.u), np.abs(modes.vt.T))

    @pytest.mark.parametrize("make_pump", ["gaussian", "carved"])
    def test_real_and_complex_pump_agree(self, make_pump):
        pump = make_test_pump(make_pump)
        as_complex = replace(pump, amplitude=pump.amplitude.astype(complex))
        d = pump.grid.spacing
        gs, ga = make_grids(d, n=101, detune=round(TWO_PI * 1.2e12 / d) * d)
        grids = {STOKES: gs, ANTISTOKES: ga}
        psi_s, psi_a = random_register(gs, 5, seed=1), random_register(ga, 4, seed=2)
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, gs)
        spools, gains = [], []
        for p in (pump, as_complex):
            modes = factor_pair_amplitude(p, grids)
            gains.append(calibrate_gain(0.03, modes, filt))
            params = simple_params(gamma_length=gains[0])
            spools.append(source_moments(params, modes, psi_s, psi_a))
        assert abs(gains[1] - gains[0]) <= 1e-12 * gains[0]
        for f in ("normal_stokes", "normal_antistokes", "anomalous"):
            ref, got = getattr(spools[0], f), getattr(spools[1], f)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSourceMoments:
    def _setup(self, gamma_length=2e-4, g_zero=False, d=TWO_PI * 2e9, n=101):
        pg = pump_grid(d, TWO_PI * 0.6e12)
        pump = pump_spectrum("cw_carved_rect", {"duration": 1e-10, "rise_time": 3e-11},
                             10e-12, pg)
        gs, ga = make_grids(d, n=n)
        params = simple_params(gamma_length=gamma_length, g_zero=g_zero)
        return pump, params, {STOKES: gs, ANTISTOKES: ga}

    def test_vacuum_when_dark(self):
        pump, params, grids = self._setup(gamma_length=0.0, g_zero=True)
        spool = full_moments(params, factor_pair_amplitude(pump, grids))
        for block in (spool.normal_stokes, spool.normal_antistokes):
            assert np.trace(block).real == 0.0
        assert np.all(spool.anomalous == 0)

    def test_low_gain_trace_matches_perturbative_oracle(self):
        # second-order oracle: trace of FWM N_s equals the quadrature-weighted
        # Frobenius norm^2 of the JSA
        pump, params, grids = self._setup(gamma_length=1e-5, g_zero=True)
        spool = full_moments(params, factor_pair_amplitude(pump, grids))
        jsa = fwm_joint_amplitude(pump, params.gamma_length,
                                  grids[STOKES], grids[ANTISTOKES])
        frob = np.sum(np.abs(jsa * grids[STOKES].spacing) ** 2)
        got = np.trace(spool.normal_stokes).real
        assert got == pytest.approx(frob, rel=1e-4)

    def test_three_point_grid_second_order_expansion(self):
        # hand-built oracle on a 3-point grid: expand sinh/cosh moments of a
        # known pair amplitude to second order in the gain
        # (gammaL = 1, so the singular values are the squeezing parameters;
        # the pump is dark, so no Raman light is added)
        gs = FrequencyGrid(center=-10.0, span=2.0, n_points=3)
        ga = FrequencyGrid(center=10.0, span=2.0, n_points=3)
        pump = PumpPulse(grid=FrequencyGrid(center=0.0, span=2.0, n_points=3),
                         amplitude=np.zeros(3, complex), duration=0.0)
        j = np.array([[0.0, 0.0, 0.3], [0.0, 0.5, 0.0], [0.2, 0.0, 0.0]]) * 1e-3
        u, s, vt = np.linalg.svd(1j * j)
        modes = PairModes(pump=pump, grids={STOKES: gs, ANTISTOKES: ga}, u=u, s=s, vt=vt)
        params = SourceParams(gamma_length=1.0, length=1.0, temperature=77.0,
                              raman_gain=default_raman_gain())
        spool = full_moments(params, modes)
        np.testing.assert_allclose(spool.anomalous, 1j * j, rtol=1e-6)
        np.testing.assert_allclose(spool.normal_stokes, (1j * j).conj() @ (1j * j).T,
                                   rtol=1e-6)
        np.testing.assert_allclose(spool.normal_antistokes, (1j * j).conj().T @ (1j * j),
                                   rtol=1e-6)

    def test_spool_independence_and_symmetry(self):
        # both spools get the same state and no block correlates them
        pump, params, grids = self._setup()
        basis_s, basis_a = (schmidt_decompose(build_kernel(make_profile(
            "rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[band]), 1e-10))
            for band in (STOKES, ANTISTOKES))
        bases = {"signal": basis_s, "idler": basis_a}
        spool = source_moments(params, factor_pair_amplitude(pump, grids),
                               retained_register(basis_s)[0], retained_register(basis_a)[0])
        unit = DetectorModel(signal_efficiency=1.0, idler_efficiency=1.0, dark_mean=0.0)
        normal, anomalous, _ = detection_mode_projection(spool, spool, bases, 13e-12, unit)
        k_s, k_a = basis_s.retained(), basis_a.retained()
        right = np.r_[0:k_s, 2 * k_s:2 * k_s + k_a]
        left = np.r_[k_s:2 * k_s, 2 * k_s + k_a:2 * k_s + 2 * k_a]
        for block in (normal, anomalous):
            assert np.all(block[np.ix_(right, left)] == 0)
            assert np.all(block[np.ix_(left, right)] == 0)
            np.testing.assert_array_equal(block[np.ix_(right, right)],
                                          block[np.ix_(left, left)])
        np.testing.assert_array_equal(anomalous, anomalous.T)

    def test_normal_blocks_hermitian_psd(self):
        pump, params, grids = self._setup()
        spool = full_moments(params, factor_pair_amplitude(pump, grids))
        for block in (spool.normal_stokes, spool.normal_antistokes):
            np.testing.assert_allclose(block, block.conj().T, atol=1e-14)
            eigs = np.linalg.eigvalsh(block)
            assert eigs.min() >= -1e-10 * eigs.max()

    def test_physicality_doubled_matrix(self):
        pump, params, grids = self._setup(gamma_length=3e-4)
        spool = full_moments(params, factor_pair_amplitude(pump, grids))
        # the spool's two-band moments: N = diag(N_s, N_a), M pairs s with a
        m = spool.anomalous
        normal = np.block([[spool.normal_stokes, np.zeros_like(m)],
                           [np.zeros_like(m.T), spool.normal_antistokes]])
        anomalous = np.block([[np.zeros((m.shape[0],) * 2), m],
                              [m.T, np.zeros((m.shape[1],) * 2)]])
        assert physicality_min_eig(normal, anomalous) >= -1e-8

    def test_raman_scales_linearly_fwm_quadratically_in_energy(self):
        # FWM photons from a spool without Raman gain, Raman photons alone
        d = TWO_PI * 2e9
        pg = pump_grid(d, TWO_PI * 0.6e12)
        gs, ga = make_grids(d, n=101)
        params = simple_params(gamma_length=1e-5)
        dark = simple_params(gamma_length=1e-5, g_zero=True)
        grids = {STOKES: gs, ANTISTOKES: ga}
        out = []
        for energy in (5e-12, 10e-12):
            pump = pump_spectrum("cw_carved_rect",
                                 {"duration": 1e-10, "rise_time": 3e-11}, energy, pg)
            spool = full_moments(dark, factor_pair_amplitude(pump, grids))
            raman = raman_moments(pump, params, gs, identity(gs))
            out.append((np.trace(spool.normal_stokes).real, np.trace(raman).real))
        assert out[1][0] / out[0][0] == pytest.approx(4.0, rel=1e-3)
        assert out[1][1] / out[0][1] == pytest.approx(2.0, rel=1e-10)

    def test_commutator_residual_small(self):
        # at operating gain (pair probability 12.5%) the corrected map's
        # commutator defect is second order in the scattering strength
        pump, params, grids = self._setup()
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        modes = factor_pair_amplitude(pump, grids)
        gl = calibrate_gain(0.125, modes, filt)
        tuned = replace(params, gamma_length=gl)
        rho = pair_production_probability(modes, gl, filt)
        resid = commutator_residual(pump, tuned, grids[STOKES])
        assert resid <= 10 * rho**2
        # the correction must beat the uncorrected defect by a wide margin
        raman_flux = np.trace(raman_moments(pump, tuned, grids[STOKES],
                                            identity(grids[STOKES]))).real
        assert resid < 0.1 * raman_flux


class TestPairProbability:
    def _setup(self, **kw):
        return TestSourceMoments()._setup(**kw)

    def test_vacuum_zero(self):
        pump, params, grids = self._setup(gamma_length=0.0, g_zero=True)
        modes = factor_pair_amplitude(pump, grids)
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        assert pair_production_probability(modes, params.gamma_length, filt) == 0.0

    def test_quadratic_low_gain_scaling(self):
        pump, params, grids = self._setup(gamma_length=1e-5, g_zero=True)
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        modes = factor_pair_amplitude(pump, grids)
        p1 = pair_production_probability(modes, params.gamma_length, filt)
        p2 = pair_production_probability(modes, 2e-5, filt)
        assert p2 / p1 == pytest.approx(4.0, rel=1e-4)

    def test_calibration_roundtrip(self):
        # no Raman gain: the spool's Stokes photons are all FWM photons
        pump, params, grids = self._setup(g_zero=True)
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        modes = factor_pair_amplitude(pump, grids)
        for target in (0.125, 0.039, 0.003):
            gl = calibrate_gain(target, modes, filt)
            tuned = replace(params, gamma_length=gl)
            assert pair_production_probability(modes, gl, filt) == pytest.approx(
                target, rel=1e-12)
            # independent of the Schmidt-pair sum: the filtered diagonal of
            # the Stokes block of the assembled spool on the identity register
            spool = full_moments(tuned, modes)
            pairs = float(np.sum(filt.power * np.diag(spool.normal_stokes).real))
            assert pairs == pytest.approx(target, rel=1e-12)

    def test_zero_target(self):
        pump, params, grids = self._setup()
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        assert calibrate_gain(0.0, factor_pair_amplitude(pump, grids), filt) == 0.0

    def test_target_out_of_range(self):
        pump, params, grids = self._setup()
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        with pytest.raises(SourceModelError):
            calibrate_gain(0.25, factor_pair_amplitude(pump, grids), filt)

    @pytest.mark.parametrize("target", [1e-4, 0.03, 0.19])
    @pytest.mark.parametrize("passband", ["narrow", "grid_edge"])
    def test_calibration_exact_behind_narrow_filters(self, passband, target):
        # a 3 GHz passband holds 3 samples, and so does the grid's last
        # edge: few pairs pass, and at 0.19 the gain is several 1/s_0
        pump, params, grids = self._setup()
        modes = factor_pair_amplitude(pump, grids)
        grid = grids[STOKES]
        if passband == "narrow":
            filt = make_profile("rectangular", {"bandwidth": TWO_PI * 3e9}, grid)
        else:
            filt = FilterProfile(grid=grid, amplitude=(np.arange(grid.n_points) >= 98) * 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gl = calibrate_gain(target, modes, filt)
        assert pair_production_probability(modes, gl, filt) == pytest.approx(target, rel=1e-12)

    def test_calibration_exact_on_random_pair_weights(self):
        # pairs k with squeezing s_k and filtered weight w_k drawn at
        # random, some of them 0 or spread over many decades; the first
        # case blocks the most squeezed pair, which the gain that the
        # passed pair needs would take far past sinh's range
        rng = np.random.default_rng(7)
        cases = [(np.array([10.0, 1e-3]), np.array([0.0, 1e-3]), 0.19)]
        for _ in range(200):
            power = np.where(rng.random(12) < 0.3, 0.0, 10.0 ** rng.uniform(-12, 0, 12))
            power[rng.integers(12)] = rng.random()
            cases.append((np.sort(10.0 ** rng.uniform(-3, 1, 12))[::-1], power,
                          10.0 ** rng.uniform(-6, np.log10(0.19))))
        for s, power, target in cases:
            grid = FrequencyGrid(center=-10.0, span=float(s.size), n_points=s.size)
            pump = PumpPulse(grid=grid, amplitude=np.zeros(s.size), duration=0.0)
            modes = PairModes(pump=pump, grids={STOKES: grid, ANTISTOKES: grid},
                              u=1j * np.eye(s.size), s=s, vt=np.eye(s.size))
            filt = FilterProfile(grid=grid, amplitude=np.sqrt(power))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                gl = calibrate_gain(target, modes, filt)
            assert pair_production_probability(modes, gl, filt) == pytest.approx(
                target, rel=1e-12)

    def test_no_passed_pair_rejected(self):
        # a filter that passes nothing, and a pair amplitude with no pairs:
        # no gain reaches any target
        pump, params, grids = self._setup()
        modes = factor_pair_amplitude(pump, grids)
        dark = FilterProfile(grid=grids[STOKES], amplitude=np.zeros(grids[STOKES].n_points))
        empty = replace(modes, u=modes.u[:, :0], s=modes.s[:0], vt=modes.vt[:0])
        filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, grids[STOKES])
        for m, f in ((modes, dark), (empty, filt)):
            for target in (0.0, 0.03):
                with pytest.raises(SourceModelError, match="passes no photon pair"):
                    calibrate_gain(target, m, f)

    def test_grid_resolution_convergence(self):
        vals = []
        for d, n in ((TWO_PI * 2e9, 101), (TWO_PI * 1e9, 201)):
            pg = pump_grid(d, TWO_PI * 0.6e12)
            pump = pump_spectrum("cw_carved_rect",
                                 {"duration": 1e-10, "rise_time": 3e-11}, 10e-12, pg)
            gs, ga = make_grids(d, n=n)
            params = simple_params(gamma_length=2e-4)
            modes = factor_pair_amplitude(pump, {STOKES: gs, ANTISTOKES: ga})
            filt = make_profile("rectangular", {"bandwidth": TWO_PI * 24.6e9}, gs)
            vals.append(pair_production_probability(modes, params.gamma_length, filt))
        assert abs(vals[1] - vals[0]) / vals[0] < 1e-3
