from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from homsim.detection import coincidence_probability, no_click_expectation, singles_probability
from homsim.experiment import preset_scenario
from homsim.fock import (
    fock_oracle_click_probability,
    fock_state_diagonal,
    moments_from_state_spec,
)
from homsim.grids import TWO_PI, FrequencyGrid
from homsim.modes import FilterProfile, ModeBasis, build_kernel, make_profile, schmidt_decompose
from homsim.network import (
    DetectorModel,
    NetworkError,
    detection_mode_projection,
    hom_dip_width_estimate,
    retained_register,
)
from homsim.source import (
    ANTISTOKES,
    STOKES,
    PairModes,
    PumpPulse,
    SourceParams,
    SpoolMoments,
    RamanGain,
    calibrate_gain,
    factor_pair_amplitude,
    pump_spectrum,
    source_moments,
)

WP = 1.438e15
DETUNE = TWO_PI * 1.2e12


def build_scene(pair_prob=0.1, n=101, d=TWO_PI * 2e9, gate_t=1e-10,
                bandwidth=TWO_PI * 24.6e9):
    span = d * (n - 1)
    gs = FrequencyGrid(center=WP - DETUNE, span=span, n_points=n)
    ga = FrequencyGrid(center=WP + DETUNE, span=span, n_points=n)
    n_p = int(2 * TWO_PI * 0.6e12 / d) // 2 * 2 + 1
    pg = FrequencyGrid(center=WP, span=d * (n_p - 1), n_points=n_p)
    pump = pump_spectrum("cw_carved_rect", {"duration": gate_t, "rise_time": 0.3 * gate_t},
                         10e-12, pg)
    gain = RamanGain(detuning=np.array([0.0, 1e15]), gain=np.array([0.0, 0.0]))
    grids = {STOKES: gs, ANTISTOKES: ga}
    filt = make_profile("rectangular", {"bandwidth": bandwidth}, gs)
    modes = factor_pair_amplitude(pump, grids)
    gl = calibrate_gain(pair_prob, modes, filt)
    params = SourceParams(gamma_length=gl, length=1e3, temperature=77.0, raman_gain=gain)
    basis_s = schmidt_decompose(build_kernel(filt, gate_t))
    basis_a = schmidt_decompose(build_kernel(
        make_profile("rectangular", {"bandwidth": bandwidth}, ga), gate_t))
    bases = {"signal": basis_s, "idler": basis_a}
    moments = source_moments(params, modes, retained_register(basis_s)[0],
                             retained_register(basis_a)[0])
    return pump, moments, bases


UNIT = DetectorModel(signal_efficiency=1.0, idler_efficiency=1.0, dark_mean=0.0)


def mean_photons(normal, query, name):
    """Mean photon number behind detector `name` at the query's efficiency."""
    return float(np.real(np.sum(query.forms[name] * normal)))


class TestProjection:
    def test_left_vacuum_splits_half(self):
        pump, moments, bases = build_scene()
        right = moments
        left = SpoolMoments(normal_stokes=np.zeros_like(moments.normal_stokes),
                            normal_antistokes=np.zeros_like(moments.normal_antistokes),
                            anomalous=np.zeros_like(moments.anomalous))
        normal, _, q = detection_mode_projection(right, left, bases, 0.0, UNIT)
        # balanced splitter: each port sees half the right-spool flux
        n_a, n_b = (mean_photons(normal, q, name) for name in "AB")
        full = n_a + n_b
        assert n_a == pytest.approx(n_b, rel=1e-12)
        assert n_a == pytest.approx(full / 2, rel=1e-12)
        # same kernel applied to the right spool alone gives the full flux
        normal, _, q = detection_mode_projection(right, right, bases, 0.0, UNIT)
        assert full == pytest.approx(
            (mean_photons(normal, q, "A") + mean_photons(normal, q, "B")) / 2, rel=1e-10)

    def test_energy_conservation_at_splitter(self):
        pump, moments, bases = build_scene()
        right = left = moments
        for tau in (0.0, 17e-12, 61e-12):
            normal, _, q = detection_mode_projection(right, left, bases, tau, UNIT)
            total = mean_photons(normal, q, "A") + mean_photons(normal, q, "B")
            # equals the chain-transmitted flux of both spools at any delay
            chi = retained_register(bases["signal"])[1]
            per_spool = np.real(np.diag(right.normal_stokes)) @ chi
            assert total == pytest.approx(2 * per_spool, rel=1e-10)

    def test_singles_nearly_flat_in_delay(self):
        # mean photon numbers are exactly delay-independent; click singles
        # inherit only a tiny bunching-statistics wobble
        pump, moments, bases = build_scene()
        right = left = moments
        dets = DetectorModel(signal_efficiency=0.01, idler_efficiency=0.01, dark_mean=1e-4)
        vals, means = [], []
        for tau in (0.0, 23e-12, 88e-12, 301e-12):
            normal, anomalous, q = detection_mode_projection(right, left, bases, tau, dets)
            vals.append([singles_probability(normal, anomalous, q, name)
                         for name in "ABCD"])
            _, _, unit = detection_mode_projection(right, left, bases, tau, UNIT)
            means.append([mean_photons(normal, unit, name) for name in "ABCD"])
        vals, means = np.array(vals), np.array(means)
        assert np.max(np.abs(means - means[0])) < 1e-12 * np.max(means)
        assert np.max(np.abs(vals - vals[0])) < 1e-3 * np.max(vals)

    def test_two_point_hand_contraction(self):
        # 2-point grid, hand-checkable anomalous projections at tau = 0: two
        # Schmidt pairs (s_0, a_1) and (s_1, a_0) squeezed alike, so that
        # M = sinh r cosh r [[0, 1], [1, 0]] on the grid (gammaL = 1; the
        # pump is dark, so no Raman light is added)
        gs = FrequencyGrid(center=0.0, span=1.0, n_points=2)
        ga = FrequencyGrid(center=10.0, span=1.0, n_points=2)
        r = 0.5 * np.arcsinh(0.2)  # sinh r cosh r = 0.1
        m_sa = np.array([[0.0, 0.1], [0.1, 0.0]], complex)
        pump = PumpPulse(grid=FrequencyGrid(center=5.0, span=1.0, n_points=2),
                         amplitude=np.zeros(2, complex), duration=0.0)
        modes = PairModes(pump=pump, grids={STOKES: gs, ANTISTOKES: ga},
                          u=np.eye(2, dtype=complex), s=np.array([r, r]),
                          vt=np.array([[0.0, 1.0], [1.0, 0.0]], complex))
        params = SourceParams(gamma_length=1.0, length=1.0, temperature=77.0,
                              raman_gain=RamanGain(detuning=np.array([0.0, 1.0]),
                                                   gain=np.array([0.0, 0.0])))

        class TinyBasis:
            grid = gs
            eigenvalues = np.array([1.0])
            eigenmodes = np.array([[1.0], [1.0]], complex) / np.sqrt(2)

            def retained(self):
                return 1

        class TinyBasisA(TinyBasis):
            grid = ga

        bases = {"signal": TinyBasis(), "idler": TinyBasisA()}
        spool = source_moments(params, modes, retained_register(bases["signal"])[0],
                               retained_register(bases["idler"])[0])
        _, anomalous, _ = detection_mode_projection(spool, spool, bases, 0.0, UNIT)
        # M between the right-stokes register mode and the right-idler mode:
        # psi^dag M psi* with psi = (1,1)/sqrt2 gives mean of all entries
        expect = np.sum(m_sa) / 2
        got = anomalous[0, 2]
        assert got == pytest.approx(expect, rel=1e-12)

    def test_global_delay_invariance(self):
        # the projection takes only the relative delay, so a common delay of
        # both spools cannot enter; a common carrier phase co-rotates M and
        # changes nothing either
        pump, moments, bases = build_scene()
        right = left = moments
        tau = 31e-12
        dets = DetectorModel(signal_efficiency=0.02, idler_efficiency=0.02, dark_mean=1e-4)
        p4 = coincidence_probability(*detection_mode_projection(right, left, bases, tau, dets),
                                     ("A", "B", "C", "D"))

        def rotated(spool, theta):
            return replace(spool, anomalous=np.exp(2j * theta) * spool.anomalous)

        p4c = coincidence_probability(
            *detection_mode_projection(rotated(right, 0.7), rotated(left, 0.7), bases, tau, dets),
            ("A", "B", "C", "D"))
        assert p4c == pytest.approx(p4, rel=1e-9)

    def test_spool_swap_symmetry(self):
        pump, moments, bases = build_scene()
        right = left = moments
        tau = 13e-12
        dets = DetectorModel(signal_efficiency=0.05, idler_efficiency=0.03, dark_mean=0.0)
        projected = detection_mode_projection(right, left, bases, tau, dets)
        swapped = detection_mode_projection(left, right, bases, -tau, dets)
        for subset in [("A",), ("A", "C"), ("A", "B", "C", "D")]:
            p1 = coincidence_probability(*projected, subset)
            p2 = coincidence_probability(*swapped, subset)
            assert p1 == pytest.approx(p2, rel=1e-9)

    def test_moment_structure_preserved(self):
        pump, moments, bases = build_scene()
        right = left = moments
        normal, anomalous, query = detection_mode_projection(right, left, bases, 21e-12, UNIT)
        np.testing.assert_allclose(normal, normal.conj().T, atol=1e-14)
        np.testing.assert_allclose(anomalous, anomalous.T, atol=1e-14)
        for q in query.forms.values():
            np.testing.assert_allclose(q, q.conj().T, atol=1e-14)
            assert np.linalg.eigvalsh(q).min() > -1e-12

    def test_tau_smoothness_two_resolutions(self):
        # click probabilities vary smoothly in tau, consistently across grid
        # resolutions (no discretization ringing inside the Nyquist guard)
        vals = {}
        for n, d in ((101, TWO_PI * 2e9), (201, TWO_PI * 1e9)):
            pump, moments, bases = build_scene(n=n, d=d)
            right = left = moments
            taus = np.linspace(0, 80e-12, 9)
            p4 = []
            dets = DetectorModel(signal_efficiency=0.05, idler_efficiency=0.05, dark_mean=0.0)
            for tau in taus:
                p4.append(coincidence_probability(
                    *detection_mode_projection(right, left, bases, tau, dets),
                    ("A", "B", "C", "D")))
            vals[n] = np.array(p4)
        # normalized dip shapes agree across resolutions (no ringing); the
        # absolute scale carries ordinary discretization error
        shape_a = vals[101] / vals[101].max()
        shape_b = vals[201] / vals[201].max()
        assert np.max(np.abs(shape_a - shape_b)) < 0.02
        # smooth: monotone rise out of the dip, bounded curvature
        assert np.all(np.diff(vals[201]) > 0)
        dd = np.diff(vals[201], 2)
        assert np.max(np.abs(dd)) < 0.2 * np.max(vals[201])

    def test_grid_mismatch_rejected(self):
        # a spool on a register one mode short of the detection register
        pump, moments, bases = build_scene()
        k_s, k_a = moments.anomalous.shape
        assert k_s > 1 and k_a > 1
        for short in (replace(moments, normal_stokes=moments.normal_stokes[1:, 1:],
                              anomalous=moments.anomalous[1:]),
                      replace(moments, normal_antistokes=moments.normal_antistokes[1:, 1:],
                              anomalous=moments.anomalous[:, 1:])):
            with pytest.raises(NetworkError, match="register"):
                detection_mode_projection(short, moments, bases, 0.0, UNIT)
            with pytest.raises(NetworkError, match="register"):
                detection_mode_projection(moments, short, bases, 0.0, UNIT)

    @pytest.mark.parametrize("band", ["signal", "idler"])
    def test_band_without_retained_modes_rejected(self, band):
        # an all-zero filter leaves its band an empty basis
        pump, moments, bases = build_scene()
        grid = bases[band].grid
        dark = FilterProfile(grid=grid, amplitude=np.zeros(grid.n_points))
        empty = schmidt_decompose(build_kernel(dark, 1e-10))
        with pytest.raises(NetworkError, match="no retained"):
            detection_mode_projection(moments, moments, {**bases, band: empty}, 0.0, UNIT)


class TestDetectorModel:
    @pytest.mark.parametrize("change", [
        {"signal_efficiency": -0.1}, {"signal_efficiency": 1.1},
        {"idler_efficiency": -0.1}, {"idler_efficiency": 1.1}, {"dark_mean": -1e-6},
        {"dark_mean": float("nan")}, {"dark_mean": float("inf")}])
    def test_out_of_range_rejected(self, change):
        with pytest.raises(NetworkError):
            replace(UNIT, **change)

    def test_ports_take_signal_and_heralds_idler_efficiency(self):
        pump, moments, bases = build_scene()
        dets = DetectorModel(signal_efficiency=0.3, idler_efficiency=0.7, dark_mean=2e-4)
        _, _, query = detection_mode_projection(moments, moments, bases, 17e-12, dets)
        _, _, unit = detection_mode_projection(moments, moments, bases, 17e-12, UNIT)
        for name, eta in (("A", 0.3), ("B", 0.3), ("C", 0.7), ("D", 0.7)):
            np.testing.assert_array_equal(query.forms[name], eta * unit.forms[name])
        assert query.dark_means == dict.fromkeys("ABCD", 2e-4)


def signal_filter(bases, bandwidth=TWO_PI * 24.6e9):
    return make_profile("rectangular", {"bandwidth": bandwidth}, bases["signal"].grid)


class TestDipWidth:
    def test_reciprocal_of_narrowest_scale(self):
        pump, moments, bases = build_scene()
        width = hom_dip_width_estimate(signal_filter(bases), pump)
        # carved 100 ps pump: correlation band ~9-13 GHz, narrower than the
        # 24.6 GHz filter, so the estimate tracks its reciprocal
        assert 1.0 / 24.6e9 < width < 4.0 / 24.6e9

    def test_monotone_in_filter_bandwidth(self):
        widths = []
        for bw in (TWO_PI * 15e9, TWO_PI * 24.6e9, TWO_PI * 40e9):
            pump, moments, bases = build_scene(bandwidth=bw)
            widths.append(hom_dip_width_estimate(signal_filter(bases, bw), pump))
        assert widths[0] >= widths[1] >= widths[2]

    def test_filter_power_is_the_chain_kernel_diagonal(self):
        # the rectangular gate's kernel diagonal is |h|^2 T exactly, and the
        # transmitting Schmidt modes rebuild it as (2 pi / dw) sum_j chi_j |phi_j|^2
        pump, moments, bases = build_scene()
        filt = signal_filter(bases)
        kernel = build_kernel(filt, 1e-10)
        np.testing.assert_array_equal(np.diag(kernel.entries).real, filt.power * 1e-10)
        basis = bases["signal"]
        chi = basis.eigenvalues[:basis.eigenmodes.shape[1]]
        rebuilt = np.abs(basis.eigenmodes) ** 2 @ chi * (TWO_PI / basis.grid.spacing)
        np.testing.assert_allclose(rebuilt, filt.power * 1e-10, rtol=0, atol=1e-12 * 1e-10)

    def test_degenerate_input_rejected(self):
        pump, moments, bases = build_scene()
        grid = bases["signal"].grid
        dark = FilterProfile(grid=grid, amplitude=np.zeros(grid.n_points))
        with pytest.raises(NetworkError):
            hom_dip_width_estimate(dark, pump)


class TestEngineProperties:
    def test_bonferroni_alternation_on_projected_moments(self):
        # inclusion-exclusion partial sums bracket the fourfold probability
        pump, moments, bases = build_scene()
        right = left = moments
        dets = DetectorModel(signal_efficiency=0.05, idler_efficiency=0.04, dark_mean=1e-4)
        normal, anomalous, q = detection_mode_projection(right, left, bases, 11e-12, dets)
        subset = ("A", "B", "C", "D")
        partials = []
        total = 0.0
        for r in range(5):
            total += sum((-1) ** r * no_click_expectation(normal, anomalous, q, chosen)
                         for chosen in combinations(subset, r))
            partials.append(total)
        full = partials[-1]
        # odd truncations overshoot, even truncations undershoot
        assert partials[1] <= full + 1e-10
        assert partials[2] >= full - 1e-10
        assert partials[3] <= full + 1e-10
        assert 0.0 <= full <= 1.0

    def test_scan_delay_factors_each_group_form_once(self, monkeypatch):
        # the ports A, B share the Stokes modes and each herald owns its
        # anti-Stokes block, so p4, p2_ab and the four singles of one delay
        # factor five forms (A, B, A+B, C, D), each on its own block; a
        # full-register eigh per non-empty subset would be 15 + 3 + 4 = 22
        pump, moments, bases = build_scene()
        k_s = len(retained_register(bases["signal"])[1])
        k_a = len(retained_register(bases["idler"])[1])
        normal, anomalous, query = detection_mode_projection(moments, moments, bases,
                                                             7e-12, UNIT)
        sizes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        coincidence_probability(normal, anomalous, query, ("A", "B", "C", "D"))
        coincidence_probability(normal, anomalous, query, ("A", "B"))
        for name in "ABCD":
            singles_probability(normal, anomalous, query, name)
        assert sorted(sizes) == [k_a, k_a, 2 * k_s, 2 * k_s, 2 * k_s]

    def test_scan_delay_takes_half_size_spectra(self, monkeypatch):
        # the ports sit on the Stokes side and the heralds on the anti-Stokes
        # side, so every subset's doubled matrix splits into two halves of
        # its weighted-mode count r: no 2r x 2r spectrum, even where a
        # subset holds both sides.  The query keeps each subset's result on
        # its state, so a delay takes one spectrum per distinct subset
        pump, moments, bases = build_scene()
        distinct = [s for r in range(1, 5) for s in combinations("ABCD", r)]
        normal, anomalous, query = detection_mode_projection(moments, moments, bases,
                                                             7e-12, UNIT)
        # r: half the size of each subset's doubled spectrum, from another query
        halves = [no_click_expectation(normal, anomalous, query, s, log=True)[1].size // 2
                  for s in distinct]
        normal, anomalous, query = detection_mode_projection(moments, moments, bases,
                                                             7e-12, UNIT)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        coincidence_probability(normal, anomalous, query, ("A", "B", "C", "D"))
        assert len(sizes) == 15 and sizes == halves       # in call order
        # the repeated subsets of p2 and the singles take none
        coincidence_probability(normal, anomalous, query, ("A", "B"))
        for name in "ABCD":
            singles_probability(normal, anomalous, query, name)
        assert sizes == halves
        ports, herald = (query.forms[name].any(axis=1) for name in "AC")
        assert anomalous[np.ix_(ports, herald)].any()       # pairs join A and C


ORACLE_CUTOFF = 14
SCAN_SUBSETS = (("A", "B", "C", "D"), ("A", "B"), ("A",), ("B",), ("C",), ("D",))


def spool_ops(spool, stokes, antistokes):
    """Fock-oracle op list of a one-mode-per-band spool: thermal(n1) on the
    Stokes mode and thermal(n2) on the anti-Stokes mode, then a two-mode
    squeezer r and a phase, in the closed form n1 - n2 = N_s - N_a,
    n1 + n2 + 1 = sqrt((N_s + N_a + 1)^2 - 4|M|^2), tanh 2r = 2|M|/(N_s + N_a + 1)."""
    (n_s,), (n_a,), (m,) = (np.ravel(block) for block in (
        spool.normal_stokes.real, spool.normal_antistokes.real, spool.anomalous))
    total = np.sqrt((n_s + n_a + 1) ** 2 - 4 * abs(m) ** 2)
    r = 0.5 * np.arctanh(2 * abs(m) / (n_s + n_a + 1))
    return [("thermal", stokes, (total - 1 + n_s - n_a) / 2),
            ("thermal", antistokes, (total - 1 - n_s + n_a) / 2),
            ("tmsv", (stokes, antistokes), np.sinh(r) ** 2),
            ("phase", antistokes, np.angle(m))]


def random_spool(rng):
    """A spool drawn as thermal (x) thermal, then a two-mode squeezer and a phase."""
    n, m = moments_from_state_spec([("thermal", 0, rng.uniform(0, 2e-3)),
                                    ("thermal", 1, rng.uniform(0, 2e-3)),
                                    ("tmsv", (0, 1), rng.uniform(0.005, 0.1)),
                                    ("phase", 1, rng.uniform(0, TWO_PI))], 2)
    return SpoolMoments(normal_stokes=n[:1, :1], normal_antistokes=n[1:, 1:],
                        anomalous=m[:1, 1:])


def assert_scan_matches_oracle(right, left, bases, tau, detector_models):
    """p4, p2_ab and the singles of the scan path at delay tau against the
    Fock oracle on the register (right Stokes, left Stokes, right
    anti-Stokes, left anti-Stokes), for each detector model.

    With one mode per band, port A's form is (eta chi / 2) [[1, O], [O*, 1]]
    with O the overlap of the advanced and delayed Schmidt mode; a 50:50
    splitter of phase arg O turns the Stokes pair into its eigenmodes, of
    weights (eta chi / 2)(1 +- |O|) in A and (eta chi / 2)(1 -+ |O|) in B.
    The heralds weigh their anti-Stokes mode by eta chi.
    """
    psi_s, (chi_s,) = retained_register(bases["signal"])
    _, (chi_a,) = retained_register(bases["idler"])
    delayed = np.exp(-1j * tau * bases["signal"].grid.points) * psi_s[:, 0]
    overlap = np.vdot(psi_s[:, 0], delayed)
    spec = (spool_ops(right, 0, 2) + spool_ops(left, 1, 3)
            + [("bs", (0, 1), np.pi / 4, np.angle(overlap))])
    n_oracle, m_oracle = moments_from_state_spec(spec[:-1], 4)
    diag = fock_state_diagonal(spec, 4, ORACLE_CUTOFF)
    for dets in detector_models:
        normal, anomalous, query = detection_mode_projection(right, left, bases, tau, dets)
        # the op lists rebuild the register's moments, in its mode order
        np.testing.assert_allclose(normal, n_oracle, rtol=0, atol=1e-12)
        np.testing.assert_allclose(anomalous, m_oracle, rtol=0, atol=1e-12)
        port = 0.5 * dets.signal_efficiency * chi_s * np.array([1 + abs(overlap),
                                                                1 - abs(overlap)])
        herald = dets.idler_efficiency * chi_a
        weights = {"A": np.array([*port, 0, 0]), "B": np.array([*port[::-1], 0, 0]),
                   "C": np.array([0, 0, herald, 0]), "D": np.array([0, 0, 0, herald])}
        dark_means = dict.fromkeys(weights, dets.dark_mean)
        for subset in SCAN_SUBSETS:
            got = (singles_probability(normal, anomalous, query, *subset) if len(subset) == 1
                   else coincidence_probability(normal, anomalous, query, subset))
            expected = fock_oracle_click_probability(diag, weights, subset, dark_means)
            # criterion 4's bound of 1e-7; the two routes agree to about
            # 1e-15, so each value is also held to 1e-7 of itself, down to 1e-13
            assert abs(got - expected) <= 1e-7, (subset, tau, dets)
            assert got == pytest.approx(expected, rel=1e-7, abs=1e-13), (subset, tau, dets)


class TestScanAgainstFockOracle:
    """The scan path, projection and click engine, against the Fock oracle on
    a one-mode-per-band register: the delay, the port and herald forms and
    the register assembly, with no Gaussian formula on the oracle's side."""

    @staticmethod
    def single_mode_preset(monkeypatch, overrides):
        """The c < 1 preset with the cutoff raised to keep one mode per band,
        and its detectors next to unit-efficiency ones."""
        sc = preset_scenario("single_mode", overrides)
        chi = sc.bases["signal"].eigenvalues
        monkeypatch.setattr("homsim.modes.MODE_RETENTION_CUTOFF", 0.5 * (chi[0] + chi[1]))
        assert [basis.retained() for basis in sc.bases.values()] == [1, 1]
        unit = DetectorModel(signal_efficiency=1.0, idler_efficiency=1.0,
                             dark_mean=sc.detectors.dark_mean)
        return sc, (sc.detectors, unit)

    def test_single_mode_preset_spools(self, monkeypatch):
        # a lower pair probability and Raman level keep the oracle's
        # thermal kets, and so its run time, small at cutoff 14
        sc, detectors = self.single_mode_preset(monkeypatch, ["source.pair_probability=0.002",
                                                              "source.raman_scale=0.05"])
        for tau in (0.0, 0.4 * sc.dip_width, 3.0 * sc.dip_width):
            assert_scan_matches_oracle(sc.source, sc.source, sc.bases, tau, detectors)

    def test_single_mode_preset_at_its_own_occupations(self, monkeypatch):
        # the preset's pair probability 0.039 and Raman level: thermal noise
        # on all four modes keeps 715 kets, which the oracle evolves in chunks
        sc, detectors = self.single_mode_preset(monkeypatch, [])
        assert (sc.value("source.pair_probability"), sc.value("source.raman_scale")) == (0.039, 1.0)
        assert_scan_matches_oracle(sc.source, sc.source, sc.bases, 0.0, detectors)

    def test_random_spools_and_chains(self):
        rng = np.random.default_rng(20)
        grid = FrequencyGrid(center=0.0, span=TWO_PI * 40e9, n_points=3)
        for _ in range(3):
            right, left = random_spool(rng), random_spool(rng)
            bases = {}
            for band in ("signal", "idler"):
                psi = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
                bases[band] = ModeBasis(grid=grid, eigenmodes=psi / np.linalg.norm(psi),
                                        eigenvalues=np.array([rng.uniform(0.2, 1.0)]))
            dets = DetectorModel(signal_efficiency=rng.uniform(0.2, 1.0),
                                 idler_efficiency=rng.uniform(0.2, 1.0),
                                 dark_mean=rng.uniform(0, 1e-3))
            tau = rng.uniform(0, 50e-12)
            assert_scan_matches_oracle(right, left, bases, tau, (dets,))
