import dataclasses
import tracemalloc

import numpy as np
import pytest

from homsim import modes
from homsim.grids import MIRROR_TOL, TWO_PI, FrequencyGrid, gauss_legendre, mirror_eigh
from homsim.experiment import PRESET_NAMES, preset_scenario
from homsim.modes import (
    DEFAULT_SPAN_FACTOR,
    EIGENVALUE_FLOOR,
    PHASE_TIE_TOL,
    FilterProfile,
    KernelMatrix,
    ModeAnalysisError,
    build_kernel,
    effective_c,
    eigenvalue_curve,
    load_tabulated_spectrum,
    make_profile,
    rect_rect_basis,
    schmidt_decompose,
)
from homsim.network import NetworkError, retained_register


def slepian_gauss_legendre(c, nodes=400):
    """Independent oracle: Gauss-Legendre discretization of the sinc-kernel
    concentration problem on [-1, 1]; eigenvalues converge spectrally."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    kernel = np.sinc(c * (x[:, None] - x[None, :]) / np.pi) * (c / np.pi)
    a = np.sqrt(w)[:, None] * kernel * np.sqrt(w)[None, :]
    return np.linalg.eigvalsh(a)[::-1]


def mirror_symmetric(n, dtype, seed=0):
    """A random Hermitian matrix equal to its row-and-column reversal."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if dtype == complex:
        a = a + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    return a + a[::-1, ::-1]


class TestMirrorEigh:
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 3, 64, 65])
    def test_matches_eigh_with_mirror_modes(self, monkeypatch, n, dtype):
        a = mirror_symmetric(n, dtype)
        ref_vals, ref_vecs = np.linalg.eigh(a)
        shapes, real_eigh = [], np.linalg.eigh

        def recording_eigh(m, *args, **kwargs):
            shapes.append(m.shape)
            return real_eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        vals, vecs = mirror_eigh(a)
        # an even half of ceil(n/2) samples and an odd half of floor(n/2)
        assert shapes == [((n + 1) // 2,) * 2, (n // 2,) * 2]
        assert vals.dtype == np.float64 and vecs.dtype == a.dtype
        assert np.all(np.diff(vals) >= 0)
        scale = 4 * n * np.finfo(float).eps * np.max(np.abs(ref_vals))
        assert np.max(np.abs(vals - ref_vals)) <= scale
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) <= 4 * n * np.finfo(float).eps
        # each mode is even or odd about the centre, exactly
        np.testing.assert_array_equal(np.abs(vecs), np.abs(vecs[::-1]))
        parity = np.sign(np.real(np.sum(vecs * vecs[::-1].conj(), axis=0)))
        np.testing.assert_array_equal(vecs[::-1], vecs * parity)
        # the random spectrum is simple: the same modes up to a phase
        overlap = np.abs(np.sum(ref_vecs.conj() * vecs, axis=0))
        assert np.max(np.abs(overlap - 1)) <= 1e-9

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [1, 2, 64, 65])
    def test_other_matrices_take_plain_eigh(self, n, dtype):
        # a defect above MIRROR_TOL eps max|a|, or a single sample, gives
        # eigh's own result, bit for bit
        a = mirror_symmetric(n, dtype, seed=1)
        a[0, 0] += 2 * MIRROR_TOL * np.finfo(float).eps * np.max(np.abs(a))
        for got, ref in zip(mirror_eigh(a), np.linalg.eigh(a)):
            np.testing.assert_array_equal(got, ref)


def record_shapes(monkeypatch, name):
    """The list to which every later np.linalg.<name> call appends its shape."""
    calls, real = [], getattr(np.linalg, name)

    def recording(m, *args, **kwargs):
        calls.append(m.shape)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return calls


def psd_with_spectrum(lams, dtype, mirror, seed=0):
    """A Hermitian PSD matrix with eigenvalues `lams` (to rounding), exactly
    equal to its row-and-column reversal when `mirror` holds."""
    n = lams.size
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, n))
    if dtype == complex:
        v = v + 1j * rng.normal(size=(n, n))
    if mirror:
        # alternate even and odd columns, which stay so through the QR
        v[:, ::2] += v[::-1, ::2]
        v[:, 1::2] -= v[::-1, 1::2]
    q = np.linalg.qr(v)[0]
    a = (q * lams) @ q.conj().T
    a = (a + a.conj().T) / 2
    return (a + a[::-1, ::-1]) / 2 if mirror else a


def spectrum_of(kind, n):
    """Eigenvalues for `psd_with_spectrum`: a few (low rank) or more than
    n/4 (rank above n/4) falling geometrically from 1 to 1e-11, the rest
    zero; n of them spread over [0.5, 1] (flat); or 16 ones and four at
    1e-11, a degenerate top and a gap above the floor (gap)."""
    if kind == "flat":
        return np.linspace(0.5, 1.0, n)
    if kind == "gap":
        return np.concatenate((np.ones(16), np.full(4, 1e-11), np.zeros(max(n - 20, 0))))[:n]
    rank = min(n, 4 if kind == "low rank" else n // 4 + 4)
    return np.concatenate((np.logspace(0, -11, rank), np.zeros(n - rank)))


class TestEighAbove:
    """Eigenpairs at or above the floor: `mirror_eigh`'s match eigh's on PSD
    matrices with degenerate and null spectra, and the basis keeps every
    eigenvalue of the dense kernel there."""

    SPECTRA = ["low rank", "rank above n/4", "flat", "gap"]

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("mirror", [False, True], ids=["plain", "mirror"])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [2, 3, 64, 65])
    def test_matches_eigh_above_the_floor(self, n, dtype, mirror, spectrum):
        # the split's even and odd halves share the null space and the
        # degenerate top between them; the pairs they keep at or above the
        # floor are eigh's, with each mode exactly even or odd
        a = psd_with_spectrum(spectrum_of(spectrum, n), dtype, mirror)
        ref = np.linalg.eigvalsh(a)
        ref = ref[ref >= EIGENVALUE_FLOOR]
        vals, vecs = mirror_eigh(a)
        keep = vals >= EIGENVALUE_FLOOR
        vals, vecs = vals[keep], vecs[:, keep]
        eps = np.finfo(float).eps
        assert vals.dtype == np.float64 and vecs.dtype == a.dtype
        assert vecs.shape == (n, ref.size)
        assert np.all(np.diff(vals) >= 0)
        scale = 4 * n * eps * np.max(ref)
        assert np.max(np.abs(vals - ref)) <= scale
        assert np.max(np.abs(a @ vecs - vecs * vals)) <= scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(ref.size))) <= 4 * n * eps
        if mirror:
            # each mode is even or odd about the centre, exactly
            np.testing.assert_array_equal(np.abs(vecs), np.abs(vecs[::-1]))
            parity = np.sign(np.real(np.sum(vecs * vecs[::-1].conj(), axis=0)))
            np.testing.assert_array_equal(vecs[::-1], vecs * parity)

    @pytest.mark.parametrize("kind", ["rectangular", "gaussian"])
    @pytest.mark.parametrize("c", [0.01, 0.785, 3.0, 10.0])
    def test_no_kernel_eigenvalue_above_the_floor_is_missed(self, kind, c):
        B = 4.0 * c
        grid = FrequencyGrid(center=0.0, span=DEFAULT_SPAN_FACTOR * B, n_points=513)
        width = "bandwidth" if kind == "rectangular" else "fwhm"
        kern = build_kernel(make_profile(kind, {width: B}, grid), 1.0)
        assert_complete(kern)

    @pytest.mark.parametrize("gap", [slice(254, 259), slice(230, 236)],
                             ids=["centred", "off_centre"])
    def test_no_eigenvalue_of_a_split_passband_is_missed(self, gap):
        # a zero gap inside the passband leaves a support of two runs; the
        # block is formed on both, mirror-symmetric when the gap is centred
        grid = FrequencyGrid(center=0.0, span=DEFAULT_SPAN_FACTOR * 12.0, n_points=513)
        amp = make_profile("rectangular", {"bandwidth": 12.0}, grid).amplitude.copy()
        amp[gap] = 0.0
        support = np.flatnonzero(amp)
        assert np.count_nonzero(np.diff(support) > 1) == 1
        kern = build_kernel(FilterProfile(grid=grid, amplitude=amp), 1.0)
        assert_complete(kern)
        assert schmidt_decompose(kern).eigenvalues.size == support.size

    @pytest.mark.parametrize("points", [513, 1025])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_no_preset_eigenvalue_above_the_floor_is_missed(self, preset, points):
        sc = preset_scenario(preset, [f"filters.grid_points={points}"])
        assert_complete(build_kernel(sc.filters["signal"], sc.pump.duration))


def assert_complete(kern):
    """The basis keeps every eigenvalue of eigvalsh at or above the floor."""
    ref = np.linalg.eigvalsh(kern.scaled)[::-1]
    ref = ref[ref >= EIGENVALUE_FLOOR]
    basis = schmidt_decompose(kern)
    assert np.count_nonzero(basis.eigenvalues) == ref.size > 0
    assert np.max(np.abs(basis.eigenvalues[:ref.size] - ref)) <= 1e-14


class TestProfiles:
    def test_gaussian_amplitude_at_half_power(self):
        grid = FrequencyGrid(center=0.0, span=10.0, n_points=2001)
        prof = make_profile("gaussian", {"fwhm": 2.0}, grid)
        mid = np.interp(1.0, grid.points, np.abs(prof.amplitude))
        assert mid == pytest.approx(1 / np.sqrt(2), rel=1e-4)
        assert np.max(np.abs(prof.amplitude)) == pytest.approx(1.0)

    def test_rectangular_inside_outside(self):
        grid = FrequencyGrid(center=0.0, span=8.0, n_points=801)
        prof = make_profile("rectangular", {"bandwidth": 2.0}, grid)
        amp = np.abs(prof.amplitude)
        inside = np.abs(grid.points) < 1.0 - grid.spacing
        outside = np.abs(grid.points) > 1.0 + grid.spacing
        assert np.all(amp[inside] == 1.0)
        assert np.all(amp[outside] == 0.0)

    def test_rectangular_power_integral_exact(self):
        # cell-averaged edges make sum |h|^2 dw equal B exactly
        rng = np.random.default_rng(7)
        for _ in range(10):
            B = rng.uniform(0.3, 3.0)
            grid = FrequencyGrid(center=rng.uniform(-1, 1), span=5 * B, n_points=257)
            prof = make_profile("rectangular", {"bandwidth": B, "center": grid.center}, grid)
            assert grid.integrate(prof.power) == pytest.approx(B, rel=1e-12)

    def test_nonpositive_bandwidth_rejected(self):
        grid = FrequencyGrid(center=0.0, span=1.0, n_points=11)
        with pytest.raises(ModeAnalysisError):
            make_profile("rectangular", {"bandwidth": 0.0}, grid)
        with pytest.raises(ModeAnalysisError):
            make_profile("gaussian", {"fwhm": -1.0}, grid)

    def test_tabulated_product_and_coverage(self, tmp_path):
        f1 = tmp_path / "stage1.txt"
        f2 = tmp_path / "stage2.txt"
        # flat -3 dB over a wide range; comments allowed
        f1.write_text("# stage one\n1549.0 -3.0\n1551.0 -3.0\n")
        f2.write_text("1549.0 -3.0\n1551.0 -3.0\n")
        from homsim.grids import angular_from_nm
        center = angular_from_nm(1550.0)
        grid = FrequencyGrid(center=center, span=0.5e11, n_points=51)
        one = make_profile("tabulated", {"files": [f1]}, grid)
        two = make_profile("tabulated", {"files": [f1, f2]}, grid)
        np.testing.assert_allclose(two.amplitude, one.amplitude**2, rtol=1e-12)
        narrow = tmp_path / "narrow.txt"
        narrow.write_text("1549.999 -1.0\n1550.001 -1.0\n")
        with pytest.raises(ModeAnalysisError, match="extrapolation"):
            make_profile("tabulated", {"files": [narrow]}, grid)

    def test_tabulated_gain_rescaled_to_unit_peak(self, tmp_path):
        # a table above 0 dB is scaled to a peak amplitude of one; its
        # shape is that of the same table lowered to below 0 dB
        from homsim.grids import angular_from_nm
        grid = FrequencyGrid(center=angular_from_nm(1550.0), span=0.5e11, n_points=51)
        gain, loss = tmp_path / "gain.txt", tmp_path / "loss.txt"
        gain.write_text("1549.0 2.0\n1551.0 6.0\n")
        loss.write_text("1549.0 -4.0\n1551.0 0.0\n")
        raised = make_profile("tabulated", {"files": [gain]}, grid).amplitude
        lowered = make_profile("tabulated", {"files": [loss]}, grid).amplitude
        assert raised.max() == 1.0 and lowered.max() < 1.0
        np.testing.assert_allclose(raised, lowered / lowered.max(), rtol=1e-12)

    def test_ragged_table_names_its_path(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("1549.0 -3.0\n1550.0 -3.0 -1.0\n1551.0 -3.0\n")
        with pytest.raises(ModeAnalysisError, match="ragged.txt"):
            load_tabulated_spectrum(path)

    @pytest.mark.parametrize("text", [
        pytest.param("1549.0\n1550.0\n", id="one_column"),
        pytest.param("1550.0 -3.0\n", id="one_row"),
        pytest.param("1549.0 -3.0\n1550.0 x\n", id="non_numeric"),
        pytest.param("1549.0 -3.0\n1550.0 nan\n1551.0 -3.0\n", id="non_finite")])
    def test_malformed_table_names_its_path(self, tmp_path, text):
        path = tmp_path / "malformed.txt"
        path.write_text(text)
        with pytest.raises(ModeAnalysisError, match="tabulated spectrum .*malformed.txt"):
            load_tabulated_spectrum(path)


class TestKernel:
    def test_rect_gate_closed_form_vs_quadrature(self):
        # oracle: trapezoid quadrature of the Fourier integral of a unit
        # rectangle; an all-pass filter (|h| = 1 on the whole grid) leaves
        # K[m, 13] = F(w_m - w_13) = F(w_m) on this symmetric grid
        T = 0.7
        grid = FrequencyGrid(center=0.0, span=80.0, n_points=27)
        filt = make_profile("rectangular", {"bandwidth": 200.0}, grid)
        assert np.all(filt.amplitude == 1.0)
        delta = grid.points
        t = np.linspace(-T / 2, T / 2, 200001)
        oracle = np.array([np.trapezoid(np.exp(1j * d * t), t) for d in delta]).real
        np.testing.assert_allclose(build_kernel(filt, T).entries[:, 13], oracle,
                                   rtol=2e-8, atol=2e-8)

    def test_kernel_entries(self):
        grid = FrequencyGrid(center=0.0, span=8.0, n_points=101)
        filt = make_profile("rectangular", {"bandwidth": 2.0}, grid)
        K = build_kernel(filt, 3.0).entries
        # diagonal: |h|^2 * T
        np.testing.assert_allclose(np.diag(K).real, filt.power * 3.0, atol=1e-14)
        # off-diagonal closed form conj(h) h T sinc(D T / 2)
        m, n = 40, 55
        D = grid.points[m] - grid.points[n]
        expect = (np.conj(filt.amplitude[m]) * filt.amplitude[n]
                  * 3.0 * np.sinc(D * 3.0 / 2 / np.pi))
        assert K[m, n] == pytest.approx(expect, rel=1e-12)
        # Hermitian exactly
        np.testing.assert_array_equal(K, K.conj().T)

    def test_zero_filter_gives_zero_kernel(self):
        grid = FrequencyGrid(center=0.0, span=4.0, n_points=31)
        filt = make_profile("rectangular", {"bandwidth": 1.0, "center": 100.0}, grid)
        K = build_kernel(filt, 1.0)
        assert np.all(K.entries == 0.0)

    def test_zero_duration_gate_rejected(self):
        grid = FrequencyGrid(center=0.0, span=4.0, n_points=31)
        filt = make_profile("rectangular", {"bandwidth": 1.0}, grid)
        for duration in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ModeAnalysisError, match="duration"):
                build_kernel(filt, duration)

    def test_kernel_is_a_record_of_filter_and_gate(self):
        # no matrix is stored: the dense kernel is built on demand, and the
        # trace is T sum |h|^2 dw / 2pi
        grid = FrequencyGrid(center=0.0, span=8.0, n_points=101)
        filt = make_profile("gaussian", {"fwhm": 2.0}, grid)
        kern = build_kernel(filt, 3.0)
        assert kern.profile is filt and kern.gate_duration == 3.0
        assert "entries" not in {f.name for f in dataclasses.fields(KernelMatrix)}
        assert kern.trace_chi() == pytest.approx(np.trace(kern.scaled), rel=1e-14)
        index = np.array([3, 7, 50, 51, 99])
        np.testing.assert_array_equal(kern.block(index), kern.entries[np.ix_(index, index)])

    def test_no_grid_sized_matrix_is_allocated(self):
        # build_kernel is O(n); schmidt_decompose forms only the passband
        # block (256 of 1025 samples, a sixteenth of an n x n float array)
        n = 1025
        grid = FrequencyGrid(center=0.0, span=48.0, n_points=n)
        filt = make_profile("rectangular", {"bandwidth": 12.0}, grid)
        tracemalloc.start()
        try:
            kern = build_kernel(filt, 1.0)
            built = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            schmidt_decompose(kern)
            decomposed = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built < 8 * n
        assert decomposed < 8 * n * n / 4

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_amplitude_rejected(self, value):
        grid = FrequencyGrid(center=0.0, span=4.0, n_points=31)
        amp = np.full(grid.n_points, 0.5)
        amp[15] = value
        with pytest.raises(ModeAnalysisError, match="not finite"):
            FilterProfile(grid=grid, amplitude=amp)


def factor_case(name):
    """A filter on a 257-point grid behind a gate of T = 3: a real Gaussian,
    the same with a spectral phase, a flat-top with a zero gap (a support of
    two runs), or a flat-top off the grid centre."""
    grid = FrequencyGrid(center=0.0, span=10.0, n_points=257)
    if name == "real":
        amp = make_profile("gaussian", {"fwhm": 2.0}, grid).amplitude
    elif name == "complex":
        amp = make_profile("gaussian", {"fwhm": 2.0}, grid).amplitude
        amp = amp * np.exp(0.7j * grid.points + 0.3j * grid.points ** 2)
    elif name == "split":
        amp = make_profile("rectangular", {"bandwidth": 4.0}, grid).amplitude.copy()
        amp[120:140] = 0.0
    else:
        amp = make_profile("rectangular", {"bandwidth": 2.0, "center": 1.3}, grid).amplitude
    return build_kernel(FilterProfile(grid=grid, amplitude=amp), 3.0)


class TestFactor:
    @pytest.mark.parametrize("name", ["real", "complex", "split", "off_centre"])
    def test_gram_matrix_is_the_scaled_kernel(self, name):
        # A^H A against the dense kernel on the support, to a few eps of its
        # largest entry; a real filter gives a real factor
        kern = factor_case(name)
        support = np.flatnonzero(kern.profile.amplitude)
        a = kern.factor(support)
        assert a.dtype == (np.complex128 if name == "complex" else np.float64)
        assert a.shape[1] == support.size
        ref = kern.scaled[np.ix_(support, support)]
        gram = a.conj().T @ a
        assert np.max(np.abs(gram - ref)) <= 32 * np.finfo(float).eps * np.max(np.abs(ref))

    def test_too_few_nodes_fail_the_check(self, monkeypatch):
        # the real case's support spans D = 10, so D T / 2 = 15, and with no
        # margin its 15 nodes do not integrate the gate's exponentials to
        # rounding
        kern = factor_case("real")
        monkeypatch.setattr(modes, "GATE_RULE_MARGIN", 0)
        with pytest.raises(ModeAnalysisError, match="the 15-node gate rule misses F"):
            kern.factor(np.arange(kern.profile.grid.n_points))
        with pytest.raises(ModeAnalysisError, match="gate rule"):
            schmidt_decompose(kern)

    @pytest.mark.parametrize("q", [1, 2, 5, 16, 39, 134])
    def test_jacobi_rule_matches_leggauss(self, q):
        # leggauss polishes its nodes by Newton steps; the Jacobi matrix's
        # eigh holds nodes and weights to a few eps absolutely (the weights
        # sum to 2), which the gate rule's own check then bounds
        nodes, weights = gauss_legendre(q)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(q)
        eps = np.finfo(float).eps
        assert np.max(np.abs(nodes - ref_nodes)) <= 4 * q * eps
        assert np.max(np.abs(weights - ref_weights)) <= 4 * q * eps
        assert np.sum(weights) == pytest.approx(2.0, rel=4 * q * eps)


class TestSchmidt:
    def test_paper_regime_c38(self):
        chis = rect_rect_basis(3.8).eigenvalues
        assert chis[0] >= 0.97
        assert chis[1] == pytest.approx(0.90, abs=0.05)
        assert chis[2] == pytest.approx(0.50, abs=0.08)

    def test_paper_regime_c07(self):
        chis = rect_rect_basis(0.7).eigenvalues
        assert chis[0] == pytest.approx(0.40, abs=0.05)
        assert chis[1] <= 0.05
        assert chis[2] <= 0.05

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0])
    def test_gauss_legendre_oracle(self, c):
        chis = rect_rect_basis(c).eigenvalues[:6]
        oracle = slepian_gauss_legendre(c)[:6]
        assert np.max(np.abs(chis - oracle)) < 1e-4

    def test_large_c_leading_modes_near_unity(self):
        chis = rect_rect_basis(10.0).eigenvalues
        assert np.all(chis[:3] > 0.999)
        oracle = slepian_gauss_legendre(10.0)[:8]
        assert np.max(np.abs(chis[:8] - oracle)) < 1e-3

    def test_trace_identity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            B = rng.uniform(0.5, 20.0)
            T = rng.uniform(0.05, 3.0)
            grid = FrequencyGrid(center=0.0, span=4 * B, n_points=257)
            filt = make_profile("rectangular", {"bandwidth": B}, grid)
            kern = build_kernel(filt, T)
            basis = schmidt_decompose(kern)
            total = np.sum(basis.eigenvalues)
            assert total == pytest.approx(kern.trace_chi(), rel=1e-10)
            assert total == pytest.approx(B * T / TWO_PI, rel=1e-8)

    def test_scale_invariance(self):
        a = rect_rect_basis(2.7).eigenvalues[:8]
        B, s = 4 * 2.7, 11.3
        grid = FrequencyGrid(center=0.0, span=4 * B / s, n_points=513)
        filt = make_profile("rectangular", {"bandwidth": B / s}, grid)
        kern = build_kernel(filt, s)
        b = schmidt_decompose(kern).eigenvalues[:8]
        assert np.max(np.abs(a - b)) < 1e-8

    def test_grid_convergence(self):
        a = rect_rect_basis(3.8, n_points=513).eigenvalues[:3]
        b = rect_rect_basis(3.8, n_points=1025).eigenvalues[:3]
        assert np.max(np.abs(a - b)) < 1e-4

    def test_bounds_and_orthonormality(self):
        basis = rect_rect_basis(3.0)
        assert np.all(basis.eigenvalues >= -1e-9)
        assert basis.eigenvalues[0] <= 1 + 1e-6
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)
        assert basis.orthonormality_residual() < 1e-8

    def test_eigenmode_normalization(self):
        # one unit vector per eigenvalue left non-zero by the floor
        basis = rect_rect_basis(1.5)
        k = np.count_nonzero(basis.eigenvalues)
        assert basis.eigenmodes.shape == (basis.grid.n_points, k)
        assert np.all(basis.eigenvalues[:k] >= EIGENVALUE_FLOOR)
        norms = np.sum(np.abs(basis.eigenmodes) ** 2, axis=0)
        np.testing.assert_allclose(norms, 1.0, rtol=1e-10)

    def test_eigenmode_node_counts(self):
        # phi_0 even and nodeless, phi_1 one sign change (inside the band)
        basis = rect_rect_basis(np.pi / 4)
        grid = basis.grid
        band = np.abs(grid.points) < 0.5 * 4 * (np.pi / 4) * 0.95
        phi0 = basis.eigenmodes[band, 0].real
        phi1 = basis.eigenmodes[band, 1].real
        assert np.all(phi0 > 0) or np.all(phi0 < 0)
        assert np.sum(np.abs(np.diff(np.sign(phi0)))) == 0
        assert np.sum(np.abs(np.diff(np.sign(phi1)))) == 2  # exactly one crossing
        # phi_0 even under reflection
        assert np.max(np.abs(phi0 - phi0[::-1])) < 1e-6 * np.max(np.abs(phi0))

    def test_complex_kernel_modes_diagonalize_kernel(self):
        # a spectral phase makes the kernel complex; the stored modes must
        # satisfy K = psi chi psi^dag, the convention every consumer assumes
        grid = FrequencyGrid(center=0.0, span=10.0, n_points=257)
        gauss = make_profile("gaussian", {"fwhm": 2.0}, grid)
        filt = FilterProfile(grid=grid, amplitude=gauss.amplitude * np.exp(0.7j * grid.points))
        kern = build_kernel(filt, 3.0)
        basis = schmidt_decompose(kern)
        k = basis.retained()
        psi = retained_register(basis)[0]
        residual = psi.conj().T @ kern.scaled @ psi - np.diag(basis.eigenvalues[:k])
        assert np.linalg.norm(residual) <= 1e-12

    @pytest.mark.parametrize("kind, params", [("rectangular", {"bandwidth": 2.0}),
                                              ("gaussian", {"fwhm": 2.0})])
    def test_real_filter_gives_real_kernel(self, kind, params):
        # a real filter's kernel is real symmetric and takes a real svd; the
        # same filter passed as complex takes the complex one
        grid = FrequencyGrid(center=0.0, span=10.0, n_points=257)
        filt = make_profile(kind, params, grid)
        kern = build_kernel(filt, 3.0)
        assert filt.amplitude.dtype == kern.entries.dtype == np.float64
        as_complex = FilterProfile(grid=grid, amplitude=filt.amplitude.astype(complex))
        assert build_kernel(as_complex, 3.0).entries.dtype == np.complex128
        real, herm = (schmidt_decompose(build_kernel(f, 3.0)) for f in (filt, as_complex))
        assert real.eigenmodes.dtype == herm.eigenmodes.dtype == np.complex128
        assert np.max(np.abs(real.eigenvalues - herm.eigenvalues)) <= 1e-12
        # a real filter's factor is real, and so are its modes.  An odd mode
        # peaks at two mirror samples, which the svd rounds apart; the phase
        # convention takes the first within PHASE_TIE_TOL of the largest, so
        # the modes agree sign for sign
        assert np.all(real.eigenmodes.imag == 0)
        k = real.retained()
        assert np.max(np.abs(real.eigenmodes[:, :k] - herm.eigenmodes[:, :k])) <= 1e-12

    def test_phase_fix_matches_per_column_reference(self):
        # reference: the svd of the gate's factor, and in each column the
        # first sample within PHASE_TIE_TOL of the largest |phi| made real
        # positive, one column at a time, on a kernel with a spectral phase
        grid = FrequencyGrid(center=0.0, span=10.0, n_points=257)
        phase = np.exp(1j * np.random.default_rng(5).normal(size=grid.n_points))
        gauss = make_profile("gaussian", {"fwhm": 2.0}, grid)
        kern = build_kernel(FilterProfile(grid=grid, amplitude=gauss.amplitude * phase), 3.0)
        sigma, vh = np.linalg.svd(kern.factor(np.arange(grid.n_points)),
                                  full_matrices=False)[1:]
        k = np.count_nonzero(sigma ** 2 >= EIGENVALUE_FLOOR)
        vecs = vh[:k].conj().T
        for j in range(k):
            mags = np.abs(vecs[:, j])
            ref = vecs[np.flatnonzero(mags >= (1 - PHASE_TIE_TOL) * mags.max())[0], j]
            vecs[:, j] *= np.conj(ref) / abs(ref)
        np.testing.assert_array_equal(schmidt_decompose(kern).eigenmodes, vecs)

    def test_passband_block_matches_full_eigh(self, monkeypatch):
        # a flat-top filter zeroes the kernel's rows and columns off its
        # passband: the gate's factor is formed on the passband alone, and
        # the eigenvalues and transmitting modes of its svd are the basis.
        # They match a full eigh, whose other eigenvalues vanish
        grid = FrequencyGrid(center=0.0, span=10.0, n_points=257)
        kern = build_kernel(make_profile("rectangular", {"bandwidth": 2.5}, grid), 3.0)
        passband = np.flatnonzero(np.diag(kern.entries))
        m = passband.size
        assert 0 < m < grid.n_points
        full_vals, full_vecs = np.linalg.eigh(kern.scaled)
        full_vals, full_vecs = full_vals[::-1], full_vecs[:, ::-1]
        assert np.max(np.abs(full_vals[m:])) <= 1e-15
        full_vals = np.where(full_vals[:m] < EIGENVALUE_FLOOR, 0.0, full_vals[:m])
        svd_shapes = record_shapes(monkeypatch, "svd")
        eigh_shapes = record_shapes(monkeypatch, "eigh")
        basis = schmidt_decompose(kern)
        # the passband's 65 samples span D = 2.5 rad/s, so D T / 2 = 3.75 and
        # the gate's rule has 4 + 8 nodes: one eigh of its Jacobi matrix, and
        # one svd of a factor with a cos and a sin row per node
        assert m == 65
        assert eigh_shapes == [(12, 12)]
        assert svd_shapes == [(24, 65)]
        assert basis.eigenvalues.shape == (m,)
        assert basis.eigenmodes.shape == (grid.n_points, np.count_nonzero(full_vals))
        assert np.max(np.abs(basis.eigenvalues - full_vals)) <= 1e-15
        off = np.setdiff1d(np.arange(grid.n_points), passband)
        assert np.all(basis.eigenmodes[off] == 0)
        k = basis.retained()
        psi = basis.eigenmodes[:, :k]
        overlap = np.abs(np.sum(full_vecs[:, :k].conj() * psi, axis=0))
        assert np.max(np.abs(overlap - 1.0)) <= 1e-12
        assert basis.orthonormality_residual() <= 1e-12

    def test_zero_filter_gives_empty_basis(self):
        # a kernel without support has no eigenpair, and so no mode to retain
        grid = FrequencyGrid(center=0.0, span=4.0, n_points=31)
        dark = FilterProfile(grid=grid, amplitude=np.zeros(grid.n_points))
        basis = schmidt_decompose(build_kernel(dark, 1.0))
        assert basis.eigenvalues.shape == (0,)
        assert basis.eigenmodes.shape == (grid.n_points, 0)
        assert basis.retained() == 0
        with pytest.raises(NetworkError, match="no retained"):
            retained_register(basis)

    def test_eigenvalue_above_one_rejected(self):
        # a grid of spacing 4 pi / T puts every F(m dw), m != 0, on a zero of
        # the sinc, so a unit filter's scaled kernel is T dw / 2pi I = 2 I
        T = 1.0
        grid = FrequencyGrid(center=0.0, span=20 * 4 * np.pi / T, n_points=21)
        unit = FilterProfile(grid=grid, amplitude=np.ones(grid.n_points))
        with pytest.raises(ModeAnalysisError, match=r"leading eigenvalue 2\.00000000 exceeds 1"):
            schmidt_decompose(build_kernel(unit, T))


class TestCurve:
    def test_effective_c_paper_values(self):
        c = effective_c(TWO_PI * 24.6e9, 100e-12)
        assert c == pytest.approx(3.86, abs=0.01)
        c2 = effective_c(0.4 * TWO_PI / 6.4e-12 * 6.4e-12, 1.0)  # B*T = 0.4*2pi
        assert c2 == pytest.approx(0.63, abs=0.01)
        assert effective_c(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, value):
        with pytest.raises(ModeAnalysisError, match="finite"):
            effective_c(value, 1.0)
        with pytest.raises(ModeAnalysisError, match="finite"):
            rect_rect_basis(value)
        with pytest.raises(ModeAnalysisError, match="finite"):
            eigenvalue_curve([1.0, value])
        with pytest.raises(ValueError, match="span must be finite"):
            FrequencyGrid(center=0.0, span=value, n_points=5)
        for center in (value, -value):
            with pytest.raises(ValueError, match="center must be finite"):
                FrequencyGrid(center=center, span=1.0, n_points=5)

    def test_curve_monotone_and_trace(self):
        cs = [0.5, 1.0, 1.5, 2.5, 3.8]
        rows = eigenvalue_curve(cs, n_modes=3, n_points=257)
        for j in range(1, 4):
            assert np.all(np.diff(rows[:, j]) > -1e-9)
        # full trace check at one c via a dedicated decomposition
        basis = rect_rect_basis(2.5, n_points=257)
        assert np.sum(basis.eigenvalues) == pytest.approx(2 * 2.5 / np.pi, rel=1e-8)

    def test_rows_padded_past_the_passband(self):
        # nine samples leave three on the passband, so the basis has three
        # eigenvalues and the fourth column is padding
        rows = eigenvalue_curve([0.1, 1.0], n_modes=4, n_points=9)
        for row in rows:
            chis = rect_rect_basis(row[0], n_points=9).eigenvalues
            assert chis.size == 3
            np.testing.assert_array_equal(row[1:], [*chis, 0.0])
        # 40-digit mpmath eigsy of the same 3-sample blocks.  A backward-stable
        # eigh holds each eigenvalue to a few eps * chi_0 absolutely: the
        # plain solver measures <= 0.98 eps * chi_0, the mirror-split one 0.68
        reference = np.array([
            [0.1, 0.063556050569829551761, 1.0589129079308784442e-4,
             3.5376135502801382189e-8, 0.0],
            [1.0, 0.54625368306168289159, 0.086795352981871229381,
             3.5707363240273169754e-3, 0.0],
        ])
        np.testing.assert_array_equal(rows[:, [0, 4]], reference[:, [0, 4]])
        err = np.abs(rows[:, 1:4] - reference[:, 1:4])
        assert np.all(err <= 4 * np.finfo(float).eps * reference[:, 1:2])

    def test_row_near_c38(self):
        rows = eigenvalue_curve([3.8], n_modes=3)
        _, x0, x1, x2 = rows[0]
        assert x0 > 0.97 and abs(x1 - 0.9) < 0.05 and abs(x2 - 0.5) < 0.08

