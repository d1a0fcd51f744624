"""Gaussian second-moment description of one fiber spool under pulsed pumping.

Four-wave mixing converts pump photon pairs into Stokes (signal) and
anti-Stokes (idler) photons; spontaneous Raman scattering off the thermal
phonon bath adds phase-insensitive background in both bands.  The state of
a spool is zero-mean Gaussian and fully described by the normal moments
N = <a^dag a> of each band and the anomalous moments M = <a_s a_a>
between them.  `SpoolMoments` holds this state, with each band's N kept as
its FWM and Raman parts.  The two spools of the experiment are pumped
alike and independently, so one `SpoolMoments` describes each of them and
no correlation links them.

Moments are stored in the discrete normalization: with mode operators
a_m = a(w_m) sqrt(dw/2pi), N[m,m] is the photon occupation of grid cell m
and trace(N) is the photon number in the band.

The pair-production term is evaluated per Schmidt pair of the joint
spectral amplitude as an exact two-mode squeezer (sinh/cosh kernels), which
preserves the output commutators identically; the Raman term is linear in
the bath operators with thermal occupation n_T.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np
import scipy.fft
from scipy.constants import hbar, k as k_B

from .grids import TWO_PI, FrequencyGrid

THERMAL_OCCUPATION_CAP = 1e12
PUMP_CONTAINMENT = 0.999
MAX_MODE_OCCUPATION = 0.5
MAX_PAIR_PROBABILITY = 0.2
CALIBRATION_RTOL = 1e-6  # relative width of the final gammaL bracket

STOKES, ANTISTOKES = "stokes", "antistokes"


class SourceModelError(ValueError):
    """Raised for invalid pump, gain, or grid configurations."""


# ---------------------------------------------------------------------------
# pump
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PumpPulse:
    """Pump spectral amplitude A_p(w) on a grid, in sqrt(J*s).

    Normalized so that 2*pi * sum |A_p|^2 dw equals the pulse energy.
    """

    grid: FrequencyGrid
    amplitude: np.ndarray
    duration: float  # intensity FWHM in seconds

    @property
    def energy(self):
        return TWO_PI * self.grid.integrate(np.abs(self.amplitude) ** 2)

    @property
    def center(self):
        return self.grid.center

    @property
    def support(self):
        """Slice from the first to the last nonzero sample (empty if none)."""
        nonzero = np.flatnonzero(self.amplitude)
        return slice(nonzero[0], nonzero[-1] + 1) if nonzero.size else slice(0, 0)

    @cached_property
    def autoconvolution(self):
        """Phi = (A_p * A_p) dw in seconds, sampled at the pair sums
        2 w_0 + k dw (k = 0 .. 2n - 2); computed once, by FFT.

        Only the support is transformed, so Phi stays exactly zero where
        no pair of pump samples sums.
        """
        phi = np.zeros(2 * self.grid.n_points - 1, dtype=complex)
        support = self.support
        a = self.amplitude[support]
        if a.size:
            n = 2 * len(a) - 1
            spectrum = scipy.fft.fft(a, scipy.fft.next_fast_len(n))
            phi[2 * support.start:2 * support.start + n] = (
                scipy.fft.ifft(spectrum * spectrum)[:n] * self.grid.spacing)
        return phi


def _carved_field_envelope(t, duration, rise):
    """Field amplitude of a carved pulse: flat top, cosine edges.

    The intensity is a Tukey window of FWHM `duration`; the field is its
    square root, i.e. cos(pi u / 2) over each edge of width `rise`.
    """
    flat = duration - rise
    at = np.abs(t)
    f = np.zeros_like(at)
    f[at <= flat / 2] = 1.0
    edge = (at > flat / 2) & (at <= flat / 2 + rise)
    f[edge] = np.cos(np.pi * (at[edge] - flat / 2) / (2 * rise))
    return f


def pump_spectrum(shape, params, energy, grid):
    """Sample a transform-limited pump spectrum and normalize to `energy`.

    shape: ``cw_carved_rect`` (params: duration, optional rise_time) or
    ``transform_limited_gaussian`` (params: power_fwhm, rad/s).  Rejects
    grids holding less than 99.9% of the pulse energy.
    """
    if not energy > 0:
        raise SourceModelError("pump energy must be positive")
    w = grid.points
    wc = grid.center
    if shape == "cw_carved_rect":
        T = params["duration"]
        rise = params.get("rise_time", 0.0)
        if not 0 <= rise < T:
            raise SourceModelError("rise_time must satisfy 0 <= rise < duration")
        if rise == 0.0:
            amp = T * np.sinc((w - wc) * T / 2 / np.pi)
            total_time = T  # integral |f|^2 dt of the unit rectangle
        else:
            # FFT of the field envelope on the time lattice dual to the grid
            window = TWO_PI / grid.spacing
            n_fft = 1
            while n_fft < max(4 * grid.n_points, 16 * window / min(rise, T)):
                n_fft *= 2
            dt = window / n_fft
            t = (np.arange(n_fft) - n_fft // 2) * dt
            if t[-1] < 0.75 * T:
                raise SourceModelError("grid spacing too coarse to hold this pulse in time")
            f = _carved_field_envelope(t, T, rise)
            spec = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(f))) * dt
            freqs = np.fft.fftshift(np.fft.fftfreq(n_fft, d=dt)) * TWO_PI
            amp = np.interp(w - wc, freqs, spec.real) + 1j * np.interp(w - wc, freqs, spec.imag)
            total_time = np.sum(f**2) * dt
        duration = T
    elif shape == "transform_limited_gaussian":
        fw = params["power_fwhm"]
        if not fw > 0:
            raise SourceModelError("power_fwhm must be positive")
        amp = np.exp(-2 * np.log(2) * ((w - wc) / fw) ** 2)
        # time-bandwidth product of a transform-limited gaussian
        duration = 2 * np.log(2) / np.pi / (fw / TWO_PI)
    else:
        raise SourceModelError(f"unknown pump shape {shape!r}")

    amp = np.asarray(amp, dtype=complex)
    sampled = grid.integrate(np.abs(amp) ** 2)
    if shape == "cw_carved_rect":
        # Parseval: integral |A|^2 dw = 2 pi * integral |f|^2 dt
        fraction = sampled / (TWO_PI * total_time)
    else:
        # analytic Gaussian tail outside the grid; |A|^2 has std fw/(2 sqrt(2 ln 2))
        from scipy.special import erf
        sig_pow = fw / (2 * np.sqrt(2 * np.log(2)))
        fraction = float(erf(grid.span / 2 / (np.sqrt(2) * sig_pow)))
    if fraction < PUMP_CONTAINMENT:
        missing = max(1e-12, 1.0 - fraction)
        needed = grid.span * max(2.0, np.sqrt(missing / (1.0 - PUMP_CONTAINMENT)))
        raise SourceModelError(
            f"grid holds only {fraction:.4%} of the pump energy "
            f"(needs >= {PUMP_CONTAINMENT:.1%}); widen the pump grid span "
            f"to roughly {needed:.3e} rad/s")
    amp *= np.sqrt(energy / (TWO_PI * sampled))
    return PumpPulse(grid=grid, amplitude=amp, duration=duration)


# ---------------------------------------------------------------------------
# Raman gain and thermal occupation
# ---------------------------------------------------------------------------

def thermal_occupation(detuning, temperature):
    """Phonon-bath occupation entering the Raman noise.

    Returns 1/(exp(hbar |nu| / k_B T) - 1) + theta(-nu): red (Stokes)
    detunings nu < 0 carry the +1 spontaneous term.  The nu = 0 divergence
    is capped at 1e12.
    """
    if not temperature > 0:
        raise SourceModelError("temperature must be positive")
    nu = np.asarray(detuning, dtype=float)
    x = hbar * np.abs(nu) / (k_B * temperature)
    with np.errstate(divide="ignore", over="ignore"):
        n = 1.0 / np.expm1(x)
    capped = ~np.isfinite(n) | (n > THERMAL_OCCUPATION_CAP)
    if np.any(capped):
        warnings.warn("thermal occupation capped at 1e12 near zero detuning",
                      RuntimeWarning, stacklevel=2)
        n = np.where(capped, THERMAL_OCCUPATION_CAP, n)
    return n + (nu < 0)


@dataclass(frozen=True)
class RamanGain:
    """Tabulated gain g(|nu|) >= 0 in 1/(W*m); linear interpolation inside
    the table, zero outside (with a warning), symmetric in the detuning sign."""

    detuning: np.ndarray  # rad/s, ascending, non-negative
    gain: np.ndarray      # 1/(W*m)
    scale: float = 1.0

    def __post_init__(self):
        if np.any(np.asarray(self.gain) < 0):
            raise SourceModelError("Raman gain must be non-negative")

    def __call__(self, nu):
        a = np.abs(np.asarray(nu, dtype=float))
        if np.any(a > self.detuning[-1] + 1e-6 * self.detuning[-1]):
            warnings.warn("Raman gain queried outside the tabulated range; using 0",
                          RuntimeWarning, stacklevel=2)
        return self.scale * np.interp(a, self.detuning, self.gain, left=self.gain[0], right=0.0)

    def rescaled(self, factor):
        return RamanGain(detuning=self.detuning, gain=self.gain, scale=self.scale * factor)


def load_raman_gain(path):
    """Read a 'detuning_THz gain_per_W_m' file ('#' comments allowed)."""
    nu, g = [], []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            cols = line.split()
            if len(cols) != 2:
                raise SourceModelError(f"bad row in Raman gain file {path!r}: {line!r}")
            nu.append(float(cols[0]))
            g.append(float(cols[1]))
    if len(nu) < 2:
        raise SourceModelError("Raman gain table needs at least two rows")
    nu = np.asarray(nu) * TWO_PI * 1e12
    g = np.asarray(g)
    order = np.argsort(nu)
    return RamanGain(detuning=nu[order], gain=g[order])


def default_raman_gain():
    """The bundled silica-like gain curve."""
    with resources.as_file(resources.files("homsim.data") / "raman_silica.txt") as p:
        return load_raman_gain(p)


@dataclass(frozen=True)
class SourceParams:
    """Fiber spool parameters shared by both spools."""

    gamma: float            # SFWM coefficient, 1/(W*m)
    length: float           # effective spool length, m
    temperature: float      # phonon bath, K
    raman_gain: RamanGain
    pump_center: float      # rad/s
    stokes_center: float
    antistokes_center: float

    def __post_init__(self):
        if not self.length > 0:
            raise SourceModelError("length must be positive")
        if not self.temperature > 0:
            raise SourceModelError("temperature must be positive")

    @property
    def gamma_length(self):
        return self.gamma * self.length

    def check_energy_conservation(self, spacing):
        gap = abs(self.stokes_center + self.antistokes_center - 2 * self.pump_center)
        if gap > spacing * (1 + 1e-9):
            raise SourceModelError(
                f"band centers violate energy conservation by {gap:.3e} rad/s "
                f"(> one grid spacing {spacing:.3e})")


# ---------------------------------------------------------------------------
# FWM and Raman moment blocks
# ---------------------------------------------------------------------------

def fwm_joint_amplitude(pump, gamma_length, grid_s, grid_a):
    """Joint spectral amplitude JSA(w_s, w_a) = i * gammaL * Phi(w_s + w_a),
    with Phi the discrete pump autoconvolution, in seconds (continuum units)."""
    for g in (grid_s, grid_a):
        if not pump.grid.compatible(g):
            raise SourceModelError("signal, idler and pump grids must share one spacing")
        if not pump.grid.aligned_with(g):
            raise SourceModelError("signal/idler grids are not on the pump lattice")
    d = pump.grid.spacing
    phi = pump.autoconvolution
    om0 = 2 * pump.grid.center - (pump.grid.n_points - 1) * d
    total = grid_s.points[:, None] + grid_a.points[None, :]
    idx = np.rint((total - om0) / d).astype(int)
    inside = (idx >= 0) & (idx < len(phi))
    jsa = np.zeros(total.shape, dtype=complex)
    jsa[inside] = phi[idx[inside]]
    return 1j * gamma_length * jsa


# Diagonals of a pump Gram block transformed per FFT batch; bounds the
# working set to a few MB whatever the pump length.
_DIAGONALS_PER_BATCH = 32


def _detuning_lattice(band_grid, pump):
    """Detunings nu_k = w_m - w_j between every band sample m and pump
    sample j, ascending on the common lattice (nb + n_p - 1 values)."""
    n_nu = band_grid.n_points + pump.grid.n_points - 1
    return (band_grid.points[0] - pump.grid.points[-1]) + np.arange(n_nu) * band_grid.spacing


def _pump_gram(pump, band_grid, weight):
    """G[m, n] = dw^2 sum_k weight_k conj(A_p(w_m - nu_k)) A_p(w_n - nu_k).

    With j the pump index of w_m - nu_k, diagonal delta of G is a linear
    convolution of the weight with B_delta[j] = conj(A_j) A_(j+delta):
    G[m, m+delta] = dw^2 (weight * B_delta)[m + n_p - 1].  Each diagonal is
    one FFT product of length >= nb + n_p - 1, at which no entry m < nb
    wraps around.  The lower triangle is the conjugate of the upper one, so
    G is exactly Hermitian.  Pump samples outside the pump's support add
    nothing and are left out, with the detunings they pair with.
    """
    nb = band_grid.n_points
    gram = np.zeros((nb, nb), dtype=complex)
    support = pump.support
    a = pump.amplitude[support]
    n_p = len(a)
    if not n_p:
        return gram
    offset = pump.grid.n_points - support.stop
    weight = weight[offset:offset + nb + n_p - 1]
    size = scipy.fft.next_fast_len(nb + n_p - 1)
    weight_hat = scipy.fft.fft(weight, size)
    diagonals = np.empty((nb, nb), dtype=complex)  # [delta, m] -> G[m, m + delta]
    for lo in range(0, nb, _DIAGONALS_PER_BATCH):
        deltas = range(lo, min(lo + _DIAGONALS_PER_BATCH, nb))
        products = np.zeros((len(deltas), n_p), dtype=complex)
        for row, delta in enumerate(deltas):
            overlap = max(n_p - delta, 0)
            products[row, :overlap] = a[:overlap].conj() * a[delta:delta + overlap]
        conv = scipy.fft.ifft(scipy.fft.fft(products, size, axis=1) * weight_hat, axis=1)
        diagonals[lo:lo + len(deltas)] = conv[:, n_p - 1:n_p - 1 + nb]
    diagonals[0] = diagonals[0].real  # sums of weight * |A|^2, real but for round-off
    rows, cols = np.triu_indices(nb)
    upper = diagonals[cols - rows, rows] * band_grid.spacing**2
    gram[rows, cols] = upper
    gram[cols, rows] = upper.conj()
    return gram


def raman_moments(pump, params, grid, band):
    """Hermitian PSD Raman occupation block for one band (discrete units).

    N[m,n] = L dw dnu sum_k g(nu_k) n_T(nu_k) conj(A_p(w_m - nu_k)) A_p(w_n - nu_k),
    with the detuning measured from the pump carrier; evaluated diagonal by
    diagonal with FFT convolutions (see `_pump_gram`).
    """
    if band not in (STOKES, ANTISTOKES):
        raise SourceModelError(f"unknown band {band!r}")
    nu = _detuning_lattice(grid, pump)
    gain = params.raman_gain(nu)
    weight = np.zeros_like(gain)
    # the |nu| < dw/2 cell is elastic (pump) scattering, not Raman
    active = (gain > 0) & (np.abs(nu) >= 0.5 * grid.spacing)
    weight[active] = gain[active] * thermal_occupation(nu[active], params.temperature)
    return params.length * _pump_gram(pump, grid, weight)


# ---------------------------------------------------------------------------
# assembled state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpoolMoments:
    """One spool's Gaussian state over its Stokes and anti-Stokes bands.

    Each band's normal block N = <a^dag a> is held as its FWM and Raman
    parts; `anomalous` is the pair block M = <a_s a_a>.  Blocks use the
    discrete normalization, so diagonal traces are photon numbers per pulse.
    """

    fwm_stokes: np.ndarray
    fwm_antistokes: np.ndarray
    raman_stokes: np.ndarray
    raman_antistokes: np.ndarray
    anomalous: np.ndarray

    @cached_property
    def normal_stokes(self):
        return self.fwm_stokes + self.raman_stokes

    @cached_property
    def normal_antistokes(self):
        return self.fwm_antistokes + self.raman_antistokes


@dataclass(frozen=True)
class PairModes:
    """Schmidt pairs of the unit-gain discrete pair amplitude.

    J = i Phi(w_s + w_a) dw = u diag(s) vt over the Stokes and anti-Stokes
    grids, keeping singular values above 1e-12 s[0].  The amplitude at gain
    gammaL is gammaL * J, so one factorisation serves the gain calibration
    and the moments at the calibrated gain.
    """

    pump: PumpPulse
    grids: dict  # band name -> FrequencyGrid
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def factor_pair_amplitude(pump, grids):
    """SVD of the unit-gain pair amplitude on the (Stokes, anti-Stokes) grids."""
    grid_s, grid_a = grids[STOKES], grids[ANTISTOKES]
    jsa = fwm_joint_amplitude(pump, 1.0, grid_s, grid_a) * grid_s.spacing
    u, s, vt = np.linalg.svd(jsa, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    return PairModes(pump=pump, grids={STOKES: grid_s, ANTISTOKES: grid_a},
                     u=u[:, :rank], s=s[:rank], vt=vt[:rank])


def _bogoliubov_blocks(u, r, vt):
    """Exact two-mode-squeezer moments of the Schmidt pairs (u_k, vt_k).

    Pair k is squeezed with parameter r_k, giving M = U sinh r cosh r V and
    N = conj(U) sinh^2 r U^T on the Stokes side (V^dag ... V on the
    anti-Stokes side).  Reduces to N ~ J J^dag, M ~ J at small gain, where
    J = U r V is the pair amplitude.
    """
    sh, ch = np.sinh(r), np.cosh(r)
    m_block = (u * (sh * ch)[None, :]) @ vt
    n_s = (u.conj() * (sh**2)[None, :]) @ u.T
    n_a = (vt.conj().T * (sh**2)[None, :]) @ vt
    return n_s, n_a, m_block


def source_moments(params, modes):
    """Gaussian state of one spool; both spools share pump and parameters,
    so this one state describes each of them.

    `modes` is the pump's PairModes on the band grids; its Schmidt pairs
    are squeezed by gammaL times their unit-gain singular values.
    """
    grid_s, grid_a = modes.grids[STOKES], modes.grids[ANTISTOKES]
    params.check_energy_conservation(grid_s.spacing)
    r = params.gamma_length * modes.s
    n_s_fwm, n_a_fwm, m_block = _bogoliubov_blocks(modes.u, r, modes.vt)
    peak = float(np.sinh(r[0]) ** 2) if len(r) else 0.0
    if peak > MAX_MODE_OCCUPATION:
        raise SourceModelError(
            f"leading pair-mode occupation {peak:.3f} exceeds "
            f"{MAX_MODE_OCCUPATION}; gain too high for a perturbative pair source")
    return SpoolMoments(fwm_stokes=n_s_fwm, fwm_antistokes=n_a_fwm,
                        raman_stokes=raman_moments(modes.pump, params, grid_s, STOKES),
                        raman_antistokes=raman_moments(modes.pump, params, grid_a,
                                                       ANTISTOKES),
                        anomalous=m_block)


def pair_production_probability(modes, gamma_length, band_filter):
    """Mean FWM photon number per pulse in the filtered Stokes band at gain
    gammaL: sum_k sinh^2(gammaL s_k) (|h|^2 . |u_k|^2) over the Schmidt
    pairs of `modes` (Raman photons are excluded: they are not paired
    emission)."""
    mode_weight = band_filter.power @ (np.abs(modes.u) ** 2)  # filtered weight per pair
    return float(np.sum(np.sinh(gamma_length * modes.s) ** 2 * mode_weight))


def calibrate_gain(target_pair_prob, modes, band_filter):
    """Bisection on gamma*L until the filtered pair probability matches.

    `modes` is the pump's PairModes; the forward model is monotone in
    gammaL, so the root is unique.  Returns the calibrated gammaL in 1/W.
    """
    if not 0 <= target_pair_prob < MAX_PAIR_PROBABILITY:
        raise SourceModelError(
            f"target pair probability {target_pair_prob} outside the "
            f"perturbative range [0, {MAX_PAIR_PROBABILITY})")
    if target_pair_prob == 0.0:
        return 0.0
    s = modes.s

    def filtered_pairs(gl):
        return pair_production_probability(modes, gl, band_filter)

    lo, hi = 0.0, 1.0 / s[0]
    while filtered_pairs(hi) < target_pair_prob:
        hi *= 2.0
        if hi > 1e6 / s[0]:
            raise SourceModelError("calibration failed to bracket the target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if filtered_pairs(mid) < target_pair_prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= CALIBRATION_RTOL * hi:
            break
    return 0.5 * (lo + hi)


def commutator_residual(pump, params, grids):
    """Deviation of [a, a^dag] from the identity after the self-consistent
    vacuum-scattering correction, normalized as a spectral norm.

    The squeezer part preserves commutators exactly; the Raman term adds
    its commutator C_r, compensated at leading order by the correction
    alpha = (I + C_r)^(-1/2).  The residual is therefore O(C_r^2).
    """
    grid_s = grids[STOKES]
    nu = _detuning_lattice(grid_s, pump)
    c_r = params.length * _pump_gram(pump, grid_s, params.raman_gain(nu)).conj()
    n = c_r.shape[0]
    vals, vecs = np.linalg.eigh(c_r)
    inv = (vecs / (1.0 + vals)[None, :]) @ vecs.conj().T
    residual = inv + c_r - np.eye(n)
    return float(np.linalg.norm(residual, 2))
