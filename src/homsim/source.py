"""Gaussian second-moment description of one fiber spool under pulsed pumping.

Four-wave mixing converts pump photon pairs into Stokes (signal) and
anti-Stokes (idler) photons; spontaneous Raman scattering off the thermal
phonon bath adds phase-insensitive background in both bands.  The state of
a spool is zero-mean Gaussian and fully described by the normal moments
N = <a^dag a> of each band and the anomalous moments M = <a_s a_a>
between them.  Detection only ever sees the few retained Schmidt modes of
each gate+filter chain, so `SpoolMoments` holds this state on those
registers: three register-sized blocks, never a grid-sized one.  The two
spools of the experiment are pumped alike and independently, so one
`SpoolMoments` describes each of them and no correlation links them.

Moments are stored in the discrete normalization: with mode operators
a_m = a(w_m) sqrt(dw/2pi), N[m,m] on the identity register is the photon
occupation of grid cell m and trace(N) is the photon number in the band.

The pair-production term is evaluated per Schmidt pair of the joint
spectral amplitude as an exact two-mode squeezer (sinh/cosh kernels), which
preserves the output commutators identically, and enters the register
through the overlaps of the register modes with the Schmidt vectors; the
Raman term is linear in the bath operators with thermal occupation n_T and
is built on the register by one FFT convolution per register mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .grids import TWO_PI, FrequencyGrid, load_two_column_table, mirror_eigh

# reduced Planck and Boltzmann constants in SI units, from the exact SI-2019
# h and k_B; bit-equal to scipy.constants.hbar and scipy.constants.k
hbar = 6.62607015e-34 / TWO_PI  # J s
k_B = 1.380649e-23  # J/K

THERMAL_OCCUPATION_CAP = 1e12
PUMP_CONTAINMENT = 0.999
MAX_MODE_OCCUPATION = 0.5
MAX_PAIR_PROBABILITY = 0.2

STOKES, ANTISTOKES = "stokes", "antistokes"


class SourceModelError(ValueError):
    """Raised for invalid pump, gain, or grid configurations."""


def _fast_len(n):
    """Smallest 2^a 3^b 5^c >= n: a padded length that numpy's FFT, whose
    radices are 2, 3 and 5, transforms fast."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


# ---------------------------------------------------------------------------
# pump
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
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
        2 w_0 + k dw (k = 0 .. 2n - 2); computed once, by FFT, in the
        amplitude's dtype: a real amplitude (every shipped pump shape) gives
        a real Phi through rfft/irfft, a complex one a complex Phi.

        Only the support is transformed, so Phi stays exactly zero where
        no pair of pump samples sums.
        """
        real = not np.iscomplexobj(self.amplitude)
        forward, inverse = ((np.fft.rfft, np.fft.irfft) if real
                            else (np.fft.fft, np.fft.ifft))
        phi = np.zeros(2 * self.grid.n_points - 1, dtype=float if real else complex)
        support = self.support
        a = self.amplitude[support]
        if a.size:
            n = 2 * len(a) - 1
            size = _fast_len(n)
            spectrum = forward(a, size)
            phi[2 * support.start:2 * support.start + n] = (
                inverse(spectrum * spectrum, size)[:n] * self.grid.spacing)
        return phi


def pump_spectrum(shape, params, energy, grid):
    """Sample a transform-limited pump spectrum and normalize to `energy`.

    shape: ``cw_carved_rect`` (params: duration, optional rise_time; the
    closed-form transform of the carved field) or
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
        # the lattice samples the spectrum of a pulse whose support T + rise
        # fits in the dual window 2 pi / dw without aliasing
        window = TWO_PI / grid.spacing
        if window < T + rise:
            raise SourceModelError(
                "grid spacing too coarse to hold this pulse in time: "
                f"pump.duration_ps + pump.rise_time_ps = {(T + rise) * 1e12:.6g} ps exceeds "
                f"the dual window 2 pi / dw = {window * 1e12:.6g} ps; shorten the pulse, or "
                "shrink dw / 2 pi = filters.grid_span_factor * filters.signal_bandwidth_ghz"
                " / (filters.grid_points - 1), e.g. by raising filters.grid_points")
        # transform of the field: flat over |t| <= (T - rise)/2, then a
        # quarter cosine over each edge of width rise (a Tukey intensity of
        # FWHM T); integral |f|^2 dt = T
        x = (w - wc) / TWO_PI
        half_phase = (w - wc) * T / 2
        amp = (T - rise) * np.sinc(x * (T - rise)) + rise * (
            np.cos(np.pi / 4 + half_phase) * np.sinc(0.25 + x * rise)
            + np.cos(np.pi / 4 - half_phase) * np.sinc(0.25 - x * rise))
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

    sampled = grid.integrate(np.abs(amp) ** 2)
    if shape == "cw_carved_rect":
        # Parseval: integral |A|^2 dw = 2 pi * integral |f|^2 dt = 2 pi T
        fraction = sampled / (TWO_PI * duration)
    else:
        # analytic Gaussian tail outside the grid; |A|^2 has std fw/(2 sqrt(2 ln 2))
        sig_pow = fw / (2 * np.sqrt(2 * np.log(2)))
        fraction = math.erf(grid.span / 2 / (np.sqrt(2) * sig_pow))
    if fraction < PUMP_CONTAINMENT:
        raise SourceModelError(f"grid holds only {fraction:.4%} of the pump energy (needs >= "
                               f"{PUMP_CONTAINMENT:.1%}); raise filters.grid_span_factor")
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


@dataclass(frozen=True, eq=False)
class RamanGain:
    """Tabulated gain g(|nu|) >= 0 in 1/(W*m); linear interpolation inside
    the table, zero outside (with a warning), symmetric in the detuning sign."""

    detuning: np.ndarray  # rad/s, ascending, non-negative
    gain: np.ndarray      # 1/(W*m)

    def __post_init__(self):
        if np.any(np.asarray(self.gain) < 0):
            raise SourceModelError("Raman gain must be non-negative")

    def __call__(self, nu):
        a = np.abs(np.asarray(nu, dtype=float))
        if np.any(a > self.detuning[-1] + 1e-6 * self.detuning[-1]):
            warnings.warn("Raman gain queried outside the tabulated range; using 0",
                          RuntimeWarning, stacklevel=2)
        return np.interp(a, self.detuning, self.gain, left=self.gain[0], right=0.0)


def load_raman_gain(path):
    """Read a 'detuning_THz gain_per_W_m' file ('#' comments allowed)."""
    table = load_two_column_table(path, "Raman gain file", SourceModelError)
    nu = table[:, 0] * TWO_PI * 1e12
    g = table[:, 1]
    order = np.argsort(nu)
    return RamanGain(detuning=nu[order], gain=g[order])


def default_raman_gain():
    """The bundled silica-like gain curve."""
    with resources.as_file(resources.files("homsim.data") / "raman_silica.txt") as p:
        return load_raman_gain(p)


@dataclass(frozen=True, eq=False)
class SourceParams:
    """Fiber spool parameters shared by both spools."""

    gamma_length: float     # SFWM gain gamma*L, 1/W
    length: float           # effective spool length (scales the Raman block), m
    temperature: float      # phonon bath, K
    raman_gain: RamanGain

    def __post_init__(self):
        if not self.length > 0:
            raise SourceModelError("length must be positive")
        if not self.temperature > 0:
            raise SourceModelError("temperature must be positive")


# ---------------------------------------------------------------------------
# FWM and Raman moment blocks
# ---------------------------------------------------------------------------

def _pair_sum_matrix(pump, grid_s, grid_a):
    """Phi(w_s + w_a) on the (Stokes, anti-Stokes) grids, in Phi's dtype and
    zero where the pair sum leaves Phi's lattice.

    The grids share one spacing and lattice, so entry (i, j) reads Phi at
    the integer index i + j + k0, with k0 fixed by the grid starts: a
    Hankel matrix, filled from a sliding window of the padded Phi."""
    for g in (grid_s, grid_a):
        if not pump.grid.compatible(g):
            raise SourceModelError("signal, idler and pump grids must share one spacing")
        if not pump.grid.aligned_with(g):
            raise SourceModelError("signal/idler grids are not on the pump lattice")
    d = pump.grid.spacing
    gap = abs(grid_s.center + grid_a.center - 2 * pump.grid.center)
    if gap > d * (1 + 1e-9):
        raise SourceModelError(
            f"band centers violate energy conservation by {gap:.3e} rad/s "
            f"(> one grid spacing {d:.3e})")
    phi = pump.autoconvolution
    om0 = 2 * pump.grid.center - (pump.grid.n_points - 1) * d
    k0 = int(np.rint((grid_s.points[0] + grid_a.points[0] - om0) / d))
    n_s, n_a = grid_s.n_points, grid_a.n_points
    # padded[k] = Phi[k + k0] for the n_s + n_a - 1 sums, zero off the lattice
    padded = np.zeros(n_s + n_a - 1, dtype=phi.dtype)
    lo, hi = max(0, -k0), min(padded.size, len(phi) - k0)
    if lo < hi:
        padded[lo:hi] = phi[lo + k0:hi + k0]
    return np.lib.stride_tricks.sliding_window_view(padded, n_a)[:n_s].copy()


def fwm_joint_amplitude(pump, gamma_length, grid_s, grid_a):
    """Joint spectral amplitude JSA(w_s, w_a) = i * gammaL * Phi(w_s + w_a),
    with Phi the discrete pump autoconvolution, in seconds (continuum units)."""
    return 1j * gamma_length * _pair_sum_matrix(pump, grid_s, grid_a)


def raman_moments(pump, params, grid, modes):
    """Hermitian PSD Raman occupation block of one band on the register
    `modes` (unit vectors on `grid`, one per column), in discrete units.

    The full block is N[m,n] = L dw dnu sum_k w_k conj(A_p(w_m - nu_k))
    A_p(w_n - nu_k), with w = g(nu) n_T(nu) and the detuning measured from
    the pump carrier, so the band's side of the pump follows from `grid`.
    On the register it is L dw^2 c^dag diag(w) c, where
    c[k, j] = sum_n A_p(w_n - nu_k) modes[n, j] is the linear convolution
    of mode j with the reversed pump amplitude: one FFT per mode.  Pump
    samples outside the pump's support add nothing and are left out, with
    the detunings they pair with.  The identity register gives the full
    block.
    """
    k = modes.shape[1]
    support = pump.support
    reversed_pump = pump.amplitude[support][::-1]
    if not reversed_pump.size:
        return np.zeros((k, k), dtype=complex)
    # nu_k = w_0 - w_last + k dw, with w_last the last supported pump sample:
    # row k of c pairs band sample n with the pump sample n - k after w_last
    n = grid.n_points + reversed_pump.size - 1
    nu = (grid.points[0] - pump.grid.points[support.stop - 1]) + np.arange(n) * grid.spacing
    gain = params.raman_gain(nu)
    weight = np.zeros_like(gain)
    # the |nu| < dw/2 cell is elastic (pump) scattering, not Raman
    active = (gain > 0) & (np.abs(nu) >= 0.5 * grid.spacing)
    weight[active] = gain[active] * thermal_occupation(nu[active], params.temperature)
    size = _fast_len(n)
    c = np.fft.ifft(np.fft.fft(reversed_pump, size)[:, None]
                    * np.fft.fft(modes, size, axis=0), axis=0)[:n]
    c *= np.sqrt(weight)[:, None]
    block = params.length * grid.spacing**2 * (c.conj().T @ c)
    return 0.5 * (block + block.conj().T)


# ---------------------------------------------------------------------------
# assembled state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SpoolMoments:
    """One spool's Gaussian state on a Stokes and an anti-Stokes register.

    A register psi holds unit vectors on the band grid, one per column; its
    modes b_j = sum_m conj(psi_mj) a_m are the ones a chain K = psi chi
    psi^dag counts.  `normal_stokes` and `normal_antistokes` are their
    <b_i^dag b_j> = psi^T N conj(psi); `anomalous` is <b_s,i b_a,j> =
    psi_s^dag M conj(psi_a).  On the identity register these are the
    grid-cell moments, whose diagonal traces are photon numbers per pulse.
    """

    normal_stokes: np.ndarray
    normal_antistokes: np.ndarray
    anomalous: np.ndarray


@dataclass(frozen=True, eq=False)
class PairModes:
    """Schmidt pairs of the unit-gain discrete pair amplitude.

    J = i Phi(w_s + w_a) dw = u diag(s) vt over the Stokes and anti-Stokes
    grids, keeping singular values above 1e-12 s[0].  The factorisation
    (`factor_pair_amplitude`) is of Phi dw in the pump's dtype, real for
    every shipped pump shape, and the factor i is carried by `u` alone.
    The amplitude at gain gammaL is gammaL * J, so one factorisation
    serves the gain calibration and the moments at the calibrated gain.
    """

    pump: PumpPulse
    grids: dict  # band name -> FrequencyGrid
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray


def factor_pair_amplitude(pump, grids):
    """Schmidt pairs of the unit-gain pair amplitude on the (Stokes,
    anti-Stokes) grids.

    Phi(w_s + w_a) dw is a Hankel matrix in Phi's dtype.  On square grids
    (every scenario's) it is symmetric, and a real one (every shipped pump)
    is factored by one eigh, Phi dw = V diag(lam) V^T: the Takagi factors
    of J = i Phi dw are s = |lam| in descending order, u = i V sign(lam)
    and vt = V^T.  The eigh is `mirror_eigh`, which splits Phi dw into an
    even and an odd half when it equals its row-and-column reversal, as a
    pump spectrum symmetric about the grid centre (both shipped shapes)
    makes it.  A complex or non-square Phi takes one `np.linalg.svd`,
    after which the i of J multiplies the kept columns of u.
    """
    grid_s, grid_a = grids[STOKES], grids[ANTISTOKES]
    amplitude = _pair_sum_matrix(pump, grid_s, grid_a)
    amplitude *= grid_s.spacing
    if np.isrealobj(amplitude) and grid_s.n_points == grid_a.n_points:
        lam, v = mirror_eigh(amplitude)
        order = np.argsort(-np.abs(lam), kind="stable")
        lam, v = lam[order], v[:, order]
        u, s, vt = v * np.sign(lam), np.abs(lam), v.T
    else:
        u, s, vt = np.linalg.svd(amplitude, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * s[0])) if s.size and s[0] > 0 else 0
    return PairModes(pump=pump, grids={STOKES: grid_s, ANTISTOKES: grid_a},
                     u=1j * u[:, :rank], s=s[:rank], vt=vt[:rank].copy())


def source_moments(params, modes, psi_s, psi_a):
    """Gaussian state of one spool on the Stokes register `psi_s` and the
    anti-Stokes register `psi_a` (unit vectors on the band grids, one per
    column); both spools share pump and parameters, so this one state
    describes each of them.

    `modes` is the pump's PairModes on the band grids.  Pair k is an exact
    two-mode squeezer with r_k = gammaL s_k: on the grid M = u sinh r cosh r
    vt, N_s = conj(u) sinh^2 r u^T and N_a = vt^dag sinh^2 r vt, which
    reduce to M ~ J, N_s ~ conj(J) J^T at small gain.  On the registers
    (see `SpoolMoments`) only the overlaps u^T conj(psi_s) and
    vt conj(psi_a) enter.  Raman scattering adds to both normal blocks
    (`raman_moments` on conj(psi)).
    """
    grid_s, grid_a = modes.grids[STOKES], modes.grids[ANTISTOKES]
    r = params.gamma_length * modes.s
    peak = float(np.sinh(r[0]) ** 2) if len(r) else 0.0
    if peak > MAX_MODE_OCCUPATION:
        raise SourceModelError(
            f"leading pair-mode occupation {peak:.3f} exceeds "
            f"{MAX_MODE_OCCUPATION}; gain too high for a perturbative pair source")
    sh, ch = np.sinh(r)[:, None], np.cosh(r)[:, None]
    stokes = modes.u.T @ psi_s.conj()       # (pairs, k_s)
    antistokes = modes.vt @ psi_a.conj()    # (pairs, k_a)
    return SpoolMoments(
        normal_stokes=(stokes.conj().T @ (sh**2 * stokes)
                       + raman_moments(modes.pump, params, grid_s, psi_s.conj())),
        normal_antistokes=(antistokes.conj().T @ (sh**2 * antistokes)
                           + raman_moments(modes.pump, params, grid_a, psi_a.conj())),
        anomalous=stokes.T @ (sh * ch * antistokes))


def pair_production_probability(modes, gamma_length, band_filter):
    """Mean FWM photon number per pulse in the filtered Stokes band at gain
    gammaL: sum_k sinh^2(gammaL s_k) (|h|^2 . |u_k|^2) over the Schmidt
    pairs of `modes` (Raman photons are excluded: they are not paired
    emission)."""
    mode_weight = band_filter.power @ (np.abs(modes.u) ** 2)  # filtered weight per pair
    passed = mode_weight > 0  # a blocked pair adds nothing, even where its sinh overflows
    return float(np.sum(np.sinh(gamma_length * modes.s[passed]) ** 2 * mode_weight[passed]))


def calibrate_gain(target_pair_prob, modes, band_filter):
    """The gamma*L, in 1/W, at which the filtered pair probability
    f(gammaL) = sum_k w_k sinh^2(gammaL s_k), w_k = |h|^2 . |u_k|^2
    (`pair_production_probability`), equals the target p to rounding.

    f is convex and increasing, so Newton's method from above the root
    descends monotonically onto it; it stops when a step no longer lowers
    gammaL.  The start is the smaller of two upper bounds of the root over
    the passed pairs, sqrt(p / sum_k w_k s_k^2) (as sinh x >= x) and
    min_k asinh(sqrt(p / w_k)) / s_k, at which no sinh overflows; f is
    summed as |sqrt(w) sinh r|^2, finite even for a subnormal w_k.  A
    filter that passes no pair raises.
    """
    p = target_pair_prob
    if not 0 <= p < MAX_PAIR_PROBABILITY:
        raise SourceModelError(f"target pair probability {p} outside the "
                               f"perturbative range [0, {MAX_PAIR_PROBABILITY})")
    w = band_filter.power @ (np.abs(modes.u) ** 2)
    passed = w > 0
    if not np.any(passed):
        raise SourceModelError("the signal filter passes no photon pair")
    if p == 0.0:
        return 0.0
    root_w, s = np.sqrt(w[passed]), modes.s[passed]
    gain = min(math.sqrt(p) / np.linalg.norm(root_w * s),
               float(np.min(np.arcsinh(math.sqrt(p) / root_w) / s)))
    while True:
        sh, ch = root_w * np.sinh(gain * s), root_w * np.cosh(gain * s)
        step = (sh @ sh - p) / (2 * (s * sh) @ ch)
        if not gain - step < gain:
            return float(gain)
        gain -= step
