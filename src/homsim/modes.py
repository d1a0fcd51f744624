"""Spectral correlation kernel of a gate+filter chain and its Schmidt decomposition.

A temporal gate with amplitude f(t) followed by a spectral filter with
amplitude h(w) acts on incident light through the Hermitian kernel

    kappa(w, w') = conj(h(w)) h(w') F(w - w'),   F(D) = integral dt |f(t)|^2 e^{iDt}.

The gate is rectangular: |f(t)|^2 = 1 for |t| <= T/2 and 0 outside, so
F(D) = T sinc(D T / 2) in closed form.

Diagonalizing kappa yields transmission eigenvalues chi_j in [0, 1] and
eigenmodes phi_j(w), sampled as unit Euclidean vectors on the grid; only
the modes with chi_j > 0 carry light to a detector, so only they are
kept.  For a rectangular filter of bandwidth B and a gate of duration T
the eigenvalues depend only on c = B*T/4 (the bandlimited/timelimited
concentration problem), with a single dominant mode for c < 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (TWO_PI, FrequencyGrid, angular_from_nm, gauss_legendre,
                    load_two_column_table)

# Modes with chi below this are dropped from detection projections.
MODE_RETENTION_CUTOFF = 1e-3

EIGENVALUE_FLOOR = 1e-12
EIGENVALUE_CEILING_TOL = 1e-6
# Relative margin within which samples tie for the largest |phi| of a mode:
# far above the SVD's rounding of mirror samples of a mode of a centred
# filter (at most 5.3e-13 of max |phi| on the modes with chi >= 1e-6 of the
# presets' filters at 513-2049 points and of rect-rect chains at
# c = 0.5-3.8), far below the difference of neighbouring samples.
PHASE_TIE_TOL = 1e-9

# Gauss-Legendre nodes of the gate beyond ceil(D T / 2), D the support's
# widest frequency difference (`KernelMatrix.factor`)
GATE_RULE_MARGIN = 8
# largest error of that rule on F(D_k), in q eps T for its q nodes: it
# measures at most 0.6 on rect-rect chains at c = 0.01-50, on the presets'
# filters at 513-4097 points and on 300 random Gaussian chains
GATE_RULE_TOL = 4.0

DEFAULT_GRID_POINTS = 513
DEFAULT_SPAN_FACTOR = 4.0


class ModeAnalysisError(ValueError):
    """Raised for invalid profiles, kernels, or failed decompositions."""


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FilterProfile:
    """Spectral amplitude h(w) sampled on a grid, |h| <= 1, real or complex as given."""

    grid: FrequencyGrid
    amplitude: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude)
        if amp.shape != (self.grid.n_points,):
            raise ModeAnalysisError("amplitude length does not match grid")
        if not np.all(np.abs(amp) <= 1.0 + 1e-12):
            raise ModeAnalysisError("filter amplitude is not finite or exceeds 1 (not passive)")
        object.__setattr__(self, "amplitude", amp)

    @property
    def power(self):
        return np.abs(self.amplitude) ** 2


def _rect_amplitude_cell_averaged(grid, center, bandwidth):
    """Rectangular passband sampled with cell-averaged power at the edges.

    Each sample represents the cell [w - dw/2, w + dw/2]; the stored power is
    the fraction of the cell inside the band, so sum |h|^2 dw equals the
    bandwidth exactly regardless of how the edges fall on the lattice.
    """
    d = grid.spacing
    lo, hi = center - bandwidth / 2, center + bandwidth / 2
    w = grid.points
    overlap = np.clip(np.minimum(hi, w + d / 2) - np.maximum(lo, w - d / 2), 0.0, d) / d
    overlap[np.abs(overlap - 1.0) < 1e-12] = 1.0
    overlap[overlap < 1e-12] = 0.0
    return np.sqrt(overlap)


def load_tabulated_spectrum(path):
    """Read a two-column 'wavelength_nm transmission_dB' file.

    Returns (omega ascending, amplitude).  dB values are power transmission,
    converted to amplitude via 10^(dB/20).  Lines starting with '#' are
    comments.
    """
    table = load_two_column_table(path, "tabulated spectrum", ModeAnalysisError)
    omega = angular_from_nm(table[:, 0])
    amp = 10.0 ** (table[:, 1] / 20.0)
    order = np.argsort(omega)
    return omega[order], amp[order]


def make_profile(kind, params, grid):
    """Sample a filter profile on `grid`.

    kind: ``rectangular`` (params: bandwidth), ``gaussian`` (params: fwhm,
    power FWHM), or ``tabulated`` (params: files, a list of two-column
    spectrum files whose stages multiply pointwise).  Shapes are centered on
    the grid unless params contains an explicit ``center``.
    """
    center = params.get("center", grid.center)
    if kind == "rectangular":
        bw = params["bandwidth"]
        if not bw > 0:
            raise ModeAnalysisError(f"bandwidth must be positive, got {bw}")
        amp = _rect_amplitude_cell_averaged(grid, center, bw)
    elif kind == "gaussian":
        fwhm = params["fwhm"]
        if not fwhm > 0:
            raise ModeAnalysisError(f"fwhm must be positive, got {fwhm}")
        # power FWHM: |h|^2 falls to 1/2 at +-fwhm/2
        amp = np.exp(-2 * np.log(2) * ((grid.points - center) / fwhm) ** 2)
    elif kind == "tabulated":
        files = params["files"]
        amp = np.ones(grid.n_points)
        for path in files:
            omega, stage = load_tabulated_spectrum(path)
            if omega[0] > grid.points[0] or omega[-1] < grid.points[-1]:
                raise ModeAnalysisError(
                    f"tabulated spectrum {path!r} covers "
                    f"[{omega[0]:.4e}, {omega[-1]:.4e}] rad/s but the grid spans "
                    f"[{grid.points[0]:.4e}, {grid.points[-1]:.4e}]; extrapolation refused")
            amp = amp * np.interp(grid.points, omega, stage)
        if np.max(amp) > 1.0 + 1e-12:
            amp = amp / np.max(amp)
    else:
        raise ModeAnalysisError(f"unknown filter kind {kind!r}")
    return FilterProfile(grid=grid, amplitude=amp)


# ---------------------------------------------------------------------------
# kernel and decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """kappa(w_m, w_n) = conj(h_m) h_n F(w_m - w_n) of a filter h behind a
    rectangular gate of duration T, F(D) = T sinc(D T / 2), held as h and T.
    F is the Gram function of the gate's exponentials, so a finite T > 0 and
    a finite |h| <= 1 make it Hermitian and positive semidefinite: no matrix
    is stored, and none is checked."""

    profile: FilterProfile
    gate_duration: float

    def __post_init__(self):
        if not 0 < self.gate_duration < np.inf:
            raise ModeAnalysisError(f"gate duration {self.gate_duration} is not finite and > 0")

    def block(self, index):
        """kappa on the samples `index`, ascending, from F(|m - n| dw) laid out
        as a Toeplitz view: F(D) = F(-D) exactly, so a real filter's is symmetric."""
        grid, T = self.profile.grid, self.gate_duration
        f_of_diff = T * np.sinc(np.arange(grid.n_points) * grid.spacing * T / 2 / np.pi)
        # row m of the window reads F at the differences |m - n'|, n' = 0 .. n-1
        mirrored = np.concatenate((f_of_diff[:0:-1], f_of_diff))
        F = np.lib.stride_tricks.sliding_window_view(mirrored, grid.n_points)[::-1]
        h = self.profile.amplitude[index]
        return np.conj(h)[:, None] * h[None, :] * F[np.ix_(index, index)]

    def factor(self, index):
        """A with A^H A = kappa dw / 2pi on the samples `index`, ascending.

        F(D) = integral e^{iDt} dt over the gate [-T/2, T/2], so the
        q-point Gauss-Legendre rule (t_j, w_j) on the gate factors it:
        A's 2q rows are sqrt(w_j dw / 2pi) h cos(t_j w) and
        sqrt(w_j dw / 2pi) h sin(t_j w), with w measured from the grid
        centre, real for a real filter.  q = ceil(D T / 2) + GATE_RULE_MARGIN
        for the support's widest frequency difference D, so q is set by the
        band's time-bandwidth product, not by the grid.  The rule is checked
        against T sinc(D_k T / 2) at every lag D_k = k dw up to D: an error
        delta above GATE_RULE_TOL q eps T raises ModeAnalysisError.  Within
        it, A^H A differs from the exact block by E with
        |E_mn| <= delta |h_m| |h_n| dw / 2pi, so ||E|| <= delta sum |h|^2 dw / 2pi
        and, by Weyl's inequality, no chi_j moves by more than
        delta trace_chi() / T.
        """
        grid, T = self.profile.grid, self.gate_duration
        lags = np.arange(index[-1] - index[0] + 1 if index.size else 1) * grid.spacing
        q = int(np.ceil(lags[-1] * T / 2)) + GATE_RULE_MARGIN
        nodes, weights = gauss_legendre(q)
        t, weights = nodes * (T / 2), weights * (T / 2)
        error = np.max(np.abs(np.cos(np.outer(lags, t)) @ weights
                              - T * np.sinc(lags * T / 2 / np.pi)))
        if not error <= GATE_RULE_TOL * q * np.finfo(float).eps * T:
            raise ModeAnalysisError(
                f"the {q}-node gate rule misses F(D) by {error:.3g} x T = {T:.6g}")
        phase = np.outer(t, (index - (grid.n_points - 1) / 2.0) * grid.spacing)
        root = np.sqrt(weights * (grid.spacing / TWO_PI))[:, None]
        return np.concatenate((root * np.cos(phase), root * np.sin(phase))) \
            * self.profile.amplitude[index]

    @property
    def entries(self):
        """The dense n x n kernel, built on each call."""
        return self.block(np.arange(self.profile.grid.n_points))

    @property
    def scaled(self):
        """K * dw / 2pi, the matrix whose eigenvalues are the chi_j."""
        return self.entries * (self.profile.grid.spacing / TWO_PI)

    def trace_chi(self):
        """sum_j chi_j = T sum_m |h_m|^2 dw / 2pi."""
        return float(self.profile.grid.integrate(self.profile.power)) * self.gate_duration / TWO_PI


def build_kernel(filt, gate_duration):
    """The `KernelMatrix` of `filt` behind a rectangular gate of duration T."""
    return KernelMatrix(profile=filt, gate_duration=gate_duration)


@dataclass(frozen=True, eq=False)
class ModeBasis:
    """Transmission eigenvalues (descending) with the transmitting eigenmodes.

    ``eigenvalues`` has one entry per sample of the kernel's support (m of
    the grid's n), those below EIGENVALUE_FLOOR set to zero.  ``eigenmodes``
    has shape (n, k), with column j the unit Euclidean vector phi_j(w_m) of
    the j-th of the k non-zero eigenvalues (a prefix of the sorted list): a
    mode that does not transmit reaches no detector, so it is not stored.
    It is the basis's one grid-sized array.
    """

    grid: FrequencyGrid
    eigenvalues: np.ndarray
    eigenmodes: np.ndarray

    def retained(self):
        """Number of leading modes with chi >= MODE_RETENTION_CUTOFF."""
        return int(np.sum(self.eigenvalues >= MODE_RETENTION_CUTOFF))

    def orthonormality_residual(self):
        g = self.eigenmodes.conj().T @ self.eigenmodes
        return float(np.max(np.abs(g - np.eye(g.shape[0])), initial=0.0))


def schmidt_decompose(kernel):
    """Eigendecomposition of the scaled kernel into (chi_j, phi_j).

    A row and column of the kernel are exactly zero wherever the filter is
    (the flat-top filter outside its passband), so every mode with chi > 0
    lies on the filter's support.  The basis holds the support's m
    eigenvalues, those below EIGENVALUE_FLOOR as zeros, and the eigenmodes
    of the k non-zero ones as unit vectors of shape (n, k), zero off the
    support.  A Gaussian filter's support is the whole grid; an all-zero
    filter gives an empty basis.

    The scaled kernel on the support is A^H A for the gate's factor A
    (`KernelMatrix.factor`), 2q x m with q set by the band's
    time-bandwidth product.  So one SVD A = U diag(sigma) V^H gives
    chi_j = sigma_j^2, descending, and phi_j = conj(vh_j): every
    eigenvalue, without a certificate, and no m x m matrix is formed.
    """
    support = np.flatnonzero(kernel.profile.amplitude)
    grid = kernel.profile.grid
    sigma, vh = np.linalg.svd(kernel.factor(support), full_matrices=False)[1:]
    chi = sigma ** 2
    if chi.size and chi[0] > 1.0 + EIGENVALUE_CEILING_TOL:
        raise ModeAnalysisError(
            f"leading eigenvalue {chi[0]:.8f} exceeds 1; refine the grid")
    k = np.count_nonzero(chi >= EIGENVALUE_FLOOR)
    vals = np.zeros(support.size)
    vals[:k] = chi[:k]
    # complex for every kernel: real modes change how `raman_moments`' FFT rounds
    vecs = np.zeros((grid.n_points, k), dtype=complex)
    vecs[support] = vh[:k].conj().T
    # fix the free global phase: the largest-|phi| sample made real positive.
    # An odd mode of a filter symmetric about the grid centre peaks at two
    # mirror samples, which the SVD rounds apart, so the first sample within
    # PHASE_TIE_TOL of the largest is taken
    mags = np.abs(vecs)
    first = np.argmax(mags >= (1.0 - PHASE_TIE_TOL) * mags.max(axis=0), axis=0)
    ref = vecs[first, np.arange(k)]
    vecs *= np.conj(ref) / np.hypot(ref.real, ref.imag)
    return ModeBasis(grid=grid, eigenvalues=vals, eigenmodes=vecs)


def effective_c(bandwidth, duration):
    """Time-bandwidth parameter c = B*T/4 of a gate+filter chain."""
    if not (0 <= bandwidth < np.inf and 0 <= duration < np.inf):
        raise ModeAnalysisError("bandwidth and duration must be finite and non-negative")
    return bandwidth * duration / 4.0


def rect_rect_basis(c, n_points=DEFAULT_GRID_POINTS):
    """Schmidt basis of the rectangular filter + rectangular gate at given c.

    Uses T = 1 and B = 4c; by scale invariance the eigenvalues depend on c
    only.
    """
    if not 0 < c < np.inf:
        raise ModeAnalysisError(f"c must be finite and positive, got {c}")
    B = 4.0 * c
    grid = FrequencyGrid(center=0.0, span=DEFAULT_SPAN_FACTOR * B, n_points=n_points)
    filt = make_profile("rectangular", {"bandwidth": B}, grid)
    return schmidt_decompose(build_kernel(filt, 1.0))


def eigenvalue_curve(c_values, n_modes=3, n_points=DEFAULT_GRID_POINTS):
    """Rows of (c, chi_0 .. chi_{n_modes-1}) for rect-rect chains.

    c = 0 is the closed (zero-bandwidth) chain: all eigenvalues vanish.
    """
    rows = np.zeros((len(c_values), n_modes + 1))
    for i, c in enumerate(c_values):
        if not 0 <= c < np.inf:
            raise ModeAnalysisError(f"c must be finite and non-negative, got {c}")
        if c > 0:
            chis = rect_rect_basis(c, n_points=n_points).eigenvalues[:n_modes]
            rows[i, :len(chis) + 1] = c, *chis
    return rows
