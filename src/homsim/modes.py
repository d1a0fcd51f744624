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

from .grids import TWO_PI, FrequencyGrid, angular_from_nm, eigh_above, load_two_column_table

# Modes with chi below this are dropped from detection projections.
MODE_RETENTION_CUTOFF = 1e-3

EIGENVALUE_FLOOR = 1e-12
EIGENVALUE_CEILING_TOL = 1e-6
# Relative margin within which samples tie for the largest |phi| of a mode,
# for kernels that `eigh_above` does not split: far above that solver's
# rounding of two mirror samples (at most 3e-11 on the modes with
# chi >= 1e-6 of the presets' filters and of rect-rect chains at
# c = 0.5-3.8, solved unsplit; 6e-11 from a plain eigh), far below the
# difference of neighbouring samples.
PHASE_TIE_TOL = 1e-9

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
        if np.max(np.abs(amp)) > 1.0 + 1e-12:
            raise ModeAnalysisError("filter amplitude exceeds 1 (not passive)")
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
    """kappa(w_m, w_n) sampled on a grid; Hermitian and positive
    semidefinite, as every gate+filter kernel is."""

    grid: FrequencyGrid
    entries: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.entries)
        if k.shape != (self.grid.n_points, self.grid.n_points):
            raise ModeAnalysisError("kernel shape does not match grid")

    @property
    def scaled(self):
        """K * dw / 2pi, the matrix whose eigenvalues are the chi_j."""
        return self.entries * (self.grid.spacing / TWO_PI)

    def trace_chi(self):
        """sum_j chi_j via the diagonal: (dw/2pi) sum_m K[m,m]."""
        return float(np.real(np.trace(self.entries))) * self.grid.spacing / TWO_PI


def build_kernel(filt, gate_duration):
    """Assemble kappa[m,n] = conj(h_m) h_n F(w_m - w_n) for a rectangular
    gate of duration T, whose F(D) = T sinc(D T / 2).

    On a uniform grid F depends only on |m - n|, so it is evaluated once per
    non-negative difference and mirrored into a Toeplitz matrix; F(D) = F(-D)
    then holds exactly, and a real filter's kernel is exactly symmetric.
    """
    if not gate_duration > 0:
        raise ModeAnalysisError("gate duration must be positive (zero is degenerate)")
    grid = filt.grid
    n = grid.n_points
    f_of_diff = gate_duration * np.sinc(np.arange(n) * grid.spacing * gate_duration / 2 / np.pi)
    # row m of the window reads F at the differences |m - n'|, n' = 0 .. n-1
    mirrored = np.concatenate((f_of_diff[:0:-1], f_of_diff))
    F = np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1]
    h = filt.amplitude
    return KernelMatrix(grid=grid, entries=np.conj(h)[:, None] * h[None, :] * F)


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
    lies on the kernel's support.  The basis holds the m eigenvalues of the
    block over that support, those below EIGENVALUE_FLOOR as zeros, and the
    eigenmodes of the k non-zero ones as unit vectors of shape (n, k), zero
    off the support.  A Gaussian filter's support is the whole grid; an
    all-zero filter gives an empty basis.

    Only the k eigenpairs at or above the floor are computed, by
    `eigh_above`: a filter symmetric about the grid centre makes the block
    equal to its row-and-column reversal, so its modes are even or odd and
    it splits into two halves.  Each half's leading eigenpairs come from a
    small Rayleigh-Ritz subspace, accepted on two certificates: the half's
    trace less the sum of the Ritz values is at most EIGENVALUE_FLOOR, so
    no eigenvalue the subspace misses reaches the floor (the kernel is
    positive semidefinite), and each kept pair's residual |A v - chi v| is
    within a small multiple of eps max(chi).  The subspace doubles until
    both hold; at half the half's size one dense eigh takes over.
    """
    nonzero = kernel.entries != 0
    support = np.flatnonzero(nonzero.any(axis=0) | nonzero.any(axis=1))
    # every entry off the block is exactly zero, so the checks read the block
    block = kernel.entries[np.ix_(support, support)] * (kernel.grid.spacing / TWO_PI)
    herm_defect = np.max(np.abs(block - block.conj().T), initial=0.0)
    if herm_defect > 1e-10 * max(1.0, np.max(np.abs(block), initial=0.0)):
        raise ModeAnalysisError(f"kernel is not Hermitian (defect {herm_defect:.2e})")
    top_vals, top_vecs = eigh_above(block, EIGENVALUE_FLOOR)
    k = top_vals.size
    if k and top_vals[-1] > 1.0 + EIGENVALUE_CEILING_TOL:
        raise ModeAnalysisError(
            f"leading eigenvalue {top_vals[-1]:.8f} exceeds 1; check |h|, |f| <= 1 "
            "or refine the grid")
    vals = np.zeros(support.size)
    vals[:k] = top_vals[::-1]
    # complex for every kernel: real modes change how `raman_moments`' FFT rounds
    vecs = np.zeros((kernel.grid.n_points, k), dtype=complex)
    vecs[support] = top_vecs[:, ::-1]
    # fix the free global phase: the largest-|phi| sample made real positive.
    # An odd mode of a filter symmetric about the grid centre peaks at two
    # mirror samples, exactly equal from the split solver; a kernel that is
    # not split rounds them apart, so the first sample within
    # PHASE_TIE_TOL of the largest is taken
    mags = np.abs(vecs)
    first = np.argmax(mags >= (1.0 - PHASE_TIE_TOL) * mags.max(axis=0), axis=0)
    ref = vecs[first, np.arange(k)]
    vecs *= np.conj(ref) / np.hypot(ref.real, ref.imag)
    return ModeBasis(grid=kernel.grid, eigenvalues=vals, eigenmodes=vecs)


def effective_c(bandwidth, duration):
    """Time-bandwidth parameter c = B*T/4 of a gate+filter chain."""
    if bandwidth < 0 or duration < 0:
        raise ModeAnalysisError("bandwidth and duration must be non-negative")
    return bandwidth * duration / 4.0


def rect_rect_basis(c, n_points=DEFAULT_GRID_POINTS):
    """Schmidt basis of the rectangular filter + rectangular gate at given c.

    Uses T = 1 and B = 4c; by scale invariance the eigenvalues depend on c
    only.
    """
    if not c > 0:
        raise ModeAnalysisError("c must be positive")
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
        if c < 0:
            raise ModeAnalysisError("c must be non-negative")
        if c > 0:
            chis = rect_rect_basis(c, n_points=n_points).eigenvalues[:n_modes]
            rows[i, :len(chis) + 1] = c, *chis
    return rows
