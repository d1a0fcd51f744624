"""Uniform angular-frequency grids, the common substrate for all spectral objects.

Quadrature convention used everywhere in the package:

    integral dw g(w)  ~  sum_m g(w_m) * dw

with dw = span / (n_points - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
# speed of light in vacuum, m/s (exact in SI since 2019; equals scipy.constants.c)
C_LIGHT = 299792458.0
# relative spacing mismatch below which two grids contract safely
SPACING_RTOL = 1e-9
# offset between two grid lattices, in spacings, below which they coincide
ALIGNMENT_RTOL = 1e-6
# largest |a - a[::-1, ::-1]|, in eps * max|a|, at which `mirror_eigh` splits a:
# the band kernels are exactly mirror-symmetric, and the pair amplitudes of
# the presets' pumps are so to about 3 eps
MIRROR_TOL = 16.0
# first probe block of `_ritz_above`
RITZ_BLOCK = 16
# largest residual |a v - theta v| of a kept Ritz pair, in eps * max(theta)
RITZ_RESIDUAL_TOL = 64.0


def angular_from_nm(wavelength_nm):
    """Convert a vacuum wavelength in nm to angular frequency in rad/s."""
    return TWO_PI * C_LIGHT / (wavelength_nm * 1e-9)


def nm_from_angular(omega):
    """Convert an angular frequency in rad/s to vacuum wavelength in nm."""
    return TWO_PI * C_LIGHT / omega * 1e9


def load_two_column_table(path, what, error):
    """The rows of a two-column numeric text file ('#' comments allowed).

    A table that cannot be parsed, or has other than two columns or fewer
    than two rows, raises `error` with a message that starts with `what`
    and names the path.
    """
    try:
        table = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise error(f"{what} {path!r}: {exc}") from exc
    if table.shape[1] != 2 or table.shape[0] < 2:
        raise error(f"{what} {path!r} needs two columns and at least two rows")
    return table


def _mirror_halves(a):
    """The even and odd halves of `a` (see `mirror_eigh`), or None unless
    `a` equals its row-and-column reversal to MIRROR_TOL eps max|a|."""
    n = a.shape[0]
    h = n // 2
    top = a[:n - h]
    eps = np.finfo(float).eps
    if h == 0 or (np.max(np.abs(top - a[:h - 1:-1, ::-1]))
                  > MIRROR_TOL * eps * np.max(np.abs(top))):
        return None
    root2, cross = np.sqrt(2.0), a[:h, :n - h - 1:-1]
    even = np.empty((n - h, n - h), dtype=np.result_type(a, 1.0))
    even[:h, :h] = a[:h, :h] + cross
    even[h:, :h] = root2 * a[h:n - h, :h]
    even[:, h:] = root2 * a[:n - h, h:n - h]
    even[h:, h:] = a[h:n - h, h:n - h]
    return even, a[:h, :h] - cross


def _mirror_join(even, odd):
    """Eigenpairs of the whole matrix, ascending, from the (values, vectors)
    of its even and odd halves: [y; J y] / sqrt 2 and [z; -J z] / sqrt 2,
    with an odd length's centre sample taken from the even half."""
    (even_vals, even_vecs), (odd_vals, odd_vecs) = even, odd
    h, ke = odd_vecs.shape[0], even_vecs.shape[1]
    n = h + even_vecs.shape[0]
    root2, back = np.sqrt(2.0), slice(None, n - h - 1, -1)
    vecs = np.zeros((n, ke + odd_vecs.shape[1]), dtype=np.result_type(even_vecs, odd_vecs))
    vecs[:h, :ke] = even_vecs[:h] / root2
    vecs[h:n - h, :ke] = even_vecs[h:]
    vecs[back, :ke] = vecs[:h, :ke]
    vecs[:h, ke:] = odd_vecs / root2
    vecs[back, ke:] = -vecs[:h, ke:]
    vals = np.concatenate((even_vals, odd_vals))
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def mirror_eigh(a):
    """`np.linalg.eigh(a)` of a Hermitian matrix, in two halves when `a` is
    mirror-symmetric about its centre.

    A matrix equal to its row-and-column reversal (to MIRROR_TOL eps
    max|a|) commutes with the reversal J, so it has a basis of eigenvectors
    that are even or odd about the centre (Cantoni and Butler, Linear
    Algebra Appl. 13, 275 (1976)).  With h = n // 2, the top-left block A
    and C[i, j] = a[i, n-1-j] of the first h rows, the even ones are
    [y; J y] / sqrt 2 for the eigenvectors y of A + C, and the odd ones
    [z; -J z] / sqrt 2 for those of A - C.  For odd n the even block also
    takes the centre row and column, scaled by sqrt 2 off the diagonal,
    and the even vectors its last entry at the centre sample.  Mirror
    samples of each mode are then equal in magnitude exactly.  The
    eigenvalues come ascending, as from eigh; any other matrix takes one
    plain eigh.
    """
    halves = _mirror_halves(a)
    if halves is None:
        return np.linalg.eigh(a)
    return _mirror_join(*map(np.linalg.eigh, halves))


def eigh_above(a, floor):
    """The eigenpairs of a Hermitian positive semidefinite `a` whose
    eigenvalue is at least `floor`, ascending: those of its even and odd
    halves (see `mirror_eigh`) when `a` is mirror-symmetric, each half, or
    any other `a` whole, by `_ritz_above`."""
    halves = _mirror_halves(a)
    if halves is None:
        return _ritz_above(a, floor)
    return _mirror_join(*(_ritz_above(half, floor) for half in halves))


def _probe(n, k):
    """A fixed n x k block of pseudo-random entries in [-1, 1): the
    splitmix64 hash of each entry's index, so no generator state is kept
    and numpy.random is never imported."""
    x = np.arange(n * k, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x = (x ^ (x >> np.uint64(shift))) * np.uint64(mult)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(float).reshape(n, k) * 2.0 ** -52 - 1.0


def _ritz_above(a, floor):
    """Eigenpairs of a Hermitian PSD `a` with eigenvalue >= `floor`, ascending.

    Randomized subspace iteration with Rayleigh-Ritz (Halko, Martinsson
    and Tropp, SIAM Rev. 53, 217 (2011)): Q spans a A Omega for the fixed
    probe Omega, refined by one power step Q <- orth(a Q), and the
    eigenpairs (theta, Q w) of Q^H a Q are kept when two certificates hold:
    tr a - sum theta <= floor, which bounds every eigenvalue that the
    subspace misses (a is PSD, and the Ritz values interlace), and a
    residual |a v - theta v| <= RITZ_RESIDUAL_TOL eps max(theta) for each
    kept pair.  Otherwise the block doubles, and at half of a's size one
    dense eigh takes over.
    """
    n = a.shape[0]
    trace = np.trace(a).real
    k = RITZ_BLOCK
    while 2 * k < n:
        q = np.linalg.qr(a @ _probe(n, k))[0]
        q = np.linalg.qr(a @ q)[0]
        aq = a @ q
        theta, w = np.linalg.eigh(q.conj().T @ aq)
        keep = theta >= floor
        vecs = q @ w[:, keep]
        residual = np.linalg.norm(aq @ w[:, keep] - vecs * theta[keep], axis=0)
        bound = RITZ_RESIDUAL_TOL * np.finfo(float).eps * max(theta[-1], 0.0)
        if trace - np.sum(theta) <= floor and np.all(residual <= bound):
            return theta[keep], vecs
        k *= 2
    vals, vecs = np.linalg.eigh(a)
    keep = vals >= floor
    return vals[keep], vecs[:, keep]


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of an angular-frequency band.

    Parameters
    ----------
    center : float
        Band center, rad/s.
    span : float
        Full width of the band, rad/s.
    n_points : int
        Number of samples, >= 2.
    """

    center: float
    span: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not self.span > 0:
            raise ValueError(f"span must be positive, got {self.span}")
        idx = np.arange(self.n_points) - (self.n_points - 1) / 2.0
        object.__setattr__(self, "points", self.center + idx * self.spacing)

    @property
    def spacing(self):
        """Grid spacing dw in rad/s."""
        return self.span / (self.n_points - 1)

    def integrate(self, values):
        """Quadrature sum_m values[m] * dw."""
        return np.sum(values) * self.spacing

    def compatible(self, other):
        """True when both grids share the same spacing (contraction-safe)."""
        return abs(self.spacing - other.spacing) <= SPACING_RTOL * self.spacing

    def aligned_with(self, other):
        """True when the two grids live on one common frequency lattice."""
        if not self.compatible(other):
            return False
        offset = (other.center - self.center) / self.spacing
        return abs(offset - round(offset)) < ALIGNMENT_RTOL

