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
# largest |a - a[::-1, ::-1]|, in eps * max|a|, at which `mirror_eigh` splits
# a pair amplitude: those of the presets' pumps are mirror-symmetric to about 3 eps
MIRROR_TOL = 16.0

def angular_from_nm(wavelength_nm):
    """Convert a vacuum wavelength in nm to angular frequency in rad/s."""
    return TWO_PI * C_LIGHT / (wavelength_nm * 1e-9)


def nm_from_angular(omega):
    """Convert an angular frequency in rad/s to vacuum wavelength in nm."""
    return TWO_PI * C_LIGHT / omega * 1e9


def load_two_column_table(path, what, error):
    """The rows of a two-column numeric text file ('#' comments allowed).

    A table that cannot be parsed, has other than two columns or fewer
    than two rows, or holds a NaN or infinite value, raises `error` with a
    message that starts with `what` and names the path (and the row of the
    first non-finite value, counted as numpy's parser counts them).
    """
    try:
        table = np.loadtxt(path, comments="#", ndmin=2)
    except ValueError as exc:
        raise error(f"{what} {path!r}: {exc}") from exc
    if table.shape[1] != 2 or table.shape[0] < 2:
        raise error(f"{what} {path!r} needs two columns and at least two rows")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise error(f"{what} {path!r}: non-finite value at row {bad[0] + 1} "
                    f"({table[bad[0], 0]:g}, {table[bad[0], 1]:g})")
    return table


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
    n = a.shape[0]
    h = n // 2
    top = a[:n - h]
    eps = np.finfo(float).eps
    if h == 0 or (np.max(np.abs(top - a[:h - 1:-1, ::-1]))
                  > MIRROR_TOL * eps * np.max(np.abs(top))):
        return np.linalg.eigh(a)
    root2, cross, back = np.sqrt(2.0), a[:h, :n - h - 1:-1], slice(None, n - h - 1, -1)
    even = np.empty((n - h, n - h), dtype=np.result_type(a, 1.0))
    even[:h, :h] = a[:h, :h] + cross
    even[h:, :h] = root2 * a[h:n - h, :h]
    even[:, h:] = root2 * a[:n - h, h:n - h]
    even[h:, h:] = a[h:n - h, h:n - h]
    (even_vals, even_vecs), (odd_vals, odd_vecs) = map(np.linalg.eigh, (even, a[:h, :h] - cross))
    vecs = np.zeros((n, n), dtype=np.result_type(even_vecs, odd_vecs))
    vecs[:h, :n - h] = even_vecs[:h] / root2
    vecs[h:n - h, :n - h] = even_vecs[h:]
    vecs[back, :n - h] = vecs[:h, :n - h]
    vecs[:h, n - h:] = odd_vecs / root2
    vecs[back, n - h:] = -vecs[:h, n - h:]
    vals = np.concatenate((even_vals, odd_vals))
    order = np.argsort(vals, kind="stable")
    return vals[order], vecs[:, order]


def gauss_legendre(q):
    """The q-point Gauss-Legendre rule on [-1, 1], as (nodes ascending,
    weights): the eigenvalues of the Legendre polynomials' Jacobi matrix,
    whose subdiagonal is k / sqrt(4 k^2 - 1), and twice the squared first
    components of its eigenvectors (Golub and Welsch, Math. Comp. 23, 221
    (1969)).  eigh reads the lower triangle, so only the subdiagonal is
    set.  numpy.polynomial's leggauss gives the same rule, but importing
    that module alone raises a process's peak RSS by about 0.9 MiB.
    """
    k = np.arange(1.0, q)
    nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return nodes, 2.0 * vecs[0] ** 2


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
        if not 0 < self.span < np.inf:
            raise ValueError(f"span must be finite and positive, got {self.span}")
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
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

