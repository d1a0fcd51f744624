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

