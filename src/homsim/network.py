"""Delay, 50:50 mixing, and projection onto detection-mode registers.

The two spools' Stokes fields reach the coupler with a relative delay tau
(applied symmetrically as +-tau/2); the coupler ports feed detectors A and
B, while each spool's anti-Stokes field goes directly to its herald (C for
the right spool, D for the left).

Every detector counts photons behind a gate+filter chain, one per band:
both signal arms pass the signal filter before the coupler and both
heralds the idler filter, so one Schmidt basis serves each band.  With the
chain's kernel written as K = t^dag t, the port-A number operator is the
transmitted intensity of the retimed chain,

    n_A = (1/2) || P_{+tau/2} t E_r + P_{-tau/2} t E_l ||^2 ,

where P_s = diag(e^{i s w}).  At tau = 0 this is exactly E_A^dag K E_A for
the mixed port field; the self terms stay E_x^dag K E_x at every delay (a
photon is never dropped for arriving late, matching detectors whose
electrical gates are far longer than the pulse), and the interference
cross term carries the sandwiched kernel K^(1/2) diag(e^{-i tau w}) K^(1/2),
which decays over the photon coherence time and produces the
Hong-Ou-Mandel dip.  The operator is PSD by construction and the two ports
sum to the full transmitted intensity at every delay.

All forms are supported on the span of the retained Schmidt modes, so the
click computation restricts exactly to a small register; the spools'
states arrive on it already (`source.source_moments`), and only the port
forms depend on the delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detection import ClickQuery
from .grids import TWO_PI


class NetworkError(ValueError):
    """Raised for incompatible grids or degenerate network configurations."""


@dataclass(frozen=True)
class DetectorModel:
    """The four threshold detectors behind their gate+filter chains.

    The coupler ports A and B take the signal efficiency, the heralds C
    and D the idler one; an efficiency collects propagation loss and
    quantum efficiency and scales the chain's number-operator form.  All
    four share the one mean dark count.
    """

    signal_efficiency: float
    idler_efficiency: float
    dark_mean: float

    def __post_init__(self):
        for eta in (self.signal_efficiency, self.idler_efficiency):
            if not 0.0 <= eta <= 1.0:
                raise NetworkError(f"efficiency {eta} outside [0, 1]")
        if not 0.0 <= self.dark_mean < np.inf:
            raise NetworkError(f"dark mean {self.dark_mean} is not finite and non-negative")


def retained_register(basis):
    """Retained unit-norm modes psi and their transmissions chi of a chain,
    of which there must be one."""
    k = basis.retained()
    if k == 0:
        raise NetworkError("no retained detection modes (all chi below cutoff)")
    return basis.eigenmodes[:, :k], basis.eigenvalues[:k]


def detection_mode_projection(source_r, source_l, bases, tau, detectors):
    """Place two spools on the detection register at relative delay tau.

    Returns (normal, anomalous, query): the register moments and the
    ClickQuery of detectors A-D that the click engine reads.

    Parameters
    ----------
    source_r, source_l : SpoolMoments of the right and left spool, already
        on the retained registers of the two bands.  Identical spools are
        passed as the same state twice.  The two are independent, so every
        block between them is zero.
    bases : dict with the ModeBasis of each band, "signal" and "idler".
        Both signal arms (A, B) pass the one signal chain before the
        coupler and both heralds (C, D) the one idler chain, so the
        register is (k_s right Stokes, k_s left Stokes, k_a right
        anti-Stokes, k_a left anti-Stokes) modes.
    tau : relative Stokes delay in seconds (right leads by +tau/2).  Only
        the relative delay is observable: each spool's chain co-moves with
        its own arrival, so a common shift of both spools cancels exactly.
    detectors : DetectorModel; each unit-efficiency form is scaled by its
        detector's efficiency.
    """
    basis_s = bases["signal"]
    psi_s, chi_s = retained_register(basis_s)
    _, chi_a = retained_register(bases["idler"])
    k_s, k_a = len(chi_s), len(chi_a)
    for spool in (source_r, source_l):
        if (spool.normal_stokes.shape != (k_s, k_s)
                or spool.normal_antistokes.shape != (k_a, k_a)
                or spool.anomalous.shape != (k_s, k_a)):
            raise NetworkError("spool register does not match the detection register")
    m_tot = 2 * (k_s + k_a)
    sl_rs = slice(0, k_s)
    sl_ls = slice(k_s, 2 * k_s)
    sl_ra = slice(2 * k_s, 2 * k_s + k_a)
    sl_la = slice(2 * k_s + k_a, m_tot)

    # the spools' register blocks (exact: detection forms vanish outside the
    # retained span, so dropped directions contribute factors of 1)
    normal = np.zeros((m_tot, m_tot), dtype=complex)
    anomalous = np.zeros((m_tot, m_tot), dtype=complex)
    for spool, sl_s, sl_a in ((source_r, sl_rs, sl_ra), (source_l, sl_ls, sl_la)):
        normal[sl_s, sl_s] = spool.normal_stokes
        normal[sl_a, sl_a] = spool.normal_antistokes
        anomalous[sl_s, sl_a] = spool.anomalous
        anomalous[sl_a, sl_s] = spool.anomalous.T

    # port forms: overlap of the delayed and advanced Schmidt modes
    phases = np.exp(-1j * tau * basis_s.grid.points)
    overlap = psi_s.conj().T @ (phases[:, None] * psi_s)
    sq = np.sqrt(chi_s)
    cross = 0.5 * (sq[:, None] * overlap * sq[None, :])
    forms = {}
    for name, sign in (("A", +1.0), ("B", -1.0)):
        q = np.zeros((m_tot, m_tot), dtype=complex)
        q[sl_rs, sl_rs] = 0.5 * np.diag(chi_s)
        q[sl_ls, sl_ls] = 0.5 * np.diag(chi_s)
        q[sl_rs, sl_ls] = sign * cross
        q[sl_ls, sl_rs] = sign * cross.conj().T
        forms[name] = detectors.signal_efficiency * q
    for name, sl_a in (("C", sl_ra), ("D", sl_la)):
        q = np.zeros((m_tot, m_tot), dtype=complex)
        q[sl_a, sl_a] = np.diag(chi_a)
        forms[name] = detectors.idler_efficiency * q

    darks = dict.fromkeys(forms, detectors.dark_mean)
    return normal, anomalous, ClickQuery(forms=forms, dark_means=darks)


def _fwhm(x, y):
    y = np.asarray(y, float)
    top = y.max()
    if top <= 0:
        return 0.0
    above = x[y >= top / 2]
    return float(above[-1] - above[0])


def filter_bandwidth(signal_filter):
    """FWHM of the filter's power on its grid, in rad/s; 0 when its grid
    resolves no width (one sample above half the peak, or no power)."""
    return _fwhm(signal_filter.grid.points, signal_filter.power)


def correlation_bandwidth(pump):
    """FWHM of |Phi|^2, the pump autoconvolution over the pair sums, in
    rad/s; 0 when the pump grid resolves no width."""
    phi = pump.autoconvolution
    return _fwhm(np.arange(len(phi)) * pump.grid.spacing, np.abs(phi) ** 2)


def hom_dip_width_estimate(signal_filter, pump):
    """Rough temporal width of the coincidence dip, used for scan ranges.

    The interference survives over the coherence time of the slower of the
    two spectral scales in play, so the estimate is the reciprocal of the
    narrower of the signal-filter bandwidth and the pump-induced
    correlation bandwidth; it brackets the simulated dip width within a
    factor of about two.  The filter's width is the FWHM of the chain
    kernel's diagonal, which for the rectangular gate is |h|^2 T exactly.
    """
    b_filter, b_corr = filter_bandwidth(signal_filter), correlation_bandwidth(pump)
    if b_filter <= 0 or b_corr <= 0:
        raise NetworkError("degenerate zero-bandwidth input")
    return TWO_PI / min(b_filter, b_corr)
