"""Click and coincidence probabilities of threshold detectors on zero-mean
Gaussian states.

A threshold detector with number operator n_M responds with the POVM
element 1 - :exp(-n_M):, so every probability reduces to normal-ordered
expectations E_S = <:exp(-sum_{M in S} n_M):>.  For a zero-mean Gaussian
state E_S = det(I + G W)^(-1/2) over the doubled moments G of the subset's
weighted eigenmodes.  G is Hermitian and W >= 0, so the determinant is
that of I + W^(1/2) G W^(1/2) and its log is the sum of log1p over that
matrix's eigenvalues: one LAPACK call that keeps ln E_S to relative
precision even when E_S is within 1e-10 of one.  Inclusion-exclusion sums
expm1(ln E_S), whose signs cancel the ones exactly, so coincidence
probabilities as small as ~1e-15 keep their leading digits.

Detector number operators are positive quadratic forms n_M = a^dag Q_M a
over a shared mode register; a weighted mode sum sum_j w_jM a_j^dag a_j
is the diagonal form Q_M = diag(w_M), and delayed two-spool arms enter as
general forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

NEGATIVE_PROBABILITY_FLOOR = -1e-12
WEIGHT_FLOOR = 1e-12
PSD_TOLERANCE = 1e-8


class DetectionError(ValueError):
    """Raised for unphysical moments or invalid detector forms."""


@dataclass(frozen=True)
class ClickQuery:
    """Detector description over a shared mode register.

    Each detector contributes a Hermitian PSD form matrix over the full
    register (diag(w) for a weighted mode sum) and a dark mean.
    """

    forms: dict = field(default_factory=dict)     # name -> Hermitian matrix
    dark_means: dict = field(default_factory=dict)

    def total_form(self, subset, n_modes):
        q = np.zeros((n_modes, n_modes), dtype=complex)
        for name in subset:
            if name not in self.forms:
                raise DetectionError(f"unknown detector {name!r}")
            form = self.forms[name]
            if np.shape(form) != (n_modes, n_modes):
                raise DetectionError(f"form of {name!r} does not match register")
            q += form
        return q

    def dark_sum(self, subset):
        return float(sum(self.dark_means.get(name, 0.0) for name in subset))


def _doubled(normal, anomalous):
    n = normal.shape[0]
    dbl = np.block([[normal, anomalous.conj()],
                    [anomalous, normal.T + np.eye(n)]])
    return 0.5 * (dbl + dbl.conj().T)


def _validate_moments(normal, anomalous):
    n = normal.shape[0]
    if anomalous.shape != (n, n):
        raise DetectionError("normal and anomalous moment shapes differ")
    scale = max(1.0, float(np.max(np.abs(normal))))
    if np.max(np.abs(normal - normal.conj().T)) > 1e-10 * scale:
        raise DetectionError("normal moments are not Hermitian")
    if np.max(np.abs(anomalous - anomalous.T)) > 1e-10 * max(1.0, float(np.max(np.abs(anomalous)))):
        raise DetectionError("anomalous moments are not symmetric")
    # a Cholesky factor of the shifted matrix exists iff its smallest
    # eigenvalue exceeds -PSD_TOLERANCE * scale; the eigenvalue itself is
    # only needed for the message
    shifted = _doubled(normal, anomalous) + PSD_TOLERANCE * scale * np.eye(2 * n)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        minimum = physicality_min_eig(normal, anomalous)
        if minimum < -PSD_TOLERANCE * scale:
            raise DetectionError(
                f"moments violate physicality (min doubled eigenvalue {minimum:.2e})"
            ) from None


def physicality_min_eig(normal, anomalous):
    """Smallest eigenvalue of the doubled matrix [[N, conj(M)], [M, N^T + I]]."""
    return float(np.linalg.eigvalsh(_doubled(normal, anomalous))[0])


def no_click_expectation(normal, anomalous, query, subset, check=True, log=False):
    """E_S = <:exp(-sum_{M in S} n_M):> times the dark factors exp(-mu_M).

    With `log=True` returns ln E_S = -mu - (1/2) log det(I + G W) instead.
    The determinant is taken in the eigenbasis of the subset's total
    quadratic form Q = V W V^dag (zero-weight directions contribute exact
    factors of one and are dropped): with L = V W^(1/2), B = L^T N L* and
    A = L^dag M L*, the Hermitian H = [[B^T, A], [A*, B]] = W^(1/2) G W^(1/2)
    has log det(I + H) = sum log1p(eig(H)).  An eigenvalue at or below -1
    (det <= 0, possible only for unphysical moments) raises DetectionError.
    """
    n = normal.shape[0]
    mu = query.dark_sum(subset)
    if check and subset:
        _validate_moments(normal, anomalous)
    log_e = -mu
    if subset:
        q = query.total_form(subset, n)
        q = 0.5 * (q + q.conj().T)
        vals, vecs = np.linalg.eigh(q)
        if vals[-1] > 1.0 + 1e-9:
            raise DetectionError(f"detection weight {vals[-1]:.6f} exceeds 1")
        keep = vals > WEIGHT_FLOOR
        if np.any(keep):
            root = vecs[:, keep] * np.sqrt(vals[keep])
            # weighted moments of the eigenmodes b_i = sum_m conj(V[m, i]) a_m
            n_b = root.T @ normal @ root.conj()
            m_b = root.conj().T @ anomalous @ root.conj()
            eigs = np.linalg.eigvalsh(np.block([[n_b.T, m_b], [m_b.conj(), n_b]]))
            if eigs[0] <= -1.0:
                raise DetectionError("singular doubled moment matrix (det(I + GW) <= 0)")
            log_e -= 0.5 * float(np.sum(np.log1p(eigs)))
    return log_e if log else math.exp(log_e)


def coincidence_probability(normal, anomalous, query, subset):
    """P(all detectors in `subset` click) by inclusion-exclusion.

    Sums (-1)^|S| expm1(ln E_S), equal to sum (-1)^|S| E_S because the
    signs sum to zero, without cancelling 2^|subset| terms near one.
    Tiny negative results above -1e-12 are clamped to zero; anything lower
    signals a model bug and raises.
    """
    _validate_moments(normal, anomalous)
    subset = tuple(subset)
    terms = []
    for r in range(len(subset) + 1):
        for chosen in combinations(subset, r):
            log_e = no_click_expectation(normal, anomalous, query, chosen,
                                         check=False, log=True)
            terms.append((-1) ** r * math.expm1(log_e))
    total = math.fsum(terms)
    if total < 0.0:
        if total < NEGATIVE_PROBABILITY_FLOOR:
            raise DetectionError(f"coincidence probability {total:.3e} below the "
                                 "roundoff floor; moments are inconsistent")
        total = 0.0
    if total > 1.0 + 1e-9:
        raise DetectionError(f"coincidence probability {total} exceeds 1")
    return min(total, 1.0)


def singles_probability(normal, anomalous, query, detector):
    """1 - E_{detector}: the single-detector click probability."""
    log_e = no_click_expectation(normal, anomalous, query, (detector,), log=True)
    return max(0.0, -math.expm1(log_e))
