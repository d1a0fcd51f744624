"""Click and coincidence probabilities of threshold detectors on zero-mean
Gaussian states.

A threshold detector with number operator n_M responds with the POVM
element 1 - :exp(-n_M):, so every probability reduces to normal-ordered
expectations E_S = <:exp(-sum_{M in S} n_M):>.  For a zero-mean Gaussian
state these are exact determinants over the doubled moment matrix; here
they are evaluated through a log-determinant that tracks the departure of
each pivot from unity, which keeps the 2^|S| inclusion-exclusion sums
accurate for coincidence probabilities as small as ~1e-15.

Detector number operators are positive quadratic forms n_M = a^dag Q_M a
over a shared mode register; a weighted mode sum sum_j w_jM a_j^dag a_j
is the diagonal form Q_M = diag(w_M), and delayed two-spool arms enter as
general forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

NEGATIVE_PROBABILITY_FLOOR = -1e-12
WEIGHT_FLOOR = 1e-12
PSD_TOLERANCE = 1e-8


class DetectionError(ValueError):
    """Raised for unphysical moments or invalid detector forms."""


def logdet_one_plus(x):
    """log |det(I + X)| with pivots accumulated via log1p.

    Gaussian elimination with partial pivoting on I + X, keeping each
    pivot's departure from 1 explicit; accurate to ~1e-17 absolute in the
    log when ||X|| is small, which is what the alternating click sums need.
    """
    n = x.shape[0]
    b = np.eye(n, dtype=complex) + x
    total = 0.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(b[k:, k])))
        if p != k:
            b[[k, p], :] = b[[p, k], :]
        piv = b[k, k]
        if piv == 0:
            raise DetectionError("singular doubled moment matrix (det = 0)")
        dep = piv - 1.0
        if abs(dep) < 0.5:
            # Re log(1 + dep) through a real log1p keeps ~1e-17 absolute accuracy
            total += 0.5 * np.log1p(2.0 * dep.real + abs(dep) ** 2)
        else:
            total += np.log(abs(piv))
        if k + 1 < n:
            b[k + 1:, k] /= piv
            b[k + 1:, k + 1:] -= np.outer(b[k + 1:, k], b[k, k + 1:])
    return total


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


def _validate_moments(normal, anomalous, psd=False):
    n = normal.shape[0]
    if anomalous.shape != (n, n):
        raise DetectionError("normal and anomalous moment shapes differ")
    scale = max(1.0, float(np.max(np.abs(normal))))
    if np.max(np.abs(normal - normal.conj().T)) > 1e-10 * scale:
        raise DetectionError("normal moments are not Hermitian")
    if np.max(np.abs(anomalous - anomalous.T)) > 1e-10 * max(1.0, float(np.max(np.abs(anomalous)))):
        raise DetectionError("anomalous moments are not symmetric")
    if psd:
        minimum = physicality_min_eig(normal, anomalous)
        if minimum < -PSD_TOLERANCE * scale:
            raise DetectionError(
                f"moments violate physicality (min doubled eigenvalue {minimum:.2e})")


def physicality_min_eig(normal, anomalous):
    """Smallest eigenvalue of the doubled matrix [[N, conj(M)], [M, N^T + I]]."""
    n = normal.shape[0]
    dbl = np.block([[normal, anomalous.conj()],
                    [anomalous, normal.T + np.eye(n)]])
    dbl = 0.5 * (dbl + dbl.conj().T)
    return float(np.linalg.eigvalsh(dbl)[0])


def no_click_expectation(normal, anomalous, query, subset, check=True):
    """E_S = <:exp(-sum_{M in S} n_M):> times the dark factors exp(-mu_M).

    Evaluated as det(I + C Q)^(-1/2) on the doubled moment matrix, in the
    eigenbasis of the subset's total quadratic form (zero-weight directions
    contribute exact factors of one and are dropped).
    """
    n = normal.shape[0]
    mu = query.dark_sum(subset)
    if not subset:
        return float(np.exp(-mu))
    if check:
        _validate_moments(normal, anomalous, psd=True)
    q = query.total_form(subset, n)
    q = 0.5 * (q + q.conj().T)
    vals, vecs = np.linalg.eigh(q)
    if vals[-1] > 1.0 + 1e-9:
        raise DetectionError(f"detection weight {vals[-1]:.6f} exceeds 1")
    keep = vals > WEIGHT_FLOOR
    if not np.any(keep):
        return float(np.exp(-mu))
    w = vals[keep]
    v = vecs[:, keep]
    # moments in the eigenmodes b_i = sum_m conj(v[m,i]) a_m
    n_r = v.conj().T @ normal @ v
    m_r = v.conj().T @ anomalous @ v.conj()
    x = np.block([[n_r.T * w[None, :], m_r * w[None, :]],
                  [m_r.conj() * w[None, :], n_r * w[None, :]]])
    ld = logdet_one_plus(x)
    return float(np.exp(-mu - 0.5 * ld))


def coincidence_probability(normal, anomalous, query, subset):
    """P(all detectors in `subset` click) by inclusion-exclusion.

    Tiny negative results above -1e-12 are clamped to zero; anything lower
    signals a model bug and raises.
    """
    _validate_moments(normal, anomalous, psd=True)
    subset = tuple(subset)
    total = 0.0
    for r in range(len(subset) + 1):
        for chosen in combinations(subset, r):
            total += (-1) ** r * no_click_expectation(normal, anomalous, query,
                                                      chosen, check=False)
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
    e1 = no_click_expectation(normal, anomalous, query, (detector,))
    return max(0.0, 1.0 - e1)

