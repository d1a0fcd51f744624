"""Click and coincidence probabilities of threshold detectors on zero-mean
Gaussian states.

A threshold detector with number operator n_M responds with the POVM
element 1 - :exp(-n_M):, so every probability reduces to normal-ordered
expectations E_S = <:exp(-sum_{M in S} n_M):>.  For a zero-mean Gaussian
state E_S = det(I + G W)^(-1/2) over the doubled moments G of the subset's
weighted eigenmodes.  G is Hermitian and W >= 0, so the determinant is
that of I + W^(1/2) G W^(1/2) and its log is the sum of log1p over that
matrix's eigenvalues: one LAPACK call that keeps ln E_S to relative
precision even when E_S is within 1e-10 of one.  The part of ln E_S that
is linear in the eigenvalues is taken from the trace, not from their sum.
Inclusion-exclusion over two or more detectors drops both the ones and
that linear part, whose alternating sums are exactly zero, and sums only
the second-order remainders; so coincidence probabilities far below the
size of each E_S - 1 keep their leading digits.  One detector is 1 - E_S.

Detector number operators are positive quadratic forms n_M = a^dag Q_M a
over a shared mode register; a weighted mode sum sum_j w_jM a_j^dag a_j
is the diagonal form Q_M = diag(w_M), and delayed two-spool arms enter as
general forms.  A ClickQuery is checked once, when built, and splits its
detectors into groups whose forms share no register mode (ports {A, B},
herald C, herald D in the scan); each group part's form is factored once
per query; the moments of every engine call are checked, once per query
and state, and the query keeps (ln E_S, eigs) of each subset it has
evaluated on the state it last accepted, so a subset is evaluated once
per state.  Pair sources are phase-insensitive across their two bands:
pair amplitude joins only the Stokes and anti-Stokes sides, and normal
moments only modes of one side.  Where a subset's group parts fall on the
two sides so, its 2r x 2r doubled matrix is unitarily the direct sum of a
half-size r x r matrix and its conjugate, and one spectrum of size r
serves twice; a subset whose modes carry no pair amplitude is the
one-sided case, the spectrum of its normal block.  One builder makes the
pair matrix [[N^T, M], [M*, N + v I]]: v = 1 (the conjugate of the doubled
moment matrix) for the state check, v = 0 for a subset that does not split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, combinations

import numpy as np

NEGATIVE_PROBABILITY_FLOOR = -1e-12
WEIGHT_FLOOR = 1e-12
PSD_TOLERANCE = 1e-8


class DetectionError(ValueError):
    """Raised for unphysical moments or invalid detector forms."""


@dataclass(frozen=True, eq=False)
class ClickQuery:
    """Detector description over a shared mode register.

    Each detector has a Hermitian PSD form over the full register (diag(w)
    for a weighted mode sum) and may have a dark mean.  Construction copies
    the forms, checks them and the dark means once, and splits the detectors
    into groups whose forms share no register mode.  Each group's summed
    form over a subset's detectors is factored on first use, by one eigh on
    the group's support block, and kept; a subset's weighted modes are its
    groups' factors side by side (exact: the supports are disjoint).  It
    keys the last state it accepted by the shape, dtype and bytes of N and
    M, so a state is checked once, and keeps each subset's (ln E_S, eigs)
    on that state, by its set of names, so a subset is evaluated once.
    """

    forms: dict = field(default_factory=dict)     # name -> Hermitian matrix
    dark_means: dict = field(default_factory=dict)
    n_modes: int = field(default=0, init=False)   # register size of every form
    # (support indices, sorted names) per group; group part -> V W^(1/2)
    _groups: list = field(init=False, repr=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False)
    # [key of the last accepted (N, M), {frozenset(subset): (ln E_S, eigs)} on it]
    _state: list = field(default_factory=lambda: [None, {}], init=False, repr=False)

    def __post_init__(self):
        forms = {name: np.array(form) for name, form in self.forms.items()}
        n_modes = next((form.shape[0] for form in forms.values() if form.ndim), 0)
        groups = []                                   # (support modes, names)
        for name, form in forms.items():
            if form.shape != (n_modes, n_modes):
                raise DetectionError(f"form of {name!r} does not match register of {n_modes} modes")
            scale = np.abs(form).max(initial=1.0)    # NaN or inf for a non-finite form
            if not (np.isfinite(scale) and np.all(np.abs(form - form.conj().T) <= 1e-10 * scale)):
                raise DetectionError(f"form of {name!r} is not a finite Hermitian matrix")
            form.flags.writeable = False
            nonzero = form != 0
            support = set(np.flatnonzero((nonzero | nonzero.T).any(axis=0)).tolist())
            names = {name}
            for group in [g for g in groups if not support.isdisjoint(g[0])]:
                groups.remove(group)
                support, names = support | group[0], names | group[1]
            groups.append((support, names))
        dark_means = {name: float(mu) for name, mu in self.dark_means.items()}
        for name, mu in dark_means.items():
            if name not in forms or not 0.0 <= mu < math.inf:
                raise DetectionError(f"dark mean {mu} of {name!r} must be finite, >= 0 and name a form")
        self.__dict__.update(forms=forms, dark_means=dark_means, n_modes=n_modes, _groups=[
            (np.array(sorted(support), dtype=int), sorted(names)) for support, names in groups])

    def weighted_modes(self, subset):
        """Columns sqrt(w_i) v_i over the eigenpairs (w_i > WEIGHT_FLOOR, v_i)
        of the subset's total form Q = sum_{M in S} Q_M, one group part after
        another in group order, and the index of each part's first column."""
        if unknown := set(subset).difference(self.forms):
            raise DetectionError(f"unknown detector {unknown.pop()!r}")
        roots = [self._factor(idx, part) for idx, names in self._groups
                 if (part := tuple(name for name in names if name in subset))]
        if not roots:
            return np.zeros((self.n_modes, 0)), [0]
        return (np.concatenate(roots, axis=1),
                list(accumulate((root.shape[1] for root in roots[:-1]), initial=0)))

    def _factor(self, idx, part):
        """Weighted modes of the summed form of `part`, detectors of one
        group, from one eigh on the group's support block `idx`."""
        if part not in self._factors:
            vals, vecs = np.linalg.eigh(sum(self.forms[name][idx[:, None], idx] for name in part))
            if vals.size and vals[-1] > 1.0 + 1e-9:
                raise DetectionError(f"detection weight {vals[-1]:.6f} exceeds 1")
            if vals.size and vals[0] < -1e-9:
                raise DetectionError(f"detection weight {vals[0]:.3e} is negative")
            keep = vals > WEIGHT_FLOOR
            root = np.zeros((self.n_modes, np.count_nonzero(keep)), dtype=complex)
            root[idx] = vecs[:, keep] * np.sqrt(vals[keep])
            self._factors[part] = root
        return self._factors[part]

    def dark_sum(self, subset):
        return float(sum(self.dark_means.get(name, 0.0) for name in subset))


def _pair_matrix(normal, anomalous, vacuum, shift=0.0):
    """The lower triangle, all that cholesky and eigvalsh read, of the
    Hermitian pair matrix [[N^T, M], [M*, N + vacuum I]] + shift I."""
    n = normal.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = normal.T
    out[n:, :n] = anomalous.conj()
    out[n:, n:] = normal
    out.flat[::2 * n + 1] += shift
    out.flat[n * (2 * n + 1)::2 * n + 1] += vacuum
    return out


def _validate_moments(normal, anomalous, query):
    """Reject an unphysical state unless it has the shape, dtype and bytes of
    the last one `query` accepted; return the query's results on the state."""
    key = tuple((a.shape, a.dtype.str, a.tobytes()) for a in (normal, anomalous))
    if query._state[0] == key:                # one memcmp per array, no hash
        return query._state[1]
    if normal.shape != (query.n_modes,) * 2 or anomalous.shape != normal.shape:
        raise DetectionError(f"query of {query.n_modes} modes does not match register of "
                             f"moments {normal.shape}, {anomalous.shape}")
    scale, m_scale = (np.abs(a).max(initial=1.0) for a in (normal, anomalous))
    if not np.isfinite(scale + m_scale):                 # NaN or inf for non-finite moments
        raise DetectionError("moments are not finite")
    if np.abs(normal - normal.conj().T).max(initial=0.0) > 1e-10 * scale:
        raise DetectionError("normal moments are not Hermitian")
    if np.abs(anomalous - anomalous.T).max(initial=0.0) > 1e-10 * m_scale:
        raise DetectionError("anomalous moments are not symmetric")
    # a Cholesky factor of the shifted matrix exists iff its smallest
    # eigenvalue exceeds -PSD_TOLERANCE * scale; the eigenvalue itself is
    # only needed for the message
    try:
        np.linalg.cholesky(_pair_matrix(normal, anomalous, 1.0, PSD_TOLERANCE * scale))
    except np.linalg.LinAlgError:
        minimum = physicality_min_eig(normal, anomalous)
        if minimum < -PSD_TOLERANCE * scale:
            raise DetectionError(
                f"moments violate physicality (min doubled eigenvalue {minimum:.2e})"
            ) from None
    query._state[:] = key, {}
    return query._state[1]


def _names(subset):
    """The detector names of `subset` as a tuple; DetectionError for a name given twice."""
    subset = tuple(subset)
    if len(set(subset)) < len(subset):
        repeated = next(name for name in subset if subset.count(name) > 1)
        raise DetectionError(f"detector {repeated!r} is named twice in subset {subset}")
    return subset


def physicality_min_eig(normal, anomalous):
    """Smallest eigenvalue of the doubled matrix [[N, conj(M)], [M, N^T + I]],
    that of its conjugate, the pair matrix with vacuum 1."""
    return float(np.linalg.eigvalsh(_pair_matrix(normal, anomalous, 1.0))[0])


def _pair_spectrum(n_b, m_b, starts):
    """Spectrum of H = [[n_b^T, m_b], [m_b*, n_b]], by halves where it splits.

    With no pair amplitude, H = diag(n_b^T, n_b) and eig(H) is eig(n_b)
    twice.  Otherwise, if a cut at the start of a group part (`starts`)
    puts the columns before it on one side and the rest on the other, with
    n_b joining only columns of one side and m_b only columns of opposite
    sides, then H is unitarily diag(K, conj(K)) with
    K = [[n_11^T, m_12], [m_12^dag, n_22]], and eig(H) is eig(K) twice; K is
    n_b + conj(m_b) with the first side's rows conjugated.  Where no cut
    splits H (single-mode squeezing, or a part whose modes hold both
    sides), H is diagonalised whole.
    """
    if not m_b.any():
        return np.repeat(np.linalg.eigvalsh(n_b), 2)
    for cut in starts[1:]:
        if not (m_b[:cut, :cut].any() or m_b[cut:, cut:].any() or n_b[:cut, cut:].any()):
            half = n_b + m_b.conj()
            half[:cut] = half[:cut].conj()
            return np.repeat(np.linalg.eigvalsh(half), 2)
    return np.linalg.eigvalsh(_pair_matrix(n_b, m_b, 0.0))


def no_click_expectation(normal, anomalous, query, subset, log=False):
    """E_S = <:exp(-sum_{M in S} n_M):> times the dark factors exp(-mu_M).

    With `log=True` returns (ln E_S, eigs) instead, with
    ln E_S = -mu - (1/2) log det(I + G W) = -mu - (1/2) sum log1p(eigs)
    (eigs is empty for an empty or zero-weight subset).  The determinant
    is taken in the eigenbasis of the subset's total quadratic form
    Q = V W V^dag, which the query factors per detector group (zero-weight
    directions contribute exact factors of one and are dropped): with
    L = V W^(1/2), B = L^T N L* and A = L^dag M L*, the Hermitian
    H = [[B^T, A], [A*, B]] = W^(1/2) G W^(1/2) has
    log det(I + H) = sum log1p(eig(H)).  Where the group parts fall on two
    sides that A joins only across and B only within (the Stokes and
    anti-Stokes bands of pair sources), eig(H) is the spectrum of one
    half-size matrix, twice (`_pair_spectrum`).  The part of the sum that
    is linear in the eigenvalues is taken from the trace,
    sum eigs = tr H = 2 Re tr B, so
    ln E_S = -mu - Re tr B - (1/2) sum (log1p(eigs) - eigs).  An eigenvalue
    at or below -1 (det <= 0, possible only for unphysical moments) raises
    DetectionError; so do moments that fail the check of `_validate_moments`,
    and a subset that names a detector twice.  The query keeps the pair for
    each set of names on the state it last accepted, so a subset given
    again, in any order, returns the same pair; eigs is read-only.
    """
    results = _validate_moments(normal, anomalous, query)
    subset = _names(subset)
    if (key := frozenset(subset)) not in results:
        log_e = -query.dark_sum(subset)
        eigs = np.empty(0)
        if subset:
            root, starts = query.weighted_modes(subset)
            if root.shape[1]:
                # weighted moments of the eigenmodes b_i = sum_m conj(V[m, i]) a_m
                conj = root.conj()
                n_b = root.T @ normal @ conj
                m_b = conj.T @ anomalous @ conj
                eigs = _pair_spectrum(n_b, m_b, starts)
                if eigs[0] <= -1.0:
                    raise DetectionError("singular doubled moment matrix (det(I + GW) <= 0)")
                log_e -= float(n_b.trace().real + 0.5 * (np.log1p(eigs) - eigs).sum())
        eigs.flags.writeable = False
        results[key] = log_e, eigs
    log_e, eigs = results[key]
    return (log_e, eigs) if log else math.exp(log_e)


# Taylor coefficients c_2, c_3, ... of expm1(x) - x and of log1p(x) - x,
# enough that the first dropped term is below 1e-16 of the sum for |x| < 0.1
_SERIES_RADIUS = 0.1
_EXPM1_SERIES = tuple(1.0 / math.factorial(k) for k in range(2, 12))
_LOG1P_SERIES = tuple((-1.0) ** (k + 1) / k for k in range(2, 18))


def _minus_identity(function, series, x):
    """function(x) - x, by a Horner series of `series` where |x| < 0.1, so
    that small arguments keep their relative precision."""
    small = np.abs(x) < _SERIES_RADIUS
    xs = np.where(small, x, 0.0)
    acc = np.zeros_like(xs)
    for c in reversed(series):
        acc = acc * xs + c
    return np.where(small, acc * xs * xs, function(x) - x)


def coincidence_probability(normal, anomalous, query, subset):
    """P(all detectors in `subset` click) by inclusion-exclusion.

    P = sum_S (-1)^|S| expm1(ln E_S), equal to sum (-1)^|S| E_S because the
    signs sum to zero.  With eigenvalues l and normal block B_S of subset S,
    ln E_S = -mu_S - Re tr B_S + (1/2) r_S, r_S = -sum (log1p(l) - l); the
    first two terms are additive over detectors, so over two or more
    detectors their alternating sum is exactly zero and
    P = sum_S (-1)^|S| [psi(ln E_S) + r_S / 2], psi(x) = expm1(x) - x.  Each
    term is second order in the eigenvalues, not first, so the cancellation
    between the 2^|subset| terms costs that much less precision.  A single
    detector is `singles_probability`.
    Tiny negative results above -1e-12 are clamped to zero; anything lower
    signals a model bug and raises.
    """
    _validate_moments(normal, anomalous, query)
    subset = _names(subset)
    if not subset:
        return 1.0  # every detector of an empty set clicks
    if len(subset) == 1:
        return singles_probability(normal, anomalous, query, *subset)
    signs, logs, eigs = [], [], []
    for r in range(len(subset) + 1):
        for chosen in combinations(subset, r):
            log_e, lam = no_click_expectation(normal, anomalous, query, chosen, log=True)
            signs.append((-1) ** r)
            logs.append(log_e)
            eigs.append(lam)
    owner = np.repeat(np.arange(len(eigs)), [lam.size for lam in eigs])
    lam = np.concatenate(eigs)
    remainder = -np.bincount(owner, weights=_minus_identity(np.log1p, _LOG1P_SERIES, lam),
                             minlength=len(eigs))
    terms = np.array(signs, float) * (_minus_identity(np.expm1, _EXPM1_SERIES, np.array(logs))
                                      + 0.5 * remainder)
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
    log_e, _ = no_click_expectation(normal, anomalous, query, (detector,), log=True)
    return max(0.0, -math.expm1(log_e))
