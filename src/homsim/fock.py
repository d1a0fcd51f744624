"""Truncated-Fock-space oracle for validating the Gaussian click engine.

States on up to four modes are built by brute force: diagonal preparations
(thermal mixtures, Fock states; at most one per mode, before any gate acts
on it) followed by Gaussian gates (two-mode squeezers, beamsplitters, phase
shifts, single-mode squeezers) applied as exponentials of the truncated
generators.  Each generator conserves a quantum number of its modes:
n1 + n2 for a beamsplitter, n1 - n2 for a two-mode squeezer, n mod 2 for a
single-mode squeezer.  It couples no two Fock indices of different label,
so its exponential is exactly the direct sum of those of its blocks, each
of size <= cutoff.  A gate of strength theta and phase phi has the
generator theta D G D^dag, where G is its kind's generator at unit strength
and phase 0 and D = exp(i phi N) for a diagonal number operator N (n1 for a
beamsplitter, n/2 for a single-mode squeezer, 0 for a two-mode squeezer).
G is anti-Hermitian, so each block of the Hermitian iG = V diag(lambda) V^dag
is diagonalised once per cutoff, and every gate's block is
D V diag(exp(-i theta lambda)) V^dag D^dag: exact on the truncated space,
since N is diagonal in the Fock basis.  Still brute force, with no closed
form shared with the Gaussian engine.  Because the preparation
rho_0 = sum_n p_n |n><n| is diagonal, the evolved diagonal is
sum_n p_n |U e_n|^2: only the basis kets with p_n above eps * max(p) are
evolved, one-sided, and the weight they drop is counted in the capture
check together with the thermal tail beyond the cutoff.  The diagonal is
shaped (cutoff,) * n_modes, one axis per mode, and threshold-detector
expectations contract each axis with

    <n| :exp(-w a^dag a): |n> = (1 - w)^n.

The same op list converts to (N, M) moments analytically, each gate one
symplectic map of the doubled moment matrix, which is what the Gaussian
engine consumes; agreement between the two paths validates both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from .detection import ClickQuery, no_click_expectation

TRACE_CAPTURE = 1.0 - 1e-9
# Most evolved weight on any mode's top Fock level.  Random sweeps of 1200
# states (seeds 0, 7, 11) put at most 4.4e-7 there at cutoff 12, 4.2e-8 at 14.
TOP_LEVEL_WEIGHT = 1e-3
MAX_MODES = 4
MAX_CUTOFF = 40
# Most amplitudes (kets x joint Fock indices) evolved at once: 16 MiB
MAX_CHUNK_AMPLITUDES = 2 ** 20


class FockOracleError(ValueError):
    """Raised when the truncation cannot represent the requested state."""


def _check_preparations(spec):
    """Prepare each mode at most once, before any gate acts on it: the Fock
    path prepares before all gates, the moments path in list order."""
    touched = set()
    for op in spec:
        if op[0] in ("thermal", "fock") and op[1] in touched:
            raise FockOracleError(f"{op!r}: mode {op[1]} is already prepared or gated")
        touched.update(np.ravel(op[1]).tolist())


def _initial_weights(spec, n_modes, cutoff):
    """Joint Fock weights p_n of the diagonal preparation (others vacuum)."""
    ns = np.arange(cutoff)
    parts = [np.eye(cutoff)[0] for _ in range(n_modes)]
    for op in spec:
        if op[0] == "thermal":
            _, mode, nbar = op
            parts[mode] = (nbar / (1 + nbar)) ** ns / (1 + nbar)
        elif op[0] == "fock":
            _, mode, n_ph = op
            if n_ph >= cutoff:
                raise FockOracleError("Fock state above the cutoff")
            parts[mode] = np.eye(cutoff)[n_ph]
    p = parts[0]
    for part in parts[1:]:
        p = np.kron(p, part)
    return p


@lru_cache
def _generator_blocks(cutoff):
    """Per gate kind, its phase operator N and the spectra of its generator's
    conserved blocks at unit strength and phase 0.

    (N, [(index sets (m, b), (eigenvalues (m, b), eigenvectors (m, b, b)))]),
    one entry per block size b, the m blocks of that size stacked, from one
    batched `eigh` of the Hermitian iG.  An index is the joint Fock index
    n1 * cutoff + n2 of the gate's modes (n for one mode), and N is diagonal
    over it.  Built on a cutoff's first use, so `import homsim` pays nothing.
    """
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    ad = a.T
    ad2 = ad @ ad
    n = np.arange(cutoff)
    n1, n2 = np.divmod(np.arange(cutoff ** 2), cutoff)
    kinds = {"tmsv": (n1 - n2, np.kron(ad, ad) - np.kron(a, a), np.zeros(cutoff ** 2)),
             "bs": (n1 + n2, np.kron(ad, a) - np.kron(a, ad), n1),
             "squeeze": (n % 2, 0.5 * (ad2 - ad2.T), n / 2)}
    out = {}
    for kind, (labels, gen, number) in kinds.items():
        sets = [np.flatnonzero(labels == label) for label in np.unique(labels)]
        stacks = [np.array([i for i in sets if i.size == size])
                  for size in sorted({i.size for i in sets})]
        out[kind] = number, [(idx, np.linalg.eigh(1j * gen[idx[:, :, None], idx[:, None, :]]))
                             for idx in stacks]
    return out


# (modes, strength theta, phase phi) of each gate kind's op arguments
_GATE_ARGS = {"tmsv": lambda pair, nbar: (pair, np.arcsinh(np.sqrt(nbar)), 0.0),
              "bs": lambda pair, theta, phi: (pair, theta, phi),
              "squeeze": lambda mode, r, phi: ((mode,), r, phi)}


def _gates(spec, cutoff):
    """(modes, gate) per gate op, over the joint Fock index of its modes.

    A phase gate is its diagonal.  Any other gate is a list of (index sets
    (m, b), unitary blocks (m, b, b)), each block D V diag(exp(-i theta
    lambda)) V^dag D^dag from the spectra `_generator_blocks` keeps, with
    D = exp(i phi N) restricted to the block: no `eigh` after a cutoff's
    first use.
    """
    spectra = _generator_blocks(cutoff)
    for kind, *args in spec:
        if kind == "phase":
            mode, theta = args
            yield (mode,), np.exp(1j * theta * np.arange(cutoff))
        elif kind in _GATE_ARGS:
            modes, theta, phi = _GATE_ARGS[kind](*args)
            number, blocks = spectra[kind]
            gate = []
            for idx, (lam, v) in blocks:
                dv = np.exp(1j * phi * number[idx])[:, :, None] * v
                gate.append((idx, (dv * np.exp(-1j * theta * lam)[:, None, :])
                             @ dv.conj().transpose(0, 2, 1)))
            yield modes, gate
        elif kind not in ("thermal", "fock"):
            raise FockOracleError(f"unknown state op {kind!r}")


def fock_state_diagonal(spec, n_modes, cutoff):
    """Diagonal of U rho_0 U^dag in the joint Fock basis, shaped
    (cutoff,) * n_modes: axis i holds mode i's occupation.

    rho_0 = sum_n p_n |n><n| is diagonal, so the diagonal is
    sum_n p_n |U e_n|^2: the basis kets with p_n > eps * max(p) are evolved
    in (d, k) chunks of at most MAX_CHUNK_AMPLITUDES amplitudes, each gate
    applied one-sided and block by block.  A block mixes, for each
    occupation of the other modes, only the joint rows its index set picks,
    and no other block of the gate reads or writes them, so each block
    updates its rows in place.

    Rejects truncations capturing less than 1 - 1e-9 of the trace before
    evolution; the lost weight counts the thermal tail beyond the cutoff
    and the kets below the eps floor (at most d * eps).  The truncated
    generators are anti-Hermitian, so the trace is conserved: weight the gates
    push against the cutoff shows on the top Fock level, and more than
    TOP_LEVEL_WEIGHT there on any mode is rejected.
    """
    if n_modes > MAX_MODES:
        raise FockOracleError(f"oracle supports at most {MAX_MODES} modes")
    if cutoff > MAX_CUTOFF:
        raise FockOracleError(f"oracle cutoff capped at {MAX_CUTOFF}")
    _check_preparations(spec)
    p = _initial_weights(spec, n_modes, cutoff)
    kept = np.flatnonzero(p > np.finfo(float).eps * p.max())
    if p[kept].sum() < TRACE_CAPTURE:
        raise FockOracleError(
            f"truncation loses {1 - p[kept].sum():.3e} of the initial weight "
            "(thermal tail beyond the cutoff)")
    shape = (cutoff,) * n_modes
    index = np.arange(p.size).reshape(shape)
    gates = list(_gates(spec, cutoff))
    diag = np.zeros(p.size)
    per_chunk = max(1, MAX_CHUNK_AMPLITUDES // p.size)
    for start in range(0, kept.size, per_chunk):
        chunk = kept[start:start + per_chunk]
        psi = np.zeros((p.size, chunk.size), dtype=complex)
        psi[chunk, np.arange(chunk.size)] = 1.0
        for modes, gate in gates:
            if isinstance(gate, np.ndarray):
                phased = np.moveaxis(psi.reshape(shape + (-1,)), modes[0], -1)
                phased *= gate
                continue
            # joint rows by (local index of the gate's modes, occupation of the others)
            table = np.moveaxis(index, modes, range(len(modes))).reshape(cutoff ** len(modes), -1)
            for idx, block in gate:
                rows = table[idx]
                moved = block @ np.take(psi, rows, axis=0).reshape(idx.shape + (-1,))
                psi[rows] = moved.reshape(rows.shape + (-1,))
        diag += (np.abs(psi) ** 2) @ p[chunk]
    diag = diag.reshape(shape)
    top = np.array([diag.take(cutoff - 1, axis=k).sum() for k in range(n_modes)])
    if top.max() > TOP_LEVEL_WEIGHT:
        raise FockOracleError(
            f"truncation leaves {top.max():.3e} of the weight on mode {top.argmax()}'s "
            "top Fock level; raise the cutoff or lower the occupations")
    return diag


def expectation_from_diagonal(diag, weights, dark_sum=0.0):
    """<:exp(-sum_i w_i n_i):> e^{-mu} from a shaped Fock diagonal: each mode
    axis, last first, contracted with <n|:exp(-w a^dag a):|n> = (1 - w)^n."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (diag.ndim,):
        raise FockOracleError(f"{w.size} weights for a diagonal on {diag.ndim} modes")
    total = diag
    for w_i, size in zip(w[::-1], diag.shape[::-1]):
        total = total @ (1.0 - w_i) ** np.arange(size)
    return float(np.exp(-dark_sum) * total)


def fock_oracle_click_probability(diag, weight_sets, subset, dark_means=None):
    """P(all detectors in `subset` click) from a shaped Fock diagonal, by
    inclusion-exclusion over no-click expectations; detectors are weight
    vectors, one weight per mode axis."""
    dark_means = dark_means or {}
    total = 0.0
    for r in range(len(subset) + 1):
        for chosen in combinations(subset, r):
            w = sum((np.asarray(weight_sets[name], dtype=float) for name in chosen),
                    np.zeros(diag.ndim))
            mu = sum(dark_means.get(name, 0.0) for name in chosen)
            total += (-1) ** r * expectation_from_diagonal(diag, w, mu)
    return max(0.0, float(total))


def moments_from_state_spec(spec, n_modes):
    """(N, M) moments generated by the same op list, for the Gaussian engine.

    With A = (a; a^dag), the state is Gamma = <A A^dag> = [[N^T + I, M],
    [conj(M), N]].  A gate maps a'_i = sum_j U[i,j] a_j + V[i,j] a_j^dag,
    i.e. A' = S A with S = [[U, V], [conj(V), conj(U)]], so
    Gamma' = S Gamma S^dag.
    """
    _check_preparations(spec)
    eye = np.eye(n_modes)
    gamma = np.diag(np.repeat([1.0 + 0j, 0.0], n_modes))
    for op in spec:
        kind = op[0]
        u = eye.astype(complex)
        v = np.zeros((n_modes, n_modes), dtype=complex)
        if kind == "thermal":
            _, mode, nbar = op
            gamma[[mode, n_modes + mode], [mode, n_modes + mode]] += nbar
            continue
        elif kind == "fock":
            raise FockOracleError("Fock preparations are not Gaussian")
        elif kind == "tmsv":
            _, (i, j), nbar = op
            r = np.arcsinh(np.sqrt(nbar))
            u[i, i] = u[j, j] = np.cosh(r)
            v[i, j] = v[j, i] = np.sinh(r)
        elif kind == "bs":
            _, (i, j), theta, phi = op
            u[i, i] = u[j, j] = np.cos(theta)
            u[i, j] = np.exp(1j * phi) * np.sin(theta)
            u[j, i] = -np.exp(-1j * phi) * np.sin(theta)
        elif kind == "phase":
            _, mode, theta = op
            u[mode, mode] = np.exp(1j * theta)
        elif kind == "squeeze":
            _, mode, r, phi = op
            u[mode, mode] = np.cosh(r)
            v[mode, mode] = np.exp(1j * phi) * np.sinh(r)
        else:
            raise FockOracleError(f"unknown state op {kind!r}")
        s = np.block([[u, v], [v.conj(), u.conj()]])
        gamma = s @ gamma @ s.conj().T
    n, m = gamma[n_modes:, n_modes:], gamma[:n_modes, n_modes:]
    return 0.5 * (n + n.conj().T), 0.5 * (m + m.T)


def random_equivalence_comparison(n_states=200, seed=7, cutoff=12):
    """Max |engine - oracle| over random few-mode Gaussian states.

    Draws low-occupation states from thermal + two-mode-squeezed + passive
    layers, compares every detector-subset no-click expectation between the
    Gaussian determinant engine and the Fock oracle, and returns the worst
    absolute deviation together with the number of comparisons.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    for idx in range(n_states):
        n_modes = 3 if idx % 4 == 0 else 2
        spec = []
        for mode in range(n_modes):
            if rng.random() < 0.7:
                spec.append(("thermal", mode, float(rng.uniform(0.005, 0.08))))
        pairs = [(0, 1)] if n_modes == 2 else [(0, 1), (1, 2), (0, 2)]
        spec.append(("tmsv", pairs[rng.integers(len(pairs))],
                     float(rng.uniform(0.01, 0.08))))
        for _ in range(rng.integers(1, 3)):
            i, j = rng.permutation(n_modes)[:2]
            spec.append(("bs", (int(i), int(j)),
                         float(rng.uniform(0, np.pi)), float(rng.uniform(0, 2 * np.pi))))
        if rng.random() < 0.5:
            spec.append(("phase", int(rng.integers(n_modes)),
                         float(rng.uniform(0, 2 * np.pi))))
        weight_sets = {}
        for k in range(n_modes):
            w = np.zeros(n_modes)
            w[k] = rng.uniform(0.05, 1.0)
            weight_sets[f"D{k}"] = w
        n_mat, m_mat = moments_from_state_spec(spec, n_modes)
        diag = fock_state_diagonal(spec, n_modes, cutoff)
        query = ClickQuery(forms={k: np.diag(w) for k, w in weight_sets.items()})
        names = sorted(weight_sets)
        for r in range(len(names) + 1):
            for subset in combinations(names, r):
                engine = no_click_expectation(n_mat, m_mat, query, subset)
                w = sum((weight_sets[name] for name in subset), np.zeros(n_modes))
                oracle = expectation_from_diagonal(diag, w)
                worst = max(worst, abs(engine - oracle))
                checked += 1
    return worst, checked
