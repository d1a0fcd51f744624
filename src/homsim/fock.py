"""Truncated-Fock-space oracle for validating the Gaussian click engine.

States on up to four modes are built by brute force: diagonal preparations
(thermal mixtures, Fock states) followed by Gaussian gates (two-mode
squeezers, beamsplitters, phase shifts, single-mode squeezers) applied as
matrix exponentials on the truncated space.  Threshold-detector
expectations then use

    <n| :exp(-w a^dag a): |n> = (1 - w)^n,

so <:exp(-sum w_i n_i):> is a weighted sum over the evolved density-matrix
diagonal.  The same op list converts to (N, M) moments analytically, which
is what the Gaussian engine consumes; agreement between the two paths
validates both.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.linalg import expm

TRACE_CAPTURE = 1.0 - 1e-9
MAX_MODES = 4
MAX_CUTOFF = 40


class FockOracleError(ValueError):
    """Raised when the truncation cannot represent the requested state."""


def _ladder(cutoff):
    a = np.zeros((cutoff, cutoff))
    n = np.arange(1, cutoff)
    a[n - 1, n] = np.sqrt(n)
    return a


def _apply_one_mode(rho, gate, mode, n_modes, cutoff):
    dims = [cutoff] * n_modes
    r = rho.reshape(dims + dims)
    r = np.tensordot(gate, r, axes=([1], [mode]))
    r = np.moveaxis(r, 0, mode)
    r = np.tensordot(r, gate.conj().T, axes=([n_modes + mode], [0]))
    r = np.moveaxis(r, -1, n_modes + mode)
    return r.reshape(cutoff**n_modes, cutoff**n_modes)


def _apply_two_mode(rho, gate, pair, n_modes, cutoff):
    i, j = pair
    dims = [cutoff] * n_modes
    g = gate.reshape(cutoff, cutoff, cutoff, cutoff)
    r = rho.reshape(dims + dims)
    r = np.tensordot(g, r, axes=([2, 3], [i, j]))
    r = np.moveaxis(r, [0, 1], [i, j])
    gd = gate.conj().T.reshape(cutoff, cutoff, cutoff, cutoff)
    r = np.tensordot(r, gd, axes=([n_modes + i, n_modes + j], [0, 1]))
    r = np.moveaxis(r, [-2, -1], [n_modes + i, n_modes + j])
    return r.reshape(cutoff**n_modes, cutoff**n_modes)


def _prepare_diagonal(spec, n_modes, cutoff):
    """Initial density matrix from thermal/fock entries (others start vacuum)."""
    ns = np.arange(cutoff)
    parts = []
    for mode in range(n_modes):
        p = np.zeros((cutoff, cutoff))
        p[0, 0] = 1.0
        parts.append(p)
    for op in spec:
        if op[0] == "thermal":
            _, mode, nbar = op
            w = (nbar / (1 + nbar)) ** ns / (1 + nbar)
            parts[mode] = np.diag(w)
        elif op[0] == "fock":
            _, mode, n_ph = op
            if n_ph >= cutoff:
                raise FockOracleError("Fock state above the cutoff")
            parts[mode] = np.zeros((cutoff, cutoff))
            parts[mode][n_ph, n_ph] = 1.0
    rho = parts[0]
    for p in parts[1:]:
        rho = np.kron(rho, p)
    return rho.astype(complex)


def _evolve(rho, spec, n_modes, cutoff):
    a = _ladder(cutoff)
    for op in spec:
        kind = op[0]
        if kind == "tmsv":
            _, (i, j), nbar = op
            r = np.arcsinh(np.sqrt(nbar))
            gen = r * (np.kron(a.conj().T, a.conj().T) - np.kron(a, a))
            rho = _apply_two_mode(rho, expm(gen), (i, j), n_modes, cutoff)
        elif kind == "bs":
            _, (i, j), theta, phi = op
            gen = theta * (np.exp(1j * phi) * np.kron(a.conj().T, a)
                           - np.exp(-1j * phi) * np.kron(a, a.conj().T))
            rho = _apply_two_mode(rho, expm(gen), (i, j), n_modes, cutoff)
        elif kind == "phase":
            _, mode, theta = op
            gate = np.diag(np.exp(1j * theta * np.arange(cutoff)))
            rho = _apply_one_mode(rho, gate, mode, n_modes, cutoff)
        elif kind == "squeeze":
            _, mode, r, phi = op
            ad2 = a.conj().T @ a.conj().T
            gen = 0.5 * r * (np.exp(1j * phi) * ad2 - np.exp(-1j * phi) * ad2.conj().T)
            rho = _apply_one_mode(rho, expm(gen), mode, n_modes, cutoff)
        elif kind in ("thermal", "fock"):
            continue
        else:
            raise FockOracleError(f"unknown state op {kind!r}")
    return rho


def fock_state_diagonal(spec, n_modes, cutoff):
    """Diagonal of the evolved density matrix in the joint Fock basis.

    Rejects truncations capturing less than 1 - 1e-9 of the trace.
    """
    if n_modes > MAX_MODES:
        raise FockOracleError(f"oracle supports at most {MAX_MODES} modes")
    if cutoff > MAX_CUTOFF:
        raise FockOracleError(f"oracle cutoff capped at {MAX_CUTOFF}")
    rho = _prepare_diagonal(spec, n_modes, cutoff)
    if float(np.trace(rho).real) < TRACE_CAPTURE:
        raise FockOracleError("truncation loses the initial thermal tail")
    rho = _evolve(rho, spec, n_modes, cutoff)
    captured = float(np.trace(rho).real)
    if captured < TRACE_CAPTURE:
        raise FockOracleError(
            f"truncation captures only {captured:.12f} of the trace; "
            "raise the cutoff or lower the occupations")
    return np.real(np.diag(rho)).copy()


def _occupations(n_modes, cutoff):
    return np.indices([cutoff] * n_modes).reshape(n_modes, -1)


def expectation_from_diagonal(diag, weights, n_modes, cutoff, dark_sum=0.0):
    """<:exp(-sum_i w_i n_i):> e^{-mu} from a precomputed Fock diagonal."""
    counts = _occupations(n_modes, cutoff)
    w = np.asarray(weights, dtype=float)
    factors = np.prod((1.0 - w)[:, None] ** counts, axis=0)
    return float(np.exp(-dark_sum) * np.sum(diag * factors))


def fock_oracle_expectation(spec, weights, n_modes, cutoff=16, dark_sum=0.0):
    """<:exp(-sum_i w_i n_i):> e^{-mu} by direct summation over Fock states."""
    diag = fock_state_diagonal(spec, n_modes, cutoff)
    return expectation_from_diagonal(diag, weights, n_modes, cutoff, dark_sum)


def fock_oracle_click_probability(spec, weight_sets, n_modes, subset,
                                  cutoff=16, dark_means=None):
    """P(all detectors in `subset` click); detectors are weight vectors."""
    diag = fock_state_diagonal(spec, n_modes, cutoff)
    dark_means = dark_means or {}
    total = 0.0
    for r in range(len(subset) + 1):
        for chosen in combinations(subset, r):
            w = np.zeros(n_modes)
            mu = 0.0
            for name in chosen:
                w = w + np.asarray(weight_sets[name], dtype=float)
                mu += dark_means.get(name, 0.0)
            total += (-1) ** r * expectation_from_diagonal(diag, w, n_modes, cutoff, mu)
    return max(0.0, float(total))


def moments_from_state_spec(spec, n_modes):
    """(N, M) moments generated by the same op list, for the Gaussian engine.

    Under a linear map a'_i = sum_j U[i,j] a_j + V[i,j] a_j^dag:

        N' = conj(U) N U^T + conj(U) conj(M) V^T + conj(V) M U^T
             + conj(V) (N^T + I) V^T
        M' = U M U^T + U (N^T + I) V^T + V N U^T + V conj(M) V^T
    """
    n = np.zeros((n_modes, n_modes), dtype=complex)
    m = np.zeros((n_modes, n_modes), dtype=complex)
    eye = np.eye(n_modes)

    def apply(u, v):
        nonlocal n, m
        n_new = (u.conj() @ n @ u.T + u.conj() @ m.conj() @ v.T
                 + v.conj() @ m @ u.T + v.conj() @ (n.T + eye) @ v.T)
        m_new = (u @ m @ u.T + u @ (n.T + eye) @ v.T
                 + v @ n @ u.T + v @ m.conj() @ v.T)
        n = 0.5 * (n_new + n_new.conj().T)
        m = 0.5 * (m_new + m_new.T)

    for op in spec:
        kind = op[0]
        if kind == "thermal":
            _, mode, nbar = op
            n[mode, mode] += nbar
        elif kind == "fock":
            raise FockOracleError("Fock preparations are not Gaussian")
        elif kind == "tmsv":
            _, (i, j), nbar = op
            r = np.arcsinh(np.sqrt(nbar))
            u = eye.astype(complex).copy()
            v = np.zeros((n_modes, n_modes), dtype=complex)
            u[i, i] = u[j, j] = np.cosh(r)
            v[i, j] = v[j, i] = np.sinh(r)
            apply(u, v)
        elif kind == "bs":
            _, (i, j), theta, phi = op
            u = eye.astype(complex).copy()
            v = np.zeros((n_modes, n_modes), dtype=complex)
            u[i, i] = u[j, j] = np.cos(theta)
            u[i, j] = np.exp(1j * phi) * np.sin(theta)
            u[j, i] = -np.exp(-1j * phi) * np.sin(theta)
            apply(u, v)
        elif kind == "phase":
            _, mode, theta = op
            u = eye.astype(complex).copy()
            u[mode, mode] = np.exp(1j * theta)
            apply(u, np.zeros((n_modes, n_modes), dtype=complex))
        elif kind == "squeeze":
            _, mode, r, phi = op
            u = eye.astype(complex).copy()
            v = np.zeros((n_modes, n_modes), dtype=complex)
            u[mode, mode] = np.cosh(r)
            v[mode, mode] = np.exp(1j * phi) * np.sinh(r)
            apply(u, v)
        else:
            raise FockOracleError(f"unknown state op {kind!r}")
    return n, m


def random_equivalence_comparison(n_states=200, seed=7, cutoff=12):
    """Max |engine - oracle| over random few-mode Gaussian states.

    Draws low-occupation states from thermal + two-mode-squeezed + passive
    layers, compares every detector-subset no-click expectation between the
    Gaussian determinant engine and the Fock oracle, and returns the worst
    absolute deviation together with the number of comparisons.
    """
    from .detection import ClickQuery, no_click_expectation

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
                w = np.zeros(n_modes)
                for name in subset:
                    w = w + weight_sets[name]
                oracle = expectation_from_diagonal(diag, w, n_modes, cutoff)
                worst = max(worst, abs(engine - oracle))
                checked += 1
    return worst, checked
