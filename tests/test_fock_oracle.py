import numpy as np
import pytest
from scipy.linalg import expm

from homsim import fock
from homsim.detection import ClickQuery, no_click_expectation, coincidence_probability
from homsim.fock import (
    FockOracleError,
    expectation_from_diagonal,
    fock_oracle_click_probability,
    fock_state_diagonal,
    moments_from_state_spec,
    random_equivalence_comparison,
)


def _dense_diagonal(spec, n_modes, cutoff):
    """diag(U rho_0 U^dag) with every gate built on the full joint space,
    shaped (cutoff,) * n_modes as the oracle returns it.

    Ladder operators are embedded by kron with identities, so a gate on any
    mode pair, in either order, needs no axis bookkeeping.
    """
    eye = np.eye(cutoff)
    lower = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)

    def embed(single, mode):
        out = np.ones((1, 1))
        for k in range(n_modes):
            out = np.kron(out, single if k == mode else eye)
        return out

    a = [embed(lower, k) for k in range(n_modes)]
    ad = [x.T for x in a]
    p = np.ones(1)
    for k in range(n_modes):
        w = eye[0]
        for op in spec:
            if op[0] == "thermal" and op[1] == k:
                q = op[2] / (1 + op[2])
                w = (1 - q) * q ** np.arange(cutoff)
            elif op[0] == "fock" and op[1] == k:
                w = eye[op[2]]
        p = np.kron(p, w)
    rho = np.diag(p).astype(complex)
    for op in spec:
        kind = op[0]
        if kind == "tmsv":
            _, (i, j), nbar = op
            gen = np.arcsinh(np.sqrt(nbar)) * (ad[i] @ ad[j] - a[i] @ a[j])
        elif kind == "bs":
            _, (i, j), theta, phi = op
            gen = theta * (np.exp(1j * phi) * ad[i] @ a[j] - np.exp(-1j * phi) * a[i] @ ad[j])
        elif kind == "phase":
            _, k, theta = op
            gen = 1j * theta * ad[k] @ a[k]
        elif kind == "squeeze":
            _, k, r, phi = op
            gen = 0.5 * r * (np.exp(1j * phi) * ad[k] @ ad[k] - np.exp(-1j * phi) * a[k] @ a[k])
        else:
            continue
        u = expm(gen)
        rho = u @ rho @ u.conj().T
    return np.real(np.diag(rho)).reshape((cutoff,) * n_modes)


class TestOracleBasics:
    def test_vacuum_is_one(self):
        diag = fock_state_diagonal([], 1, 4)
        assert expectation_from_diagonal(diag, [1.0]) == pytest.approx(1.0)

    def test_thermal_closed_form(self):
        nbar, w = 0.3, 0.65
        diag = fock_state_diagonal([("thermal", 0, nbar)], 1, 30)
        val = expectation_from_diagonal(diag, [w])
        assert val == pytest.approx(1 / (1 + w * nbar), rel=1e-9)

    def test_tmsv_closed_form_cutoff_40(self):
        nbar, w = 0.35, 0.6
        diag = fock_state_diagonal([("tmsv", (0, 1), nbar)], 2, 40)
        val = expectation_from_diagonal(diag, [w, w])
        expect = 1 / ((1 + w * nbar) ** 2 - w**2 * nbar * (nbar + 1))
        assert val == pytest.approx(expect, rel=1e-9)

    def test_weights_must_match_the_diagonal_modes(self):
        # the diagonal carries its mode count and cutoff as its shape
        diag = fock_state_diagonal([("tmsv", (0, 1), 0.1)], 2, 8)
        assert diag.shape == (8, 8)
        with pytest.raises(FockOracleError, match="3 weights for a diagonal on 2 modes"):
            expectation_from_diagonal(diag, [0.5, 0.5, 0.5])

    def test_chunks_sum_to_the_one_chunk_diagonal(self, monkeypatch):
        spec = [("thermal", 0, 0.05), ("thermal", 1, 0.03), ("thermal", 2, 0.04),
                ("tmsv", (0, 1), 0.05), ("bs", (1, 2), 0.7, 0.4), ("phase", 2, 0.9),
                ("squeeze", 0, 0.1, 0.3)]
        cutoff = 8
        whole = fock_state_diagonal(spec, 3, cutoff)
        p = fock._initial_weights(spec, 3, cutoff)
        kets = np.count_nonzero(p > np.finfo(float).eps * p.max())
        assert kets * cutoff ** 3 <= fock.MAX_CHUNK_AMPLITUDES
        # a third of the kets per chunk: three chunks or more
        monkeypatch.setattr(fock, "MAX_CHUNK_AMPLITUDES", cutoff ** 3 * (kets // 3))
        chunked = fock_state_diagonal(spec, 3, cutoff)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-15)

    def test_truncation_rejected(self):
        with pytest.raises(FockOracleError, match="truncation"):
            fock_state_diagonal([("thermal", 0, 5.0)], 1, 6)

    def test_weight_pushed_to_the_cutoff_rejected(self):
        # the gates conserve the trace, so only the top level shows the clipping:
        # 21% of this state's weight sits on level 4
        with pytest.raises(FockOracleError, match="2.114e-01 of the weight on mode 0's top"):
            fock_state_diagonal([("tmsv", (0, 1), 2.0)], 2, 5)
        diag = fock_state_diagonal([("tmsv", (0, 1), 2.0)], 2, 40)
        assert diag[-1].sum() < fock.TOP_LEVEL_WEIGHT

    @pytest.mark.parametrize("spec", [
        [("tmsv", (0, 1), 0.05), ("thermal", 0, 0.05)],
        [("bs", (0, 1), 0.6, 0.3), ("thermal", 0, 0.2)],
        [("thermal", 0, 0.05), ("thermal", 0, 0.05)],
        [("phase", 1, 0.4), ("thermal", 1, 0.1)],
        [("squeeze", 0, 0.1, 0.2), ("thermal", 0, 0.1)],
    ])
    def test_preparation_after_gate_or_twice_rejected(self, spec):
        # the Fock path prepares before all gates, the moments path in list
        # order: both refuse a spec on which they would disagree
        with pytest.raises(FockOracleError, match="already prepared or gated"):
            fock_state_diagonal(spec, 2, 14)
        with pytest.raises(FockOracleError, match="already prepared or gated"):
            moments_from_state_spec(spec, 2)

    def test_kets_match_dense_density_matrix(self):
        # gates on (0, 2) and on the reversed pair (2, 0) catch an axis slip
        spec = [("thermal", 0, 0.02), ("fock", 1, 1), ("tmsv", (0, 2), 0.05),
                ("bs", (2, 0), 0.7, 0.4), ("phase", 1, 0.9),
                ("squeeze", 2, 0.15, 1.3), ("bs", (0, 1), 0.5, -0.6),
                ("phase", 2, -1.7)]
        diag = fock_state_diagonal(spec, 3, 6)
        np.testing.assert_allclose(diag, _dense_diagonal(spec, 3, 6), rtol=0, atol=1e-14)

    def test_phase_inside_an_interferometer(self):
        # between two splitters the phase's sign reaches the diagonal; on a
        # Fock or two-mode-squeezed input alone it is a global phase
        spec = [("thermal", 0, 0.2), ("fock", 1, 1), ("bs", (0, 1), 0.6, 0.2),
                ("phase", 0, 0.8), ("bs", (1, 0), 0.9, 1.3)]
        diag = fock_state_diagonal(spec, 2, 14)
        np.testing.assert_allclose(diag, _dense_diagonal(spec, 2, 14), rtol=0, atol=1e-14)

    def test_hom_null_single_photons(self):
        # two ideal single photons on a 50:50 splitter never coincide
        spec = [("fock", 0, 1), ("fock", 1, 1), ("bs", (0, 1), np.pi / 4, 0.0)]
        diag = fock_state_diagonal(spec, 2, 6)
        detectors = {"A": [1.0, 0.0], "B": [0.0, 1.0]}
        p = fock_oracle_click_probability(diag, detectors, ("A", "B"))
        assert p == pytest.approx(0.0, abs=1e-12)
        # each output clicks half the time
        p_a = fock_oracle_click_probability(diag, detectors, ("A",))
        assert p_a == pytest.approx(0.5, rel=1e-10)

    def test_heralded_pair_coincidence_equals_pair_probability(self):
        # lossless pair source at low gain: P(signal and herald) ~ nbar
        nbar = 1e-3
        spec = [("tmsv", (0, 1), nbar)]
        p = fock_oracle_click_probability(
            fock_state_diagonal(spec, 2, 8), {"A": [1.0, 0.0], "C": [0.0, 1.0]}, ("A", "C"))
        assert p == pytest.approx(nbar, rel=2e-3)


def _dense_generator(op, cutoff):
    """The truncated generator of one gate op on its modes' joint Fock space."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    ad = a.T
    kind = op[0]
    if kind == "tmsv":
        return np.arcsinh(np.sqrt(op[2])) * (np.kron(ad, ad) - np.kron(a, a))
    if kind == "bs":
        _, _, theta, phi = op
        return theta * (np.exp(1j * phi) * np.kron(ad, a) - np.exp(-1j * phi) * np.kron(a, ad))
    if kind == "squeeze":
        _, _, r, phi = op
        return 0.5 * r * (np.exp(1j * phi) * ad @ ad - np.exp(-1j * phi) * a @ a)
    return 1j * op[2] * np.diag(np.arange(cutoff))


# each kind at phases 0, one positive and one negative phase, tmsv at two strengths
GATE_OPS = {"tmsv": ("tmsv", (0, 1), 0.35), "tmsv-weak": ("tmsv", (0, 1), 0.05),
            "bs": ("bs", (0, 1), 0.7, 0.4), "bs-phi0": ("bs", (0, 1), 0.7, 0.0),
            "bs-phi-2.3": ("bs", (0, 1), 0.7, -2.3),
            "squeeze": ("squeeze", 0, 0.3, 1.1), "squeeze-phi0": ("squeeze", 0, 0.3, 0.0),
            "squeeze-phi-2.3": ("squeeze", 0, 0.3, -2.3), "phase": ("phase", 0, 0.9)}


def _gate_blocks(op, cutoff):
    """One gate's list of (index sets, blocks); a phase gate as 1x1 blocks."""
    ((_, gate),) = fock._gates([op], cutoff)
    if isinstance(gate, np.ndarray):
        return [(np.arange(cutoff)[:, None], gate[:, None, None])]
    return gate


class TestBlockGates:
    @pytest.mark.parametrize("op", GATE_OPS.values(), ids=list(GATE_OPS))
    def test_blocks_assemble_the_dense_gate(self, op):
        # the blocks must partition the joint index and hold every entry of
        # the dense generator: a wrong conserved label drops couplings and
        # fails here rather than silently losing amplitude
        for cutoff in range(6, 17):
            gen = _dense_generator(op, cutoff)
            gate = _gate_blocks(op, cutoff)
            full = np.zeros_like(gen, dtype=complex)
            inside = np.zeros(gen.shape, dtype=int)
            for idx, blocks in gate:
                for i, block in zip(idx, blocks):
                    full[np.ix_(i, i)] = block
                    inside[np.ix_(i, i)] += 1
            assert np.array_equal(np.diag(inside), np.ones(len(gen), int)), cutoff
            assert not np.any(gen[inside == 0]), cutoff
            assert np.abs(full - expm(gen)).max() <= 1e-13, cutoff

    @pytest.mark.parametrize("op", GATE_OPS.values(), ids=list(GATE_OPS))
    def test_blocks_are_unitary(self, op):
        # exp(G) of the anti-Hermitian truncated generator, taken from the eigh
        # of iG, is unitary to rounding; scipy's Pade expm of the mid-sized
        # tmsv blocks is off by ~1e-13, so this bound holds only for the eigh
        for cutoff in range(6, 19):
            gate = _gate_blocks(op, cutoff)
            for _, blocks in gate:
                eye = np.eye(blocks.shape[-1])
                for product in (blocks @ blocks.conj().transpose(0, 2, 1),
                                blocks.conj().transpose(0, 2, 1) @ blocks):
                    assert np.abs(product - eye).max() <= 1e-14, cutoff


    def test_spectra_are_kept_per_cutoff(self, monkeypatch):
        # a cutoff's block spectra are diagonalised on its first use only:
        # another op list at that cutoff, with other strengths and phases,
        # takes no eigh
        list(fock._gates(list(GATE_OPS.values()), 11))
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(args))
        gates = list(fock._gates([("bs", (1, 0), 0.2, -1.0), ("squeeze", 1, 0.1, 0.5),
                                  ("tmsv", (0, 1), 0.2), ("phase", 1, 0.3)], 11))
        assert len(gates) == 4 and calls == []


def _four_term_moments(spec, n_modes):
    """(N, M) by the four-term update of each gate's map
    a'_i = sum_j U[i,j] a_j + V[i,j] a_j^dag, written out in full:

        N' = conj(U) N U^T + conj(U) conj(M) V^T + conj(V) M U^T
             + conj(V) (N^T + I) V^T
        M' = U M U^T + U (N^T + I) V^T + V N U^T + V conj(M) V^T
    """
    eye = np.eye(n_modes)
    n = np.zeros((n_modes, n_modes), dtype=complex)
    m = np.zeros((n_modes, n_modes), dtype=complex)
    for op in spec:
        u = eye.astype(complex)
        v = np.zeros((n_modes, n_modes), dtype=complex)
        if op[0] == "thermal":
            n[op[1], op[1]] += op[2]
            continue
        if op[0] == "tmsv":
            _, (i, j), nbar = op
            r = np.arcsinh(np.sqrt(nbar))
            u[i, i] = u[j, j] = np.cosh(r)
            v[i, j] = v[j, i] = np.sinh(r)
        elif op[0] == "bs":
            _, (i, j), theta, phi = op
            u[i, i] = u[j, j] = np.cos(theta)
            u[i, j] = np.exp(1j * phi) * np.sin(theta)
            u[j, i] = -np.exp(-1j * phi) * np.sin(theta)
        elif op[0] == "phase":
            u[op[1], op[1]] = np.exp(1j * op[2])
        else:
            _, k, r, phi = op
            u[k, k] = np.cosh(r)
            v[k, k] = np.exp(1j * phi) * np.sinh(r)
        n_new = (u.conj() @ n @ u.T + u.conj() @ m.conj() @ v.T
                 + v.conj() @ m @ u.T + v.conj() @ (n.T + eye) @ v.T)
        m_new = (u @ m @ u.T + u @ (n.T + eye) @ v.T
                 + v @ n @ u.T + v @ m.conj() @ v.T)
        n = 0.5 * (n_new + n_new.conj().T)
        m = 0.5 * (m_new + m_new.T)
    return n, m


class TestMoments:
    def test_symplectic_map_matches_four_term_update(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n_modes = int(rng.integers(1, 5))
            spec = [("thermal", k, float(rng.uniform(0, 0.3)))
                    for k in range(n_modes) if rng.random() < 0.6]
            for _ in range(rng.integers(1, 7)):
                i, j = (int(x) for x in rng.permutation(max(n_modes, 2))[:2])
                kind = rng.choice(["tmsv", "bs", "phase", "squeeze"] if n_modes > 1
                                  else ["phase", "squeeze"])
                if kind == "tmsv":
                    spec.append(("tmsv", (i, j), float(rng.uniform(0, 0.5))))
                elif kind == "bs":
                    spec.append(("bs", (i, j), float(rng.uniform(-3, 3)),
                                 float(rng.uniform(-4, 4))))
                elif kind == "phase":
                    spec.append(("phase", i % n_modes, float(rng.uniform(-4, 4))))
                else:
                    spec.append(("squeeze", i % n_modes, float(rng.uniform(0, 0.6)),
                                 float(rng.uniform(-4, 4))))
            n, m = moments_from_state_spec(spec, n_modes)
            n_ref, m_ref = _four_term_moments(spec, n_modes)
            assert np.abs(n - n_ref).max() <= 1e-14, spec
            assert np.abs(m - m_ref).max() <= 1e-14, spec


class TestEngineOracleEquivalence:
    def _compare(self, spec, weight_sets, n_modes, cutoff=14, tol=1e-6):
        n, m = moments_from_state_spec(spec, n_modes)
        query = ClickQuery(forms={k: np.diag(np.asarray(v, float))
                                  for k, v in weight_sets.items()})
        names = sorted(weight_sets)
        diag = fock_state_diagonal(spec, n_modes, cutoff)
        from itertools import combinations
        for r in range(len(names) + 1):
            for subset in combinations(names, r):
                engine = no_click_expectation(n, m, query, subset)
                w = np.zeros(n_modes)
                for name in subset:
                    w = w + np.asarray(weight_sets[name], float)
                oracle = expectation_from_diagonal(diag, w)
                assert engine == pytest.approx(oracle, abs=tol), (spec, subset)

    def test_thermal_and_squeeze_and_bs(self):
        spec = [("thermal", 0, 0.12), ("tmsv", (1, 2), 0.08),
                ("bs", (0, 1), 0.6, 0.3), ("phase", 2, 1.1), ("bs", (1, 2), 0.4, -0.7)]
        self._compare(spec, {"A": [0.7, 0, 0], "B": [0, 0.5, 0], "C": [0, 0, 0.9]}, 3)

    def test_phase_inside_an_interferometer(self):
        spec = [("thermal", 0, 0.1), ("thermal", 1, 0.02), ("bs", (0, 1), np.pi / 4, 0.0),
                ("phase", 1, 1.0), ("bs", (0, 1), np.pi / 4, 0.5)]
        self._compare(spec, {"A": [0.9, 0], "B": [0, 0.7]}, 2)

    def test_single_mode_squeezer(self):
        spec = [("squeeze", 0, 0.25, 0.9), ("bs", (0, 1), np.pi / 4, 0.0)]
        self._compare(spec, {"A": [0.8, 0], "B": [0, 0.6]}, 2, cutoff=16)

    def test_random_two_mode_states(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            spec = [("thermal", 0, rng.uniform(0, 0.1)),
                    ("tmsv", (0, 1), rng.uniform(0.01, 0.1)),
                    ("phase", 0, rng.uniform(0, 2 * np.pi)),
                    ("bs", (0, 1), rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))]
            w = {"A": [rng.uniform(0.1, 1), 0], "B": [0, rng.uniform(0.1, 1)]}
            self._compare(spec, w, 2, cutoff=14)

    def test_click_probabilities_match(self):
        spec = [("tmsv", (0, 1), 0.06), ("thermal", 2, 0.05),
                ("bs", (0, 2), 0.5, 0.2)]
        n, m = moments_from_state_spec(spec, 3)
        weight_sets = {"A": [0.9, 0, 0], "B": [0, 0.8, 0], "C": [0, 0, 0.7]}
        query = ClickQuery(forms={k: np.diag(np.asarray(v, float))
                                  for k, v in weight_sets.items()})
        engine = coincidence_probability(n, m, query, ("A", "B", "C"))
        oracle = fock_oracle_click_probability(fock_state_diagonal(spec, 3, 12),
                                               weight_sets, ("A", "B", "C"))
        assert engine == pytest.approx(oracle, abs=1e-7)

    def test_sweep_deviation_is_oracle_truncation(self):
        # the sweep's worst deviation shrinks with the oracle's cutoff, so
        # acceptance criterion 4 measures the oracle's truncation error
        coarse, checked = random_equivalence_comparison(16, seed=0, cutoff=12)
        fine, checked_fine = random_equivalence_comparison(16, seed=0, cutoff=14)
        assert checked == checked_fine == 80
        assert fine * 5 <= coarse
