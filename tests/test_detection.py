from itertools import combinations

import numpy as np
import pytest

from homsim import detection, experiment
from homsim.detection import (
    ClickQuery,
    DetectionError,
    coincidence_probability,
    no_click_expectation,
    singles_probability,
)
from homsim.fock import moments_from_state_spec
from homsim.network import detection_mode_projection


def vacuum(n):
    z = np.zeros((n, n), dtype=complex)
    return z, z.copy()


def thermal(nbar):
    return np.array([[nbar]], complex), np.zeros((1, 1), complex)


def tmsv(nbar):
    c = np.sqrt(nbar * (1 + nbar))
    n = np.diag([nbar, nbar]).astype(complex)
    m = np.array([[0, c], [c, 0]], complex)
    return n, m


class TestNoClick:
    def test_vacuum_gives_dark_factor(self):
        n, m = vacuum(3)
        q = ClickQuery(forms={"A": np.diag([1.0, 0.5, 0.2])},
                       dark_means={"A": 1.6e-4})
        val = no_click_expectation(n, m, q, ("A",))
        assert val == pytest.approx(np.exp(-1.6e-4), rel=1e-12)

    def test_thermal_closed_form(self):
        for nbar, w in [(0.3, 0.7), (2.5, 1.0), (1e-3, 0.01)]:
            n, m = thermal(nbar)
            q = ClickQuery(forms={"A": np.diag([w])})
            val = no_click_expectation(n, m, q, ("A",))
            assert val == pytest.approx(1 / (1 + w * nbar), rel=1e-10)

    def test_tmsv_closed_form(self):
        nbar, w = 0.4, 0.6
        n, m = tmsv(nbar)
        q = ClickQuery(forms={"A": np.diag([w, 0.0]), "B": np.diag([0.0, w])})
        val = no_click_expectation(n, m, q, ("A", "B"))
        expect = 1 / ((1 + w * nbar) ** 2 - w**2 * nbar * (nbar + 1))
        assert val == pytest.approx(expect, rel=1e-10)

    def test_empty_subset_is_one(self):
        n, m = thermal(1.0)
        q = ClickQuery(forms={"A": np.diag([1.0])})
        assert no_click_expectation(n, m, q, ()) == 1.0
        n, m = vacuum(0)                                  # the moments check runs here too
        assert no_click_expectation(n, m, ClickQuery(), ()) == 1.0

    def test_empty_subset_coincidence_is_one(self):
        # the expm1 form drops a 1 that cancels only over a non-empty set
        n, m = thermal(1.0)
        q = ClickQuery(forms={"A": np.diag([1.0])})
        assert coincidence_probability(n, m, q, ()) == 1.0
        assert coincidence_probability(*vacuum(0), ClickQuery(), ()) == 1.0

    def test_form_off_register_rejected(self):
        n, m = vacuum(3)
        for form in (np.diag([0.5, 0.5]), np.full((3, 2), 0.1), np.array([0.5, 0.5, 0.5])):
            with pytest.raises(DetectionError, match="does not match register"):
                no_click_expectation(n, m, ClickQuery(forms={"A": form}), ("A",))

    def test_unknown_detector_rejected(self):
        n, m = vacuum(1)
        q = ClickQuery(forms={"A": np.diag([0.5])})
        with pytest.raises(DetectionError, match="unknown detector"):
            no_click_expectation(n, m, q, ("B",))

    def test_weight_above_one_rejected(self):
        n, m = thermal(0.1)
        q = ClickQuery(forms={"A": np.diag([1.2])})
        with pytest.raises(DetectionError, match="exceeds 1"):
            no_click_expectation(n, m, q, ("A",))

    def test_negative_weight_rejected(self):
        # eigenvalues -0.3 and 0.7 on a rotated basis, and a plain -0.5
        th = 0.4
        u = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        n, m = thermal(0.2)
        q = ClickQuery(forms={"A": np.diag([-0.5])})
        with pytest.raises(DetectionError, match="is negative"):
            singles_probability(n, m, q, "A")
        n, m = tmsv(0.2)
        q = ClickQuery(forms={"A": u.T @ np.diag([-0.3, 0.7]) @ u})
        with pytest.raises(DetectionError, match="is negative"):
            no_click_expectation(n, m, q, ("A",))

    @pytest.mark.parametrize("form", [
        np.array([[0.5, 0.3], [0.0, 0.5]]),
        np.array([[0.5, 0.2j], [0.2j, 0.5]]),
        np.diag([0.5, np.nan]),
        np.diag([0.5, np.inf]),
    ])
    def test_non_hermitian_form_rejected(self, form):
        n, m = tmsv(0.2)
        with pytest.raises(DetectionError, match="not a finite Hermitian matrix"):
            no_click_expectation(n, m, ClickQuery(forms={"A": form}), ("A",))

    @pytest.mark.parametrize("dark_means", [
        {"A": -0.5}, {"A": np.nan}, {"A": np.inf}, {"A": 1e-4, "B": 1e-4},
    ])
    def test_bad_dark_mean_rejected(self, dark_means):
        # negative, not finite, or under a name that has no form
        n, m = thermal(0.2)
        with pytest.raises(DetectionError, match="must be finite, >= 0 and name a form"):
            singles_probability(n, m, ClickQuery(forms={"A": np.diag([0.5])},
                                                 dark_means=dark_means), "A")

    def test_query_owns_its_forms(self):
        # the query copies its forms: a caller's later change to its array
        # moves no probability, whether or not the query was used before
        n, m = thermal(0.5)
        expect = 0.2 / 1.2                       # w nbar / (1 + w nbar), w = 0.4
        for used_first in (False, True):
            form = np.diag([0.4])
            q = ClickQuery(forms={"A": form})
            if used_first:
                assert singles_probability(n, m, q, "A") == pytest.approx(expect, rel=1e-12)
            form[0, 0] = 0.3
            assert singles_probability(n, m, q, "A") == pytest.approx(expect, rel=1e-12)
            with pytest.raises(ValueError, match="read-only"):
                q.forms["A"][0, 0] = 0.3

    def test_nonphysical_moments_rejected(self):
        n = np.array([[0.1]], complex)
        m = np.array([[5.0]], complex)  # |M| >> sqrt(N(N+1)): unphysical
        q = ClickQuery(forms={"A": np.diag([1.0])})
        with pytest.raises(DetectionError):
            no_click_expectation(n, m, q, ("A",))

    def test_singular_determinant_rejected(self, monkeypatch):
        # W^(1/2) G W^(1/2) = [[0.1, 5], [5, 0.1]] has eigenvalue -4.9 and
        # [[0, 1], [1, 0]] has -1 (det = 0): both unphysical, so the moments
        # check is patched out, to an empty store of results, to reach the
        # determinant itself
        monkeypatch.setattr(detection, "_validate_moments", lambda *args: {})
        q = ClickQuery(forms={"A": np.diag([1.0])})
        for nbar, pair in [(0.1, 5.0), (0.0, 1.0)]:
            n = np.array([[nbar]], complex)
            m = np.array([[pair]], complex)
            with pytest.raises(DetectionError, match="singular"):
                no_click_expectation(n, m, q, ("A",))

    def test_log_equals_log_of_value(self):
        n, m = tmsv(0.3)
        q = ClickQuery(forms={"A": np.diag([0.8, 0.0]), "B": np.diag([0.0, 0.6])},
                       dark_means={"A": 1e-4})
        for subset in [(), ("A",), ("A", "B")]:
            val = no_click_expectation(n, m, q, subset)
            assert no_click_expectation(n, m, q, subset, log=True)[0] == pytest.approx(
                np.log(val), rel=1e-13, abs=1e-16)

    def test_repeated_detector_rejected(self):
        # E_AA would count A's dark mean twice and its form once: on this
        # state "AA" gave 0.0062 for P(A) = 0.138
        n, m = tmsv(0.1)
        q = ClickQuery(forms={"A": np.diag([0.5, 0.0]), "B": np.diag([0.0, 0.5])},
                       dark_means={"A": 0.1, "B": 0.1})
        for subset in ["AA", ("A", "B", "A")]:
            with pytest.raises(DetectionError, match="'A' is named twice"):
                coincidence_probability(n, m, q, subset)
            with pytest.raises(DetectionError, match="'A' is named twice"):
                no_click_expectation(n, m, q, subset)
        assert singles_probability(n, m, q, "A") == pytest.approx(0.13825007806, rel=1e-9)

    def test_complex_form_equals_rotated_state(self):
        # n_Q = a^dag Q a with Q = U^dag W U is diag(W) after the mode map
        # a -> U a, here a beam splitter with a complex phase on a state
        # whose normal moments are complex
        spec = [("thermal", 0, 0.05), ("thermal", 2, 0.03), ("tmsv", (0, 1), 0.06),
                ("bs", (1, 2), 0.5, 0.3), ("squeeze", 2, 0.1, 0.9),
                ("bs", (0, 2), 0.8, 2.1), ("phase", 1, 0.7), ("tmsv", (1, 2), 0.03)]
        theta, phi = 0.6, 1.1
        u = np.eye(3, dtype=complex)
        u[0, 0] = u[1, 1] = np.cos(theta)
        u[0, 1] = np.exp(1j * phi) * np.sin(theta)
        u[1, 0] = -np.exp(-1j * phi) * np.sin(theta)
        w = np.diag([0.7, 0.4, 0.0])
        n, m = moments_from_state_spec(spec, 3)
        n_rot, m_rot = moments_from_state_spec(spec + [("bs", (0, 1), theta, phi)], 3)
        assert np.max(np.abs(n.imag)) > 1e-3
        lhs = no_click_expectation(n, m, ClickQuery(forms={"A": u.conj().T @ w @ u}), ("A",))
        rhs = no_click_expectation(n_rot, m_rot, ClickQuery(forms={"A": w}), ("A",))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_form_equals_diagonal_weights(self):
        # a rotated form agrees with rotating the state instead
        rng = np.random.default_rng(3)
        n, m = tmsv(0.2)
        w = np.array([0.3, 0.8])
        q_diag = ClickQuery(forms={"A": np.diag(w)})
        th = rng.uniform(0, np.pi)
        u = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
        form = u.T @ np.diag(w) @ u
        n_rot = u.conj() @ n @ u.T
        m_rot = u @ m @ u.T
        lhs = no_click_expectation(n, m, ClickQuery(forms={"A": form.astype(complex)}), ("A",))
        rhs = no_click_expectation(n_rot, m_rot, q_diag, ("A",))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMomentsCheck:
    """Every engine entry point checks its moments, once per query and state."""

    ENTRY_POINTS = {
        "no_click_expectation": lambda n, m, q: no_click_expectation(n, m, q, ("A",)),
        "coincidence_probability": lambda n, m, q: coincidence_probability(n, m, q, "AB"),
        "singles_probability": lambda n, m, q: singles_probability(n, m, q, "B"),
    }

    @staticmethod
    def four_detectors():
        n, m = moments_from_state_spec([("thermal", 0, 0.1), ("tmsv", (0, 2), 0.2),
                                        ("tmsv", (1, 3), 0.3), ("bs", (0, 1), 0.4, 0.5)], 4)
        forms = {name: np.diag(np.eye(4)[k] * 0.6) for k, name in enumerate("ABCD")}
        return n, m, ClickQuery(forms=forms, dark_means={"A": 1e-4})

    @staticmethod
    def count_cholesky(monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a, *args, **kwargs):
            calls.append(a.shape[0])
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        return calls

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("block", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_moments_rejected(self, entry, block, value):
        n, m = tmsv(0.2)
        q = ClickQuery(forms={"A": np.diag([0.5, 0.0]), "B": np.diag([0.0, 0.5])})
        moments = [n, m]
        moments[block][0, 1] = value
        with pytest.raises(DetectionError, match="moments are not finite"):
            self.ENTRY_POINTS[entry](*moments, q)

    def test_one_check_per_state(self, monkeypatch):
        n, m, q = self.four_detectors()
        calls = self.count_cholesky(monkeypatch)
        coincidence_probability(n, m, q, "ABCD")
        for name in "ABCD":
            singles_probability(n, m, q, name)
        assert calls == [8]
        # equal in value, not the same arrays: still no new check
        no_click_expectation(n.copy(), m.copy(), q, "AC")
        assert calls == [8]
        # another query checks the same state again
        singles_probability(n, m, self.four_detectors()[2], "A")
        assert calls == [8, 8]

    def test_moments_changed_in_place_are_checked_again(self, monkeypatch):
        n, m, q = self.four_detectors()
        calls = self.count_cholesky(monkeypatch)
        before = singles_probability(n, m, q, "C")
        pair_before, _ = no_click_expectation(n, m, q, "AC", log=True)
        n[2, 2] += 0.05                                   # still physical: more light
        after = singles_probability(n, m, q, "C")
        assert len(calls) == 2 and after > before
        # the kept results went with the old state: "AC" is evaluated again
        spectra = count_eigvalsh(monkeypatch)
        pair_after, _ = no_click_expectation(n, m, q, "AC", log=True)
        assert len(spectra) == 1 and pair_after < pair_before
        m[0, 2] = m[2, 0] = 5.0                           # |M| far above sqrt(N(N+1))
        for entry in self.ENTRY_POINTS.values():
            with pytest.raises(DetectionError, match="physicality"):
                entry(n, m, q)

    def test_single_mode_scan_checks_each_delay_once(self, monkeypatch):
        sc = experiment.preset_scenario("single_mode")
        sc.source, sc.bases, sc.detectors                 # set-up before counting
        calls = self.count_cholesky(monkeypatch)
        experiment.run_delay_scan(sc)
        assert len(calls) == len(sc.tau_list)


def count_eigvalsh(monkeypatch):
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return sizes


class TestSubsetResults:
    """The query keeps (ln E_S, eigs) per set of names on its last state."""

    SUBSETS = [s for r in range(5) for s in combinations("ABCD", r)]

    @pytest.mark.parametrize("preset", ["single_mode", "multimode"])
    def test_kept_results_equal_fresh_ones_on_presets(self, preset):
        sc = experiment.preset_scenario(preset)
        assert len(self.SUBSETS) == 16
        for tau in sc.tau_list:
            # a query that has answered one delay of the scan, and a fresh one
            normal, anomalous, used = detection_mode_projection(sc.source, sc.source,
                                                                sc.bases, tau, sc.detectors)
            coincidence_probability(normal, anomalous, used, "ABCD")
            coincidence_probability(normal, anomalous, used, "AB")
            for name in "ABCD":
                singles_probability(normal, anomalous, used, name)
            fresh = detection_mode_projection(sc.source, sc.source, sc.bases, tau,
                                              sc.detectors)
            for subset in reversed(self.SUBSETS):
                kept = no_click_expectation(normal, anomalous, used, subset, log=True)
                new = no_click_expectation(*fresh, subset, log=True)
                assert kept[0] == new[0] and kept[1].tobytes() == new[1].tobytes()

    def test_one_entry_per_set_of_names(self, monkeypatch):
        n, m, q = TestMomentsCheck.four_detectors()
        spectra = count_eigvalsh(monkeypatch)
        first = no_click_expectation(n, m, q, "CA", log=True)
        assert len(spectra) == 1
        second = no_click_expectation(n, m, q, ("A", "C"), log=True)
        assert len(spectra) == 1 and second[0] == first[0] and second[1] is first[1]
        assert no_click_expectation(n, m, q, "AC") == np.exp(first[0])
        no_click_expectation(n, m, q, "AB")
        assert len(spectra) == 2

    def test_kept_eigenvalues_are_read_only(self):
        n, m, q = TestMomentsCheck.four_detectors()
        for subset in ["AC", ""]:
            _, eigs = no_click_expectation(n, m, q, subset, log=True)
            assert not eigs.flags.writeable
            with pytest.raises(ValueError):
                eigs[...] = 0.0


def random_form(rng, n_modes, modes, unitary=None):
    """A Hermitian PSD form with eigenvalues in (0, 0.24) on `modes` of the
    register (any four sum to a weight below one), rotated by `unitary`
    when one is given."""
    k = len(modes)
    u = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
    form = np.zeros((n_modes, n_modes), complex)
    form[np.ix_(modes, modes)] = u @ np.diag(rng.uniform(0.02, 0.24, k)) @ u.conj().T
    return form if unitary is None else unitary.conj().T @ form @ unitary


def reference_log_no_click(normal, anomalous, query, subset):
    """-mu - (1/2) ln det(I + G W) over the full doubled register, with
    G = [[N^T, M], [M*, N]] and W = diag(Q, Q^T), by one LU determinant."""
    k = normal.shape[0]
    form = sum((query.forms[name] for name in subset), np.zeros((k, k), complex))
    g = np.block([[normal.T, anomalous], [anomalous.conj(), normal]])
    w = np.block([[form, np.zeros((k, k))], [np.zeros((k, k)), form.T]])
    sign, logdet = np.linalg.slogdet(np.eye(2 * k) + g @ w)
    assert abs(sign - 1) < 1e-12
    return -query.dark_sum(subset) - 0.5 * logdet


class TestGroupFactors:
    """Each detector group's form is factored once per query; every subset
    still equals the determinant over the whole register."""

    STATES = {
        "thermal": [("thermal", 0, 0.3), ("thermal", 1, 0.1), ("thermal", 2, 0.05),
                    ("thermal", 3, 0.2), ("bs", (0, 3), 0.7, 0.4), ("bs", (1, 2), 0.3, 1.9)],
        "squeezed": [("thermal", 0, 0.05), ("thermal", 3, 0.02), ("tmsv", (0, 2), 0.2),
                     ("tmsv", (1, 3), 0.1), ("squeeze", 1, 0.2, 0.6), ("bs", (0, 1), 0.4, 2.2)],
        "squeezed_3": [("thermal", 0, 0.04), ("tmsv", (0, 1), 0.15), ("squeeze", 2, 0.1, 1.3),
                       ("bs", (1, 2), 0.9, 0.5)],
    }

    @staticmethod
    def queries(rng, n_modes):
        # A and B share mode 1 (one group); C and D own the last modes (one
        # each on four modes, one shared on three); in the rotated query C
        # spans the whole register, so all four are one group
        modes = {"A": [0, 1], "B": [1], "C": [2], "D": [n_modes - 1]}
        darks = {"A": 1e-4, "B": 0.0, "C": 3e-4, "D": 2e-5}
        forms = {name: random_form(rng, n_modes, m) for name, m in modes.items()}
        u = np.linalg.qr(rng.normal(size=(n_modes,) * 2) + 1j * rng.normal(size=(n_modes,) * 2))[0]
        rotated = dict(forms, C=random_form(rng, n_modes, modes["C"], unitary=u))
        return ClickQuery(forms=forms, dark_means=darks), ClickQuery(forms=rotated, dark_means=darks)

    @pytest.mark.parametrize("state", sorted(STATES))
    def test_every_subset_matches_full_register_determinant(self, state):
        rng = np.random.default_rng(sorted(self.STATES).index(state) + 21)
        n_modes = 3 if state.endswith("_3") else 4
        n, m = moments_from_state_spec(self.STATES[state], n_modes)
        assert (np.max(np.abs(m)) == 0) == (state == "thermal")
        for query in self.queries(rng, n_modes):
            for r in range(1, 5):
                for subset in combinations("ABCD", r):
                    got, _ = no_click_expectation(n, m, query, subset, log=True)
                    ref = reference_log_no_click(n, m, query, subset)
                    assert abs(got - ref) <= 1e-12, (state, subset, got, ref)

    def test_disjoint_forms_factor_once_per_group_part(self, monkeypatch):
        rng = np.random.default_rng(5)
        n, m = moments_from_state_spec(self.STATES["squeezed"], 4)
        query = self.queries(rng, 4)[0]
        sizes = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        coincidence_probability(n, m, query, "ABCD")
        # A, B and A+B on modes {0, 1}; C and D on one mode each
        assert sorted(sizes) == [1, 1, 2, 2, 2]
        coincidence_probability(n, m, query, "ABCD")
        assert len(sizes) == 5


class TestPairSplit:
    """Phase-insensitive pair states over two sides (modes 0-2 and 3-5 of a
    six-mode register) take half-size spectra; other states and forms
    that span both sides take the whole doubled matrix, and every subset
    equals the determinant over the whole register either way."""

    @staticmethod
    def two_sided(rng):
        # thermal noise everywhere, squeezers across the sides, splitters
        # within each side
        spec = [("thermal", mode, rng.uniform(0.01, 0.3)) for mode in range(6)]
        spec += [("tmsv", (i, 3 + j), rng.uniform(0.05, 0.4)) for i, j in ((0, 0), (1, 2), (2, 1))]
        spec += [("bs", pair, rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi))
                 for pair in ((0, 1), (1, 2), (3, 4), (4, 5), (3, 5))]
        return spec

    @staticmethod
    def query(rng, modes):
        darks = dict(zip(modes, (1e-4, 0.0, 3e-4, 2e-5)))
        return ClickQuery(forms={name: random_form(rng, 6, m) for name, m in modes.items()},
                          dark_means=darks)

    @staticmethod
    def spectrum_size_per_subset(monkeypatch, n, m, query):
        """Size of the matrix whose spectrum each subset took, over the
        number r of its weighted modes (H is 2r x 2r), once ln E_S matches
        the reference."""
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        out = {}
        for r in range(1, 5):
            for subset in combinations("ABCD", r):
                got, eigs = no_click_expectation(n, m, query, subset, log=True)
                ref = reference_log_no_click(n, m, query, subset)
                assert abs(got - ref) <= 1e-12, (subset, got, ref)
                out[subset] = sizes.pop() / (eigs.size // 2)
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_two_sided_states_split(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        n, m = moments_from_state_spec(self.two_sided(rng), 6)
        assert not (m[:3, :3].any() or m[3:, 3:].any() or n[:3, 3:].any())
        # A and B share mode 1, so {A, B} is one group on the first side
        query = self.query(rng, {"A": [0, 1], "B": [1, 2], "C": [3, 4], "D": [5]})
        sizes = self.spectrum_size_per_subset(monkeypatch, n, m, query)
        assert set(sizes.values()) == {1}

    @pytest.mark.parametrize("case", ["squeezer", "splitter_across", "form_across"])
    def test_unsplittable_cases_take_the_doubled_matrix(self, monkeypatch, case):
        rng = np.random.default_rng(7)
        spec = self.two_sided(rng)
        modes = {"A": [0, 1], "B": [1, 2], "C": [3, 4], "D": [5]}
        if case == "squeezer":
            spec.append(("squeeze", 4, 0.2, 0.9))
        elif case == "splitter_across":
            spec.append(("bs", (2, 3), 0.3, 1.1))
        else:
            modes["C"] = [2, 3]          # C's modes hold both sides
        n, m = moments_from_state_spec(spec, 6)
        sizes = self.spectrum_size_per_subset(monkeypatch, n, m, self.query(rng, modes))
        # each case leaves some subsets splittable, but never all four
        assert sizes[tuple("ABCD")] == 2 and set(sizes.values()) == {1, 2}


class TestOneFormula:
    """One pair-matrix builder serves the state check and the unsplit
    spectra; one detector's coincidence is its singles probability."""

    @pytest.mark.parametrize("preset", ["single_mode", "multimode"])
    def test_one_detector_coincidence_is_singles_on_presets(self, preset):
        sc = experiment.preset_scenario(preset)
        normal, anomalous, query = detection_mode_projection(sc.source, sc.source, sc.bases,
                                                             0.0, sc.detectors)
        for name in "ABCD":
            p = singles_probability(normal, anomalous, query, name)
            assert coincidence_probability(normal, anomalous, query, (name,)) == p
            assert 0.0 < p < 1.0

    @pytest.mark.parametrize("seed", range(4))
    def test_one_detector_coincidence_is_singles_on_random_states(self, seed):
        rng = np.random.default_rng(seed)
        n, m = moments_from_state_spec(TestPairSplit.two_sided(rng), 6)
        query = TestPairSplit.query(rng, {"A": [0, 1], "B": [1, 2], "C": [3, 4], "D": [5]})
        for name in "ABCD":
            p = singles_probability(n, m, query, name)
            assert coincidence_probability(n, m, query, name) == p
            log_e = reference_log_no_click(n, m, query, (name,))
            assert p == pytest.approx(-np.expm1(log_e), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_unsplit_spectrum_is_that_of_the_whole_pair_matrix(self, monkeypatch, seed):
        # single-mode squeezing on every mode: no cut splits any subset, so
        # each spectrum comes from one eigvalsh of the whole 2r x 2r matrix
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: sizes.append(a.shape[0]) or eigvalsh(a))
        rng = np.random.default_rng(seed + 40)
        spec = [("thermal", mode, rng.uniform(0.01, 0.3)) for mode in range(4)]
        spec += [("squeeze", mode, rng.uniform(0.05, 0.3), rng.uniform(0, 2 * np.pi))
                 for mode in range(4)]
        spec += [("tmsv", (0, 2), 0.2), ("bs", (0, 1), 0.4, 2.2), ("bs", (2, 3), 1.1, 0.3)]
        n, m = moments_from_state_spec(spec, 4)
        query = ClickQuery(forms={name: random_form(rng, 4, modes) for name, modes in
                                  {"A": [0, 1], "B": [1], "C": [2], "D": [3]}.items()})
        for r in range(1, 5):
            for subset in combinations("ABCD", r):
                _, eigs = no_click_expectation(n, m, query, subset, log=True)
                vals, vecs = np.linalg.eigh(sum(query.forms[name] for name in subset))
                root = vecs[:, vals > detection.WEIGHT_FLOOR] * np.sqrt(
                    vals[vals > detection.WEIGHT_FLOOR])
                b = root.T @ n @ root.conj()
                a = root.conj().T @ m @ root.conj()
                assert sizes.pop() == eigs.size == 2 * root.shape[1]
                whole = eigvalsh(np.block([[b.T, a], [a.conj(), b]]))
                np.testing.assert_allclose(eigs, whole, rtol=0, atol=1e-13)

    def test_physicality_min_eig_matches_the_doubled_matrix(self):
        rng = np.random.default_rng(3)
        n, m = moments_from_state_spec(TestPairSplit.two_sided(rng)
                                       + [("squeeze", 2, 0.3, 0.7)], 6)
        doubled = np.block([[n, m.conj()], [m, n.T + np.eye(6)]])
        assert detection.physicality_min_eig(n, m) == pytest.approx(
            np.linalg.eigvalsh(doubled)[0], abs=1e-13)


class TestCoincidence:
    def test_independent_blocks_factorize(self):
        n = np.diag([0.2, 0.5]).astype(complex)
        m = np.zeros((2, 2), complex)
        q = ClickQuery(forms={"A": np.diag([0.9, 0.0]), "B": np.diag([0.0, 0.7])})
        joint = coincidence_probability(n, m, q, ("A", "B"))
        pa = singles_probability(n, m, q, "A")
        pb = singles_probability(n, m, q, "B")
        assert joint == pytest.approx(pa * pb, rel=1e-10)

    def test_bonferroni_partial_sums_alternate(self):
        n, m = tmsv(0.3)
        n = n + np.diag([0.05, 0.02])
        q = ClickQuery(forms={"A": np.diag([0.8, 0.0]), "B": np.diag([0.0, 0.6])},
                       dark_means={"A": 1e-4, "B": 2e-4})
        from itertools import combinations
        subset = ("A", "B")
        terms = []
        for r in range(3):
            terms.append(sum((-1) ** r * no_click_expectation(n, m, q, c)
                             for c in combinations(subset, r)))
        partial_1 = terms[0] + terms[1]           # 1 - sum E_single <= P
        full = sum(terms)
        assert partial_1 <= full + 1e-10
        assert full <= 1.0

    def test_monotone_in_efficiency_and_dark(self):
        n, m = thermal(0.2)
        base = singles_probability(n, m, ClickQuery(forms={"A": np.diag([0.5])}), "A")
        higher = singles_probability(n, m, ClickQuery(forms={"A": np.diag([0.7])}), "A")
        dark = singles_probability(
            n, m, ClickQuery(forms={"A": np.diag([0.5])}, dark_means={"A": 1e-3}), "A")
        assert higher > base
        assert dark > base

    def test_dark_factorization(self):
        n, m = tmsv(0.25)
        forms = {"A": np.diag([0.5, 0.0]), "B": np.diag([0.0, 0.5])}
        mus = {"A": 3e-3, "B": 1e-3}
        q0 = ClickQuery(forms=forms)
        q1 = ClickQuery(forms=forms, dark_means=mus)
        for subset in [("A",), ("B",), ("A", "B")]:
            e0 = no_click_expectation(n, m, q0, subset)
            e1 = no_click_expectation(n, m, q1, subset)
            assert e1 == pytest.approx(e0 * np.exp(-q1.dark_sum(subset)), rel=1e-12)

    def test_probability_bounds_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            nb1, nb2 = rng.uniform(0.01, 0.8, 2)
            n, m = tmsv(nb1)
            n = n + np.diag([nb2, 0.3 * nb2])
            q = ClickQuery(forms={"A": np.diag([rng.uniform(0, 1), 0.0]),
                                  "B": np.diag([0.0, rng.uniform(0, 1)])},
                           dark_means={"A": rng.uniform(0, 1e-3)})
            p = coincidence_probability(n, m, q, ("A", "B"))
            assert 0.0 <= p <= 1.0

    def test_second_order_remainders_match_mpmath(self):
        # expm1(x) - x and log1p(x) - x on both sides of the series radius;
        # outside it the direct difference loses at most 2 eps / |x| <= 4.4e-15
        mp = pytest.importorskip("mpmath")
        x = np.array([-0.5, -0.1, -0.0999, -3e-3, -1e-9, 0.0, 2e-12, 4e-5, 0.0999, 0.1, 2.0])
        with mp.workdps(40):
            for function, series, exact in (
                    (np.expm1, detection._EXPM1_SERIES, lambda v: mp.expm1(v) - v),
                    (np.log1p, detection._LOG1P_SERIES, lambda v: mp.log1p(v) - v)):
                got = detection._minus_identity(function, series, x)
                for v, g in zip(x, got):
                    ref = exact(mp.mpf(float(v)))
                    assert abs(g - float(ref)) <= 5e-15 * abs(float(ref)), (function, v)


class TestSinglesAccidentals:
    def test_vacuum_dark_singles(self):
        n, m = vacuum(1)
        q = ClickQuery(forms={"A": np.diag([0.2])}, dark_means={"A": 1.6e-4})
        p = singles_probability(n, m, q, "A")
        assert p == pytest.approx(1.6e-4, rel=1e-3)

    def test_thermal_singles_closed_form(self):
        nbar, w = 0.7, 0.4
        n, m = thermal(nbar)
        q = ClickQuery(forms={"A": np.diag([w])})
        assert singles_probability(n, m, q, "A") == pytest.approx(
            w * nbar / (1 + w * nbar), rel=1e-10)

    def test_zero_efficiency_zero_singles(self):
        n, m = thermal(2.0)
        q = ClickQuery(forms={"A": np.diag([0.0])})
        assert singles_probability(n, m, q, "A") == 0.0


class TestThermalHomBound:
    def test_two_thermal_sources_dip_visibility_below_half(self):
        # classical bound: two independent equal thermal modes mixed 50:50
        # cannot dip more than 50% below the far-delay coincidence level
        nbar = 0.35
        w = 0.8
        # overlapped: modes (a_r + a_l)/sqrt2 and (a_r - a_l)/sqrt2
        u = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        n_src = np.diag([nbar, nbar]).astype(complex)
        m_src = np.zeros((2, 2), complex)
        n_mix = u.conj() @ n_src @ u.T
        m_mix = u @ m_src @ u.T
        q = ClickQuery(forms={"A": np.diag([w, 0.0]), "B": np.diag([0.0, w])})
        p_dip = coincidence_probability(n_mix, m_mix, q, ("A", "B"))
        # far delay: the two time slots are orthogonal modes, but each split
        # thermal field stays coherent between the two ports; modes ordered
        # (A_r, A_l, B_r, B_l) with the minus sign on B's left-source slot
        w_map = np.array([[1, 0], [0, 1], [1, 0], [0, -1]]) / np.sqrt(2)
        n_src = np.diag([nbar, nbar]).astype(complex)
        n4 = w_map.conj() @ n_src @ w_map.T
        m4 = np.zeros((4, 4), complex)
        q4 = ClickQuery(forms={"A": np.diag([w, w, 0, 0]),
                               "B": np.diag([0, 0, w, w])})
        p_far = coincidence_probability(n4, m4, q4, ("A", "B"))
        vis = 1 - p_dip / p_far
        assert vis <= 0.5 + 1e-9
        assert vis > 0.25  # thermal bunching is real (1/3 at low occupation)


class TestPresetPrecision:
    """p4 against a 40-digit evaluation of the same double moments."""

    @staticmethod
    def reference_p4(mp, normal, anomalous, query, names):
        # sum_S (-1)^|S| exp(-mu_S) det(I + [[N^T, M], [M*, N]] diag(Q, Q^T))^(-1/2)
        # over the full register, with no eigendecomposition
        k = normal.shape[0]
        n, m = mp.matrix(normal.tolist()), mp.matrix(anomalous.tolist())
        total = mp.mpf(0)
        for r in range(len(names) + 1):
            for subset in combinations(names, r):
                form = mp.zeros(k, k)
                for name in subset:
                    form += mp.matrix(query.forms[name].tolist())
                g = mp.zeros(2 * k, 2 * k)
                weights = mp.zeros(2 * k, 2 * k)
                for i in range(k):
                    for j in range(k):
                        g[i, j], g[i, k + j] = n[j, i], m[i, j]
                        g[k + i, j], g[k + i, k + j] = mp.conj(m[i, j]), n[i, j]
                        weights[i, j], weights[k + i, k + j] = form[i, j], form[j, i]
                det = mp.re(mp.det(mp.eye(2 * k) + g * weights))
                mu = mp.fsum(mp.mpf(query.dark_means[name]) for name in subset)
                total += (-1) ** r * mp.exp(-mu) / mp.sqrt(det)
        return total

    @staticmethod
    def dip_and_off_dip(overrides=()):
        sc = experiment.preset_scenario("single_mode", overrides=list(overrides))
        taus = sc.tau_list
        centre = len(taus) // 2
        assert taus[centre] == 0.0
        sc.tau_list = taus[[centre, centre + 6]]        # the dip and one off-dip delay
        return sc

    def assert_p4_matches(self, mp, sc, scan):
        with mp.workdps(40):
            for tau, p4 in zip(sc.tau_list, scan.p4):
                normal, anomalous, query = detection_mode_projection(
                    sc.source, sc.source, sc.bases, tau, sc.detectors)
                assert normal.shape == (8, 8)
                ref = self.reference_p4(mp, normal, anomalous, query, "ABCD")
                assert abs(float(mp.mpf(p4) / ref - 1)) <= 1e-7

    def test_single_mode_p4_matches_mpmath(self, monkeypatch):
        mp = pytest.importorskip("mpmath")
        sc = self.dip_and_off_dip()
        calls = []
        original = detection.no_click_expectation

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(detection, "no_click_expectation", counted)
        scan = experiment.run_delay_scan(sc)
        assert len(calls) == 24 * len(sc.tau_list)
        self.assert_p4_matches(mp, sc, scan)

    def test_low_gain_single_mode_p4_matches_mpmath(self):
        # p4 ~ 4e-14 from subset terms ~ 1e-4: summing expm1(ln E_S) as it
        # is loses ~1e-5 of p4 to the cancellation
        mp = pytest.importorskip("mpmath")
        sc = self.dip_and_off_dip(["source.pair_probability=1e-4"])
        self.assert_p4_matches(mp, sc, experiment.run_delay_scan(sc))
