import numpy as np
import pytest

from homsim.detection import ClickQuery, no_click_expectation, coincidence_probability
from homsim.fock import (
    FockOracleError,
    expectation_from_diagonal,
    fock_oracle_click_probability,
    fock_oracle_expectation,
    fock_state_diagonal,
    moments_from_state_spec,
)


class TestOracleBasics:
    def test_vacuum_is_one(self):
        assert fock_oracle_expectation([], [1.0], 1, cutoff=4) == pytest.approx(1.0)

    def test_thermal_closed_form(self):
        nbar, w = 0.3, 0.65
        val = fock_oracle_expectation([("thermal", 0, nbar)], [w], 1, cutoff=30)
        assert val == pytest.approx(1 / (1 + w * nbar), rel=1e-9)

    def test_tmsv_closed_form_cutoff_40(self):
        nbar, w = 0.35, 0.6
        val = fock_oracle_expectation([("tmsv", (0, 1), nbar)], [w, w], 2, cutoff=40)
        expect = 1 / ((1 + w * nbar) ** 2 - w**2 * nbar * (nbar + 1))
        assert val == pytest.approx(expect, rel=1e-9)

    def test_truncation_rejected(self):
        with pytest.raises(FockOracleError, match="truncation"):
            fock_state_diagonal([("thermal", 0, 5.0)], 1, 6)

    def test_hom_null_single_photons(self):
        # two ideal single photons on a 50:50 splitter never coincide
        spec = [("fock", 0, 1), ("fock", 1, 1), ("bs", (0, 1), np.pi / 4, 0.0)]
        p = fock_oracle_click_probability(
            spec, {"A": [1.0, 0.0], "B": [0.0, 1.0]}, 2, ("A", "B"), cutoff=6)
        assert p == pytest.approx(0.0, abs=1e-12)
        # each output clicks half the time
        p_a = fock_oracle_click_probability(
            spec, {"A": [1.0, 0.0], "B": [0.0, 1.0]}, 2, ("A",), cutoff=6)
        assert p_a == pytest.approx(0.5, rel=1e-10)

    def test_heralded_pair_coincidence_equals_pair_probability(self):
        # lossless pair source at low gain: P(signal and herald) ~ nbar
        nbar = 1e-3
        spec = [("tmsv", (0, 1), nbar)]
        p = fock_oracle_click_probability(
            spec, {"A": [1.0, 0.0], "C": [0.0, 1.0]}, 2, ("A", "C"), cutoff=8)
        assert p == pytest.approx(nbar, rel=2e-3)


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
                oracle = expectation_from_diagonal(diag, w, n_modes, cutoff)
                assert engine == pytest.approx(oracle, abs=tol), (spec, subset)

    def test_thermal_and_squeeze_and_bs(self):
        spec = [("thermal", 0, 0.12), ("tmsv", (1, 2), 0.08),
                ("bs", (0, 1), 0.6, 0.3), ("phase", 2, 1.1), ("bs", (1, 2), 0.4, -0.7)]
        self._compare(spec, {"A": [0.7, 0, 0], "B": [0, 0.5, 0], "C": [0, 0, 0.9]}, 3)

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
        oracle = fock_oracle_click_probability(spec, weight_sets, 3,
                                               ("A", "B", "C"), cutoff=12)
        assert engine == pytest.approx(oracle, abs=1e-7)
