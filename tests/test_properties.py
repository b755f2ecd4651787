import numpy as np
import pytest

from quatkge import properties
from quatkge.model import init_embeddings
from quatkge.properties import (check_antisymmetry, check_associativity,
                                check_composition, check_inversion,
                                check_noncommutativity, check_rotate_reduction,
                                check_symmetry, check_trained,
                                run_standard_checks)

from conftest import make_store

TRIALS = 10_000
DIMS = (1, 4, 32)


@pytest.mark.parametrize("k", DIMS)
class TestEqualityChecks:
    def test_inversion_passes(self, k):
        verdict = check_inversion(TRIALS, k, tolerance=1e-9, rng=0)
        assert verdict.passed
        assert verdict.max_violation <= 1e-9
        assert verdict.trials == TRIALS

    def test_composition_passes(self, k):
        verdict = check_composition(TRIALS, k, tolerance=1e-9, rng=1)
        assert verdict.passed

    def test_symmetry_passes_at_tight_tolerance(self, k):
        verdict = check_symmetry(TRIALS, k, rng=2)
        assert verdict.passed

    def test_associativity_passes(self, k):
        verdict = check_associativity(TRIALS, k, tolerance=1e-9, rng=3)
        assert verdict.passed

    def test_antisymmetry_passes(self, k):
        verdict = check_antisymmetry(TRIALS, k, rng=4)
        assert verdict.passed
        assert verdict.detail["fraction_separated"] >= 0.99

    def test_noncommutativity_found(self, k):
        verdict = check_noncommutativity(TRIALS, k, rng=5)
        assert verdict.passed


class TestNegativeControls:
    """Each corrupted variant must fail, proving the checks can falsify."""

    def test_inversion_without_conjugate_fails(self):
        verdict = check_inversion(1000, 8, tolerance=1e-9, rng=6,
                                  use_conjugate=False)
        assert not verdict.passed
        assert verdict.max_violation > 1e-3

    def test_symmetry_with_imaginary_relation_fails(self):
        verdict = check_symmetry(1000, 8, rng=7, inject_imaginary=True)
        assert not verdict.passed

    def test_antisymmetry_with_real_relation_fails(self):
        verdict = check_antisymmetry(1000, 8, rng=8, real_relations=True)
        assert not verdict.passed
        assert verdict.detail["fraction_separated"] < 0.01

    def test_composition_reversed_fails(self):
        verdict = check_composition(1000, 8, tolerance=1e-9, rng=9,
                                    reverse_order=True)
        assert not verdict.passed

    def test_rotate_reduction_nonplanar_fails(self):
        verdict = check_rotate_reduction(1000, 8, tolerance=1e-9, rng=10,
                                         planar=False)
        assert not verdict.passed

    def test_associativity_swapped_fails(self):
        verdict = check_associativity(1000, 8, tolerance=1e-9, rng=11,
                                      swap_inner=True)
        assert not verdict.passed


class TestRotateReduction:
    def test_planar_reduction_passes(self):
        verdict = check_rotate_reduction(1000, 8, tolerance=1e-9, rng=12)
        assert verdict.passed
        assert verdict.max_violation < 1e-9


class TestIdentitySpecialCases:
    """Hand-checkable regimes of the inversion and composition identities."""

    def test_inversion_trivial_for_real_relation(self):
        # conj is the identity on real coordinates, so both sides coincide
        from quatkge import quat as q
        rng = np.random.default_rng(20)
        heads = rng.standard_normal((100, 4, 6))
        tails = rng.standard_normal((100, 4, 6))
        rel = np.zeros((100, 4, 6))
        rel[:, 0, :] = rng.choice([-1.0, 1.0], size=(100, 6)) * rng.uniform(
            0.5, 2.0, size=(100, 6))
        unit = q.normalize(rel)
        np.testing.assert_array_equal(q.conjugate(unit), unit)
        forward_diff = q.hamilton(heads, unit) - tails
        backward_diff = q.hamilton(tails, unit) - heads
        forward = np.sqrt(np.einsum("tck,tck->t", forward_diff, forward_diff))
        backward = np.sqrt(np.einsum("tck,tck->t", backward_diff, backward_diff))
        np.testing.assert_allclose(forward, backward, atol=1e-12)

    def test_composition_with_identity_relation(self):
        from quatkge import quat as q
        rng = np.random.default_rng(21)
        head = rng.standard_normal((4, 6))
        rel3 = rng.standard_normal((4, 6))
        identity = np.zeros((4, 6))
        identity[0] = 1.0
        chained = q.hamilton(q.hamilton(head, identity), q.normalize(rel3))
        single = q.hamilton(head, q.normalize(rel3))
        np.testing.assert_allclose(chained, single, atol=1e-15)

    def test_composition_k1_matches_scalar_chain(self):
        from oracles import Quaternion
        rng = np.random.default_rng(22)
        h, w2, w3, t = (Quaternion(*rng.standard_normal(4)) for _ in range(4))
        u2, u3 = w2.normalize(), w3.normalize()
        chained = (h * u2) * u3 - t
        grouped = h * (u2 * u3) - t
        assert chained.magnitude() == pytest.approx(grouped.magnitude(), abs=1e-12)
        direct = h * (w2 * w3).normalize() - t
        assert chained.magnitude() == pytest.approx(direct.magnitude(), abs=1e-9)


class TestVerdictMechanics:
    def test_deterministic_given_seed(self):
        a = check_inversion(500, 4, rng=42)
        b = check_inversion(500, 4, rng=42)
        assert a.max_violation == b.max_violation
        assert a.witness == b.witness

    def test_witness_records_worst_case(self):
        verdict = check_inversion(500, 4, rng=13)
        assert set(verdict.witness) >= {"trial", "head", "tail", "relation_unit"}
        head = np.array(verdict.witness["head"])
        assert head.shape == (4, 4)

    def test_degenerate_pairs_excluded_from_antisymmetry(self, monkeypatch):
        # force the first draw (heads) and second draw (tails) to coincide in
        # trial 0; the check must drop it from the denominator
        real_draw = properties._random_vectors
        state = {"calls": 0, "first": None}

        def rigged(rng, trials, k):
            out = real_draw(rng, trials, k)
            state["calls"] += 1
            if state["calls"] == 1:
                state["first"] = out
            elif state["calls"] == 2:
                out[0] = state["first"][0]
            return out

        monkeypatch.setattr(properties, "_random_vectors", rigged)
        verdict = check_antisymmetry(50, 4, rng=14)
        assert verdict.detail["eligible"] == 49

    def test_run_standard_checks_all_pass(self):
        verdicts = run_standard_checks(trials=2000, k=8, seed=0)
        assert len(verdicts) == 7
        assert all(v.passed for v in verdicts)
        assert {v.property for v in verdicts} == set(properties.PROPERTY_NAMES)


class TestTrainedDiagnostics:
    def build_store(self):
        train = [(f"e{i}", "r", f"e{(i + 1) % 6}") for i in range(6)]
        return make_store(train, train[:2], train[2:4])

    def test_real_relation_has_zero_imaginary_energy(self):
        store = self.build_store()
        table = init_embeddings(6, 1, 4, seed=0)
        table.relations[0, 1:, :] = 0.0
        diag = check_trained(table, store, 0, pairs=200, rng=0)
        assert diag.imaginary_energy == pytest.approx(0.0, abs=1e-15)
        assert diag.score_asymmetry == pytest.approx(0.0, abs=1e-9)

    def test_known_energy_split(self):
        store = self.build_store()
        table = init_embeddings(6, 1, 2, seed=1)
        # every coordinate (1, 1, 0, 0)/sqrt(2): half the energy is imaginary
        table.relations[0, 0, :] = 1.0
        table.relations[0, 1, :] = 1.0
        table.relations[0, 2:, :] = 0.0
        diag = check_trained(table, store, 0, pairs=100, rng=2)
        assert diag.imaginary_energy == pytest.approx(0.5, rel=1e-12)
        assert diag.score_asymmetry > 0.0

    def test_random_table_reports_scale(self):
        store = self.build_store()
        table = init_embeddings(6, 1, 8, seed=3)
        diag = check_trained(table, store, 0, pairs=300, rng=4)
        assert 0.0 < diag.imaginary_energy < 1.0
        assert diag.score_scale > 0.0
        assert diag.pairs <= 300

    def test_no_distinct_pair_is_an_error(self):
        # one entity: every sampled pair is (e0, e0)
        store = make_store([("e0", "r", "e0")])
        table = init_embeddings(1, 1, 4, seed=0)
        with pytest.raises(ValueError, match="two distinct entities"):
            check_trained(table, store, 0, pairs=50, rng=0)
