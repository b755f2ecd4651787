"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The end-to-end criteria (7 and 8) share one training run through the
session-scoped fixture and add a second run for the determinism comparison,
so the whole suite stays inside a coffee break on one core.
"""

import time

import numpy as np
import pytest

from quatkge import quat
from quatkge.evaluation import link_prediction
from quatkge.model import init_embeddings, save_checkpoint, score_triples
from quatkge.properties import (check_antisymmetry, check_composition,
                                check_inversion, check_symmetry, check_trained)
from quatkge.quat import Quaternion
from quatkge.reporting import ranking_items, render_keyvalue
from quatkge.train import fit

import oracles
from test_data import BENCHMARK_STATS, benchmark_dir
from quatkge.data import dataset_dir_paths, load_dataset


def verdict(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


class TestCriterion1:
    def test_quaternion_algebra_suite(self):
        start = time.perf_counter()

        # exact basis table
        minus_one = Quaternion(-1, 0, 0, 0)
        i, j, k = Quaternion.I, Quaternion.J, Quaternion.K
        basis_ok = (i * i == minus_one and j * j == minus_one
                    and k * k == minus_one and i * j * k == minus_one
                    and i * j == k and j * k == i and k * i == j
                    and j * i == -k and k * j == -i and i * k == -j)

        worst = 0.0
        trials = 10_000
        for dim in (1, 4, 32):
            rng = np.random.default_rng(dim)
            x = rng.standard_normal((trials, 4, dim))
            y = rng.standard_normal((trials, 4, dim))
            z = rng.standard_normal((trials, 4, dim))
            mult = np.abs(quat.magnitude(quat.hamilton(x, y))
                          - quat.magnitude(x) * quat.magnitude(y))
            scale = np.maximum(quat.magnitude(x) * quat.magnitude(y), 1.0)
            worst = max(worst, float(np.max(mult / scale)))
            assoc = np.abs(quat.hamilton(quat.hamilton(x, y), z)
                           - quat.hamilton(x, quat.hamilton(y, z)))
            worst = max(worst, float(np.max(assoc)))
            invol = np.abs(quat.conjugate(quat.conjugate(x)) - x)
            worst = max(worst, float(np.max(invol)))

        elapsed = time.perf_counter() - start
        verdict(1, "quaternion algebra suite",
                basis_ok and worst <= 1e-9 and elapsed < 10.0,
                f"basis exact={basis_ok}, max violation {worst:.2e}, "
                f"{elapsed:.1f}s (< 10 s)")


class TestCriterion2:
    def test_gradient_check(self):
        start = time.perf_counter()
        worst = 0.0
        count = 0
        for neg_rate in (1, 5):
            for seed in range(50):
                table, pos, neg, cfg = oracles.smooth_instance(
                    1000 * neg_rate + seed, neg_rate,
                    l1=0.02 * (seed % 2), l2=0.01 * (seed % 3 == 0))
                worst = max(worst, oracles.finite_difference_check(
                    table, pos, neg, cfg, eps=1e-6, rel_tol=1e-5))
                count += 1
        elapsed = time.perf_counter() - start
        verdict(2, "analytic gradients vs central differences",
                worst < 1e-5 and count == 100 and elapsed < 30.0,
                f"{count} instances, max relative error {worst:.2e}, "
                f"{elapsed:.1f}s (< 30 s)")


class TestCriterion3:
    def test_pattern_theorem_suite(self):
        start = time.perf_counter()
        trials = 10_000
        results = {}
        for dim in (1, 4, 32):
            inv = check_inversion(trials, dim, tolerance=1e-9, rng=dim)
            comp = check_composition(trials, dim, tolerance=1e-9, rng=dim + 1)
            anti = check_antisymmetry(trials, dim, rng=dim + 2)
            sym = check_symmetry(trials, dim, tolerance=1e-12, rng=dim + 3)
            results[dim] = (inv, comp, anti, sym)
        controls_fail = (
            not check_inversion(2000, 8, rng=50, use_conjugate=False).passed
            and not check_composition(2000, 8, rng=51, reverse_order=True).passed
            and not check_antisymmetry(2000, 8, rng=52, real_relations=True).passed
            and not check_symmetry(2000, 8, rng=53, inject_imaginary=True).passed)
        all_pass = all(v.passed for vs in results.values() for v in vs)
        elapsed = time.perf_counter() - start
        detail = ", ".join(
            f"k={dim}: inv {vs[0].max_violation:.1e}, comp {vs[1].max_violation:.1e}, "
            f"anti {vs[2].detail['fraction_separated']:.3f}, sym {vs[3].max_violation:.1e}"
            for dim, vs in results.items())
        verdict(3, "relational pattern theorems",
                all_pass and controls_fail and elapsed < 30.0,
                f"{detail}; negative controls fail={controls_fail}, "
                f"{elapsed:.1f}s (< 30 s)")


class TestCriterion4:
    def test_rotate_reduction(self):
        rng = np.random.default_rng(17)
        table = init_embeddings(40, 6, 8, seed=18)
        table.entities[:, 2:, :] = 0.0
        table.relations[:, 2:, :] = 0.0
        triples = []
        for _ in range(1000):
            h, t = rng.integers(40, size=2)
            r = rng.integers(6)
            triples.append((h, r, t))
        expected = np.array([oracles.reference_score(table, h, r, t, "rotate")
                             for h, r, t in triples])
        worst = max(float(np.max(np.abs(score_triples(table, triples, scorer)
                                        - expected)))
                    for scorer in ("quate_d", "rotate"))
        verdict(4, "complex-plane reduction",
                worst < 1e-9, f"max |quate_d or rotate - complex reference| = "
                              f"{worst:.2e} over 10^3 triples")


class TestCriterion5:
    @pytest.mark.parametrize("name", sorted(BENCHMARK_STATS))
    def test_benchmark_fidelity(self, name):
        start = time.perf_counter()
        store = load_dataset(*dataset_dir_paths(benchmark_dir(name)))
        elapsed = time.perf_counter() - start
        stats = store.stats()
        verdict(5, f"dataset fidelity ({name})",
                stats == BENCHMARK_STATS[name] and elapsed < 60.0,
                f"{stats} ({elapsed:.1f}s)")


class TestCriterion6:
    def test_ranking_oracle_equivalence(self, fixture50):
        store, table = fixture50
        total = sum(len(split) for split in (store.train, store.valid, store.test))
        assert total == 50 and store.n_entities == 20
        mismatches = []
        for mode in ("raw", "filtered"):
            report = link_prediction(table, store, mode=mode)
            expected = oracles.reference_report(table, store, mode)
            for field in ("mr", "mrr", "count"):
                if getattr(report, field) != expected[field]:
                    mismatches.append(f"{mode}.{field}")
            if report.hits != expected["hits"]:
                mismatches.append(f"{mode}.hits")
            if report.per_relation_mrr != expected["per_relation_mrr"]:
                mismatches.append(f"{mode}.per_relation_mrr")
        verdict(6, "ranking oracle equivalence",
                not mismatches,
                "raw and filtered reports match the brute-force reference "
                f"exactly (mismatches: {mismatches or 'none'})")


def filtered_test_report(result, store):
    return link_prediction(result.table, store, mode="filtered", split="test")


class TestCriterion7:
    def test_planted_patterns_end_to_end(self, planted_store, planted_result):
        report = filtered_test_report(planted_result, planted_store)
        sym_id = planted_store.relation_ids["sym"]
        anti_id = planted_store.relation_ids["antisym"]
        sym_energy = check_trained(planted_result.table, planted_store,
                                   sym_id, rng=0).imaginary_energy
        anti_energy = check_trained(planted_result.table, planted_store,
                                    anti_id, rng=0).imaginary_energy
        epochs_used = planted_result.log[-1]["epoch"]
        ok = (report.hits[10] >= 0.90 and report.mrr >= 0.60
              and sym_energy < 0.10 and anti_energy >= 0.10
              and epochs_used <= 2000
              and planted_result.wall_seconds < 600.0)
        verdict(7, "planted-pattern end-to-end",
                ok,
                f"Hits@10={report.hits[10]:.3f} (>=0.90), MRR={report.mrr:.3f} "
                f"(>=0.60), sym imag energy={sym_energy:.3f} (<0.10), antisym "
                f"imag energy={anti_energy:.3f} (>=0.10), {epochs_used} epochs "
                f"(<=2000), {planted_result.wall_seconds:.0f}s (< 600 s)")


class TestCriterion8:
    def test_rerun_is_byte_identical(self, planted_store, planted_config,
                                     planted_result, tmp_path):
        second = fit(planted_store, planted_config)

        paths = []
        for tag, result in (("first", planted_result), ("second", second)):
            path = tmp_path / f"{tag}.bin"
            save_checkpoint(result.table, path,
                            config_hash=planted_config.config_hash())
            paths.append(path)
        checkpoints_equal = paths[0].read_bytes() == paths[1].read_bytes()

        reports = []
        for result in (planted_result, second):
            report = filtered_test_report(result, planted_store)
            reports.append(render_keyvalue(
                ranking_items(report, planted_store.relation_names)))
        reports_equal = reports[0] == reports[1]

        verdict(8, "determinism of the end-to-end run",
                checkpoints_equal and reports_equal,
                f"checkpoints identical={checkpoints_equal}, "
                f"reports identical={reports_equal}")


class TestCriterion9:
    def test_wn18rr_long_run_documented(self):
        pytest.skip(
            "ACCEPTANCE 9 SKIP wn18rr full training: multi-day job, not part "
            "of the gated suite; see README for the exact command and the "
            "targets (filtered MRR within 15% of 0.483, MR <= 2100)")
