"""End-to-end acceptance gate.

Each test checks one headline guarantee of the library at a stated
tolerance and prints a single machine-greppable PASS/FAIL line.  Oracles
are implemented locally and independently of the library internals.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from semdisc import (
    AssociationTable,
    MeritMatrix,
    MonteCarloConfig,
    balanced_merit,
    build_frame,
    enumerate_subsets,
    generalized_total_variation,
    max_capacity,
    ml_error_probability,
    ols_regression,
    pearson_r,
    run_monte_carlo,
    semantic_distance_analytic,
    solve_assignment,
    total_variation,
    write_association_csv,
)
from semdisc.model import ConceptSet, FeatureLibrary

from conftest import random_table


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label}{detail}")
    assert ok, f"criterion {num} failed: {label}{detail}"


def _random_distribution(rng, n):
    p = rng.uniform(0.0, 1.0, size=n) + 1e-9
    return p / p.sum()


def test_criterion_1_gtv_reduces_to_tv():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 101))
        p1 = _random_distribution(rng, n)
        p2 = _random_distribution(rng, n)
        worst = max(
            worst,
            abs(generalized_total_variation([p1, p2]) - total_variation(p1, p2)),
        )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "two-distribution GTV equals TV",
        worst <= 1e-12 and elapsed < 1.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


_PERM_CACHE = {}


def _brute_force_total(values):
    N, n = values.shape
    if (N, n) not in _PERM_CACHE:
        _PERM_CACHE[(N, n)] = np.array(
            list(itertools.permutations(range(N), n)), dtype=int
        )
    perms = _PERM_CACHE[(N, n)]
    return float(values[perms, np.arange(n)].sum(axis=1).max())


def test_criterion_2_solver_matches_brute_force():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        N = int(rng.integers(n, 11))
        values = rng.normal(size=(N, n))
        merit = MeritMatrix(
            FeatureLibrary.from_ids([f"f{i}" for i in range(N)]),
            ConceptSet(tuple(f"c{j}" for j in range(n))),
            values,
        )
        fast = solve_assignment(merit).total_merit
        worst = max(worst, abs(fast - _brute_force_total(values)))
    elapsed = time.perf_counter() - start
    _report(
        2,
        "assignment solver is exact on random merit matrices",
        worst <= 1e-9 and elapsed < 5.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_3_monte_carlo_matches_analytic():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    devs = []
    for i in range(50):
        t = random_table(rng, 2, 2)
        mc = run_monte_carlo(t, MonteCarloConfig(samples=10_000, seed=i))
        devs.append(abs(mc.delta_s - semantic_distance_analytic(t)))
    elapsed = time.perf_counter() - start
    mean_dev, max_dev = float(np.mean(devs)), float(np.max(devs))
    _report(
        3,
        "simulated two-concept distance agrees with the closed form",
        mean_dev <= 0.02 and max_dev <= 0.05 and elapsed < 10.0,
        f" (mean {mean_dev:.4f}, max {max_dev:.4f}, {elapsed:.2f}s)",
    )


def test_criterion_4_distance_scale_endpoints():
    ok = True
    details = []
    for n in (2, 3, 4):
        n_fact = math.factorial(n)
        # unanimous assignments pin the scale at 1, chance at 0
        top = (n_fact * 1.0 - 1) / (n_fact - 1)
        bottom = (n_fact * (1 / n_fact) - 1) / (n_fact - 1)
        ok &= top == 1.0 and bottom == 0.0

        diag = AssociationTable.from_arrays(
            [f"f{i}" for i in range(n)],
            [f"c{j}" for j in range(n)],
            np.eye(n),
        )
        r = run_monte_carlo(diag, MonteCarloConfig(samples=2000, seed=n))
        ok &= r.modal_proportion == 1.0 and r.delta_s == 1.0

        flat = AssociationTable.from_arrays(
            [f"f{i}" for i in range(n)],
            [f"c{j}" for j in range(n)],
            np.full((n, n), 0.5),
        )
        samples = 20_000
        r = run_monte_carlo(flat, MonteCarloConfig(samples=samples, seed=n))
        chance = 1 / n_fact
        se = math.sqrt(chance * (1 - chance) / samples)
        dev = abs(r.modal_proportion - chance)
        ok &= dev <= 3 * se
        details.append(f"n={n} flat dev {dev / se:.2f} se")
    _report(4, "distance endpoints at certainty and chance", ok,
            " (" + ", ".join(details) + ")")


def _enumerated_ml_error(distributions):
    """Oracle: best decision rule picked by explicit search over the
    per-feature concept choices."""
    k = len(distributions)
    N = len(distributions[0])
    total_correct = 0.0
    for i in range(N):
        total_correct += max(distributions[j][i] for j in range(k))
    return 1.0 - total_correct / k


def test_criterion_5_ml_error_identity():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        N = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        dists = [_random_distribution(rng, N) for _ in range(k)]
        worst = max(
            worst,
            abs(ml_error_probability(dists) - _enumerated_ml_error(dists)),
        )
    elapsed = time.perf_counter() - start
    _report(
        5,
        "classification-error identity matches enumerated decision rule",
        worst <= 1e-12 and elapsed < 1.0,
        f" (max dev {worst:.2e}, {elapsed:.2f}s)",
    )


def test_criterion_6_merit_assignment_maximizes_pair_margin():
    rng = np.random.default_rng(606)
    mismatches = 0
    delta_s_disagreements = 0
    for _ in range(500):
        N = int(rng.integers(2, 13))
        t = random_table(rng, N, 2)
        report = max_capacity(t, t.concepts.concepts)
        a = t.values
        d = a[:, 0] - a[:, 1]
        margins = {
            (i1, i2): d[i1] - d[i2]
            for i1, i2 in itertools.permutations(range(N), 2)
        }
        best_margin = max(margins.values())
        i1 = t.library.index_of(report.chosen_features[0])
        i2 = t.library.index_of(report.chosen_features[1])
        if margins[(i1, i2)] != best_margin:
            mismatches += 1
        # audit: does the max-margin pair also maximize the distance itself?
        best_ds = max(
            semantic_distance_analytic(a[[p1, p2]])
            for p1, p2 in itertools.permutations(range(N), 2)
        )
        chosen_ds = semantic_distance_analytic(a[[i1, i2]])
        if abs(chosen_ds - best_ds) > 1e-12:
            delta_s_disagreements += 1
    print(
        f"criterion 6 audit: merit-optimal pair differed from "
        f"distance-optimal pair in {delta_s_disagreements}/500 tables"
    )
    _report(
        6,
        "merit-based selection finds the maximum-margin pair",
        mismatches == 0,
        f" ({mismatches} mismatches)",
    )


def test_criterion_7_subset_counts():
    concepts = [f"c{i}" for i in range(20)]
    pairs = sum(1 for _ in enumerate_subsets(concepts, 2))
    quads = sum(1 for _ in enumerate_subsets(concepts, 4))
    _report(
        7,
        "subset enumeration counts for 20 concepts",
        pairs == 190 and quads == 4845,
        f" (190={pairs}, 4845={quads})",
    )


def test_criterion_8_parallel_runs_are_byte_identical(tmp_path):
    rng = np.random.default_rng(7)
    t = AssociationTable.from_arrays(
        [f"f{i:02d}" for i in range(71)],
        [f"c{j}" for j in range(8)],
        rng.uniform(0.02, 0.98, size=(71, 8)),
    )
    path = tmp_path / "synthetic.csv"
    write_association_csv(t, path)
    base = [
        sys.executable, "-m", "semdisc.cli",
        "capacity", str(path), "--k", "4", "--all",
        "--seed", "7", "--samples", "1000",
    ]
    start = time.perf_counter()
    one = subprocess.run(
        base + ["--workers", "1"], capture_output=True, check=True
    )
    many = subprocess.run(
        base + ["--workers", "6"], capture_output=True, check=True
    )
    elapsed = time.perf_counter() - start
    _report(
        8,
        "parallel capacity scan is byte-identical to the serial run",
        one.stdout == many.stdout and len(one.stdout) > 0 and elapsed < 120.0,
        f" ({len(one.stdout)} bytes, {elapsed:.1f}s)",
    )


DATASET_ENV = "SEMDISC_ASSOC_CSV"


@pytest.mark.skipif(
    DATASET_ENV not in os.environ,
    reason=f"published association dataset not supplied (set {DATASET_ENV})",
)
def test_criterion_9_published_dataset_correlations():
    from semdisc import load_association_csv

    t = load_association_csv(os.environ[DATASET_ENV])
    expected = {
        2: {"distribution_difference": 0.93, "specificity": 0.82},
        4: {"distribution_difference": 0.74, "specificity": 0.61},
    }
    ok = True
    details = []
    for k, targets in expected.items():
        frame = build_frame(t, k, MonteCarloConfig(samples=1000, seed=0))
        valid = frame.valid_mask
        r_dd = pearson_r(
            frame.capacity[valid], frame.log_distribution_difference[valid]
        )["r"]
        r_spec = pearson_r(
            frame.capacity[valid], frame.log_specificity[valid]
        )["r"]
        ok &= abs(r_dd - targets["distribution_difference"]) <= 0.05
        ok &= abs(r_spec - targets["specificity"]) <= 0.05
        details.append(f"k={k}: r_dd={r_dd:.3f}, r_spec={r_spec:.3f}")
    _report(9, "published-dataset correlations", ok, " (" + "; ".join(details) + ")")


def test_criterion_10_statistics_oracles():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(8, 40))
        k = int(rng.integers(1, 4))
        X = rng.normal(size=(n, k))
        y = rng.normal(size=n)
        out = ols_regression(y, X)
        Z = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
        design = np.column_stack([np.ones(n), Z])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        worst = max(worst, float(np.max(np.abs(out["beta"] - beta))))
    r = pearson_r([1, 2, 3, 4], [1, 3, 2, 4])["r"]
    _report(
        10,
        "regression and correlation match direct solutions",
        worst <= 1e-9 and abs(r - 0.8) <= 1e-12,
        f" (max beta dev {worst:.2e}, r={r})",
    )
