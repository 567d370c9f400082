import dataclasses
import errno
import itertools
import math
import multiprocessing
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from semdisc import (
    AssociationTable,
    MonteCarloConfig,
    balanced_merit,
    capacity_statistics,
    distributions,
    enumerate_subsets,
    exhaustive_pair_semantics,
    generalized_total_variation,
    iter_capacity_reports,
    max_capacity,
    mean_entropy,
    run_monte_carlo,
    semantic_distance_analytic,
    solve_assignment,
    total_variation,
    write_association_csv,
)
from semdisc import assignment, capacity
from semdisc.cli import main
from semdisc.capacity import subset_seed
from semdisc.montecarlo import _pair_result
from semdisc.errors import DegenerateInputError, InfeasibleError, ValidationError

from conftest import patch_usable_cpus, random_table, record_caller_reports, run_fresh


class TestMaxCapacity:
    def test_disjoint_extreme(self):
        values = np.zeros((5, 2))
        values[1, 0] = 1.0
        values[3, 1] = 1.0
        t = AssociationTable.from_arrays(
            [f"f{i}" for i in range(5)], ["a", "b"], values
        )
        report = max_capacity(t, ["a", "b"])
        assert report.max_capacity == 1.0
        assert set(report.chosen_features) == {"f1", "f3"}
        assert report.method == "analytic"
        assert (report.monte_carlo.delta_s, report.monte_carlo.samples) == (1.0, None)

    def test_identical_columns_zero(self):
        col = np.array([0.6, 0.3, 0.2, 0.5])
        t = AssociationTable.from_arrays(
            [f"f{i}" for i in range(4)], ["a", "b"],
            np.column_stack([col, col]),
        )
        report = max_capacity(t, ["a", "b"])
        assert report.max_capacity == pytest.approx(0.0, abs=1e-12)
        assert report.distribution_difference == pytest.approx(0.0, abs=1e-12)

    def test_selected_pair_maximizes_margin(self, rng):
        for _ in range(20):
            t = random_table(rng, 10, 2)
            report = max_capacity(t, t.concepts.concepts)
            a = t.values
            d = a[:, 0] - a[:, 1]
            best = max(
                d[i1] - d[i2]
                for i1, i2 in itertools.permutations(range(10), 2)
            )
            i1 = t.library.index_of(report.chosen_features[0])
            i2 = t.library.index_of(report.chosen_features[1])
            assert d[i1] - d[i2] == pytest.approx(best, abs=1e-12)

    def test_monte_carlo_path(self, rng):
        t = random_table(rng, 8, 3)
        report = max_capacity(
            t, t.concepts.concepts, MonteCarloConfig(samples=300, seed=4)
        )
        assert report.method == "monte_carlo"
        assert 0.0 <= report.max_capacity <= 1.0
        assert len(report.chosen_features) == 3
        # the report carries the run its capacity was read from
        assert report.monte_carlo.delta_s == report.max_capacity
        assert report.monte_carlo.feature_ids == report.chosen_features

    def test_zero_column_square(self):
        # the chosen square has an all-zero column for concept z; only
        # the full table's columns need positive sums
        t = AssociationTable.from_arrays(
            list("abcde"),
            list("xyz"),
            [[1, 0, 0.3], [0, 1, 0], [0.9, 0, 0], [0, 0.9, 0], [0, 0, 0]],
        )
        report = max_capacity(t, ["x", "y", "z"])
        assert report.chosen_features == ("c", "b", "e")
        assert 0.0 <= report.max_capacity <= 1.0

    def test_row_permutation_invariance(self, rng):
        t = random_table(rng, 8, 2)
        perm = rng.permutation(8)
        t2 = AssociationTable.from_arrays(
            [t.library.ids[i] for i in perm],
            t.concepts.concepts,
            t.values[perm],
        )
        r1 = max_capacity(t, t.concepts.concepts)
        r2 = max_capacity(t2, t.concepts.concepts)
        assert r1.max_capacity == pytest.approx(r2.max_capacity, abs=1e-12)

    @pytest.mark.parametrize("kind", ["random", "ternary"])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_equals_public_wrappers(self, rng, monkeypatch, kind, k):
        """Every report equals, field for field, the one built from the
        public wrappers on the subset table, so a max_capacity that stops
        calling them must still agree with them. On {0, 0.5, 1} tables
        tied column maxima send some feature picks to scipy."""
        if kind == "random":
            t = random_table(rng, 9, 7)
        else:
            values = rng.choice([0.0, 0.5, 1.0], size=(9, 7))
            values[0, values.sum(axis=0) == 0.0] = 1.0
            t = AssociationTable.from_arrays(
                [f"f{i}" for i in range(9)], [f"c{j}" for j in range(7)], values
            )
        scipy_picks = []
        solver = assignment.linear_sum_assignment

        def counted(*args, **kwargs):
            scipy_picks.append(args)
            return solver(*args, **kwargs)

        cfg = MonteCarloConfig(samples=150, seed=5)
        for subset in enumerate_subsets(t.concepts.concepts, k):
            sub = t.subset(concepts=list(subset))
            chosen = solve_assignment(balanced_merit(sub))
            square = sub.subset(features=list(chosen.feature_ids))
            dists = distributions(sub)
            if k == 2:
                result = _pair_result(square)
                capacity = semantic_distance_analytic(square)
                dd = total_variation(dists[0], dists[1])
            else:
                result = run_monte_carlo(square, cfg)
                capacity = result.delta_s
                dd = generalized_total_variation(dists)
            with monkeypatch.context() as m:
                m.setattr(assignment, "linear_sum_assignment", counted)
                got = max_capacity(t, subset, cfg)
            assert got.concepts == subset
            assert got.max_capacity == capacity
            assert got.chosen_features == chosen.feature_ids
            assert got.distribution_difference == dd
            assert got.mean_entropy == mean_entropy(dists)
            assert got.method == ("analytic" if k == 2 else "monte_carlo")
            assert (got.samples, got.seed) == ((None, None) if k == 2 else (150, 5))
            assert got.monte_carlo == result
        assert scipy_picks or kind == "random"

    def test_two_concepts_keep_the_closed_form(self, rng):
        """At n = 2 the report keeps the closed form as its result: no
        samples or seed, each contrast p = (1 + delta_s) / 2, and a
        response matrix whose rows and columns sum to 1. A noiseless tie
        reads 0.5 in every cell."""
        for _ in range(10):
            t = random_table(rng, 10, 2)
            report = max_capacity(t, t.concepts.concepts)
            result = report.monte_carlo
            assert (report.samples, report.seed, result.samples, result.seed) == (None,) * 4
            assert result.delta_s == report.max_capacity
            p = (1.0 + report.max_capacity) / 2.0
            assert result.contrast == (p, p)
            m = result.response_matrix
            assert m.sum(axis=0).tolist() == m.sum(axis=1).tolist() == [1.0, 1.0]
        tie = AssociationTable.from_arrays(["f1", "f2"], ["a", "b"], [[1.0, 1.0], [0.0, 0.0]])
        result = max_capacity(tie, ["a", "b"]).monte_carlo
        assert result.response_matrix.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_zero_column_sum_in_subset(self):
        # a subset of features can leave a concept no association: its
        # distribution is undefined, while other concepts' stay usable
        t = AssociationTable.from_arrays(
            list("abcd"), list("xyz"),
            [[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0], [0.1, 0.1, 0.7]],
        ).subset(features=list("abc"))
        assert max_capacity(t, ["x", "y"]).method == "analytic"
        with pytest.raises(DegenerateInputError, match="'z' has zero column sum"):
            max_capacity(t, ["x", "z"])

    def test_more_concepts_than_features(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2"], ["a", "b", "c"], [[0.2, 0.5, 0.9], [0.7, 0.1, 0.4]]
        )
        with pytest.raises(InfeasibleError, match="2 features cannot cover 3"):
            max_capacity(t, ["a", "b", "c"])
        with pytest.raises(InfeasibleError, match="2 features cannot cover 3"):
            list(iter_capacity_reports(t, 3, MonteCarloConfig(samples=10)))


class TestExhaustivePairs:
    def test_counts(self, rng):
        t = random_table(rng, 71, 2)
        assert len(exhaustive_pair_semantics(t, t.concepts.concepts)) == 2485
        t3 = random_table(rng, 3, 2)
        assert len(exhaustive_pair_semantics(t3, t3.concepts.concepts)) == 3

    def test_values_match_analytic(self, rng):
        t = random_table(rng, 6, 2)
        distances = exhaustive_pair_semantics(t, t.concepts.concepts)
        assert not distances.flags.writeable
        pairs = zip(*np.triu_indices(t.n_features, 1))
        for (r, c), ds in zip(pairs, distances, strict=True):
            f1, f2 = t.library.ids[r], t.library.ids[c]
            sub = t.subset(concepts=None, features=[f1, f2])
            assert ds == semantic_distance_analytic(sub)

    def test_dominates_max_capacity(self, rng):
        for _ in range(10):
            t = random_table(rng, 9, 2)
            report = max_capacity(t, t.concepts.concepts)
            pairs = exhaustive_pair_semantics(t, t.concepts.concepts)
            assert pairs.max() >= report.max_capacity

    def test_max_capacity_is_its_pairs_value(self, rng):
        """max_capacity reads its chosen pair, in concept order, with the
        same kernel as the exhaustive scan reads it, in library order."""
        for _ in range(50):
            t = random_table(rng, 8, 2)
            report = max_capacity(t, t.concepts.concepts)
            r, c = sorted(t.library.index_of(f) for f in report.chosen_features)
            pairs = exhaustive_pair_semantics(t, t.concepts.concepts)
            index = list(zip(*np.triu_indices(8, 1))).index((r, c))
            assert report.max_capacity == pairs[index]

    def test_monotone_library_extension(self, rng):
        t_small = random_table(rng, 6, 2)
        extra = rng.uniform(0.02, 0.98, size=(3, 2))
        t_big = AssociationTable.from_arrays(
            list(t_small.library.ids) + ["g0", "g1", "g2"],
            t_small.concepts.concepts,
            np.vstack([t_small.values, extra]),
        )
        # raw associations are shared, so pairwise margins computed from
        # them can only gain candidates
        max_small = exhaustive_pair_semantics(t_small, ("c0", "c1")).max()
        max_big = exhaustive_pair_semantics(t_big, ("c0", "c1")).max()
        assert max_big >= max_small - 1e-12

    def test_needs_two_concepts(self, rng):
        t = random_table(rng, 5, 3)
        with pytest.raises(ValidationError):
            exhaustive_pair_semantics(t, t.concepts.concepts)


class TestCapacityStatistics:
    def test_all_equal(self):
        s = capacity_statistics(np.full(4, 0.5), threshold=0.4)
        assert s["max"] == s["mean"] == s["median"] == 0.5
        assert s["threshold_proportion"] == 1.0

    def test_endpoints(self):
        s = capacity_statistics(np.array([0.0, 1.0]), threshold=0.5)
        assert s["max"] == 1.0
        assert s["mean"] == 0.5
        assert s["median"] == 0.5
        assert s["threshold_proportion"] == 0.5

    def test_zero_threshold_counts_nonzero(self):
        s = capacity_statistics(np.array([0.0, 0.2, 0.9]), threshold=0.0)
        assert s["threshold_proportion"] == pytest.approx(2 / 3)

    def test_empty(self):
        with pytest.raises(ValidationError):
            capacity_statistics(np.array([]))

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 91, 190, 399])
    def test_median_is_numpys(self, rng, size):
        # odd and even sizes; rounding makes ties
        for values in (rng.random(size), np.round(rng.random(size), 1)):
            median = capacity_statistics(values)["median"]
            assert np.float64(median).tobytes() == np.median(values).tobytes()
        values[size // 2] = math.nan
        assert math.isnan(capacity_statistics(values)["median"])

    def test_exhaustive_scan_skips_numpy_ma(self, tmp_path, rng):
        # np.median imports numpy.ma on its first call, and nothing else
        # in the command loads it (numpy < 2 imports it with numpy)
        path = tmp_path / "t.csv"
        write_association_csv(random_table(rng, 6, 4), path)
        argv = ["capacity", str(path), "--all", "--k", "2", "--exhaustive"]
        run_fresh(
            f"""
import contextlib, io, sys
import numpy
numpy_loads_ma = "numpy.ma" in sys.modules
from semdisc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
assert numpy_loads_ma or "numpy.ma" not in sys.modules
"""
        )


    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold(self, threshold):
        with pytest.raises(ValidationError, match="threshold must be finite"):
            capacity_statistics(np.array([0.1, 0.9]), threshold)


class TestEnumeration:
    def test_twenty_concept_counts(self):
        concepts = [f"c{i}" for i in range(20)]
        assert sum(1 for _ in enumerate_subsets(concepts, 2)) == 190
        assert sum(1 for _ in enumerate_subsets(concepts, 4)) == 4845

    def test_full_subset(self):
        assert list(enumerate_subsets(["a", "b", "c"], 3)) == [("a", "b", "c")]

    def test_lexicographic(self):
        subs = list(enumerate_subsets(["a", "b", "c"], 2))
        assert subs == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            list(enumerate_subsets(["a", "b"], 3))


class TestBatch:
    def test_order_and_worker_determinism(self, rng):
        t = random_table(rng, 8, 5)
        cfg = MonteCarloConfig(samples=100, seed=7)
        serial = list(iter_capacity_reports(t, 3, cfg, workers=1))
        parallel = list(iter_capacity_reports(t, 3, cfg, workers=3))
        assert [r.concepts for r in serial] == [
            c for c in enumerate_subsets(t.concepts.concepts, 3)
        ]
        for a, b in zip(serial, parallel):
            assert a == b

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, rng, seed):
        t = random_table(rng, 5, 3)
        with pytest.raises(ValidationError, match="seed"):
            list(iter_capacity_reports(t, 2, MonteCarloConfig(samples=10, seed=seed)))

    @pytest.mark.parametrize("kind", ["random", "ternary"])
    # the exhaustive flag keeps the k=2 cases' ids: the scan takes no
    # exhaustive arguments, and these cases check the statistics that
    # `capacity --exhaustive` adds to each row
    @pytest.mark.parametrize(
        "k, exhaustive", [(2, False), (2, True), (3, False), (4, False), (6, False)]
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_scan_matches_max_capacity(self, rng, kind, k, exhaustive, workers):
        """Every scan report equals max_capacity on its subset with the
        subset's derived seed, field for field, on the analytic (k=2),
        permutation (k=3, 4) and subset-DP (k=6) paths; the scan keeps no
        Monte Carlo run. With exhaustive, each subset's pair statistics
        equal those of the analytic distance of every feature pair."""
        if kind == "random":
            t = random_table(rng, 9, 7)
        else:
            values = rng.choice([0.0, 0.5, 1.0], size=(9, 7))
            values[0, values.sum(axis=0) == 0.0] = 1.0
            t = AssociationTable.from_arrays(
                [f"f{i}" for i in range(9)], [f"c{j}" for j in range(7)], values
            )
        cfg = MonteCarloConfig(samples=150, seed=11)
        reports = list(iter_capacity_reports(t, k, cfg, workers=workers))
        subsets = list(enumerate_subsets(t.concepts.concepts, k))
        assert len(reports) == len(subsets)
        for idx, (subset, report) in enumerate(zip(subsets, reports)):
            want = max_capacity(
                t, subset, dataclasses.replace(cfg, seed=subset_seed(cfg.seed, idx))
            )
            assert report.monte_carlo is None
            for f in dataclasses.fields(report):
                if f.name != "monte_carlo":
                    assert getattr(report, f.name) == getattr(want, f.name), f.name
            if exhaustive:
                oracle = [
                    semantic_distance_analytic(t.subset(concepts=subset, features=pair))
                    for pair in itertools.combinations(t.library.ids, 2)
                ]
                stats = capacity_statistics(exhaustive_pair_semantics(t, subset))
                assert stats == pytest.approx(capacity_statistics(np.array(oracle)))

    @pytest.mark.parametrize(
        "workers, match", [("2", "must be an integer"), (0, "must be >= 1"), (-3, "must be >= 1")]
    )
    def test_workers_checked(self, rng, workers, match):
        t = random_table(rng, 5, 3)
        with pytest.raises(ValidationError, match=f"workers {match}"):
            list(iter_capacity_reports(t, 2, MonteCarloConfig(samples=10), workers=workers))

    @pytest.mark.parametrize(
        "k, workers, match",
        [(2, 0, "workers must be >= 1"), (1, 1, "out of range"), (4, 2, "out of range")],
    )
    def test_arguments_checked_at_the_call(self, rng, k, workers, match):
        """A bad workers or k raises when the scan is made, before any
        report is asked for."""
        t = random_table(rng, 5, 3)
        with pytest.raises(ValidationError, match=match):
            iter_capacity_reports(t, k, MonteCarloConfig(samples=10), workers=workers)

    def test_subset_seeds_distinct(self):
        seeds = {subset_seed(7, i) for i in range(100)}
        assert len(seeds) == 100


_worker_task = capacity._worker_task
_pool_tasks = 0


def _die_on_second_task(task):
    """The task function of a pool process that computes one task and
    dies part-way through the next, as an out-of-memory kill would end
    it, while the caller computes tasks of its own."""
    global _pool_tasks
    assert multiprocessing.parent_process() is not None, "not in a pool process"
    _pool_tasks += 1
    if _pool_tasks > 1:
        time.sleep(0.2)
        os._exit(1)
    return _worker_task(task)


def _cannot_start(*args, **kwargs):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


class _TakesOneTask(ProcessPoolExecutor):
    def submit(self, *args, **kwargs):
        if getattr(self, "took", False):
            _cannot_start()
        self.took = True
        return super().submit(*args, **kwargs)


POOL_FAULTS = {
    "loses-a-process": ("_worker_task", _die_on_second_task),
    "cannot-start": ("ProcessPoolExecutor", _cannot_start),
    "cannot-take-a-task": ("ProcessPoolExecutor", _TakesOneTask),
}


def record_pools(monkeypatch):
    """Put a recording subclass in place of the scan's process pool class,
    and return the list of pool sizes it is asked for."""
    sizes = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(capacity, "ProcessPoolExecutor", Recording)
    return sizes


class TestPooledScan:
    """A pooled scan's caller is one of its workers: workers w fork w - 1
    processes, and the caller computes the tasks no worker has started."""

    def test_caller_is_a_worker(self, rng, monkeypatch):
        sizes = record_pools(monkeypatch)
        t = random_table(rng, 9, 7)  # 35 subsets at k = 3: 5 tasks
        cfg = MonteCarloConfig(samples=200, seed=5)
        serial = list(iter_capacity_reports(t, 3, cfg, workers=1))
        assert sizes == []
        pids = record_caller_reports(monkeypatch)
        patch_usable_cpus(monkeypatch, 2)
        assert list(iter_capacity_reports(t, 3, cfg, workers=2)) == serial
        assert sizes == [1]
        assert pids.count(os.getpid()) >= capacity._TASK
        patch_usable_cpus(monkeypatch, 3)
        assert list(iter_capacity_reports(t, 3, cfg, workers=3)) == serial
        assert sizes == [1, 2]

    @pytest.mark.parametrize("fault", POOL_FAULTS)
    def test_failed_pool_costs_speed_not_the_scan(self, rng, monkeypatch, capfd, tmp_path, fault):
        """The caller computes every task a failed pool has not finished:
        the reports and the CLI's stdout equal the serial scan's, and
        stderr holds one warning line and nothing from the executor."""
        t = random_table(rng, 9, 7)  # 35 subsets at k = 3: 5 tasks
        cfg = MonteCarloConfig(samples=200, seed=5)
        path = tmp_path / "t.csv"
        write_association_csv(t, path)
        argv = ["capacity", str(path), "--all", "--k", "3", "--samples", "200", "--seed", "5"]
        serial = list(iter_capacity_reports(t, 3, cfg, workers=1))
        assert main(argv) == 0
        want = capfd.readouterr()
        patch_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(capacity, *POOL_FAULTS[fault])
        with pytest.warns(RuntimeWarning, match=r"^process pool failed") as caught:
            assert list(iter_capacity_reports(t, 3, cfg, workers=2)) == serial
        assert len(caught) == 1
        assert main([*argv, "--workers", "2"]) == 0
        out, err = capfd.readouterr()
        assert (out, want.err) == (want.out, "")
        assert re.fullmatch(r"warning: process pool failed \([^\n]*\n", err)

    @pytest.mark.skipif(sys.platform != "linux", reason="pools fork on Linux only")
    def test_pool_forks_whatever_the_default_start_method(self):
        """On Linux the pool forks, so its processes inherit the caller's
        imports, also where the default is forkserver (Python 3.14)."""
        out = run_fresh(
            "import multiprocessing, os\n"
            "import numpy as np\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from semdisc import MonteCarloConfig, capacity\n"
            "from conftest import random_table\n"
            "multiprocessing.set_start_method('forkserver', force=True)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "class Recording(ProcessPoolExecutor):\n"
            "    def __init__(self, *args, mp_context=None, **kwargs):\n"
            "        context = mp_context or multiprocessing.get_context()\n"
            "        print(context.get_start_method())\n"
            "        super().__init__(*args, mp_context=mp_context, **kwargs)\n"
            "capacity.ProcessPoolExecutor = Recording\n"
            "t = random_table(np.random.default_rng(5), 9, 7)\n"
            "cfg = MonteCarloConfig(samples=50, seed=5)\n"
            "pooled = list(capacity.iter_capacity_reports(t, 3, cfg, workers=2))\n"
            "assert pooled == list(capacity.iter_capacity_reports(t, 3, cfg))\n"
        )
        assert out == "fork\n"

    def test_one_usable_cpu_builds_no_pool(self, rng, monkeypatch):
        sizes = record_pools(monkeypatch)
        patch_usable_cpus(monkeypatch, 1)
        t = random_table(rng, 9, 7)
        cfg = MonteCarloConfig(samples=50, seed=5)
        assert len(list(iter_capacity_reports(t, 3, cfg, workers=2))) == 35
        assert sizes == []

    def test_failure_part_way_at_any_worker_count(self, monkeypatch):
        """Concept z has no association on the kept features, so every
        subset with z fails; the first is subset 17, in the third task.
        Each worker count yields the reports of every task before the
        failing one, and then raises the same error."""
        values = np.random.default_rng(4).uniform(0.05, 0.95, size=(9, 20))
        values[:, -1] = 0.0
        values[-1, -1] = 0.7
        features = [f"f{i}" for i in range(9)]
        t = AssociationTable.from_arrays(
            features, [f"c{j:02d}" for j in range(19)] + ["z"], values
        ).subset(features=features[:-1])
        cfg = MonteCarloConfig(samples=50, seed=3)

        def scan(workers):
            got = []
            with pytest.raises(DegenerateInputError, match="'z' has zero column sum") as info:
                for report in iter_capacity_reports(t, 3, cfg, workers=workers):
                    got.append(report)
            return got, type(info.value), str(info.value)

        serial, *error = scan(1)
        assert len(serial) == 2 * capacity._TASK
        for workers in (2, 3):
            patch_usable_cpus(monkeypatch, workers)
            got, *got_error = scan(workers)
            assert got_error == error
            assert got == serial
