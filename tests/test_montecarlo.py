import concurrent.futures
import contextlib
import hashlib
import itertools
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.special import ndtri

from semdisc import (
    AssociationTable,
    MonteCarloConfig,
    capacity,
    iter_capacity_reports,
    montecarlo,
    run_monte_carlo,
    semantic_distance_analytic,
    sigma,
)
from semdisc.errors import ShapeError, ValidationError
from semdisc.assignment import balanced_merit_values
from semdisc.montecarlo import (
    _code,
    _iteration_normals,
    _pair_distances,
    _rows,
    _solve_square_batch,
    _solve_subset_dp,
    _tally,
    _winners,
)

from conftest import patch_usable_cpus, random_table, record_caller_reports, run_fresh


def square_table(values):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return AssociationTable.from_arrays(
        [f"f{i}" for i in range(n)], [f"c{j}" for j in range(n)], values
    )


class TestNoiseModel:
    def test_sigma_formula(self):
        t = square_table([[0.5, 0.0], [1.0, 0.25]])
        s = sigma(t.values)
        assert s[0, 0] == pytest.approx(0.35)
        assert s[0, 1] == 0.0
        assert s[1, 0] == 0.0
        assert s[1, 1] == pytest.approx(1.4 * 0.25 * 0.75)

    def test_sigma_bounds(self, rng):
        t = random_table(rng, 10, 4)
        s = sigma(t.values)
        assert np.all(s >= 0) and np.all(s <= 0.35 + 1e-12)


class TestPairDistances:
    def test_against_mpmath(self, rng):
        """The kernel is |2 Phi(z) - 1| with z = margin / sqrt(variance),
        checked against 30-digit mpmath, down to tiny margins."""
        mpmath.mp.dps = 30
        a = rng.uniform(0.05, 0.95, size=(8, 2))
        a[1] = a[0] + [1e-9, 0.0]  # a pair with z near 3e-9
        a[3] = a[2] + [1e-15, 0.0]  # and one with z near 3e-15
        zs = []
        for got, r, c in zip(_pair_distances(a), *np.triu_indices(8, 1), strict=True):
            x = [[mpmath.mpf(float(v)) for v in a[i]] for i in (r, c)]
            margin = (x[0][0] - x[0][1]) - (x[1][0] - x[1][1])
            var = sum(mpmath.mpf(float(s)) ** 2 for s in sigma(a[[r, c]]).ravel())
            z = margin / mpmath.sqrt(var)
            zs.append(abs(z))
            assert got == pytest.approx(float(abs(2 * mpmath.ncdf(z) - 1)), abs=1e-15)
        assert 0 < min(zs) < 1e-14


class TestAnalyticDistance:
    def test_example(self):
        t = square_table([[0.8, 0.2], [0.2, 0.8]])
        assert semantic_distance_analytic(t) == pytest.approx(0.9926, abs=5e-4)

    def test_all_equal(self):
        t = square_table([[0.5, 0.5], [0.5, 0.5]])
        assert semantic_distance_analytic(t) == 0.0

    def test_feature_swap_symmetry(self, rng):
        for _ in range(30):
            a = rng.uniform(0.05, 0.95, size=(2, 2))
            assert semantic_distance_analytic(a) == semantic_distance_analytic(a[::-1])

    def test_degenerate_noiseless(self):
        assert semantic_distance_analytic([[1.0, 0.0], [0.0, 1.0]]) == 1.0
        assert semantic_distance_analytic([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            semantic_distance_analytic(np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 2.0, -0.5],
        ids=["nan", "inf", "-inf", "above-1", "below-0"],
    )
    def test_array_outside_unit_interval(self, value):
        with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
            semantic_distance_analytic([[value, 0.0], [0.0, 1.0]])


def perturbed(t, seed, draws=1):
    """Noisy draws of the whole table, as run_monte_carlo makes them."""
    a = t.values
    z = _iteration_normals(seed, 0, draws, a.size).reshape(draws, *a.shape)
    return a + sigma(a) * z


class TestPerturbation:
    def test_zero_noise_identity(self):
        t = square_table([[1.0, 0.0], [0.0, 1.0]])
        out = perturbed(t, 5)[0]
        np.testing.assert_array_equal(out, t.values)

    def test_seed_determinism(self):
        t = square_table([[0.8, 0.2], [0.3, 0.7]])
        a = perturbed(t, 9)
        b = perturbed(t, 9)
        np.testing.assert_array_equal(a, b)

    def test_moments(self):
        t = square_table([[0.5, 0.5], [0.5, 0.5]])
        draws = perturbed(t, 2, 100_000)[:, 0, 0]
        assert draws.std() == pytest.approx(0.35, rel=0.02)
        assert draws.mean() == pytest.approx(0.5, abs=0.005)

    def test_counter_offsets_match_serial(self):
        # chunk boundaries must not change the stream
        full = _iteration_normals(7, 0, 10, 9)
        head = _iteration_normals(7, 0, 4, 9)
        tail = _iteration_normals(7, 4, 6, 9)
        np.testing.assert_array_equal(full, np.vstack([head, tail]))


class TestMonteCarlo:
    def test_determinism(self, rng):
        t = random_table(rng, 3, 3)
        cfg = MonteCarloConfig(samples=500, seed=11)
        r1 = run_monte_carlo(t, cfg)
        r2 = run_monte_carlo(t, cfg)
        assert r1.assignment_frequencies == r2.assignment_frequencies
        assert r1.delta_s == r2.delta_s
        assert r1.contrast == r2.contrast

    def test_counts_sum_and_consistency(self, rng):
        t = random_table(rng, 4, 4)
        cfg = MonteCarloConfig(samples=777, seed=3)
        r = run_monte_carlo(t, cfg)
        assert sum(r.assignment_frequencies.values()) == 777
        n_fact = math.factorial(4)
        assert r.delta_s == pytest.approx(
            (n_fact * r.modal_proportion - 1) / (n_fact - 1), abs=1e-12
        )
        assert all(0.0 <= c <= 1.0 for c in r.contrast)
        assert np.mean(r.contrast) >= r.modal_proportion - 1e-12

    def test_diagonal_extreme(self):
        t = square_table(np.eye(3))
        r = run_monte_carlo(t, MonteCarloConfig(samples=200, seed=0))
        assert r.modal_proportion == 1.0
        assert r.delta_s == 1.0
        assert r.contrast == (1.0, 1.0, 1.0)
        np.testing.assert_array_equal(r.response_matrix, np.eye(3))

    def test_all_equal_near_chance(self):
        t = square_table(np.full((3, 3), 0.5))
        samples = 10_000
        r = run_monte_carlo(t, MonteCarloConfig(samples=samples, seed=1))
        se = math.sqrt((1 / 3) * (2 / 3) / samples)
        for c in r.contrast:
            assert abs(c - 1 / 3) <= 3 * se

    def test_mc_matches_analytic(self, rng):
        devs = []
        for _ in range(10):
            t = random_table(rng, 2, 2)
            r = run_monte_carlo(t, MonteCarloConfig(samples=10_000, seed=5))
            devs.append(abs(r.delta_s - semantic_distance_analytic(t)))
        assert np.mean(devs) <= 0.02
        assert max(devs) <= 0.05

    def test_response_matrix_doubly_stochastic(self, rng):
        t = random_table(rng, 4, 4)
        m = run_monte_carlo(t, MonteCarloConfig(samples=400, seed=8)).response_matrix
        np.testing.assert_allclose(m.sum(axis=0), np.ones(4), atol=1e-9)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(4), atol=1e-9)

    def test_response_matrix_matches_contrast(self, rng):
        t = random_table(rng, 3, 3)
        r = run_monte_carlo(t, MonteCarloConfig(samples=600, seed=4))
        for j, i in enumerate(r.optimal.feature_indices):
            assert r.response_matrix[i, j] == pytest.approx(
                r.contrast[i], abs=1e-12
            )

    def test_each_estimate_decodes_alone(self, rng):
        t = random_table(rng, 4, 4)
        cfg = MonteCarloConfig(samples=500, seed=9)
        r = run_monte_carlo(t, cfg)
        matrix = r.response_matrix
        assert r.response_matrix is matrix  # decoded once, then cached
        decoded = set(vars(r))
        assert "response_matrix" in decoded
        assert not decoded & {"optimal", "assignment_frequencies", "contrast"}
        # contrast comes from the tally, not from the returned matrix
        matrix[:] = 0.0
        assert r.contrast == run_monte_carlo(t, cfg).contrast
        assert "assignment_frequencies" not in vars(r)

    def test_contrast_api(self, rng):
        t = random_table(rng, 3, 3)
        r = run_monte_carlo(t, MonteCarloConfig(samples=300, seed=2))
        contrast, optimal = r.contrast_by_feature(), r.optimal
        assert set(contrast) == set(t.library.ids)
        assert set(optimal.feature_ids) == set(t.library.ids)

    def test_sample_size_stability(self, rng):
        for _ in range(5):
            t = random_table(rng, 3, 3)
            s = 2000
            d1 = run_monte_carlo(t, MonteCarloConfig(samples=s, seed=6)).delta_s
            d2 = run_monte_carlo(t, MonteCarloConfig(samples=2 * s, seed=6)).delta_s
            assert abs(d1 - d2) <= 4 / math.sqrt(s)

    def test_non_square_rejected(self, rng):
        t = random_table(rng, 4, 3)
        with pytest.raises(ShapeError):
            run_monte_carlo(t, MonteCarloConfig(samples=10))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_philox_key_range(self, rng, seed):
        t = random_table(rng, 3, 3)
        with pytest.raises(ValidationError, match="seed"):
            run_monte_carlo(t, MonteCarloConfig(samples=10, seed=seed))
        run_monte_carlo(t, MonteCarloConfig(samples=10, seed=2**128 - 1))

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_below_one(self, samples):
        with pytest.raises(ValidationError, match="samples must be >= 1"):
            MonteCarloConfig(samples=samples)

    @pytest.mark.parametrize(
        "field, value", [("seed", 1.5), ("seed", "1"), ("samples", 1e4), ("samples", None)]
    )
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            MonteCarloConfig(**{field: value})

    def test_numpy_integers_stored_as_int(self, rng):
        """A numpy integer is stored as the Python int it equals, and
        runs as that int does."""
        cfg = MonteCarloConfig(samples=np.int32(40), seed=np.uint64(2**63 + 5))
        assert type(cfg.samples) is int and type(cfg.seed) is int
        assert cfg == MonteCarloConfig(samples=40, seed=2**63 + 5)
        t = random_table(rng, 3, 3)
        r = run_monte_carlo(t, cfg)
        assert type(r.seed) is int
        assert r.delta_s == run_monte_carlo(t, MonteCarloConfig(40, 2**63 + 5)).delta_s

    def test_large_n_uses_per_iteration_solver(self, rng):
        t = random_table(rng, 9, 9)
        r = run_monte_carlo(t, MonteCarloConfig(samples=50, seed=1))
        assert sum(r.assignment_frequencies.values()) == 50
        assert 0.0 <= r.delta_s <= 1.0

    @pytest.mark.parametrize("n", [16, 21])
    def test_codes_beyond_int64(self, rng, n):
        """Above n = 15 assignment codes are Python ints (n**n overflows
        int64); the tally still decodes to permutations of the features."""
        t = random_table(rng, n, n)
        r = run_monte_carlo(t, MonteCarloConfig(samples=30, seed=n))
        freq = r.assignment_frequencies
        assert sum(freq.values()) == 30
        assert all(sorted(key) == sorted(t.library.ids) for key in freq)
        m = r.response_matrix
        np.testing.assert_allclose(m.sum(axis=0), np.ones(n), atol=1e-9)
        np.testing.assert_allclose(m.sum(axis=1), np.ones(n), atol=1e-9)

    @pytest.mark.parametrize("n", [5, 15, 16])
    def test_code_round_trip(self, rng, n):
        """An assignment's code is its feature rows read as a base-n
        number, computed in Python ints for reference; the largest (rows
        in reverse order) fits int64 up to n = 15."""
        rows = np.array([rng.permutation(n) for _ in range(20)] + [np.arange(n)[::-1]])
        want = [sum(int(r) * n ** (n - 1 - j) for j, r in enumerate(row)) for row in rows]
        codes = _code(rows)
        assert codes.tolist() == want
        np.testing.assert_array_equal(_rows(codes, n), rows)

    @pytest.mark.parametrize("n", [4, 6])
    def test_tally_memory_flat_in_samples(self, rng, n):
        """The tally keeps one chunk of iterations and the distinct winners, so its peak memory does not grow with
        the number of samples."""
        a = random_table(rng, n, n).values

        def peak(samples):
            tracemalloc.start()
            try:
                _tally(a, MonteCarloConfig(samples=samples, seed=1))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8192)  # warm the caches
        small, large = peak(8192), peak(200_000)
        assert large < 1.2 * small, (small, large)

    @pytest.mark.parametrize("kind", ["random", "ternary"])
    @pytest.mark.parametrize("dp_chunk, chunk", [(256, 2048), (64, 448), (256, 256), (100, 1000)])
    def test_dp_tally_independent_of_slices_and_blocks(self, rng, monkeypatch, kind, dp_chunk, chunk):
        """For every solver (permutation scoring at n = 3 and 5, the
        subset DP at n = 6, 7 and 8, scipy at n = 9) the tally equals one
        solve of all the iterations at once, whatever the chunk and
        subset-DP slice widths; the sample counts leave a partial chunk and
        slice."""
        seed = 9
        for n, samples in [(3, 5050), (5, 5050), (6, 5050), (7, 5050), (8, 5050), (9, 1100)]:
            if kind == "random":
                a = random_table(rng, n, n).values
            else:
                a = rng.choice([0.0, 0.5, 1.0], size=(n, n))
            z = _iteration_normals(seed, 0, samples, n * n).T.reshape(n, n, samples)
            x = a.T[:, :, None] + sigma(a).T[:, :, None] * z.swapaxes(0, 1)
            monkeypatch.setattr(montecarlo, "_DP_CHUNK", samples)
            want = np.unique(_winners(balanced_merit_values(x, axis=0)), return_counts=True)
            monkeypatch.setattr(montecarlo, "_DP_CHUNK", dp_chunk)
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            codes, counts = _tally(a, MonteCarloConfig(samples=samples, seed=seed))
            np.testing.assert_array_equal(codes, want[0], err_msg=f"n = {n}")
            np.testing.assert_array_equal(counts, want[1], err_msg=f"n = {n}")

    def test_only_n9_loads_scipy(self):
        """n = 8 runs without scipy.optimize; n = 9 imports it on first use
        and its runs keep their golden fields."""
        run_fresh(
            """
import sys
from semdisc import MonteCarloConfig, run_monte_carlo
from test_montecarlo import GOLDEN, fingerprint, golden_values, square_table
for n in (8, 9):
    t = square_table(golden_values("random", n))
    r = run_monte_carlo(t, MonteCarloConfig(samples=700, seed=n + 11))
    assert fingerprint(r) == GOLDEN["random", n]
    assert ("scipy.optimize" in sys.modules) == (n == 9), n
"""
        )


@contextlib.contextmanager
def _recording_thread_pools():
    """Put a recording stub in place of the thread pool class, and yield
    the list of the pools built in this process."""
    built = []
    real = concurrent.futures.ThreadPoolExecutor

    class Recording(real):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    concurrent.futures.ThreadPoolExecutor = Recording
    try:
        yield built
    finally:
        concurrent.futures.ThreadPoolExecutor = real


def _pools_built(a, samples):
    """Run _tally with a recording stub in place of the thread pool class,
    and return how many pools it built."""
    with _recording_thread_pools() as built:
        _tally(a, MonteCarloConfig(samples=samples, seed=3))
    return len(built)


class TestDrawAhead:
    """A multi-chunk run outside a pool worker draws the next chunk's
    normals on a helper thread; no count may depend on it."""

    @pytest.mark.parametrize("chunk", [2048, 448])
    def test_helper_changes_no_count(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        for n in (3, 5, 6, 7):
            a = random_table(rng, n, n).values
            for samples in (1, 2047, 2049, 4097, 5050):
                config = MonteCarloConfig(samples=samples, seed=n)
                tallies = []
                for cpus in (2, 1):  # the helper on, then forced off
                    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda cpus=cpus: cpus)
                    tallies.append(_tally(a, config))
                for got, want in zip(*tallies):
                    np.testing.assert_array_equal(got, want, err_msg=f"n = {n}, samples = {samples}")

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_normals_are_the_plain_stream(self, n):
        """With cells not a multiple of 4, for a full and a partial last
        chunk, the draws equal the plain stream, inverse CDF of Philox
        uniforms plus the half-grid shift."""
        cells = n * n
        width = 4 * -(-cells // 4)
        assert width > cells
        for start, count in [(0, 64), (128, 37)]:
            got = _iteration_normals(5, start, count, cells)
            bg = Philox(key=5)
            bg.advance(start * width // 4)
            u = Generator(bg).random(count * width).reshape(count, width)
            plain = ndtri(u[:, :cells] + montecarlo._U_SHIFT)
            assert got.shape == plain.shape == (count, cells)
            np.testing.assert_array_equal(
                np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(plain).view(np.int64)
            )

    def test_helper_thread_ends_with_the_call(self, rng, monkeypatch):
        """The helper is joined when the tally returns, and also when a
        draw raises; the draw's error reaches the caller."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        a = random_table(rng, 4, 4).values
        config = MonteCarloConfig(samples=3 * montecarlo._CHUNK, seed=1)
        before = threading.active_count()
        _tally(a, config)
        assert threading.active_count() == before
        draw = montecarlo._iteration_normals

        def fail_on_chunk_2(seed, start, *args, **kwargs):
            if start == montecarlo._CHUNK:
                raise RuntimeError("draw failed")
            return draw(seed, start, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "_iteration_normals", fail_on_chunk_2)
        with pytest.raises(RuntimeError, match="draw failed"):
            _tally(a, config)
        assert threading.active_count() == before

    def test_helper_thread_ends_with_a_failed_solve(self, rng, monkeypatch):
        """A solve that raises on chunk 2, once the helper has started
        chunk 3's draw, reaches the caller, and the helper is joined."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        a = random_table(rng, 4, 4).values
        config = MonteCarloConfig(samples=3 * montecarlo._CHUNK, seed=1)
        draw, winners = montecarlo._iteration_normals, montecarlo._winners
        caller, chunk_3_drawn_ahead, solves = threading.get_ident(), threading.Event(), []

        def signal_chunk_3(seed, start, *args):
            if start == 2 * montecarlo._CHUNK and threading.get_ident() != caller:
                chunk_3_drawn_ahead.set()
            return draw(seed, start, *args)

        def fail_on_chunk_2(merits):
            solves.append(merits.shape[2])
            if len(solves) == 2:
                assert chunk_3_drawn_ahead.wait(timeout=60)
                raise RuntimeError("solve failed")
            return winners(merits)

        monkeypatch.setattr(montecarlo, "_iteration_normals", signal_chunk_3)
        monkeypatch.setattr(montecarlo, "_winners", fail_on_chunk_2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="solve failed"):
            _tally(a, config)
        assert threading.active_count() == before
        assert solves == [montecarlo._CHUNK] * 2

    def test_concurrent_tallies_under_frequent_switches(self, rng, monkeypatch):
        """Three threads tally at once, each with its own helper, with
        64-iteration chunks and a short switch interval: a draw counted
        in the wrong chunk would change a count."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        tables = [random_table(rng, n, n).values for n in (3, 4, 5)]
        config = MonteCarloConfig(samples=3000, seed=4)
        want = [_tally(a, config) for a in tables]
        got = [None] * len(tables)

        def run(k):
            got[k] = _tally(tables[k], config)

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(tables))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (codes, counts), (want_codes, want_counts) in zip(got, want):
            np.testing.assert_array_equal(codes, want_codes)
            np.testing.assert_array_equal(counts, want_counts)

    def test_no_pool_for_one_chunk_or_in_pool_workers(self, rng, monkeypatch):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        a = random_table(rng, 4, 4).values
        assert _pools_built(a, montecarlo._CHUNK) == 0
        assert _pools_built(a, montecarlo._CHUNK + 1) == 1
        # a scan's pool forks its workers, which inherit the patched count
        fork = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=fork) as pool:
            run = pool.submit(_pools_built, a, 2 * montecarlo._CHUNK + 1)
            assert run.result(timeout=120) == 0

    def test_no_pool_on_one_usable_cpu(self, rng, monkeypatch):
        a = random_table(rng, 4, 4).values
        patch_usable_cpus(monkeypatch, 2)
        assert _pools_built(a, montecarlo._CHUNK + 1) == 1
        patch_usable_cpus(monkeypatch, 1)
        assert _pools_built(a, montecarlo._CHUNK + 1) == 0

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert montecarlo._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert montecarlo._usable_cpus() == 1

    def test_no_pool_in_a_pooled_scans_caller(self, rng, monkeypatch):
        """The caller of a pooled scan computes tasks of two-chunk runs
        beside its live worker, and builds no thread pool for them; the
        serial scan builds one per subset."""
        patch_usable_cpus(monkeypatch, 2)
        t = random_table(rng, 9, 7)  # 35 subsets at k = 3: 5 tasks
        config = MonteCarloConfig(samples=2500, seed=2)
        pids = record_caller_reports(monkeypatch)
        with _recording_thread_pools() as built:
            pooled = list(iter_capacity_reports(t, 3, config, workers=2))
        assert pids.count(os.getpid()) >= capacity._TASK
        assert built == []
        with _recording_thread_pools() as built:
            assert list(iter_capacity_reports(t, 3, config, workers=1)) == pooled
        assert len(built) == len(pooled)


def golden_values(kind, n):
    """The n x n golden tables: uniform on [0, 1], all 0.5 (chance
    level), or drawn from {0, 0.5, 1} (noiseless cells, exact ties)."""
    rng = np.random.default_rng([n, len(kind)])
    if kind == "random":
        return rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "half":
        return np.full((n, n), 0.5)
    v = rng.choice([0.0, 0.5, 1.0], size=(n, n))
    v[0, v.sum(axis=0) == 0.0] = 1.0
    return v


def fingerprint(r):
    """sha256 over every MonteCarloResult field, floats bit for bit, the
    frequency dict in its key order and the response matrix's bytes."""
    h = hashlib.sha256()
    h.update(
        repr(
            (
                r.concepts,
                r.feature_ids,
                list(r.assignment_frequencies.items()),
                r.modal_proportion.hex(),
                r.delta_s.hex(),
                [c.hex() for c in r.contrast],
                r.optimal,
                r.samples,
                r.seed,
                r.response_matrix.shape,
                r.response_matrix.dtype.str,
            )
        ).encode()
    )
    h.update(r.response_matrix.tobytes())
    return h.hexdigest()


# fingerprints of the iteration-major kernel that the cells-major one
# replaced; 4500 samples cross two 2048-iteration chunk boundaries. The
# subset dynamic program changed ("ternary", 6) only: in 29 of its 700
# iterations exactly tied optima now resolve to the lexicographically
# first instead of scipy's pick. The n = 6 and 7 fingerprints changed
# again for key order only: assignment_frequencies now lists its keys in
# lexicographic order for every n, not in order of first win; with sorted
# keys every field hashes as before. ("ternary", 5) changed when the n <= 5
# scorer began adding merits from the last concept, as the subset DP does:
# 1 of its 4500 iterations changed winner. There (2, 3, 4, 1, 0) and
# (2, 3, 0, 1, 4) have the same five merits in other concept positions, an
# exact tie that adding from the first concept had rounded 1 ulp in favour
# of the later permutation; adding from the last, they tie and the first wins.
# ("ternary", 7) changed when the subset DP took over n = 7 and 8 from
# scipy: in 20 of its 700 iterations exactly tied optima now resolve to the
# lexicographically first instead of scipy's pick. The n = 8 entries pin the
# DP, the n = 9 entries scipy
GOLDEN = {
    ("random", 2): "fee6a4f7eb67d81dcf627bc1bdb89f7b3298a0ab848b7afc2219863caf19712d",
    ("random", 3): "c0c9f80aa80bfdb2429b068539c700332dfdde2f48ca23a5b6f556b3e2cc680c",
    ("random", 4): "a0034d61bcfb83bda16187412fdec112e068e9678e72e2a1939822cd6703fbb9",
    ("random", 5): "d4a35431f2cb3ae65e5bcc544524baa862b4d1478bcf581fe8ad92e16230738b",
    ("random", 6): "382d625dec05d6b2a20ca23985a10862cea3493501dd395bf0838266e5cd6c90",
    ("random", 7): "266c7e3ea015b4095aa3e63dafb3ec5895f871803e91c9643eb8f17dedab97ef",
    ("random", 8): "399d75082b87fd9d8f514c4276d025888d5e7b05a134fe82aae0a2a78eecaa2c",
    ("random", 9): "1f0d7eb8851619ad9e974872c1496388d513b534485724ddfafb713fb15d65da",
    ("half", 2): "e72d7b77ad7fb4ae89c10c684fa2a5f60e1bfba66f8488f981313834cd9323a7",
    ("half", 3): "58905c509eb14c34abcc337194b9456243eb25afd9179f5601c9d31a8411fea4",
    ("half", 4): "ff00e96a3693b95a28c467e77dbfd75311a3622f90da2a6a5a9e6db44ef3ae09",
    ("half", 5): "11cc74196c85e347ac5a522298857920887e29652f8d4acb4f275d7c14843209",
    ("half", 6): "8aacdbe3cee72abf7b275c2e1fa0814ede9d91a5b785be85ee66d675282cc8bf",
    ("half", 7): "67f29bb2da075718bcb5355fb9c020ce51c051ebe993f09834743ba7103eab6a",
    ("half", 8): "45add9000c08867acd01c02087c8fa8fa829248e332cf06577450ac5dd24a5da",
    ("half", 9): "b505710db732656aa261a85dba1691ddecd6553465dabeaeb635d59f4ddcee23",
    ("ternary", 2): "4960a3d2abc7800f7f4a4fe75ec7b0632ded4732cfa16959d561c6dd4c343d48",
    ("ternary", 3): "7713c514c3098f37efae3bfa88fa513aaa90519cd75d3b433632b85e74c8eef5",
    ("ternary", 4): "2dffe6cc451f794cb09dc667cf8249e9ccf484a7a1fd51295c40d0a622c98d34",
    ("ternary", 5): "1a2607c7a89f0e149b4aaaece748beec165986c2bc20d7a6a306fb48d1253e2e",
    ("ternary", 6): "376943426b605b69d2c28a60b56bb07002fcc67e26aa31476ba6d1f3ae1e871d",
    ("ternary", 7): "37611710f479d2a1a0b0c57ceef1a5f4dc38cbc8a8b2b3fcad4ce35e5049cd9c",
    ("ternary", 8): "c4b1960a1ba09e977b9132d7369a89613477cfd3dfc9611b52b56102743334c2",
    ("ternary", 9): "2db2885043fce412f086665256737c82ffd9fc7d92dde85b1dface8deb9bfcec",
}


class TestGolden:
    @pytest.mark.parametrize("kind, n", list(GOLDEN))
    def test_run_monte_carlo_fields(self, kind, n):
        t = square_table(golden_values(kind, n))
        samples = 4500 if n <= 5 else 700
        r = run_monte_carlo(t, MonteCarloConfig(samples=samples, seed=n + 11))
        assert fingerprint(r) == GOLDEN[kind, n]

    @pytest.mark.parametrize("kind, n", list(GOLDEN))
    def test_frequencies_in_lexicographic_order(self, kind, n):
        """assignment_frequencies lists its assignments in ascending
        lexicographic order of feature rows per concept, for every n."""
        t = square_table(golden_values(kind, n))
        samples = 4500 if n <= 5 else 700
        r = run_monte_carlo(t, MonteCarloConfig(samples=samples, seed=n + 11))
        row = {f: i for i, f in enumerate(t.library.ids)}
        keys = [tuple(row[f] for f in key) for key in r.assignment_frequencies]
        assert keys == sorted(set(keys))


def block_table(n, head):
    """Noiseless {0, 1} table: rows n-head.. rate 1 for the first head
    concepts, rows 0..n-head-1 rate 1 for the rest. Every permutation
    that keeps the blocks ties exactly at total merit 0."""
    v = np.zeros((n, n))
    v[n - head :, :head] = 1.0
    v[: n - head, head:] = 1.0
    return square_table(v)


class TestTieRule:
    @pytest.mark.parametrize("n, head", [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3)])
    def test_first_permutation_wins(self, n, head):
        """n <= 6: among exactly tied permutations the lexicographically
        first, in feature rows per concept, wins every iteration and is
        the optimal assignment, at any sample count (5000 crosses a chunk
        boundary)."""
        t = block_table(n, head)
        totals = {
            p: sum(_merit(t.values, p)) for p in itertools.permutations(range(n))
        }
        best = max(totals.values())
        tied = [p for p, v in totals.items() if v == best]
        assert len(tied) == math.factorial(head) * math.factorial(n - head) > 1
        first = tied[0]
        assert first != tuple(range(n))
        ids = t.library.ids
        for samples in (300, 5000):
            r = run_monte_carlo(t, MonteCarloConfig(samples=samples, seed=3))
            assert r.assignment_frequencies == {tuple(ids[i] for i in first): samples}
            assert r.optimal.feature_indices == first
            assert r.delta_s == 1.0

    def test_tie_reads_as_agreement(self):
        """An iteration resolved by the tie rule counts as agreement. On
        [[1, 1], [0, 0]] every cell is noiseless and both assignments tie
        exactly: the closed form reads the tie as 0, Monte Carlo as 1.
        The 3 x 3 table with one all-1 row ties likewise in all 3! ways."""
        t = square_table([[1.0, 1.0], [0.0, 0.0]])
        assert semantic_distance_analytic(t) == 0.0
        assert run_monte_carlo(t, MonteCarloConfig(samples=1000, seed=0)).delta_s == 1.0
        for row in range(3):
            v = np.zeros((3, 3))
            v[row] = 1.0
            r = run_monte_carlo(square_table(v), MonteCarloConfig(samples=1000, seed=0))
            assert r.delta_s == 1.0
            assert r.assignment_frequencies == {("f0", "f1", "f2"): 1000}


class TestSubsetDP:
    @pytest.mark.parametrize("kind", ["random", "ternary"])
    def test_first_optimum_of_brute_force(self, rng, kind):
        """The n = 6 dynamic program picks, for every matrix, the
        lexicographically first of the optimal permutations, whose merits
        added from the last concept rank all 720 (on {0, 0.5, 1} tables
        many tie exactly)."""
        n, S = 6, 400
        if kind == "random":
            a = rng.uniform(0.0, 1.0, size=(n, n, S))
        else:
            a = rng.choice([0.0, 0.5, 1.0], size=(n, n, S))
        merits = balanced_merit_values(a, axis=0)  # a[j, i]: concept j
        want, ties = _brute_force_first(merits)
        assert (ties > 1).any() == (kind == "ternary")
        np.testing.assert_array_equal(_solve_subset_dp(merits), want)
        # merits that are not one contiguous block: every other iteration
        # of a wider array, and one iteration as MonteCarloResult.optimal
        # passes it, the transpose of a (feature, concept) array
        wide = np.zeros((n, n, 2 * S))
        wide[:, :, ::2] = merits
        np.testing.assert_array_equal(_solve_subset_dp(wide[:, :, ::2]), want)
        for t in range(5):
            m0 = np.ascontiguousarray(merits[:, :, t].T)  # m0[i, j]: concept j
            np.testing.assert_array_equal(_solve_subset_dp(m0.T[:, :, None]), want[t:t + 1])

    @pytest.mark.parametrize("n, S", [(7, 20), (8, 8)])
    def test_first_optimum_of_brute_force_at_n7_and_n8(self, rng, n, S):
        """The DP keeps the tie rule at n = 7 and 8, where it, not scipy,
        solves every iteration and the optimal assignment: on {0, 0.5, 1}
        tables, where many of the n! permutations tie exactly, it picks
        the brute-force first permutation of largest total."""
        a = rng.choice([0.0, 0.5, 1.0], size=(n, n, S))
        merits = balanced_merit_values(a, axis=0)  # a[j, i]: concept j
        want, ties = _brute_force_first(merits)
        assert (ties > 1).any()
        np.testing.assert_array_equal(_solve_subset_dp(merits), want)
        np.testing.assert_array_equal(_winners(merits), _code(want))

    def test_first_optimum_where_rounding_ties(self):
        """After a merit of 1, completions of 0.25 and 0.25 + 2**-54 both
        total 1.25: the first permutation wins, not the larger completion."""
        m = np.array([[1.0, -1.0, -1.0], [-1.0, 0.25, 0.25 + 2.0**-54], [-1.0, 0.0, 0.0]])
        first = np.array([[0, 1, 2]])
        assert _solve_subset_dp(m[:, :, None]).tolist() == first.tolist()
        assert _solve_square_batch(m[:, :, None]).tolist() == _code(first).tolist()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_permutation_scorer_agrees(self, rng, n):
        """Where both apply, the permutation scorer and the dynamic program
        pick the same winner in every iteration: one tie rule for n <= 8.
        Noisy {0, 0.5, 1} tables mix noiseless cells with noisy ones, so
        permutations with the same merits in other positions tie, and one
        more addition can round two totals together."""
        for _ in range(40):
            a = rng.choice([0.0, 0.5, 1.0], size=(n, n))
            z = rng.standard_normal((n, n, 2000))
            x = a.T[:, :, None] + sigma(a).T[:, :, None] * z  # concept-major
            merits = balanced_merit_values(x, axis=0)
            np.testing.assert_array_equal(
                _solve_square_batch(merits), _code(_solve_subset_dp(merits))
            )


def _brute_force_first(merits):
    """The first permutation of largest total of each iteration of
    concept-major merits (concept, feature, S), its merits added from the
    last concept, as feature rows per concept (S, n); and how many of the
    n! permutations reach that total."""
    n = merits.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    totals = merits[n - 1, perms[:, n - 1]]
    for j in reversed(range(n - 1)):
        totals = merits[j, perms[:, j]] + totals
    return perms[np.argmax(totals, axis=0)], (totals == totals.max(axis=0)).sum(axis=0)


def _merit(a, p):
    """Balanced merits of permutation p (p[j] = row for concept j),
    computed cell by cell."""
    out = []
    for j, i in enumerate(p):
        others = [a[i, c] for c in range(len(p)) if c != j]
        out.append(a[i, j] - max(others))
    return out
