import math

import mpmath
import numpy as np
import pytest

from semdisc import (
    AssociationTable,
    MonteCarloConfig,
    run_monte_carlo,
    semantic_distance_analytic,
    sigma,
    standard_normal_cdf,
)
from semdisc.errors import ShapeError, ValidationError
from semdisc.montecarlo import _iteration_normals

from conftest import random_table


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


class TestStandardNormalCdf:
    def test_zero(self):
        assert standard_normal_cdf(0.0) == 0.5

    def test_symmetry(self, rng):
        for z in rng.normal(scale=2, size=50):
            assert standard_normal_cdf(z) + standard_normal_cdf(-z) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_quantile(self):
        assert standard_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_against_mpmath(self):
        mpmath.mp.dps = 30
        for z in (-3.7, -1.0, 0.3, 2.5, 5.0):
            exact = float(0.5 * mpmath.erfc(-z / mpmath.sqrt(2)))
            assert standard_normal_cdf(z) == pytest.approx(exact, abs=1e-12)


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
            assert semantic_distance_analytic(a) == pytest.approx(
                semantic_distance_analytic(a[::-1]), abs=1e-12
            )

    def test_degenerate_noiseless(self):
        assert semantic_distance_analytic([[1.0, 0.0], [0.0, 1.0]]) == 1.0
        assert semantic_distance_analytic([[1.0, 1.0], [1.0, 1.0]]) == 0.0

    def test_wrong_shape(self):
        with pytest.raises(ShapeError):
            semantic_distance_analytic(np.zeros((3, 2)))


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

    def test_large_n_uses_per_iteration_solver(self, rng):
        t = random_table(rng, 6, 6)
        r = run_monte_carlo(t, MonteCarloConfig(samples=50, seed=1))
        assert sum(r.assignment_frequencies.values()) == 50
        assert 0.0 <= r.delta_s <= 1.0
