import json
import math

import numpy as np
import pytest

from semdisc import (
    AssociationTable,
    MonteCarloConfig,
    analyze,
    build_frame,
    dependent_correlation_compare,
    fisher_r_to_z_compare,
    ols_regression,
    pearson_r,
    write_association_csv,
)
from semdisc.analysis import z_score
from semdisc.cli import main
from semdisc.errors import (
    DegenerateInputError,
    SingularDesignError,
    ValidationError,
)

from conftest import random_table, run_fresh


class TestPearson:
    def test_perfect_positive(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson_r(x, 2 * x + 1)["r"] == pytest.approx(1.0)

    def test_perfect_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_r(x, -x)["r"] == pytest.approx(-1.0)

    def test_fixture(self):
        out = pearson_r([1, 2, 3, 4], [1, 3, 2, 4])
        assert out["r"] == pytest.approx(0.8, abs=1e-12)
        assert out["df"] == 2

    def test_affine_invariance(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        r0 = pearson_r(x, y)["r"]
        assert pearson_r(3.2 * x + 1, 0.5 * y - 4)["r"] == pytest.approx(
            r0, abs=1e-12
        )

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            pearson_r([1, 1, 1], [1, 2, 3])

    def test_exact_unit_r(self):
        # r rounds to exactly 1, where the t statistic is infinite
        assert pearson_r([0, 0, 2, 2], [0, 0, 2, 2]) == {"r": 1.0, "df": 2, "p": 0.0}

    def test_p_against_scipy(self, rng):
        from scipy import stats

        x = rng.normal(size=25)
        y = x + rng.normal(size=25)
        ours = pearson_r(x, y)
        ref = stats.pearsonr(x, y)
        assert ours["r"] == pytest.approx(ref.statistic, abs=1e-12)
        assert ours["p"] == pytest.approx(ref.pvalue, rel=1e-9)


class TestFisher:
    def test_equal_correlations(self):
        out = fisher_r_to_z_compare(0.5, 0.5, df=100)
        assert out["z"] == 0.0
        assert out["p"] == 1.0

    def test_sign_monotonicity(self):
        assert fisher_r_to_z_compare(0.9, 0.5, df=50)["z"] > 0
        assert fisher_r_to_z_compare(0.5, 0.9, df=50)["z"] < 0

    def test_published_comparison(self):
        # (atanh .93 - atanh .82) / sqrt(2 / 187) for 190 points
        out = fisher_r_to_z_compare(0.93, 0.82, df=188)
        assert out["z"] == pytest.approx(4.849976, abs=1e-5)

    def test_undefined_at_unit_r(self):
        with pytest.raises(DegenerateInputError):
            fisher_r_to_z_compare(1.0, 0.5, df=50)

    def test_dependent_variant(self):
        out = dependent_correlation_compare(0.93, 0.82, r12=0.7, n=190)
        assert out["z"] > 0
        ind = fisher_r_to_z_compare(0.93, 0.82, df=188)["z"]
        # positive dependence between predictors sharpens the test
        assert out["z"] > ind


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: pearson_r([1.0, 2.0, 3.0], [1.0, 2.0]), ValidationError,
         "equal-length"),
        (lambda: fisher_r_to_z_compare(0.5, 0.2, df=1), ValidationError, "n > 3"),
        (lambda: dependent_correlation_compare(0.5, 0.2, 0.1, n=3), ValidationError,
         "n > 3"),
        (lambda: dependent_correlation_compare(0.5, 0.2, 1.0, n=50),
         DegenerateInputError, r"\|r12\| >= 1"),
        # NaN is what an AnalysisFrame holds for rows without log-scale values
        (lambda: pearson_r([1.0, 2.0, math.nan, 4.0], [1.0, 3.0, 2.0, 4.0]),
         ValidationError, "pearson_r: x holds NaN or inf.*valid_mask"),
        (lambda: pearson_r([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, math.inf, 4.0]),
         ValidationError, "pearson_r: y holds NaN or inf"),
        (lambda: ols_regression(
            [1.0, 3.0, 2.0, 5.0, 4.0],
            [[1.0, 2.0, math.nan, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0]]),
         ValidationError, "ols_regression: X holds NaN or inf.*valid_mask"),
        (lambda: ols_regression(
            [1.0, 3.0, -math.inf, 5.0, 4.0],
            [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0]]),
         ValidationError, "ols_regression: y holds NaN or inf"),
        (lambda: fisher_r_to_z_compare(math.nan, 0.5, df=50), ValidationError,
         "fisher_r_to_z_compare: r1 holds NaN or inf"),
        (lambda: fisher_r_to_z_compare(0.5, 0.2, df=math.nan), ValidationError,
         "fisher_r_to_z_compare: df holds NaN or inf"),
        (lambda: dependent_correlation_compare(0.5, 0.2, math.nan, n=50),
         ValidationError, "dependent_correlation_compare: r12 holds NaN or inf"),
        (lambda: dependent_correlation_compare(0.5, 0.2, 0.1, n=math.nan),
         ValidationError, "dependent_correlation_compare: n holds NaN or inf"),
        (lambda: ols_regression(
            [1.0, 3.0, 2.0, 5.0, 4.0],
            [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0]], names=["a"]),
         ValidationError, "ols_regression: 1 names for 2 predictors"),
        (lambda: ols_regression(
            [1.0, 3.0, 2.0, 5.0, 4.0],
            [[1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 1.0, 4.0, 3.0, 5.0]],
            names=["a", "b", "c"]),
         ValidationError, "ols_regression: 3 names for 2 predictors"),
        (lambda: pearson_r([1.0, 2.0], [2.0, 1.0]), ValidationError,
         "at least 3 points"),
        # every concept column alike: no subset has a distribution difference
        (lambda: build_frame(
            AssociationTable.from_arrays(
                ["f0", "f1", "f2"], ["a", "b", "c"],
                [[0.2, 0.2, 0.2], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]]),
            2, MonteCarloConfig(samples=50)),
         DegenerateInputError, "all distribution differences are zero"),
    ],
    ids=["pearson-lengths", "fisher-n", "dependent-n", "dependent-r12",
         "pearson-nan", "pearson-inf", "ols-nan-predictor", "ols-inf-response",
         "fisher-nan-r1", "fisher-nan-df", "dependent-nan-r12", "dependent-nan-n",
         "ols-names-short", "ols-names-long", "pearson-two-points",
         "frame-identical-columns"],
)
def test_validation_branches(call, error, match):
    with pytest.raises(error, match=match):
        call()


BLAS_THREADS_CODE = """
import numpy as np
from semdisc.analysis import AnalysisFrame, analyze

rng = np.random.default_rng(15504)
x, z, e = rng.normal(size=(3, 15504))
z += 0.3 * x
y = 0.4 * x - 0.2 * z + e
subsets = tuple((str(i),) for i in range(15504))
frame = AnalysisFrame(subsets, y, np.exp(x), -z, np.exp(z), x, z)

def hexed(v):
    if isinstance(v, dict):
        return {k: hexed(u) for k, u in v.items()}
    if isinstance(v, list):
        return [hexed(u) for u in v]
    return v.hex() if isinstance(v, float) else v

print(hexed(analyze(frame)))
"""


def test_statistics_independent_of_blas_threads():
    """15,504 rows, as analyze --k 5 on 20 concepts has: OpenBLAS splits
    dot products of more than 10,000 elements across its threads, and
    every field of analyze, its pearson_r and ols_regression results
    among them, is the same bit for bit at one and at two BLAS threads."""
    one, two = (run_fresh(BLAS_THREADS_CODE, OPENBLAS_NUM_THREADS=t) for t in "12")
    assert one == two


class TestZScore:
    def test_moments(self, rng):
        z = z_score(rng.normal(3, 5, size=100))
        assert abs(z.mean()) <= 1e-9
        assert z.std(ddof=1) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            z_score(np.ones(5))


def normal_equations_ols(y, design):
    """Independent oracle: solve X'X beta = X'y directly and compute the
    classic covariance estimate."""
    xtx = design.T @ design
    beta = np.linalg.solve(xtx, design.T @ y)
    resid = y - design @ beta
    dof = len(y) - design.shape[1]
    s2 = float(resid @ resid) / dof
    se = np.sqrt(np.diag(s2 * np.linalg.inv(xtx)))
    return beta, se


class TestOls:
    def test_exact_fit(self, rng):
        X = rng.normal(size=(30, 2))
        y = 1.5 + 2.0 * X[:, 0] - 0.5 * X[:, 1]
        out = ols_regression(y, X)
        # predictors are z-scored: the intercept is mean(y) and each slope
        # is per standard deviation of its predictor
        sd = X.std(axis=0, ddof=1)
        np.testing.assert_allclose(
            out["beta"], [y.mean(), 2.0 * sd[0], -0.5 * sd[1]], atol=1e-9
        )

    def test_duplicate_predictor(self, rng):
        x = rng.normal(size=20)
        X = np.column_stack([x, x])
        with pytest.raises(SingularDesignError):
            ols_regression(x + 1, X)

    def test_matches_normal_equations(self, rng):
        for _ in range(50):
            n = int(rng.integers(8, 40))
            k = int(rng.integers(1, 4))
            X = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            out = ols_regression(y, X)
            Z = (X - X.mean(axis=0)) / X.std(axis=0, ddof=1)
            beta, se = normal_equations_ols(y, np.column_stack([np.ones(n), Z]))
            np.testing.assert_allclose(out["beta"], beta, atol=1e-9)
            np.testing.assert_allclose(out["se"], se, atol=1e-9)

    def test_single_zscored_predictor_equals_r(self, rng):
        x = rng.normal(size=50)
        y = x + rng.normal(size=50)
        out = ols_regression(z_score(y), x.reshape(-1, 1))
        r = pearson_r(x, y)["r"]
        assert out["beta"][1] == pytest.approx(r, abs=1e-9)

    def test_too_few_rows(self, rng):
        with pytest.raises(ValidationError):
            ols_regression([1.0, 2.0], rng.normal(size=(2, 2)))


def assert_same(ours, ref):
    """Equal to the last bit, NaN matching NaN."""
    assert np.array_equal(
        np.asarray(ours, dtype=float), np.asarray(ref, dtype=float), equal_nan=True
    ), (ours, ref)


class TestPValueOracle:
    """The p-values come from scipy.special.stdtr and ndtr; they must equal
    scipy.stats' t and normal survival functions exactly."""

    def test_pearson(self, rng):
        from scipy import stats

        for size in (3, 4, 20, 500):  # df = 1 first
            x = rng.normal(size=size)
            out = pearson_r(x, x + rng.normal(size=size))
            r, df = out["r"], out["df"]
            t = r * math.sqrt(df / (1.0 - r * r))
            assert_same(out["p"], 2.0 * stats.t.sf(abs(t), df))

    def test_fisher_comparisons(self):
        from scipy import stats

        for r1, r2, df in [
            (0.93, 0.82, 188),
            (0.1, 0.3, 2),
            (0.5, 0.5, 50),  # z = 0, p = 1
            (0.999999, -0.999999, 10**6),  # |z| in the thousands, p = 0
        ]:
            out = fisher_r_to_z_compare(r1, r2, df)
            assert_same(out["p"], 2.0 * stats.norm.sf(abs(out["z"])))
            out = dependent_correlation_compare(r1, r2, 0.4, df + 2)
            assert_same(out["p"], 2.0 * stats.norm.sf(abs(out["z"])))

    def test_ols(self, rng):
        from scipy import stats

        # (4, 2) leaves 1 residual degree of freedom
        sizes = [(4, 2), (12, 1), (40, 3)]
        cases = [(rng.normal(size=n), rng.normal(size=(n, k))) for n, k in sizes]
        # an exact fit: se == 0, so t = +inf
        cases.append((np.array([1.0, 3.0, 5.0, 7.0]), np.arange(4.0).reshape(-1, 1)))
        for y, X in cases:
            out = ols_regression(y, X)
            ref = 2.0 * stats.t.sf(np.abs(out["t"]), out["df_residual"])
            assert_same(out["p"], ref)
        assert out["se"] == [0.0, 0.0] and out["t"] == [math.inf, math.inf]


class TestBuildFrame:
    def test_row_count_and_columns(self, rng):
        t = random_table(rng, 10, 6)
        frame = build_frame(t, 2, MonteCarloConfig(samples=50, seed=0))
        assert len(frame) == 15  # C(6,2)
        assert np.all(np.isfinite(frame.capacity))
        assert np.all(frame.distribution_difference > 0)
        valid = frame.valid_mask
        assert valid.sum() == len(frame)  # random data never hits log(0)
        assert np.all(frame.log_distribution_difference[valid] <= 1e-12)

    def test_concept_order_invariance(self, rng):
        t = random_table(rng, 8, 4)
        perm = [2, 0, 3, 1]
        t2 = t.subset(concepts=[t.concepts.concepts[i] for i in perm])
        f1 = build_frame(t, 2, MonteCarloConfig(samples=50, seed=0))
        f2 = build_frame(t2, 2, MonteCarloConfig(samples=50, seed=0))
        by_subset_1 = {
            frozenset(s): c for s, c in zip(f1.subsets, f1.capacity)
        }
        by_subset_2 = {
            frozenset(s): c for s, c in zip(f2.subsets, f2.capacity)
        }
        for key, v in by_subset_1.items():
            assert by_subset_2[key] == pytest.approx(v, abs=1e-12)

    def test_zero_specificity_warns(self):
        # c0 and c1 rate every feature 0.5: their subset has uniform
        # distributions (specificity 0) and no distribution difference
        values = [[0.5, 0.5, 0.1], [0.5, 0.5, 0.4], [0.5, 0.5, 0.9], [0.5, 0.5, 0.6]]
        t = AssociationTable.from_arrays(
            [f"f{i}" for i in range(4)], ["c0", "c1", "c2"], values
        )
        with pytest.warns(UserWarning) as record:
            frame = build_frame(t, 2, MonteCarloConfig(samples=50))
        assert [str(w.message) for w in record] == [
            "1 subset(s) have zero distribution difference; "
            "excluded from log-scale columns",
            "subset(s) with zero specificity excluded from log-scale columns",
        ]
        assert frame.subsets[0] == ("c0", "c1") and frame.specificity[0] == 0.0
        assert frame.valid_mask.tolist() == [False, True, True]

    def test_rows_serializable(self, rng):
        t = random_table(rng, 6, 4)
        frame = build_frame(t, 3, MonteCarloConfig(samples=40, seed=1))
        rows = frame.rows()
        assert len(rows) == 4
        assert set(rows[0]) == {
            "concepts",
            "capacity",
            "distribution_difference",
            "mean_entropy",
            "specificity",
            "log_distribution_difference",
            "log_specificity",
        }


class TestAnalyze:
    def test_equals_cli(self, capsys, tmp_path, rng):
        t = random_table(rng, 9, 5)
        path = tmp_path / "t.csv"
        write_association_csv(t, path)
        argv = ["analyze", str(path), "--k", "2", "--samples", "50", "--seed", "3"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        ours = analyze(build_frame(t, 2, MonteCarloConfig(samples=50, seed=3)))
        assert list(ours) == ["correlations", "fisher", "regression"]
        # JSON floats round-trip exactly, so this is equality to the bit
        assert ours == {key: payload[key] for key in ours}

    @pytest.mark.parametrize(
        "concepts, values, message",
        [
            # a, b and c are identical: 3 of 6 subsets have no log-scale
            # values, and 3 rows are left
            (
                "abcd",
                [[0.2, 0.2, 0.2, 0.1], [0.5, 0.5, 0.5, 0.3],
                 [0.9, 0.9, 0.9, 0.6], [0.1, 0.1, 0.1, 0.8]],
                "analyze needs at least 4 subsets with log-scale values, got 3; "
                "excluded: a,b; a,c; b,c",
            ),
            # a, b, c and d are identical: 4 rows are left, all alike
            (
                "abcde",
                [[0.2, 0.2, 0.2, 0.2, 0.1], [0.5, 0.5, 0.5, 0.5, 0.3],
                 [0.9, 0.9, 0.9, 0.9, 0.6], [0.1, 0.1, 0.1, 0.1, 0.8]],
                "analyze needs capacity to vary over the 4 subsets with "
                "log-scale values; excluded: a,b; a,c; a,d; b,c; b,d; and 1 more",
            ),
        ],
        ids=["three-rows-left", "constant-capacity"],
    )
    def test_degenerate_rows(self, concepts, values, message):
        t = AssociationTable.from_arrays(
            [f"f{i}" for i in range(len(values))], list(concepts), values
        )
        with pytest.warns(UserWarning, match="zero distribution difference"):
            frame = build_frame(t, 2, MonteCarloConfig(samples=50))
        with pytest.raises(DegenerateInputError) as info:
            analyze(frame)
        assert str(info.value) == message
