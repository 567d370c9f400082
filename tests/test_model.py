import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semdisc import (
    AssociationTable,
    ConceptSet,
    FeatureLibrary,
    FeatureRecord,
    entropy,
    generalized_total_variation,
    mean_entropy,
    ml_error_probability,
    normalize,
    specificity_scores,
    total_variation,
)
from semdisc.errors import (
    DegenerateInputError,
    ShapeError,
    UnknownIdError,
    ValidationError,
)

from conftest import random_table


def dist(p):
    p = np.asarray(p, dtype=float)
    return p / p.sum()


class TestTableValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="outside"):
            AssociationTable.from_arrays(
                ["f1", "f2"], ["a", "b"], [[0.5, 1.3], [0.2, 0.1]]
            )

    def test_rejects_zero_column(self):
        with pytest.raises(DegenerateInputError):
            AssociationTable.from_arrays(
                ["f1", "f2"], ["a", "b"], [[0.5, 0.0], [0.2, 0.0]]
            )

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            AssociationTable.from_arrays(
                ["f1", "f1"], ["a", "b"], [[0.5, 0.1], [0.2, 0.1]]
            )

    def test_values_immutable(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2"], ["a", "b"], [[0.5, 0.1], [0.2, 0.1]]
        )
        with pytest.raises(ValueError):
            t.values[0, 0] = 0.9


def exactly(message):
    """A pytest.raises match for the whole message and nothing else."""
    return f"^{re.escape(message)}$"


PAIR = (FeatureLibrary.from_ids(["f1", "f2"]), ConceptSet(("a", "b")))
# concept b has a positive sum, but none on features f1 and f2
ZERO_ON_SUBSET = AssociationTable.from_arrays(
    ["f1", "f2", "f3"], ["a", "b"], [[0.5, 0.0], [0.2, 0.0], [0.1, 0.9]]
)


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: FeatureLibrary.from_ids(["f1"]), ValidationError, "at least 2 features"),
        (lambda: FeatureLibrary.from_ids(["f1", ""]), ValidationError,
         "feature ids must be non-empty"),
        (lambda: FeatureLibrary((FeatureRecord("f1", sorted_position=0),
                                 FeatureRecord("f2"))),
         ValidationError, "sorted_position must be positive"),
        (lambda: FeatureLibrary.from_ids(["f1", "f1"]), ValidationError,
         exactly("feature ids must be unique")),
        (lambda: PAIR[0].index_of("zz"), UnknownIdError, exactly("unknown feature id 'zz'")),
        (lambda: PAIR[1].index_of("zz"), UnknownIdError, exactly("unknown concept id 'zz'")),
        (lambda: FeatureLibrary((FeatureRecord("f1", lab=(150.0, 0.0, 0.0)),
                                 FeatureRecord("f2"))),
         ValidationError, exactly("feature 'f1': L*=150.0 outside [0, 100]")),
        (lambda: FeatureLibrary((FeatureRecord("f1", lab=(50.0, np.inf, 0.0)),
                                 FeatureRecord("f2"))),
         ValidationError, exactly("feature 'f1': a*=inf, b*=0.0 must be finite")),
        (lambda: ConceptSet(("a",)), ValidationError, "at least 2 concepts"),
        (lambda: ConceptSet(("a", "")), ValidationError, "concept ids must be non-empty"),
        (lambda: ConceptSet(("a", "a")), ValidationError, exactly("concept ids must be unique")),
        (lambda: AssociationTable(*PAIR, np.full((3, 2), 0.5)), ShapeError,
         "does not match"),
        (lambda: AssociationTable(*PAIR, [[0.5, np.nan], [0.2, 0.1]]), ValidationError,
         "must be finite"),
        (lambda: normalize(ZERO_ON_SUBSET.subset(features=["f1", "f2"]), "b"),
         DegenerateInputError, "normalization undefined"),
        (lambda: generalized_total_variation([np.full((2, 2), 0.25)] * 2), ShapeError,
         "1-D"),
        (lambda: specificity_scores([1.0]), ValidationError, "at least 2 values"),
    ],
    ids=["library-size", "empty-feature-id", "sorted-position", "repeated-feature-id",
         "unknown-feature-id", "unknown-concept-id", "lab-lightness", "lab-non-finite",
         "concept-set-size", "empty-concept-id", "repeated-concept-id", "table-shape",
         "table-non-finite", "normalize-zero-sum", "gtv-not-1d", "specificity-size"],
)
def test_validation_branches(call, error, match):
    with pytest.raises(error, match=match):
        call()


class TestNormalize:
    def test_uniform_column(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2", "f3"], ["a", "b"],
            [[0.2, 0.1], [0.2, 0.1], [0.2, 0.1]],
        )
        np.testing.assert_allclose(
            normalize(t, "a"), [1 / 3] * 3
        )

    def test_delta_column(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2", "f3"], ["a", "b"],
            [[1.0, 0.1], [0.0, 0.1], [0.0, 0.1]],
        )
        np.testing.assert_array_equal(normalize(t, "a"), [1, 0, 0])

    def test_already_normalized(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2", "f3"], ["a", "b"],
            [[0.8, 0.1], [0.2, 0.1], [0.0, 0.1]],
        )
        np.testing.assert_allclose(
            normalize(t, "a"), [0.8, 0.2, 0.0]
        )

    def test_unknown_concept(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2"], ["a", "b"], [[0.5, 0.1], [0.2, 0.1]]
        )
        with pytest.raises(UnknownIdError):
            normalize(t, "nope")

    def test_random_tables_sum_to_one(self, rng):
        for _ in range(50):
            t = random_table(rng, rng.integers(2, 30), rng.integers(2, 8))
            for c in t.concepts.concepts:
                p = normalize(t, c)
                assert abs(p.sum() - 1.0) <= 1e-9
                assert np.all(p >= 0)


class TestEntropy:
    def test_delta_is_zero(self):
        assert entropy(dist([1, 0, 0])) == 0.0

    def test_uniform_is_log_n(self):
        assert entropy(dist([1, 1, 1, 1])) == pytest.approx(math.log(4), abs=1e-12)

    def test_hand_value(self):
        assert entropy(dist([0.8, 0.2, 0.0])) == pytest.approx(
            0.500402, abs=1e-6
        )

    def test_bounds_random(self, rng):
        for _ in range(200):
            n = rng.integers(2, 50)
            p = rng.dirichlet(np.ones(n))
            h = entropy(p)
            assert -1e-12 <= h <= math.log(n) + 1e-12

    def test_max_iff_uniform(self, rng):
        n = 7
        assert entropy(np.ones(n) / n) == pytest.approx(math.log(n), abs=1e-9)
        p = rng.dirichlet(np.ones(n))
        if np.abs(p - 1 / n).max() > 1e-4:
            assert entropy(p) < math.log(n) - 1e-9


class TestMeanEntropy:
    def test_deltas(self):
        assert mean_entropy([dist([1, 0]), dist([0, 1])]) == 0.0

    def test_uniform_and_delta(self):
        d_uni = dist([1, 1, 1, 1])
        d_del = dist([1, 0, 0, 0])
        assert mean_entropy([d_uni, d_del]) == pytest.approx(
            math.log(4) / 2, abs=1e-12
        )

    def test_single(self):
        d = dist([0.3, 0.7])
        assert mean_entropy([d]) == entropy(d)

    def test_empty(self):
        with pytest.raises(ValidationError):
            mean_entropy([])


class TestTotalVariation:
    def test_identical(self):
        d = dist([0.2, 0.3, 0.5])
        assert total_variation(d, d) == 0.0

    def test_disjoint(self):
        assert total_variation([1, 0, 0], [0, 0, 1]) == 1.0

    def test_hand_value(self):
        assert total_variation([0.5, 0.5, 0], [0, 0.5, 0.5]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            total_variation([1, 0], [1, 0, 0])

    def test_metric_properties(self, rng):
        for _ in range(100):
            n = rng.integers(2, 20)
            p, q, r = (rng.dirichlet(np.ones(n)) for _ in range(3))
            assert total_variation(p, q) == pytest.approx(total_variation(q, p))
            assert total_variation(p, q) >= 0
            assert total_variation(p, p) == 0
            assert (
                total_variation(p, r)
                <= total_variation(p, q) + total_variation(q, r) + 1e-12
            )


class TestGeneralizedTotalVariation:
    def test_identical(self):
        d = dist([0.2, 0.3, 0.5])
        assert generalized_total_variation([d, d, d]) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_max(self):
        dists = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert generalized_total_variation(dists) == pytest.approx(2.0)

    def test_hand_value(self):
        dists = [[0.6, 0.4, 0], [0.2, 0.3, 0.5], [0.1, 0.8, 0.1]]
        assert generalized_total_variation(dists) == pytest.approx(0.9)

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            generalized_total_variation([[1, 0]])

    def test_reduces_to_tv(self, rng):
        for _ in range(300):
            n = rng.integers(2, 40)
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            assert abs(
                generalized_total_variation([p, q]) - total_variation(p, q)
            ) <= 1e-12

    def test_two_is_total_variation_exactly(self):
        """Two distributions give total_variation's value bit for bit;
        the per-feature max sum rounds differently for most such pairs."""
        rng = np.random.default_rng(71)
        for p, q in rng.dirichlet(np.ones(71), size=(2000, 2)):
            tv = total_variation(p, q)
            assert generalized_total_variation([p, q]) == tv
            assert ml_error_probability([p, q]) == 0.5 - tv / 2

    def test_bounds(self, rng):
        for _ in range(100):
            n = rng.integers(2, 20)
            k = rng.integers(2, 6)
            dists = [rng.dirichlet(np.ones(n)) for _ in range(k)]
            g = generalized_total_variation(dists)
            assert -1e-12 <= g <= k - 1 + 1e-12


def enumerate_ml_error(dists):
    """Independent oracle: draw a concept uniformly, draw a feature from
    its distribution, guess the argmax-likelihood concept; average the
    exact error over all (concept, feature) pairs analytically."""
    mat = np.asarray(dists, dtype=float)
    k, n = mat.shape
    err = 0.0
    for j in range(k):
        for i in range(n):
            guess = int(np.argmax(mat[:, i]))
            if guess != j:
                err += mat[j, i] / k
    return err


class TestMlErrorProbability:
    def test_disjoint_pair(self):
        assert ml_error_probability([[1, 0], [0, 1]]) == pytest.approx(0.0, abs=1e-15)

    def test_identical_at_chance(self):
        d = [0.25, 0.25, 0.25, 0.25]
        for k in (2, 3, 4):
            assert ml_error_probability([d] * k) == pytest.approx(
                1 - 1 / k, abs=1e-12
            )

    def test_hand_value(self):
        dists = [[0.6, 0.4, 0], [0.2, 0.3, 0.5], [0.1, 0.8, 0.1]]
        assert ml_error_probability(dists) == pytest.approx(
            (1 - 1 / 3) - 0.9 / 3, abs=1e-12
        )

    def test_brute_force_oracle(self, rng):
        # ties between argmax candidates are measure-zero under dirichlet
        for _ in range(200):
            n = rng.integers(2, 9)
            k = rng.integers(2, 5)
            dists = [rng.dirichlet(np.ones(n)) for _ in range(k)]
            assert ml_error_probability(dists) == pytest.approx(
                enumerate_ml_error(dists), abs=1e-12
            )


class TestSpecificityScores:
    def test_endpoints(self):
        assert specificity_scores([0.0, math.log(5)]) == [1.0, 0.0]

    def test_hand_values(self):
        assert specificity_scores([1.0, 2.0, 3.0]) == pytest.approx(
            [1.0, 0.5, 0.0]
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            specificity_scores([2.0, 2.0])


class TestScaleInvariance:
    def test_column_scaling(self, rng):
        base = rng.uniform(0.05, 0.7, size=(6, 3))
        for c in (0.1, 0.5, 1.3):
            scaled = base.copy()
            scaled[:, 0] = np.clip(base[:, 0] * c, 0, 1)
            if np.any(scaled[:, 0] > 1):
                continue
            t1 = AssociationTable.from_arrays(
                [f"f{i}" for i in range(6)], ["a", "b", "z"], base
            )
            t2 = AssociationTable.from_arrays(
                [f"f{i}" for i in range(6)], ["a", "b", "z"], scaled
            )
            p1, p2 = normalize(t1, "a"), normalize(t2, "a")
            np.testing.assert_allclose(
                p1, p2, atol=1e-12
            )
            assert entropy(p1) == pytest.approx(entropy(p2), abs=1e-12)
            q1, q2 = normalize(t1, "b"), normalize(t2, "b")
            assert total_variation(p1, q1) == pytest.approx(
                total_variation(p2, q2), abs=1e-12
            )


@given(
    st.lists(
        st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=30
    )
)
@settings(max_examples=200, deadline=None)
def test_distribution_properties_hypothesis(weights):
    p = d = np.asarray(weights) / np.sum(weights)
    assert 0.0 <= entropy(d) <= math.log(len(p)) + 1e-9
    assert total_variation(d, d) == 0.0
    assert abs(
        generalized_total_variation([d, d]) - 0.0
    ) <= 1e-12
