import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.optimize import linear_sum_assignment

from semdisc import (
    Assignment,
    AssociationTable,
    MeritMatrix,
    balanced_merit,
    isolated_merit,
    solve_assignment,
)
from semdisc.assignment import balanced_merit_values
from semdisc.errors import InfeasibleError, ShapeError, ValidationError
from semdisc.model import ConceptSet, FeatureLibrary

from conftest import brute_force_assignment, random_table, run_fresh


def merit_from(values, kind="isolated"):
    values = np.asarray(values, dtype=float)
    N, n = values.shape
    return MeritMatrix(
        FeatureLibrary.from_ids([f"f{i}" for i in range(N)]),
        ConceptSet(tuple(f"c{j}" for j in range(n))),
        values,
        kind,
    )


@pytest.mark.parametrize(
    "values, kind, error, match",
    [
        (np.full((3, 2), 0.5), "isolated", ShapeError, "merit shape"),
        ([[0.5, np.inf], [0.2, 0.1]], "isolated", ValidationError, "finite"),
        ([[0.5, 0.1], [0.2, 0.1]], "greedy", ValidationError, "unknown merit kind"),
    ],
    ids=["shape", "non-finite", "kind"],
)
def test_merit_matrix_validation(values, kind, error, match):
    library = FeatureLibrary.from_ids(["f1", "f2"])
    with pytest.raises(error, match=match):
        MeritMatrix(library, ConceptSet(("a", "b")), values, kind)


@pytest.mark.parametrize(
    "indices, error, match",
    [
        ((0,), ShapeError, "field lengths differ"),
        ((1, 1), ValidationError, "reuses a feature"),
    ],
    ids=["lengths", "reused-feature"],
)
def test_assignment_validation(indices, error, match):
    with pytest.raises(error, match=match):
        Assignment(("a", "b"), ("f1", "f1"), indices, 0.0)


class TestMeritFunctions:
    def test_isolated_is_identity(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2"], ["a", "b"], [[0.8, 0.2], [0.3, 0.7]]
        )
        m = isolated_merit(t)
        np.testing.assert_array_equal(m.values, t.values)
        assert m.kind == "isolated"

    def test_isolated_shape(self, rng):
        t = random_table(rng, 9, 4)
        assert isolated_merit(t).values.shape == (9, 4)

    def test_balanced_two_concepts(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2"], ["a", "b"], [[0.9, 0.1], [0.5, 0.5]]
        )
        np.testing.assert_allclose(
            balanced_merit(t).values[0], [0.8, -0.8]
        )

    def test_balanced_three_concepts(self):
        t = AssociationTable.from_arrays(
            ["f1", "f2"], ["a", "b", "c"],
            [[0.5, 0.3, 0.9], [0.1, 0.1, 0.1]],
        )
        m = balanced_merit(t)
        np.testing.assert_allclose(m.values[0], [-0.4, -0.6, 0.4])
        np.testing.assert_allclose(m.values[1], [0.0, 0.0, 0.0])


def partition_merit(a):
    """Reference balanced merit: the row's top two from np.partition."""
    part = np.partition(a, -2, axis=-1)
    top1, top2 = part[..., -1:], part[..., -2:-1]
    return a - np.where(a == top1, top2, top1)


# few distinct values, so rows often hold duplicate maxima
CELLS = st.sampled_from([0.0, 1.0, 0.5, 0.25, -0.5, -1.0]) | st.floats(
    min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False
)


class TestBalancedMeritValues:
    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=6).filter(
                lambda shape: shape[-1] >= 2
            ),
            elements=CELLS,
        ),
        st.integers(min_value=0, max_value=3),
    )
    @example(
        np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [0.0, 0.0, -0.0], [0.5, -0.0, 0.25]]),
        1,
    )
    @settings(max_examples=300, deadline=None)
    def test_running_top_two_matches_partition(self, a, axis):
        """Any finite array, with leading batch dimensions, and with the
        concept axis moved anywhere.

        The one known difference from the partition definition: in a row
        whose two largest values are 0.0 and -0.0 (the CSV text -0 passes
        validation), a zero merit may carry the other sign. The values
        compare equal, so no assignment or output changes."""
        want = partition_merit(a)
        assert np.array_equal(balanced_merit_values(a), want)
        axis = axis % a.ndim
        moved = np.moveaxis(a, -1, axis)
        got = balanced_merit_values(moved, axis=axis)
        assert np.array_equal(np.moveaxis(got, axis, -1), want)

    def test_needs_two_concepts(self):
        with pytest.raises(ValidationError):
            balanced_merit_values(np.zeros((1, 4)), axis=0)
        with pytest.raises(ValidationError):
            balanced_merit_values(np.zeros((3, 1)))


# multiples of 2**-19 in [-2, 2], with {0, -0, 1} and halves often, so
# that columns tie; every total of up to 9 of them is exact, so a unique
# optimum is unique in floating point too
DYADIC = st.sampled_from([0.0, -0.0, 1.0, 0.5, -0.5]) | st.integers(
    -(2**20), 2**20
).map(lambda k: k / 2**19)


def scipy_rows(v):
    """Feature row per concept of scipy's maximum-merit assignment."""
    r, c = linear_sum_assignment(v, maximize=True)
    return tuple(r[np.argsort(c)].tolist())


class TestSolve:
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.integers(n, 9).flatmap(
                lambda N: arrays(np.float64, (N, n), elements=DYADIC)
            )
        )
    )
    @example(np.array([[1.0, -0.0], [0.0, 0.5], [0.25, 0.25]]))
    @example(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5], [0.0, 0.0, -0.0]]))
    @settings(max_examples=400, deadline=None)
    def test_column_argmax_pick_equals_scipy(self, a):
        """Square and rectangular merits, isolated or balanced, with ties,
        -0, {0, 1} cells and concepts that top no row: wherever every
        column maximum is untied and on its own row, solve_assignment
        takes those rows without scipy, and they are scipy's pick."""
        for kind, v in (("isolated", a), ("balanced", balanced_merit_values(a))):
            rows = v.argmax(axis=0)
            untied = np.count_nonzero(v == v.max(axis=0)) == v.shape[1]
            applies = untied and len(set(rows.tolist())) == v.shape[1]
            event(f"{kind}: {'column argmax' if applies else 'scipy'}")
            got = solve_assignment(merit_from(v, kind)).feature_indices
            assert got == scipy_rows(v)
            if applies:
                assert got == tuple(rows.tolist())

    def test_tied_pick_loads_scipy(self):
        """scipy.optimize is imported only when a pick needs it: a tied
        column maximum goes to scipy, whose pick stands."""
        run_fresh(
            """
import sys
import numpy as np
from semdisc import MeritMatrix, solve_assignment
from semdisc.model import ConceptSet, FeatureLibrary
library = FeatureLibrary.from_ids(["f0", "f1", "f2", "f3"])
def pick(values):
    m = MeritMatrix(library, ConceptSet(("a", "b", "c")), values)
    return solve_assignment(m).feature_indices
untied = [[0.9, 0.1, 0.0], [0.2, 0.8, 0.3], [0.0, 0.4, 0.7], [0.1, 0.1, 0.1]]
assert pick(np.array(untied)) == (0, 1, 2)
assert "scipy.optimize" not in sys.modules
tied = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.5]])
rows = pick(tied)
assert "scipy.optimize" in sys.modules
from scipy.optimize import linear_sum_assignment
r, c = linear_sum_assignment(tied, maximize=True)
assert rows == tuple(r[np.argsort(c)].tolist())
"""
        )

    def test_two_by_two(self):
        m = merit_from([[0.6, -0.6], [-0.4, 0.4]])
        a = solve_assignment(m)
        assert a.mapping == {"c0": "f0", "c1": "f1"}
        assert a.total_merit == pytest.approx(1.0)

    def test_identity_merit(self):
        m = merit_from(np.eye(4))
        a = solve_assignment(m)
        assert a.feature_indices == (0, 1, 2, 3)
        assert a.total_merit == pytest.approx(4.0)

    def test_infeasible(self):
        lib = FeatureLibrary.from_ids(["f0", "f1"])
        cs = ConceptSet(("c0", "c1", "c2"))
        m = MeritMatrix(lib, cs, np.zeros((2, 3)))
        with pytest.raises(InfeasibleError):
            solve_assignment(m)

    def test_brute_force_guard(self):
        m = merit_from(np.zeros((13, 2)))
        with pytest.raises(ValidationError):
            brute_force_assignment(m)

    def test_oracle_equivalence(self, rng):
        for _ in range(300):
            n = rng.integers(2, 7)
            N = rng.integers(n, 11)
            m = merit_from(rng.normal(size=(N, n)))
            fast = solve_assignment(m)
            slow = brute_force_assignment(m)
            assert fast.total_merit == pytest.approx(
                slow.total_merit, abs=1e-9
            )
            assert len(set(fast.feature_indices)) == n

    def test_column_shift_preserves_argmax(self, rng):
        for _ in range(50):
            n, N = 4, 7
            values = rng.normal(size=(N, n))
            shift = rng.normal()
            shifted = values.copy()
            shifted[:, 2] += shift
            a1 = solve_assignment(merit_from(values))
            a2 = solve_assignment(merit_from(shifted))
            assert a2.total_merit == pytest.approx(
                a1.total_merit + shift, abs=1e-9
            )

    def test_balanced_total_is_pairwise_margin(self, rng):
        # for 2 concepts, total balanced merit of any mapping equals the
        # diagonal-minus-antidiagonal association margin
        for _ in range(50):
            t = random_table(rng, 6, 2)
            m = balanced_merit(t)
            a = t.values
            for i1 in range(6):
                for i2 in range(6):
                    if i1 == i2:
                        continue
                    total = m.values[i1, 0] + m.values[i2, 1]
                    margin = (a[i1, 0] + a[i2, 1]) - (a[i1, 1] + a[i2, 0])
                    assert total == pytest.approx(margin, abs=1e-12)
