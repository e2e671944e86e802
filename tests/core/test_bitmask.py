"""Unit + property tests for the Bitmask type."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bitmask import Bitmask


def masks(max_rows=16, max_cols=32):
    return hnp.arrays(
        dtype=bool,
        shape=st.tuples(
            st.integers(1, max_rows), st.integers(1, max_cols)
        ),
    ).map(Bitmask)


class TestConstruction:
    def test_from_threshold(self):
        values = np.array([[0.1, -0.5], [2.0, 0.0]])
        mask = Bitmask.from_threshold(values, 0.4)
        np.testing.assert_array_equal(
            mask.mask, [[False, True], [True, False]]
        )

    def test_dense(self):
        assert Bitmask.dense(3, 4).sparsity == 0.0

    def test_random_expected_sparsity(self, rng):
        mask = Bitmask.random(100, 100, 0.8, rng)
        assert mask.sparsity == pytest.approx(0.8, abs=0.05)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Bitmask(np.zeros(5, dtype=bool))


class TestStatistics:
    def test_nnz_and_sparsity(self):
        mask = Bitmask(np.array([[1, 0], [0, 0]], dtype=bool))
        assert mask.nnz == 1
        assert mask.sparsity == 0.75

    def test_nonzero_columns(self):
        mask = Bitmask(np.array([[1, 0, 1], [1, 0, 0]], dtype=bool))
        np.testing.assert_array_equal(mask.nonzero_columns(), [0, 2])


class TestOperators:
    def test_and_or_invert(self):
        a = Bitmask(np.array([[1, 0]], dtype=bool))
        b = Bitmask(np.array([[1, 1]], dtype=bool))
        np.testing.assert_array_equal((a & b).mask, [[True, False]])
        np.testing.assert_array_equal((a | b).mask, [[True, True]])
        np.testing.assert_array_equal((~a).mask, [[False, True]])

    def test_equality(self):
        a = Bitmask(np.array([[1, 0]], dtype=bool))
        assert a == Bitmask(np.array([[1, 0]], dtype=bool))
        assert a != Bitmask(np.array([[0, 0]], dtype=bool))

    def test_repr_mentions_sparsity(self):
        assert "sparsity" in repr(Bitmask.dense(2, 2))


class TestProperties:
    @given(masks())
    @settings(max_examples=60, deadline=None)
    def test_sparsity_in_unit_interval(self, mask):
        assert 0.0 <= mask.sparsity <= 1.0

    @given(masks())
    @settings(max_examples=60, deadline=None)
    def test_double_invert_is_identity(self, mask):
        assert ~(~mask) == mask

    @given(masks())
    @settings(max_examples=60, deadline=None)
    def test_nonzero_columns_are_the_live_ones(self, mask):
        nz = set(mask.nonzero_columns().tolist())
        for col in range(mask.cols):
            assert (col in nz) == bool(mask.mask[:, col].any())
