"""Unit tests for the cell-assignment datatype."""

import pytest

from repro.core.conmerge.vectors import CellAssignment


class TestCellAssignment:
    def test_rejects_bad_buffer(self):
        with pytest.raises(ValueError, match="triple-buffered"):
            CellAssignment(0, 0, 0, 0, buffer_index=3)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            CellAssignment(-1, 0, 0, 0, 0)

    @pytest.mark.parametrize(
        "field", ("lane", "col_slot", "input_row", "origin_col")
    )
    def test_each_index_must_be_non_negative(self, field):
        fields = dict(lane=0, col_slot=0, input_row=0, origin_col=0,
                      buffer_index=0)
        fields[field] = -1
        with pytest.raises(ValueError, match="non-negative"):
            CellAssignment(**fields)

    @pytest.mark.parametrize("buffer_index", (0, 1, 2))
    def test_accepts_each_wmem_buffer(self, buffer_index):
        cell = CellAssignment(lane=3, col_slot=1, input_row=5, origin_col=9,
                              buffer_index=buffer_index)
        assert cell.buffer_index == buffer_index

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValueError, match="triple-buffered"):
            CellAssignment(0, 0, 0, 0, buffer_index=-1)
