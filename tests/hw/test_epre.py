"""Unit tests for the eager-prediction engine model."""

import pytest

from repro.hw.dpu import dot_product_cycles
from repro.hw.epre import EPREModel
from repro.hw.sdue import SDUEModel


class TestEPREModel:
    def test_prediction_cycles_helper(self):
        epre = EPREModel()
        assert epre.prediction_cycles(16, 16, 16) == 1
        assert epre.prediction_cycles(17, 16, 16) == 2
        # 2 row tiles x 2 col tiles x 2 depth cycles.
        assert epre.prediction_cycles(32, 32, 32) == 2 * 2 * 2

    @pytest.mark.parametrize("rows,cols,lane", ((16, 16, 16), (8, 32, 16),
                                                (4, 4, 8)))
    @pytest.mark.parametrize("r,k,c", ((1, 1, 1), (16, 64, 16),
                                       (77, 40, 120), (256, 72, 256)))
    def test_tiles_the_output_over_the_array(self, rows, cols, lane, r, k, c):
        """One LD_DPU per output element of a tile; each tile takes one
        dot product's worth of cycles, ragged edge tiles a full one."""
        epre = EPREModel(rows=rows, cols=cols, lane_length=lane)
        tiles = -(-r // rows) * -(-c // cols)
        assert epre.prediction_cycles(r, k, c) == (
            tiles * dot_product_cycles(k, lane)
        )
        # Same array geometry, same tiling as a dense SDUE MMUL.
        assert epre.prediction_cycles(r, k, c) == SDUEModel(
            rows=rows, cols=cols, lane_length=lane
        ).dense_cycles(r, k, c)
