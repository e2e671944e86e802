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

    @pytest.mark.parametrize("r,k,c", ((1, 1, 1), (16, 64, 16),
                                       (77, 40, 120), (256, 72, 256),
                                       (15, 16, 17), (16, 17, 16),
                                       (1, 256, 300)))
    def test_tiles_the_output_over_the_array(self, r, k, c):
        """One LD_DPU per output element of a 16x16 tile; each tile takes
        one dot product's worth of cycles, ragged edge tiles a full one."""
        epre = EPREModel()
        tiles = -(-r // 16) * -(-c // 16)
        assert epre.prediction_cycles(r, k, c) == (
            tiles * dot_product_cycles(k, 16)
        )
        # Same array geometry, same tiling as a dense SDUE MMUL.
        assert epre.prediction_cycles(r, k, c) == SDUEModel().dense_cycles(
            r, k, c)
