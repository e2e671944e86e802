"""Unit tests for the ConMerge assistant unit model."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.core.conmerge.cvg import conmerge_tiled
from repro.hw.cau import CAUModel
from repro.workloads.generator import ffn_output_bitmask


class TestCAU:
    def test_process_returns_report(self, rng):
        cau = CAUModel()
        mask = Bitmask.random(32, 64, sparsity=0.9, rng=rng)
        report = cau.process(mask)
        assert report.merge_cycles == report.result.cycles

    def test_sorting_reduces_merge_cycles(self):
        """The CAU's sorted pass beats an unsorted ConMerge of the same
        tiles."""
        cau = CAUModel()
        totals = {"sorted": 0, "random": 0}
        for seed in range(5):
            mask = ffn_output_bitmask(
                16, 256, 0.9, dead_col_fraction=0.2,
                rng=np.random.default_rng(seed),
            )
            totals["sorted"] += cau.process(mask).merge_cycles
            totals["random"] += conmerge_tiled(
                mask, tile_rows=cau.rows, width=cau.width, sort=False,
                class_capacity=cau.class_capacity,
            ).cycles
        assert totals["sorted"] < totals["random"]

    def test_area_share_matches_paper(self):
        """CAU accounts for 0.94% of the DSC area (paper IV-C, Table III)."""
        from repro.hw.constants import HARDWARE

        area = dict(HARDWARE.dsc_area_mm2)
        assert area["cau"] / sum(area.values()) == pytest.approx(0.0094, abs=0.002)
