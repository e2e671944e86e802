"""Unit tests for the ConMerge assistant unit model."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.hw.cau import CAUModel
from repro.workloads.generator import ffn_output_bitmask


class TestCAU:
    def test_process_returns_report(self, rng):
        cau = CAUModel()
        mask = Bitmask.random(32, 64, sparsity=0.9, rng=rng)
        report = cau.process(mask)
        assert report.classify_cycles == 64 * 2  # cols x row-tiles
        assert report.merge_cycles == report.result.cycles
        assert report.total_cycles > 0
        assert report.cvmem_words > 0

    def test_sorting_reduces_merge_cycles(self):
        cau = CAUModel()
        totals = {"sorted": 0, "random": 0}
        for seed in range(5):
            mask = ffn_output_bitmask(
                16, 256, 0.9, dead_col_fraction=0.2,
                rng=np.random.default_rng(seed),
            )
            totals["sorted"] += cau.process(mask, sort=True).merge_cycles
            totals["random"] += cau.process(mask, sort=False).merge_cycles
        assert totals["sorted"] < totals["random"]

    def test_area_share_matches_paper(self):
        """CAU accounts for 0.94% of the DSC area (paper IV-C, Table III)."""
        from repro.hw.energy import DSC_AREA_MM2

        total = sum(DSC_AREA_MM2.values())
        assert DSC_AREA_MM2["cau"] / total == pytest.approx(0.0094, abs=0.002)
