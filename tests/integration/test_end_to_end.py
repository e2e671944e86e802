"""Integration tests across packages: algorithms + hardware in the loop."""

import numpy as np
import pytest

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.conmerge.cvg import conmerge_tiled
from repro.core.ffn_reuse import FFNReuse
from repro.core.pipeline import ExionPipeline
from repro.core.sparsity import RunStats
from repro.hw.sdue import SDUEModel
from repro.models.zoo import build_model
from repro.workloads.metrics import psnr


class TestSDUEExecutesFFNReuse:
    """Hardware-in-the-loop: the SDUE executing ConMerge blocks reproduces
    the FFN-Reuse sparse iteration exactly."""

    def test_sparse_iteration_first_layer_on_sdue(self, rng):
        from repro.models.ffn import FeedForward

        ffn = FeedForward(16, 32, rng)
        config = ExionConfig(sparse_iters_n=2, ffn_target_sparsity=0.85)
        mgr = FFNReuse(config, num_blocks=1, stats=RunStats())

        x0 = rng.standard_normal((16, 16))
        mgr.begin_iteration(0)
        mgr.executor_for_block(0)(ffn, x0)
        state = mgr.state_for_block(0)

        # Hardware path: ConMerge the bitmask, run merged blocks on the
        # SDUE over the *new* input, reuse dense pre-activations elsewhere.
        x1 = x0 + 0.02 * rng.standard_normal((16, 16))
        tiled = conmerge_tiled(state.bitmask, tile_rows=16)
        sdue = SDUEModel()
        pre_dense = ffn.linear1(x0)  # dense-iteration pre-activation
        pre_hw = sdue.run_conmerge(
            tiled, x1, ffn.linear1.weight, baseline=pre_dense
        )

        # Functional path for comparison.
        pre_exact = ffn.linear1(x1)
        mask = state.bitmask.mask
        np.testing.assert_allclose(pre_hw[mask], pre_exact[mask], atol=1e-9)
        np.testing.assert_allclose(pre_hw[~mask], pre_dense[~mask], atol=1e-9)

    def test_sdue_cycles_reflect_compaction(self, rng):
        mask = Bitmask.random(16, 128, sparsity=0.95, rng=rng)
        tiled = conmerge_tiled(mask, tile_rows=16)
        sdue = SDUEModel()
        dense_cycles = sdue.dense_cycles(16, 64, 128)
        sdue.run_conmerge(
            tiled,
            rng.standard_normal((16, 64)),
            rng.standard_normal((64, 128)),
            np.zeros((16, 128)),
        )
        assert sdue.stats.cycles < 0.5 * dense_cycles


class TestAccuracyAcrossModels:
    """Table I style: optimized runs stay close to vanilla on every model."""

    @pytest.mark.parametrize("name", ["mld", "edge", "videocrafter2"])
    def test_psnr_reasonable(self, name):
        model = build_model(name, seed=0, total_iterations=10)
        cfg = ExionConfig.for_model(name)
        pipeline = ExionPipeline(model, cfg)
        van = pipeline.generate_vanilla(seed=4, prompt="integration test")
        opt = pipeline.generate(seed=4, prompt="integration test")
        assert psnr(van.sample, opt.sample) > 5.0

    def test_ffnr_only_more_accurate_than_full(self, dit_model):
        """FFN-Reuse alone should be at least as accurate as FFN-Reuse+EP
        (paper Table I rows)."""
        pipeline_f = ExionPipeline(
            dit_model, ExionConfig.for_model("dit").ablation("ffnr")
        )
        pipeline_a = ExionPipeline(
            dit_model, ExionConfig.for_model("dit").ablation("all")
        )
        van = pipeline_f.generate_vanilla(seed=4, class_label=7)
        ffnr = pipeline_f.generate(seed=4, class_label=7)
        both = pipeline_a.generate(seed=4, class_label=7)
        assert psnr(van.sample, ffnr.sample) >= psnr(van.sample, both.sample) - 1.0


class TestStatsToHardware:
    """Measured sparsity statistics can drive the hardware simulator."""

    def test_profile_from_run_feeds_accelerator(self, dit_model):
        from repro.hw.accelerator import ExionAccelerator
        from repro.hw.constants import HARDWARE
        from repro.hw.profile import profile_from_stats

        cfg = ExionConfig.for_model("dit")
        result = ExionPipeline(dit_model, cfg).generate(seed=1, class_label=2)
        profile = profile_from_stats(dit_model.spec, result.stats, HARDWARE)
        report = ExionAccelerator.exion24().simulate(
            dit_model.spec, profile=profile, iterations=12
        )
        assert report.latency_s > 0
        assert report.computed_ops < 0.8 * report.dense_equivalent_ops

    def test_measured_masks_feed_conmerge(self, dit_model):
        cfg = ExionConfig.for_model("dit")
        pipeline = ExionPipeline(dit_model, cfg, collect_masks=True)
        result = pipeline.generate(seed=1, class_label=2)
        mask = result.stats.ffn_bitmasks[0]
        tiled = conmerge_tiled(mask, tile_rows=16)
        assert tiled.remaining_column_ratio < 1.0
        expected = {(int(r), int(c)) for r, c in np.argwhere(mask.mask)}
        got = set()
        for tile_idx, tile in enumerate(tiled.tile_results):
            for block in tile.blocks:
                for cell in block.entries():
                    got.add((cell.input_row + 16 * tile_idx, cell.origin_col))
        assert got == expected
