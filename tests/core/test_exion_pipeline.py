"""Unit tests for the end-to-end ExionPipeline."""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.core.thresholds import ThresholdCalibrator
from repro.exec import ContinuousExecutor
from repro.workloads.metrics import psnr


class TestVanilla:
    def test_vanilla_matches_raw_pipeline(self, dit_model):
        pipeline = ExionPipeline(dit_model, ExionConfig.for_model("dit"))
        vanilla = pipeline.generate_vanilla(seed=2, class_label=3)
        raw = dit_model.make_pipeline().generate(seed=2, class_label=3)
        np.testing.assert_array_equal(vanilla.sample, raw)

    def test_vanilla_stats_empty(self, dit_model):
        pipeline = ExionPipeline(dit_model, ExionConfig.for_model("dit"))
        result = pipeline.generate_vanilla(seed=2)
        assert result.stats.dense_iterations == 0
        assert not result.stats.ffn_sparsities


class TestOptimizedRun:
    def test_base_config_equals_vanilla(self, dit_model):
        cfg = ExionConfig.for_model("dit").ablation("base")
        pipeline = ExionPipeline(dit_model, cfg)
        a = pipeline.generate(seed=2, class_label=3)
        b = ExionPipeline(dit_model, cfg, compiled=False).generate_vanilla(
            seed=2, class_label=3
        )
        np.testing.assert_array_equal(a.sample, b.sample)

    def test_ffn_sparsity_hits_target(self, dit_model):
        cfg = ExionConfig.for_model("dit").ablation("ffnr")
        result = ExionPipeline(dit_model, cfg).generate(seed=2, class_label=3)
        assert result.stats.ffn_output_sparsity == pytest.approx(0.80, abs=0.03)

    def test_phase_counts(self, dit_model):
        # 9 iterations, N=2 -> dense at 0,3,6 -> 3 dense, 6 sparse.
        cfg = ExionConfig.for_model("dit").ablation("ffnr")
        result = ExionPipeline(dit_model, cfg).generate(seed=2)
        assert result.stats.dense_iterations == 3
        assert result.stats.sparse_iterations == 6

    def test_optimized_close_to_vanilla(self, dit_model):
        cfg = ExionConfig.for_model("dit")
        pipeline = ExionPipeline(dit_model, cfg)
        opt = pipeline.generate(seed=2, class_label=3)
        van = pipeline.generate_vanilla(seed=2, class_label=3)
        assert psnr(van.sample, opt.sample) > 5.0

    def test_ep_records_attention_stats(self, dit_model):
        cfg = ExionConfig.for_model("dit").ablation("ep")
        result = ExionPipeline(dit_model, cfg).generate(seed=2)
        assert result.stats.attention_output_sparsity > 0.5
        assert result.stats.ffn_output_sparsity == 0.0

    def test_collect_masks(self, dit_model):
        cfg = ExionConfig.for_model("dit")
        pipeline = ExionPipeline(dit_model, cfg, collect_masks=True)
        result = pipeline.generate(seed=2)
        assert result.stats.ffn_bitmasks
        assert result.stats.attention_keepmasks

    def test_threshold_table_used(self, dit_model):
        cfg = ExionConfig.for_model("dit").ablation("ffnr")
        table = ThresholdCalibrator(
            target_sparsity=0.8, dense_period=cfg.sparse_iters_n + 1
        ).calibrate(dit_model, seed=2)
        pipeline = ExionPipeline(dit_model, cfg, threshold_table=table)
        result = pipeline.generate(seed=2)
        assert result.stats.ffn_output_sparsity == pytest.approx(0.80, abs=0.05)


class TestQuantizedRun:
    def test_activation_quantization_changes_little(self, dit_model):
        """INT12 activations perturb EP's skip decisions slightly, so the
        trajectory diverges more than pure rounding error — but stays close
        (paper Table I: the +Quant rows track the +EP rows)."""
        cfg = ExionConfig.for_model("dit")
        plain = ExionPipeline(dit_model, cfg).generate(seed=2, class_label=3)
        quant = ExionPipeline(dit_model, cfg, activation_bits=12).generate(
            seed=2, class_label=3
        )
        assert psnr(plain.sample, quant.sample) > 8.0

    def test_wider_activations_are_closer(self, dit_model):
        cfg = ExionConfig.for_model("dit")
        plain = ExionPipeline(dit_model, cfg).generate(seed=2, class_label=3)
        q12 = ExionPipeline(dit_model, cfg, activation_bits=12).generate(
            seed=2, class_label=3
        )
        q16 = ExionPipeline(dit_model, cfg, activation_bits=16).generate(
            seed=2, class_label=3
        )
        assert psnr(plain.sample, q16.sample) > psnr(plain.sample, q12.sample)

    def test_cross_attention_models_run_quantized(self, sd_model):
        cfg = ExionConfig.for_model("stable_diffusion")
        result = ExionPipeline(sd_model, cfg, activation_bits=12).generate(
            seed=2, prompt="a corgi surfing"
        )
        assert np.all(np.isfinite(result.sample))


class TestActivationBitsValidation:
    """An unusable width is refused when the pipeline or the engine is
    built, not on its first tick."""

    @pytest.mark.parametrize("bits", [0, 1, 40, 2.5, True, "8"])
    def test_refused_at_construction(self, dit_model, bits):
        cfg = ExionConfig.for_model("dit")
        for build in (ExionPipeline, ContinuousExecutor):
            with pytest.raises(ValueError, match="activation_bits"):
                build(dit_model, cfg, activation_bits=bits)

    @pytest.mark.parametrize("bits", [2, 32, np.int64(8)])
    def test_accepted_widths(self, dit_model, bits):
        cfg = ExionConfig.for_model("dit")
        for build in (ExionPipeline, ContinuousExecutor):
            assert build(dit_model, cfg, activation_bits=bits).activation_bits == bits


class TestAllBenchmarks:
    @pytest.mark.parametrize(
        "name", ["mld", "mdm", "edge", "make_an_audio", "videocrafter2"]
    )
    def test_every_model_runs_optimized(self, name):
        from repro.models.zoo import build_model

        model = build_model(name, seed=0, total_iterations=7)
        cfg = ExionConfig.for_model(name)
        result = ExionPipeline(model, cfg).generate(seed=1, prompt="test")
        assert np.all(np.isfinite(result.sample))
        assert result.stats.ffn_output_sparsity > 0.5


class TestEngineSelection:
    """Which stack a call runs on. After the default flip the hazard is a
    reference that silently became the engine it is meant to check."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The engines constructed during the test, in order."""
        import repro.exec

        built = []
        cls = repro.exec.ContinuousExecutor

        def spy(*args, **kwargs):
            built.append(cls(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.exec, "ContinuousExecutor", spy)
        return built

    def test_oracle_builds_no_engine(self, dit_model, built):
        pipeline = ExionPipeline(dit_model, ExionConfig.for_model("dit"),
                                 compiled=False)
        pipeline.generate(seed=2)
        pipeline.generate_batch([2, 3], batched=True)
        pipeline.generate_vanilla(seed=2)
        assert built == []

    def test_default_reuses_one_engine_for_every_call_shape(
        self, dit_model, built, monkeypatch
    ):
        pipeline = ExionPipeline(dit_model, ExionConfig.for_model("dit"))
        pipeline.generate(seed=2)
        assert len(built) == 1
        engine = built[0]
        batch_sizes = []
        run_batch = engine.run_batch

        def spy(requests):
            batch_sizes.append(len(requests))
            return run_batch(requests)

        monkeypatch.setattr(engine, "run_batch", spy)
        pipeline.generate(seed=3)
        pipeline.generate_batch([2])
        pipeline.generate_batch([2, 3])
        pipeline.generate_batch([4, 5, 6])
        assert built == [engine]
        assert batch_sizes == [1, 1, 2, 3]
        # The vanilla run gets its own engine, built once.
        pipeline.generate_vanilla(seed=2)
        pipeline.generate_vanilla(seed=3)
        assert len(built) == 2 and built[0] is engine
