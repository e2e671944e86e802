"""Batched-engine equivalence with sequential interpreted runs.

The serving layer's core guarantee: batching is a pure throughput
optimization. Each request of a micro-batch — whatever the batch's
composition — produces the same sample and the same statistics as a
sequential ``ExionPipeline(compiled=False).generate()`` call with that
request's inputs. The batch is driven the two ways callers reach it:
seeds through ``ExionPipeline.generate_batch`` and request lists straight
into ``ContinuousExecutor.run_batch``.
"""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.core.thresholds import ThresholdCalibrator
from repro.exec import ContinuousExecutor
from repro.models.zoo import build_model
from repro.serve.request import GenerationRequest


def oracle(model, config, **kwargs):
    """The interpreted reference; saying ``compiled=False`` is the point."""
    return ExionPipeline(model, config, compiled=False, **kwargs)


def run_one(model, config, seed, class_label, **kwargs):
    """A batch of one on the batched engine."""
    request = GenerationRequest(request_id=0, seed=seed,
                                class_label=class_label)
    return ContinuousExecutor(model, config, **kwargs).run_batch([request])[0]


def assert_stats_equal(got, want):
    assert got.summary() == want.summary()
    assert got.ffn_layer1.computed == want.ffn_layer1.computed
    assert got.ffn_layer2.computed == want.ffn_layer2.computed
    assert got.attention_scores.computed == want.attention_scores.computed
    assert got.q_projection.computed == want.q_projection.computed
    assert got.kv_projection.computed == want.kv_projection.computed
    assert got.ffn_sparsities == want.ffn_sparsities
    assert got.attention_sparsities == want.attention_sparsities
    assert got.prediction_overhead_macs == want.prediction_overhead_macs


class TestBatchOfOne:
    @pytest.mark.parametrize("ablation", ["base", "ep", "ffnr", "all"])
    def test_bit_for_bit_vs_sequential(self, serve_dit_model, dit_config,
                                       ablation):
        config = dit_config.ablation(ablation)
        want = oracle(serve_dit_model, config).generate(
            seed=11, class_label=4
        )
        got = run_one(serve_dit_model, config, seed=11, class_label=4)
        assert np.array_equal(got.sample, want.sample)
        assert_stats_equal(got.stats, want.stats)

    def test_empty_batch_rejected(self, serve_dit_model, dit_config):
        with pytest.raises(ValueError):
            ContinuousExecutor(serve_dit_model, dit_config).run_batch([])
        for compiled in (True, False):
            with pytest.raises(ValueError):
                ExionPipeline(serve_dit_model, dit_config,
                              compiled=compiled).generate_batch([])


class TestHeterogeneousBatch:
    def test_mixed_seeds_match_sequential(self, serve_dit_model, dit_config):
        seeds = [3, 11, 42, 5, 8]
        sequential = oracle(serve_dit_model, dit_config)
        want = [sequential.generate(seed=s, class_label=7) for s in seeds]
        samples, got = ExionPipeline(
            serve_dit_model, dit_config
        ).generate_batch(seeds, class_label=7)
        assert samples.shape == (len(seeds),) + want[0].sample.shape
        for g, w in zip(got, want):
            assert np.array_equal(g.sample, w.sample)
            assert_stats_equal(g.stats, w.stats)

    def test_mixed_class_labels_match_sequential(self, serve_dit_model,
                                                 dit_config):
        requests = [
            GenerationRequest(request_id=i, seed=seed, class_label=label)
            for i, (seed, label) in enumerate([(1, 0), (1, 9), (2, 0), (7, 3)])
        ]
        sequential = oracle(serve_dit_model, dit_config)
        want = [
            sequential.generate(seed=r.seed, class_label=r.class_label)
            for r in requests
        ]
        got = ContinuousExecutor(serve_dit_model, dit_config).run_batch(
            requests)
        for g, w in zip(got, want):
            assert np.array_equal(g.sample, w.sample)

    def test_mixed_prompts_cross_attention_model(self):
        """Mixed ``(prompt, class_label)`` conditioning, with repeats that
        share one encoder pass inside the batch."""
        model = build_model("mld", seed=0, total_iterations=5)
        config = ExionConfig.for_model("mld")
        conditioning = [
            ("a person walks", None), ("a person jumps high", None),
            ("spin", 3), ("a person walks", None), (None, 3),
        ]
        sequential = oracle(model, config)
        want = [sequential.generate(seed=i, prompt=p, class_label=c)
                for i, (p, c) in enumerate(conditioning)]
        requests = [
            GenerationRequest(request_id=i, seed=i, prompt=p, class_label=c)
            for i, (p, c) in enumerate(conditioning)
        ]
        got = ContinuousExecutor(model, config).run_batch(requests)
        for g, w in zip(got, want):
            assert np.array_equal(g.sample, w.sample)
            assert_stats_equal(g.stats, w.stats)

    def test_resblock_unet_model(self):
        model = build_model("stable_diffusion", seed=0, total_iterations=5)
        config = ExionConfig.for_model("stable_diffusion")
        sequential = oracle(model, config)
        want = [sequential.generate(seed=s, prompt="a wave") for s in (0, 4)]
        _, got = ExionPipeline(model, config).generate_batch(
            [0, 4], prompt="a wave"
        )
        for g, w in zip(got, want):
            assert np.array_equal(g.sample, w.sample)


class TestRunStatsIsolation:
    def test_each_request_gets_distinct_stats(self, serve_dit_model,
                                              dit_config):
        _, results = ExionPipeline(
            serve_dit_model, dit_config
        ).generate_batch([1, 2, 3], class_label=0)
        stats_objects = [r.stats for r in results]
        assert len({id(s) for s in stats_objects}) == 3
        # Different seeds see different data, so the attention sparsity
        # observations differ between requests (FFN sparsity is pinned to
        # the quantile target and thus equal by construction).
        assert (stats_objects[0].attention_sparsities
                != stats_objects[1].attention_sparsities)
        # But the op accounting structure is identical (same model/config).
        assert (stats_objects[0].ffn_layer1.dense
                == stats_objects[1].ffn_layer1.dense)

    def test_mutating_one_result_leaves_others_intact(self, serve_dit_model,
                                                      dit_config):
        _, results = ExionPipeline(
            serve_dit_model, dit_config
        ).generate_batch([1, 2], class_label=0)
        before = list(results[1].stats.ffn_sparsities)
        results[0].stats.ffn_sparsities.clear()
        results[0].stats.ffn_layer1.add(10, 5)
        assert results[1].stats.ffn_sparsities == before


class TestOptionalPaths:
    def test_threshold_table_parity(self, serve_dit_model, dit_config):
        calibrator = ThresholdCalibrator(
            target_sparsity=dit_config.ffn_target_sparsity,
            dense_period=dit_config.sparse_iters_n + 1,
        )
        table = calibrator.calibrate(serve_dit_model, seed=0)
        want = oracle(
            serve_dit_model, dit_config, threshold_table=table
        ).generate(seed=5, class_label=1)
        got = run_one(serve_dit_model, dit_config, seed=5, class_label=1,
                      threshold_table=table)
        assert np.array_equal(got.sample, want.sample)
        assert_stats_equal(got.stats, want.stats)

    def test_activation_bits_parity(self, serve_dit_model, dit_config):
        want = oracle(
            serve_dit_model, dit_config, activation_bits=12
        ).generate(seed=2, class_label=3)
        _, got = ExionPipeline(
            serve_dit_model, dit_config, activation_bits=12
        ).generate_batch([9, 2], class_label=3)
        assert np.array_equal(got[1].sample, want.sample)

    def test_collect_masks_parity(self, serve_dit_model, dit_config):
        want = oracle(
            serve_dit_model, dit_config, collect_masks=True
        ).generate(seed=1, class_label=2)
        got = run_one(serve_dit_model, dit_config, seed=1, class_label=2,
                      collect_masks=True)
        assert len(got.stats.ffn_bitmasks) == len(want.stats.ffn_bitmasks)
        for g, w in zip(got.stats.ffn_bitmasks, want.stats.ffn_bitmasks):
            assert g == w
        assert len(got.stats.attention_keepmasks) == len(
            want.stats.attention_keepmasks
        )
        for g, w in zip(got.stats.attention_keepmasks,
                        want.stats.attention_keepmasks):
            assert np.array_equal(g, w)

    def test_generate_batch_delegation_from_core(self, serve_dit_model,
                                                 dit_config):
        loop_samples, _ = oracle(serve_dit_model, dit_config).generate_batch(
            [4, 6], class_label=2
        )
        batched_samples, _ = ExionPipeline(
            serve_dit_model, dit_config
        ).generate_batch([4, 6], class_label=2)
        assert np.array_equal(loop_samples, batched_samples)

    def test_base_ablation_batch_matches_generate_vanilla(self,
                                                          serve_dit_model,
                                                          dit_config):
        want = oracle(serve_dit_model, dit_config).generate_vanilla(
            seed=3, class_label=1
        )
        pipeline = ExionPipeline(serve_dit_model, dit_config.ablation("base"))
        # One seed runs the 2-D engine, two the batched one.
        for seeds in ([3], [3, 5]):
            samples, results = pipeline.generate_batch(seeds, class_label=1)
            assert np.array_equal(samples[0], want.sample)
            assert results[0].stats.summary() == want.stats.summary()
