"""Differential parity: the compiled executor IS the interpreted pipeline.

The compiled path (:mod:`repro.exec`) re-derives nothing numerically —
every gather, scatter and GEMM replays the interpreted oracle's exact
arithmetic, so samples and :class:`~repro.core.sparsity.RunStats` must be
**byte-identical**, not merely close. The grid mirrors the golden-parity
idiom of ``tests/program/``: every zoo model × every ablation, then a
seeded fuzz layer over the knobs that actually reach the numerics
(activation quantization, threshold tables, conditioning, batching).

The Table II accelerator points (EXION4/24/42) differ only in hardware
pricing, not in the executed arithmetic, so the execution grid's config
axis is the set of software knobs; the Table II axis is exercised where
it matters — in the plan-structure suite next door
(``test_compiled_plan.py``).
"""

import functools

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.logdomain import approximation_table
from repro.core.pipeline import ExionPipeline
from repro.core.thresholds import ThresholdTable
import repro.exec.continuous
from repro.exec import ContinuousExecutor
from repro.models.zoo import build_model
from repro.serve.request import GenerationRequest
from repro.workloads.specs import MODEL_SPECS

MODELS = sorted(MODEL_SPECS)
ABLATIONS = ("base", "ep", "ffnr", "all")
#: One input each: a multi-token prompt context, or a one-token class label.
CONDITIONING = pytest.mark.parametrize(
    "conditioning", ({"prompt": "a corgi"}, {"class_label": 7}),
    ids=("prompt", "class_label"))


@functools.lru_cache(maxsize=None)
def _model(name):
    """Small-but-real build of a zoo model, cached across the module."""
    return build_model(name, seed=0, total_iterations=6, depth=2)


def _stats_bytes(stats):
    """Every RunStats field reduced to exactly comparable primitives."""
    return (
        (stats.ffn_layer1.dense, stats.ffn_layer1.computed),
        (stats.ffn_layer2.dense, stats.ffn_layer2.computed),
        tuple(stats.ffn_sparsities),
        stats.dense_iterations,
        stats.sparse_iterations,
        (stats.attention_scores.dense, stats.attention_scores.computed),
        (stats.q_projection.dense, stats.q_projection.computed),
        (stats.kv_projection.dense, stats.kv_projection.computed),
        tuple(stats.attention_sparsities),
        tuple(m.mask.tobytes() for m in stats.ffn_bitmasks),
        tuple(np.asarray(k).tobytes() for k in stats.attention_keepmasks),
    )


def _assert_identical(interpreted, compiled):
    assert np.array_equal(interpreted.sample, compiled.sample)
    assert interpreted.sample.dtype == compiled.sample.dtype
    assert _stats_bytes(interpreted.stats) == _stats_bytes(compiled.stats)


def _pipelines(model_name, config, **kwargs):
    """(interpreted oracle, default pipeline) — the oracle must say
    ``compiled=False`` out loud, or the grid compares an engine with
    itself."""
    model = _model(model_name)
    return (
        ExionPipeline(model, config, collect_masks=True, compiled=False,
                      **kwargs),
        ExionPipeline(model, config, collect_masks=True, **kwargs),
    )


def _requests(seeds, **conditioning):
    return [GenerationRequest(request_id=i, seed=seed, **conditioning)
            for i, seed in enumerate(seeds)]


class TestEveryModelEveryAblation:
    """The full grid: 9 models × 4 ablations, masks collected."""

    @CONDITIONING
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_samples_and_stats_byte_identical(self, model, ablation,
                                              conditioning):
        config = ExionConfig.for_model(model).ablation(ablation)
        interp, comp = _pipelines(model, config)
        ri = interp.generate(seed=3, **conditioning)
        rc = comp.generate(seed=3, **conditioning)
        _assert_identical(ri, rc)


class TestSeededFuzz:
    """Several seeds over the knobs that reach the numerics."""

    @pytest.mark.parametrize("seed", (0, 1, 17, 4096))
    @pytest.mark.parametrize("model", ("dit", "stable_diffusion", "mld"))
    def test_seed_sweep(self, model, seed):
        config = ExionConfig.for_model(model)
        interp, comp = _pipelines(model, config)
        _assert_identical(interp.generate(seed=seed),
                          comp.generate(seed=seed))

    @pytest.mark.parametrize("bits", (6, 8))
    def test_activation_quantization(self, bits):
        config = ExionConfig.for_model("dit")
        interp, comp = _pipelines("dit", config, activation_bits=bits)
        _assert_identical(interp.generate(seed=5, class_label=2),
                          comp.generate(seed=5, class_label=2))

    def test_threshold_table(self):
        config = ExionConfig.for_model("dit")
        table = ThresholdTable(target_sparsity=config.ffn_target_sparsity)
        table.set(0, 0, 0.25)
        table.set(1, 1, 0.05)
        interp, comp = _pipelines("dit", config, threshold_table=table)
        _assert_identical(interp.generate(seed=9), comp.generate(seed=9))

    def test_repeated_generations_are_bit_equal(self):
        """Two generations on one engine are bit-identical, and the second
        builds no approximation table: it is plan-time state."""
        pipeline = ExionPipeline(_model("dit"), ExionConfig.for_model("dit"))
        first = pipeline.generate(seed=0)
        tables_after_first = approximation_table.cache_info().misses
        second = pipeline.generate(seed=0)
        np.testing.assert_array_equal(first.sample, second.sample)
        assert approximation_table.cache_info().misses == tables_after_first


class TestBatchedParity:
    """The batched engine vs per-seed runs of the interpreted oracle."""

    @CONDITIONING
    @pytest.mark.parametrize("model", ("dit", "stable_diffusion", "mld"))
    def test_batched_samples_and_stats(self, model, conditioning):
        config = ExionConfig.for_model(model)
        oracle, pipeline = _pipelines(model, config)
        seeds = (1, 2, 3)
        samples, results = pipeline.generate_batch(seeds, **conditioning)
        for b, seed in enumerate(seeds):
            ref = oracle.generate(seed=seed, **conditioning)
            assert np.array_equal(samples[b], ref.sample)
            _assert_identical(ref, results[b])

    def test_batched_quantized(self):
        config = ExionConfig.for_model("dit")
        oracle, _ = _pipelines("dit", config, activation_bits=8)
        engine = ContinuousExecutor(_model("dit"), config, activation_bits=8,
                                    collect_masks=True)
        results = engine.run_batch(_requests((4, 5), class_label=1))
        for b, seed in enumerate((4, 5)):
            _assert_identical(oracle.generate(seed=seed, class_label=1),
                              results[b])

    def test_pipeline_generate_batch_routes_compiled(self):
        """One shared loop or a per-seed loop of one-run batches: both
        are the sequential interpreted loop's answer."""
        config = ExionConfig.for_model("dit")
        m = _model("dit")
        want, _ = ExionPipeline(m, config, compiled=False).generate_batch(
            [7, 8], class_label=2)
        for batched in (False, True):
            got, _ = ExionPipeline(m, config).generate_batch(
                [7, 8], class_label=2, batched=batched)
            assert np.array_equal(want, got)

    def test_repeated_drained_batches_are_bit_equal(self):
        """A second ``run_batch`` of the same seeds on one engine is
        bit-identical to the first and builds no approximation table:
        nothing one batch leaves behind reaches the next."""
        executor = ContinuousExecutor(_model("dit"), ExionConfig.for_model("dit"))
        requests = _requests((0, 1, 2))
        first = executor.run_batch(requests)
        tables_after_first = approximation_table.cache_info().misses
        second = executor.run_batch(requests)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.sample, b.sample)
        assert approximation_table.cache_info().misses == tables_after_first

    def test_batched_matches_single_stream(self):
        """Batch row b == the same seed's one-run batch — the same
        invariant the serve layer holds against the oracle."""
        config = ExionConfig.for_model("dit")
        pipeline = ExionPipeline(_model("dit"), config)
        sc, _ = pipeline.generate_batch([11, 12], class_label=3)
        for b, seed in enumerate((11, 12)):
            ref = pipeline.generate(seed=seed, class_label=3)
            assert np.array_equal(sc[b], ref.sample)


class TestOneStep:
    """Every tick takes the one EP attention step, whatever its batch
    size: no fork by batch size comes back unseen."""

    @CONDITIONING
    @pytest.mark.parametrize("model", ("dit", "stable_diffusion"))
    @pytest.mark.parametrize("seeds", ([4], [4, 5]), ids=("one-run", "two-run"))
    def test_every_ep_call_is_the_batched_step(self, monkeypatch, model,
                                               seeds, conditioning):
        """Each ``_attention`` call of an EP config reaches
        ``ep_attention_step_batched`` with the whole tick's runs, and every
        request gets the oracle's bytes (self- and cross-attention)."""
        attention = ContinuousExecutor._attention
        step = repro.exec.continuous.ep_attention_step_batched
        calls, sizes = [], []

        def spy_attention(self, layer, x, *args, **kwargs):
            calls.append(len(x))
            return attention(self, layer, x, *args, **kwargs)

        def spy_step(layer, x, *args, **kwargs):
            sizes.append(len(x))
            return step(layer, x, *args, **kwargs)

        monkeypatch.setattr(ContinuousExecutor, "_attention", spy_attention)
        monkeypatch.setattr(repro.exec.continuous,
                            "ep_attention_step_batched", spy_step)
        config = ExionConfig.for_model(model)
        oracle, pipeline = _pipelines(model, config)
        _, results = pipeline.generate_batch(seeds, **conditioning)
        assert calls and sizes == calls == [len(seeds)] * len(calls)
        for seed, result in zip(seeds, results):
            _assert_identical(oracle.generate(seed=seed, **conditioning),
                              result)
