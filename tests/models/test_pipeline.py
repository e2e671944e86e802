"""Unit tests for the diffusion inference pipeline."""

import numpy as np
import pytest

from repro.models.pipeline import DiffusionPipeline
from repro.models.transformer import Executors


def _record_latents(pipe, monkeypatch) -> list:
    """Every latent ``x_t`` the pipeline's scheduler steps to, in order."""
    latents = []
    step = pipe.scheduler.step

    def recording(*args, **kwargs):
        latents.append(step(*args, **kwargs))
        return latents[-1]

    monkeypatch.setattr(pipe.scheduler, "step", recording)
    return latents


class TestDiffusionPipeline:
    def test_generates_correct_shape(self, dit_model):
        pipe = dit_model.make_pipeline()
        result = pipe.generate(seed=0, class_label=1)
        assert result.sample.shape == (16, 64)
        assert result.iterations == 9

    def test_deterministic_given_seed(self, dit_model):
        pipe = dit_model.make_pipeline()
        a = pipe.generate(seed=3, class_label=1)
        b = pipe.generate(seed=3, class_label=1)
        np.testing.assert_array_equal(a.sample, b.sample)

    def test_seed_changes_output(self, dit_model):
        pipe = dit_model.make_pipeline()
        a = pipe.generate(seed=1, class_label=1)
        b = pipe.generate(seed=2, class_label=1)
        assert not np.allclose(a.sample, b.sample)

    def test_prompt_conditioning_changes_output(self, sd_model):
        pipe = sd_model.make_pipeline()
        a = pipe.generate(seed=1, prompt="a red bird")
        b = pipe.generate(seed=1, prompt="a blue car")
        assert not np.allclose(a.sample, b.sample)

    def test_collect_traces(self, dit_model):
        pipe = dit_model.make_pipeline()
        result = pipe.generate(seed=0, collect_traces=True)
        assert len(result.block_traces) == 9
        assert len(result.block_traces[0]) == dit_model.network.depth

    def test_collect_latents(self, dit_model, monkeypatch):
        pipe = dit_model.make_pipeline()
        latents = _record_latents(pipe, monkeypatch)
        result = pipe.generate(seed=0)
        assert len(latents) == 9
        np.testing.assert_array_equal(latents[-1], result.sample)

    def test_iteration_hook_sees_every_iteration(self, dit_model):
        pipe = dit_model.make_pipeline()
        seen = []
        pipe.generate(
            seed=0, iteration_start_hook=lambda i, t: seen.append((i, t))
        )
        assert [i for i, _ in seen] == list(range(9))
        # Timesteps decrease over the run.
        ts = [t for _, t in seen]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_executor_provider_called_per_iteration_and_block(self, dit_model):
        pipe = dit_model.make_pipeline()
        calls = []

        def provider(iteration, block):
            calls.append((iteration, block))
            return Executors()

        pipe.generate(seed=0, executor_provider=provider)
        assert len(calls) == 9 * dit_model.network.depth

    def test_rejects_bad_scheduler(self, dit_model):
        with pytest.raises(TypeError):
            DiffusionPipeline(dit_model.network, object(), 10)

    def test_latents_stay_bounded(self, dit_model, monkeypatch):
        """The x0-clipping in the scheduler keeps latents finite and within
        the clip envelope (|x| <= 10 per element at the final step)."""
        pipe = dit_model.make_pipeline()
        latents = _record_latents(pipe, monkeypatch)
        pipe.generate(seed=0)
        for latent in latents:
            assert np.all(np.isfinite(latent))
        assert np.max(np.abs(latents[-1])) <= 10.0 + 1e-9
