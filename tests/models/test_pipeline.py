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
    def test_generates_correct_shape(self, dit_model, monkeypatch):
        pipe = dit_model.make_pipeline()
        latents = _record_latents(pipe, monkeypatch)
        sample = pipe.generate(seed=0, class_label=1)
        assert sample.shape == (16, 64)
        assert len(latents) == 9

    def test_prompt_and_class_label_refused(self, sd_model):
        pipe = sd_model.make_pipeline()
        with pytest.raises(ValueError, match="prompt or class_label"):
            pipe.embed_prompt("a corgi", 3)
        with pytest.raises(ValueError, match="prompt or class_label"):
            pipe.generate(seed=0, prompt="a corgi", class_label=3)

    def test_deterministic_given_seed(self, dit_model):
        pipe = dit_model.make_pipeline()
        a = pipe.generate(seed=3, class_label=1)
        b = pipe.generate(seed=3, class_label=1)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self, dit_model):
        pipe = dit_model.make_pipeline()
        a = pipe.generate(seed=1, class_label=1)
        b = pipe.generate(seed=2, class_label=1)
        assert not np.allclose(a, b)

    def test_prompt_conditioning_changes_output(self, sd_model):
        pipe = sd_model.make_pipeline()
        a = pipe.generate(seed=1, prompt="a red bird")
        b = pipe.generate(seed=1, prompt="a blue car")
        assert not np.allclose(a, b)

    def test_collect_latents(self, dit_model, monkeypatch):
        pipe = dit_model.make_pipeline()
        latents = _record_latents(pipe, monkeypatch)
        sample = pipe.generate(seed=0)
        assert len(latents) == 9
        np.testing.assert_array_equal(latents[-1], sample)

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


class TestFFNHiddenStates:
    @pytest.mark.parametrize("model", ["dit", "sd"])
    def test_equal_to_a_manual_forward_pass(self, model, dit_model, sd_model,
                                            monkeypatch):
        """``[iteration][block]`` non-linearity outputs, byte-equal to what
        a plain generation's FFNs compute, and the run stays vanilla."""
        model = {"dit": dit_model, "sd": sd_model}[model]
        pipe = model.make_pipeline()
        depth = model.network.depth
        manual = []
        for block in model.network.blocks:
            ffn = block.ffn

            def recording(pre, nonlinear=ffn.nonlinear):
                manual.append(nonlinear(pre))
                return manual[-1]

            monkeypatch.setattr(ffn, "nonlinear", recording)
        latents = _record_latents(pipe, monkeypatch)
        sample = pipe.generate(seed=4, prompt="a red bird")
        expected = [h.tobytes() for h in manual]
        iterations = len(latents)
        del latents[:]

        states = pipe.ffn_hidden_states(seed=4, prompt="a red bird")
        assert len(states) == len(latents) == iterations
        assert all(len(row) == depth for row in states)
        assert [h.tobytes() for row in states for h in row] == expected
        assert latents[-1].tobytes() == sample.tobytes()
