"""Unit tests for the explorer's accuracy score."""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.workloads.evaluation import _prompts, evaluate_config
from repro.workloads.metrics import psnr

FFNR = ExionConfig.for_model("mld", enable_eager_prediction=False)


class TestEvaluateConfig:
    def test_mean_of_per_seed_psnr(self):
        """The score is the mean PSNR of the config's samples against
        vanilla ones on the same model seed, seeds and prompts."""
        score = evaluate_config("mld", FFNR, n_samples=3, iterations=6, rng=5)
        rng = np.random.default_rng(5)
        model_seed = int(rng.integers(2**31))
        seeds = [int(s) for s in rng.integers(2**31, size=3)]
        model = build_model("mld", seed=model_seed, total_iterations=6)
        pipeline = ExionPipeline(model, FFNR)
        psnrs = [
            psnr(pipeline.generate_vanilla(seed=seed, prompt=prompt).sample,
                 pipeline.generate(seed=seed, prompt=prompt).sample)
            for seed, prompt in zip(seeds, _prompts(3))
        ]
        assert isinstance(score, float)
        assert score == float(np.mean(psnrs))
        assert 0.0 < score < float("inf")

    def test_vanilla_config_scores_infinite(self):
        vanilla = ExionConfig.for_model("mld").ablation("base")
        assert evaluate_config("mld", vanilla, n_samples=1, iterations=4,
                               rng=0) == float("inf")

    def test_generator_instance_accepted(self):
        """An int seed is normalized to the generator it names."""
        assert evaluate_config(
            "mld", FFNR, n_samples=2, iterations=4, rng=3,
        ) == evaluate_config(
            "mld", FFNR, n_samples=2, iterations=4,
            rng=np.random.default_rng(3),
        )

    def test_rng_is_required_and_explicit(self):
        with pytest.raises(TypeError):
            evaluate_config("mld", FFNR, n_samples=2, iterations=4)
        with pytest.raises(TypeError, match="explicit"):
            evaluate_config("mld", FFNR, n_samples=2, iterations=4, rng=None)

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            evaluate_config("mld", FFNR, n_samples=0, iterations=4, rng=0)
