"""Accuracy of one EXION configuration against its vanilla reference.

:func:`evaluate_config` is the accuracy objective of the design-space
explorer: it generates an aligned batch (same model seed, same
generation seeds and prompts) with every optimization disabled and
with the given :class:`~repro.core.config.ExionConfig`, and returns the
mean PSNR between the two. The Table I bench
(``benchmarks/bench_table1_accuracy.py``) runs the fixed four-rung
ladder of the paper on its own.

Randomness is explicit: ``rng`` (an int seed or a
``numpy.random.Generator``, normalized through
:func:`repro.workloads.generator.as_rng`) is required, and the model
seed and per-sample generation seeds are derived from it. There is no
hidden ``default_rng`` fallback — same policy as
:mod:`repro.workloads.generator`.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.workloads.generator import as_rng
from repro.workloads.metrics import psnr


def _prompts(n: int) -> list:
    base = [
        "a corgi dog surfing a wave",
        "he jumped over the fence in one smooth motion",
        "an anemone fish swimming through coral",
        "a red bicycle leaning on a brick wall",
        "rain falling on a neon-lit street",
        "a wooden cabin in deep snow",
        "a hummingbird hovering at a flower",
        "city skyline at golden hour",
    ]
    return [base[i % len(base)] for i in range(n)]


def evaluate_config(
    name: str,
    config: ExionConfig,
    n_samples: int = 2,
    iterations: Optional[int] = 15,
    *,
    rng: Union[int, np.random.Generator],
) -> float:
    """Mean PSNR (dB) of ``config``'s samples against vanilla ones.

    Both runs share the model seed and the generation seeds drawn from
    ``rng``, so the divergence is the optimization error alone.
    """
    if n_samples < 1:
        raise ValueError("need at least 1 sample")
    rng = as_rng(rng)
    model_seed = int(rng.integers(2**31))
    seeds = [int(s) for s in rng.integers(2**31, size=n_samples)]
    model = build_model(name, seed=model_seed, total_iterations=iterations)
    vanilla = ExionPipeline(model, ExionConfig.for_model(name))
    pipeline = ExionPipeline(model, config)
    return float(np.mean([
        psnr(vanilla.generate_vanilla(seed=seed, prompt=prompt).sample,
             pipeline.generate(seed=seed, prompt=prompt).sample)
        for seed, prompt in zip(seeds, _prompts(n_samples))
    ]))
