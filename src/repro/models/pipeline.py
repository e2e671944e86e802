"""Reverse-denoising inference pipeline over a diffusion network."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.models.conditioning import ConditioningEncoder
from repro.models.network import DiffusionNetwork
from repro.models.scheduler import _BaseScheduler
from repro.models.transformer import Executors


@dataclass
class DiffusionResult:
    """Output of one reverse-denoising run."""

    sample: np.ndarray
    iterations: int
    block_traces: list = field(default_factory=list)  # [iteration][block]


# Provider maps (iteration_index, block_index) -> Executors or None.
ExecutorProvider = Callable[[int, int], Optional[Executors]]


class DiffusionPipeline:
    """Runs the reverse denoising process of paper Fig. 2.

    Only inference is implemented; the paper's optimizations target the
    inference phase exclusively (Section II-A).
    """

    def __init__(
        self,
        network: DiffusionNetwork,
        scheduler,
        num_inference_steps: int,
        conditioning: Optional[ConditioningEncoder] = None,
    ) -> None:
        if not isinstance(scheduler, _BaseScheduler):
            raise TypeError("scheduler must derive from the base scheduler")
        self.network = network
        self.scheduler = scheduler
        self.num_inference_steps = num_inference_steps
        self.conditioning = conditioning

    def embed_prompt(
        self, prompt: Optional[str] = None, class_label: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """Encode the conditional input once, as the paper's Fig. 2 shows."""
        if self.conditioning is None:
            return None
        if class_label is not None:
            return self.conditioning.encode_class(class_label)
        if prompt is not None:
            return self.conditioning.encode(prompt)
        return self.conditioning.encode("")

    def generate(
        self,
        seed: int = 0,
        prompt: Optional[str] = None,
        class_label: Optional[int] = None,
        executor_provider: Optional[ExecutorProvider] = None,
        iteration_start_hook: Optional[Callable[[int, int], None]] = None,
        collect_traces: bool = False,
    ) -> DiffusionResult:
        """Generate one sample from noise.

        ``executor_provider(iteration, block)`` lets EXION substitute
        sparsity-aware execution per block per iteration;
        ``iteration_start_hook(iteration, timestep)`` fires before each
        network call (used by FFN-Reuse to flip dense/sparse phases).
        """
        rng = np.random.default_rng(seed)
        if hasattr(self.scheduler, "reset"):
            self.scheduler.reset()  # stateful multistep solvers
        x = rng.standard_normal((self.network.tokens, self.network.dim))
        context = self.embed_prompt(prompt, class_label)
        timesteps = self.scheduler.timesteps(self.num_inference_steps)

        result = DiffusionResult(sample=x, iterations=len(timesteps))
        for i, t in enumerate(timesteps):
            if iteration_start_hook is not None:
                iteration_start_hook(i, int(t))
            executors = None
            if executor_provider is not None:
                executors = _bind_iteration(executor_provider, i)
            eps, traces = self.network(x, int(t), context=context, executors=executors)
            prev_t = int(timesteps[i + 1]) if i + 1 < len(timesteps) else -1
            x = self.scheduler.step(eps, int(t), x, prev_t=prev_t, rng=rng)
            if collect_traces:
                result.block_traces.append(traces)
        result.sample = x
        return result


def _bind_iteration(
    provider: ExecutorProvider, iteration: int
) -> Callable[[int], Optional[Executors]]:
    def per_block(block_index: int) -> Optional[Executors]:
        return provider(iteration, block_index)

    return per_block
