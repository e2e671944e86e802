"""Denoising schedulers (DDIM and DPM-Solver++(2M)).

Both operate on a 1000-step linear-beta training schedule and expose a
subsampled inference trajectory, matching the benchmark models' 50- and
100-step settings (paper Table I). Both are deterministic: a sample is a
function of its initial noise alone.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class _BaseScheduler:
    num_train_timesteps = 1000

    def __init__(self) -> None:
        self.betas = np.linspace(1e-4, 0.02, self.num_train_timesteps)
        self.alphas = 1.0 - self.betas
        self.alphas_cumprod = np.cumprod(self.alphas)

    def timesteps(self, num_inference_steps: int) -> np.ndarray:
        """Descending inference timesteps subsampled from the train schedule."""
        if not 1 <= num_inference_steps <= self.num_train_timesteps:
            raise ValueError(
                f"num_inference_steps must be in [1, {self.num_train_timesteps}]"
            )
        step = self.num_train_timesteps // num_inference_steps
        ts = (np.arange(num_inference_steps) * step).round().astype(int)
        return ts[::-1].copy()


class DPMSolverPP2MScheduler(_BaseScheduler):
    """DPM-Solver++(2M): a second-order multistep fast sampler.

    Stands in for the paper's Related-Work software baselines ([19], [36],
    [39]): fast ODE solvers reduce the iteration count, trading accuracy —
    the axis EXION's sparsity approach is orthogonal to. The solver is
    stateful (multistep); call :meth:`reset` before each trajectory.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reset()

    def reset(self) -> None:
        self._prev_x0: Optional[np.ndarray] = None
        self._prev_lambda: Optional[float] = None

    def _coeffs(self, t: int) -> tuple:
        abar = self.alphas_cumprod[t] if t >= 0 else 1.0 - 1e-8
        alpha = float(np.sqrt(abar))
        sigma = float(np.sqrt(max(1.0 - abar, 1e-12)))
        return alpha, sigma, float(np.log(alpha / sigma))

    def step(
        self,
        model_output: np.ndarray,
        t: int,
        sample: np.ndarray,
        prev_t: Optional[int] = None,
    ) -> np.ndarray:
        alpha_t, sigma_t, lambda_t = self._coeffs(t)
        target = prev_t if prev_t is not None else -1
        alpha_s, sigma_s, lambda_s = self._coeffs(target)

        x0 = (sample - sigma_t * model_output) / alpha_t
        x0 = np.clip(x0, -10.0, 10.0)

        h = lambda_s - lambda_t
        # First step and final step run first-order (the standard
        # "lower_order_final" guard): at the trajectory end h >> h_last,
        # so the second-order extrapolation coefficient 1/(2r) explodes.
        final_step = target is None or target <= 0
        if self._prev_x0 is None or self._prev_lambda is None or final_step:
            d = x0
        else:
            h_last = lambda_t - self._prev_lambda
            r = h_last / h if h != 0.0 else 1.0
            # Clamp the extrapolation ratio: uniform-t schedules make the
            # lambda grid highly non-uniform near the ends.
            gain = min(abs(1.0 / (2.0 * r)), 2.0) if r != 0.0 else 0.0
            d = (1.0 + gain) * x0 - gain * self._prev_x0
        self._prev_x0 = x0
        self._prev_lambda = lambda_t

        return (sigma_s / sigma_t) * sample - alpha_s * float(
            np.expm1(-h)
        ) * d


class DDIMScheduler(_BaseScheduler):
    """Deterministic DDIM sampling (eta = 0).

    Determinism makes vanilla-vs-optimized PSNR comparisons exact, which is
    how the paper reports accuracy deltas (Table I "PSNR w/ Vanil.").
    """

    def step(
        self,
        model_output: np.ndarray,
        t: int,
        sample: np.ndarray,
        prev_t: Optional[int] = None,
    ) -> np.ndarray:
        abar_t = self.alphas_cumprod[t]
        abar_prev = self.alphas_cumprod[prev_t] if prev_t is not None and prev_t >= 0 else 1.0

        pred_x0 = (sample - np.sqrt(1.0 - abar_t) * model_output) / np.sqrt(abar_t)
        pred_x0 = np.clip(pred_x0, -10.0, 10.0)
        direction = np.sqrt(1.0 - abar_prev) * model_output
        return np.sqrt(abar_prev) * pred_x0 + direction
