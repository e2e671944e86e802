"""Unit tests for DDPM / DDIM schedulers."""

import numpy as np
import pytest

from repro.models.scheduler import (
    DDIMScheduler,
    DDPMScheduler,
    DPMSolverPP2MScheduler,
)


class TestTimesteps:
    def test_descending(self):
        ts = DDIMScheduler().timesteps(50)
        assert len(ts) == 50
        assert np.all(np.diff(ts) < 0)

    def test_within_train_range(self):
        ts = DDPMScheduler().timesteps(10)
        assert ts.max() < 1000
        assert ts.min() >= 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DDIMScheduler().timesteps(0)
        with pytest.raises(ValueError):
            DDIMScheduler().timesteps(1001)

    def test_linear_beta_training_schedule(self):
        sched = DDPMScheduler()
        assert sched.num_train_timesteps == 1000
        assert (sched.betas[0], sched.betas[-1]) == (1e-4, 0.02)
        assert np.all(np.diff(sched.alphas_cumprod) < 0)

    @pytest.mark.parametrize("steps", (1, 10, 50, 1000))
    @pytest.mark.parametrize(
        "scheduler", (DDPMScheduler, DDIMScheduler, DPMSolverPP2MScheduler)
    )
    def test_distinct_descending_within_range(self, scheduler, steps):
        ts = scheduler().timesteps(steps)
        assert len(ts) == steps
        assert np.all(np.diff(ts) < 0)
        assert ts[-1] == 0
        assert 0 <= ts.min() and ts.max() < 1000


class TestDDIMStep:
    def test_deterministic(self, rng):
        sched = DDIMScheduler()
        x = rng.standard_normal((4, 8))
        eps = rng.standard_normal((4, 8))
        a = sched.step(eps, t=500, sample=x, prev_t=480)
        b = sched.step(eps, t=500, sample=x, prev_t=480)
        np.testing.assert_array_equal(a, b)

    def test_perfect_noise_prediction_recovers_x0(self, rng):
        """If the model predicts the exact noise, stepping to t=-1 returns
        (clipped) x0."""
        sched = DDIMScheduler()
        x0 = rng.standard_normal((4, 8))
        noise = rng.standard_normal((4, 8))
        t = 700
        abar = sched.alphas_cumprod[t]  # forward-diffuse x0 to t
        xt = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise
        recovered = sched.step(noise, t=t, sample=xt, prev_t=-1)
        np.testing.assert_allclose(recovered, np.clip(x0, -10, 10), atol=1e-8)

    @pytest.mark.parametrize("t,prev_t", ((999, 979), (500, 480),
                                          (700, 0), (20, 1)))
    def test_perfect_noise_prediction_lands_on_the_forward_marginal(
        self, rng, t, prev_t
    ):
        """With the exact noise, one eta=0 step from ``x_t`` gives the
        forward-diffused sample at ``prev_t`` built from the same noise."""
        sched = DDIMScheduler()
        x0 = rng.standard_normal((4, 8))
        noise = rng.standard_normal((4, 8))

        def diffuse(step):
            abar = sched.alphas_cumprod[step]
            return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * noise

        stepped = sched.step(noise, t=t, sample=diffuse(t), prev_t=prev_t)
        np.testing.assert_allclose(stepped, diffuse(prev_t), atol=1e-8)


class TestDDPMStep:
    def test_no_rng_returns_mean(self, rng):
        sched = DDPMScheduler()
        x = rng.standard_normal((4, 8))
        eps = rng.standard_normal((4, 8))
        a = sched.step(eps, t=500, sample=x, prev_t=480, rng=None)
        b = sched.step(eps, t=500, sample=x, prev_t=480, rng=None)
        np.testing.assert_array_equal(a, b)

    def test_rng_adds_variance(self, rng):
        sched = DDPMScheduler()
        x = rng.standard_normal((4, 8))
        eps = rng.standard_normal((4, 8))
        a = sched.step(eps, 500, x, prev_t=480, rng=np.random.default_rng(1))
        b = sched.step(eps, 500, x, prev_t=480, rng=np.random.default_rng(2))
        assert not np.allclose(a, b)

    def test_final_step_is_deterministic(self, rng):
        sched = DDPMScheduler()
        x = rng.standard_normal((4, 8))
        eps = rng.standard_normal((4, 8))
        a = sched.step(eps, 10, x, prev_t=-1, rng=np.random.default_rng(1))
        b = sched.step(eps, 10, x, prev_t=-1, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)
