"""Unit tests for the DPM-Solver++(2M) fast sampler."""

import numpy as np

from repro.models.scheduler import DDIMScheduler, DPMSolverPP2MScheduler


def gentle_eps(x, t):
    """A smooth, contractive synthetic noise model."""
    return 0.8 * x / np.sqrt(1 + (x * x).mean()) + 0.1 * np.cos(x) * (
        t / 1000.0
    )


def rollout(scheduler, steps, seed=0):
    if hasattr(scheduler, "reset"):
        scheduler.reset()
    ts = scheduler.timesteps(steps)
    x = np.random.default_rng(seed).standard_normal((4, 4))
    for i, t in enumerate(ts):
        prev = int(ts[i + 1]) if i + 1 < len(ts) else -1
        x = scheduler.step(gentle_eps(x, int(t)), int(t), x, prev_t=prev)
    return x


class TestDPMSolver:
    def test_first_step_matches_ddim_without_clipping(self, rng):
        """Before any multistep history (and with x0 inside the clip
        range) the first-order update equals DDIM."""
        ddim = DDIMScheduler()
        dpm = DPMSolverPP2MScheduler()
        dpm.reset()
        x = 0.1 * rng.standard_normal((4, 4))
        eps = 0.05 * rng.standard_normal((4, 4))
        a = ddim.step(eps, 200, x, prev_t=180)
        b = dpm.step(eps, 200, x, prev_t=180)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_deterministic(self):
        a = rollout(DPMSolverPP2MScheduler(), 10)
        b = rollout(DPMSolverPP2MScheduler(), 10)
        np.testing.assert_array_equal(a, b)

    def test_reset_clears_history(self, rng):
        dpm = DPMSolverPP2MScheduler()
        rollout(dpm, 10)
        dpm.reset()
        assert dpm._prev_x0 is None

    def test_converges_to_own_limit(self):
        """Self-referenced convergence: coarser grids approach the fine
        grid monotonically-ish, confirming the solver integrates one ODE."""
        dpm_ref = rollout(DPMSolverPP2MScheduler(), 1000)
        errors = [
            float(np.abs(rollout(DPMSolverPP2MScheduler(), s) - dpm_ref).max())
            for s in (10, 20, 50)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_faster_convergence_than_ddim(self):
        """The point of a second-order solver: fewer steps for the same
        error against each solver's own fine-step limit."""
        dpm_ref = rollout(DPMSolverPP2MScheduler(), 1000)
        ddim_ref = rollout(DDIMScheduler(), 1000)
        dpm_err = float(np.abs(rollout(DPMSolverPP2MScheduler(), 10) - dpm_ref).max())
        ddim_err = float(np.abs(rollout(DDIMScheduler(), 10) - ddim_ref).max())
        assert dpm_err < ddim_err

    def test_final_step_uses_first_order(self):
        """The lower_order_final guard: a 2-step trajectory never applies
        the second-order extrapolation (prev history exists only at the
        final step, which downgrades to first order)."""
        dpm = DPMSolverPP2MScheduler()
        dpm.reset()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2))
        x = dpm.step(0.1 * x, 500, x, prev_t=0)
        out = dpm.step(0.1 * x, 0, x, prev_t=-1)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out)) < 100.0

    def test_pipeline_integration(self):
        """The pipeline resets the solver per generation, so repeated runs
        are identical."""
        from repro.models.pipeline import DiffusionPipeline
        from repro.models.zoo import build_model

        model = build_model("dit", seed=0, total_iterations=8)
        pipe = DiffusionPipeline(
            model.network, DPMSolverPP2MScheduler(), 8, model.conditioning
        )
        a = pipe.generate(seed=2, class_label=1)
        b = pipe.generate(seed=2, class_label=1)
        np.testing.assert_array_equal(a, b)
