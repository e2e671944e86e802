"""Unit tests for the Cambricon-D baseline model."""

import pytest

from repro.baselines.cambricon_d import CambriconDModel
from repro.workloads.specs import get_spec


class TestCambriconD:
    def test_conv_heavy_model_gets_big_speedup(self):
        cd = CambriconDModel()
        sd = cd.simulate(get_spec("stable_diffusion"))
        dit = cd.simulate(get_spec("dit"))
        assert sd.speedup_vs_gpu > dit.speedup_vs_gpu

    def test_pure_transformer_capped_at_transformer_speedup(self):
        cd = CambriconDModel()
        report = cd.simulate(get_spec("dit"))
        assert report.speedup_vs_gpu == pytest.approx(3.3, rel=0.01)

    def test_speedup_at_least_one(self):
        cd = CambriconDModel()
        for name in ("stable_diffusion", "dit", "make_an_audio"):
            assert cd.simulate(get_spec(name)).speedup_vs_gpu >= 1.0

    def test_speedup_factors(self):
        """The paper's two factors: conv work gains far more than
        transformer work, and neither slows the GPU down."""
        assert CambriconDModel.conv_delta_speedup == 11.0
        assert CambriconDModel.transformer_speedup == 3.3
        assert CambriconDModel.transformer_speedup >= 1.0

    def test_latency_consistent_with_speedup(self):
        cd = CambriconDModel()
        spec = get_spec("stable_diffusion")
        gpu_latency = cd.gpu.simulate(spec).latency_s
        report = cd.simulate(spec)
        assert report.latency_s == pytest.approx(
            gpu_latency / report.speedup_vs_gpu
        )

    def test_fig19b_crossover(self):
        """Fig. 19 (b): Cambricon-D beats EXION on Stable Diffusion but
        loses on DiT."""
        from repro.baselines.gpu import GPUModel
        from repro.baselines.specs import A100
        from repro.hw.accelerator import ExionAccelerator

        cd = CambriconDModel()
        gpu = GPUModel(A100)
        ex42 = ExionAccelerator.exion42()
        sd = get_spec("stable_diffusion")
        dit = get_spec("dit")
        exion_sd = gpu.simulate(sd).latency_s / ex42.simulate(sd).latency_s
        exion_dit = gpu.simulate(dit).latency_s / ex42.simulate(dit).latency_s
        assert cd.simulate(sd).speedup_vs_gpu > exion_sd
        assert exion_dit > cd.simulate(dit).speedup_vs_gpu
