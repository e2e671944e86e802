"""The extended specs run on every backend with zero special-casing.

These tests are the scenario payoff of the lowering pipeline: the
video-DiT spec (temporal attention) and the SDXL-class UNet were
registered as plain ``ModelSpec`` entries, and every layer below — the
three EXION configurations, the GPU/Cambricon-D/Delta-DiT baselines,
the explore objectives and the cluster simulator — picks them up
through the single lowering, with no backend-specific code anywhere.
"""

import pytest

from repro.baselines.cambricon_d import CambriconDModel
from repro.baselines.delta_dit import DeltaDiTPipeline
from repro.baselines.gpu import GPUModel
from repro.baselines.specs import SERVER_GPU
from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.constants import HARDWARE
from repro.hw.profile import estimate_profile
from repro.workloads.specs import EXTENDED_ORDER, get_spec


@pytest.fixture(scope="module")
def profiles():
    return {
        name: estimate_profile(get_spec(name), HARDWARE, seed=0)
        for name in EXTENDED_ORDER
    }


class TestExionConfigurations:
    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_all_table2_configs(self, model, profiles):
        spec = get_spec(model)
        for factory in (ExionAccelerator.exion4, ExionAccelerator.exion24,
                        ExionAccelerator.exion42):
            report = factory().simulate(spec, profiles[model], iterations=6)
            assert report.latency_s > 0
            assert report.energy_j > 0
            assert 0 < report.computed_ops < report.dense_equivalent_ops
            assert set(report.op_class_energy_j) >= {"qkv", "attention"}

    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_sparsity_still_pays(self, model, profiles):
        """The All ablation beats Base on the new models too."""
        spec = get_spec(model)
        acc = ExionAccelerator.exion24()
        base = acc.simulate(spec, profiles[model],
                            ExionConfig.for_model(model).ablation("base"),
                            iterations=6)
        full = acc.simulate(spec, profiles[model], iterations=6)
        assert full.latency_s < base.latency_s
        assert full.computed_ops < base.computed_ops


class TestBaselines:
    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_gpu_and_cambricon(self, model):
        spec = get_spec(model)
        gpu = GPUModel(SERVER_GPU).simulate(spec, iterations=6)
        assert gpu.latency_s > 0
        cd = CambriconDModel().simulate(spec)
        assert cd.speedup_vs_gpu >= 1.0

    def test_delta_dit_on_video_dit(self):
        """The transformer-only video spec runs under block caching."""
        from repro.models.zoo import build_model

        model = build_model("latte_video_dit", seed=0, total_iterations=4)
        result = DeltaDiTPipeline(model, cache_interval=1).generate(seed=1)
        assert result.macs_computed < result.macs_dense
        assert 0.0 < result.ops_reduction < 1.0

    def test_delta_dit_scope_is_model_shape_not_model_name(self):
        """The UNet spec is out of Delta-DiT's own published scope
        (transformer-only); the rejection keys on network topology, not
        on any per-model special case."""
        from repro.models.zoo import build_model

        model = build_model("sdxl_unet", seed=0, total_iterations=4)
        with pytest.raises(ValueError, match="transformer-only"):
            DeltaDiTPipeline(model)


class TestUpperLayers:
    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_explore_objectives(self, model):
        from repro.explore import PointEvaluator

        evaluator = PointEvaluator(
            objectives=("latency_s", "energy_j", "tops_per_watt"),
            model=model,
            iterations=4,
        )
        values = evaluator({"num_dscs": 24})
        assert all(v > 0 for v in values.values())

    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_cluster_service_pricing(self, model):
        from repro.cluster.replica import ServiceTimeModel

        stm = ServiceTimeModel("exion24", iterations=4)
        b1 = stm.latency_s(model, "all", 1)
        b8 = stm.latency_s(model, "all", 8)
        assert 0 < b1 < b8

    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_cluster_simulation_end_to_end(self, model):
        from repro.cluster import (
            PoissonProcess,
            ServiceTimeModel,
            WorkloadMix,
            build_replicas,
            make_router,
            simulate_cluster,
            synthesize_trace,
        )

        trace = synthesize_trace(
            PoissonProcess(rate_rps=50.0), 8,
            mix=WorkloadMix(models=(model,), ablation="all"), rng=0,
        )
        report = simulate_cluster(
            trace,
            replicas=build_replicas(
                2, service_model=ServiceTimeModel("exion24", iterations=4)
            ),
            router=make_router("jsq"),
        )
        assert report.served == 8

    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_builds_and_generates(self, model):
        """The sim substrate runs the new specs end to end."""
        from repro.core.pipeline import ExionPipeline
        from repro.models.zoo import build_model

        built = build_model(model, seed=0, total_iterations=4)
        pipeline = ExionPipeline(built, ExionConfig.for_model(model))
        result = pipeline.generate(seed=1)
        assert result.sample.shape == (built.spec.tokens, built.spec.dim)

    @pytest.mark.parametrize("model", EXTENDED_ORDER)
    def test_cli_program_inspection(self, model, capsys):
        from repro.cli import main

        assert main(["program", "--model", model]) == 0
        out = capsys.readouterr().out
        assert "IterationProgram" in out
        assert "plan digest" in out
