"""Shape-level assertions of the paper's headline claims.

These tests check *relationships* the paper reports (who wins, orderings,
crossovers), not absolute values — the simulator is not the authors'
testbed, but the shape of every claim should hold.
"""

import numpy as np
import pytest

from repro.baselines.cambricon_d import CambriconDModel
from repro.baselines.gpu import GPUModel
from repro.baselines.specs import A100, EDGE_GPU, SERVER_GPU
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import estimate_profile
from repro.models.zoo import build_model
from repro.workloads.metrics import psnr
from repro.workloads.specs import BENCHMARK_ORDER, get_spec


@pytest.fixture(scope="module")
def profiles():
    return {
        name: estimate_profile(get_spec(name), seed=0)
        for name in BENCHMARK_ORDER
    }


class TestSection2Claims:
    def test_ffn_layers_dominate_transformer_ops(self):
        """Fig. 4: FFN layers are the main transformer bottleneck."""
        from repro.program.lower import lower_program

        wins = 0
        for name in BENCHMARK_ORDER:
            macs = lower_program(
                get_spec(name), scale="paper"
            ).macs_by_kind()
            if macs["ffn"] >= max(macs["qkv"], macs["attention"]):
                wins += 1
        assert wins == len(BENCHMARK_ORDER)


class TestSection3Claims:
    def test_inter_iteration_sparsity_70_to_97(self):
        """Fig. 6: FFN-Reuse output sparsity ranges 70-97% by design."""
        for name in BENCHMARK_ORDER:
            spec = get_spec(name)
            assert 0.70 <= spec.target_inter_sparsity <= 0.97

    def test_condensing_strong_for_small_rows_weak_for_large(self):
        """Fig. 8: MLD condenses to ~14%; Stable Diffusion stays ~77%."""
        from repro.core.conmerge.condense import condense
        from repro.workloads.generator import ffn_output_bitmask

        rng = np.random.default_rng(0)
        mld = ffn_output_bitmask(4, 1024, 0.95, dead_col_fraction=0.25, rng=rng)
        sd = ffn_output_bitmask(1024, 512, 0.97, dead_col_fraction=0.25, rng=rng)
        mld_ratio = condense(mld).remaining_ratio
        sd_ratio = condense(sd).remaining_ratio
        assert mld_ratio < 0.30
        assert sd_ratio > 0.60

    def test_merging_rescues_large_row_models(self, profiles):
        """Fig. 9: merging cuts Stable Diffusion's remaining columns from
        ~77% to single digits (with per-tile condensing)."""
        profile = profiles["stable_diffusion"]
        assert profile.ffn_remaining_ratio < 0.45
        assert profile.ffn_remaining_ratio < profile.ffn_condense_ratio / 1.5


class TestSection4Claims:
    def test_ts_lod_beats_lod_on_dit(self):
        """Fig. 15: EP with TS-LOD is closer to vanilla than EP with LOD,
        and FFN-Reuse-only is the closest."""
        model = build_model("dit", seed=0, total_iterations=24)
        van = ExionPipeline(
            model, ExionConfig.for_model("dit")
        ).generate_vanilla(seed=1, class_label=5)

        def run(mode=None, ep=True):
            cfg = ExionConfig.for_model(
                "dit",
                enable_eager_prediction=ep,
                lod_mode=mode or "ts_lod",
            )
            out = ExionPipeline(model, cfg).generate(seed=1, class_label=5)
            return psnr(van.sample, out.sample)

        psnr_lod = run("lod")
        psnr_ts = run("ts_lod")
        psnr_ffnr = run(ep=False)
        assert psnr_lod < psnr_ts
        assert psnr_ts <= psnr_ffnr + 0.5


class TestSection5Claims:
    def test_exion_beats_gpus_everywhere(self, profiles):
        """Fig. 18/19: EXION wins on every model in both settings."""
        ex24 = ExionAccelerator.exion24()
        gpu = GPUModel(SERVER_GPU)
        for name in BENCHMARK_ORDER:
            spec = get_spec(name)
            r = ex24.simulate(spec, profiles[name])
            g = gpu.simulate(spec)
            assert g.latency_s / r.latency_s > 1.0, name
            assert r.tops_per_watt / g.tops_per_watt > 10.0, name

    def test_small_models_gain_most(self, profiles):
        """MLD (tiny, launch-bound on GPU) shows the largest speedup."""
        ex24 = ExionAccelerator.exion24()
        gpu = GPUModel(SERVER_GPU)
        speedups = {}
        for name in BENCHMARK_ORDER:
            spec = get_spec(name)
            speedups[name] = (
                gpu.simulate(spec).latency_s
                / ex24.simulate(spec, profiles[name]).latency_s
            )
        assert max(speedups, key=speedups.get) == "mld"

    def test_resblock_models_gain_least(self, profiles):
        """Fig. 18 (b): efficiency gains drop for Make-an-Audio / Stable
        Diffusion class models because ResBlocks see no optimization."""
        ex24 = ExionAccelerator.exion24()
        gpu = GPUModel(SERVER_GPU)

        def gain(name):
            spec = get_spec(name)
            r = ex24.simulate(spec, profiles[name])
            g = gpu.simulate(spec)
            return r.tops_per_watt / g.tops_per_watt

        assert gain("stable_diffusion") < gain("mdm")
        assert gain("videocrafter2") < gain("mld")

    def test_ablations_monotone_for_all_models(self, profiles):
        """Fig. 18: Base <= EP <= All and Base <= FFNR <= All."""
        ex24 = ExionAccelerator.exion24()
        for name in ("mld", "dit", "stable_diffusion"):
            spec = get_spec(name)
            p = profiles[name]
            base = ex24.simulate(spec, p, False, False).tops_per_watt
            ep = ex24.simulate(spec, p, False, True).tops_per_watt
            ffnr = ex24.simulate(spec, p, True, False).tops_per_watt
            full = ex24.simulate(spec, p, True, True).tops_per_watt
            assert base <= ep <= full + 1e-9, name
            assert base <= ffnr <= full + 1e-9, name

    def test_batch8_still_wins(self, profiles):
        """Fig. 18/19: EXION remains ahead at batch size eight."""
        ex24 = ExionAccelerator.exion24()
        gpu = GPUModel(SERVER_GPU)
        for name in ("mld", "dit"):
            spec = get_spec(name)
            r = ex24.simulate(spec, profiles[name], batch=8)
            g = gpu.simulate(spec, batch=8)
            assert g.latency_s / r.latency_s > 1.0

    def test_fig19b_shape(self, profiles):
        """Cambricon-D wins on conv-heavy SD; EXION wins on DiT."""
        cd = CambriconDModel()
        gpu = GPUModel(A100)
        ex42 = ExionAccelerator.exion42()
        sd, dit = get_spec("stable_diffusion"), get_spec("dit")
        exion_sd = (
            gpu.simulate(sd).latency_s
            / ex42.simulate(sd, profiles["stable_diffusion"]).latency_s
        )
        exion_dit = (
            gpu.simulate(dit).latency_s
            / ex42.simulate(dit, profiles["dit"]).latency_s
        )
        assert cd.simulate(sd).speedup_vs_gpu > exion_sd
        assert exion_dit > cd.simulate(dit).speedup_vs_gpu

    def test_edge_setting_in_paper_band(self, profiles):
        """Fig. 18 (a)/19 (a): edge speedups land in a plausible band of
        the paper's 43.7-1060.6x range."""
        ex4 = ExionAccelerator.exion4()
        gpu = GPUModel(EDGE_GPU)
        for name in ("mld", "mdm", "edge", "make_an_audio"):
            spec = get_spec(name)
            speedup = (
                gpu.simulate(spec).latency_s
                / ex4.simulate(spec, profiles[name]).latency_s
            )
            assert 10.0 < speedup < 2000.0, (name, speedup)
