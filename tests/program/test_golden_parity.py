"""Golden parity: the IR path reproduces the pre-refactor numbers.

Two layers of protection against lowering drift:

1. **spec path == plan path** — for every zoo model x every Table II
   configuration x every ablation, pricing through the spec-level
   wrapper and through an explicitly lowered plan must agree on every
   report field, bit for bit.
2. **committed baseline equality** — the latency/energy/TOPS-W numbers
   in ``benchmarks/baseline/BENCH_repro.json`` were captured by the
   pre-refactor walkers; recomputing the same metrics through the IR
   must reproduce them exactly (not within tolerance — equal floats)
   for all three baselines (GPU roofline, Cambricon-D, Delta-DiT's
   compute accounting feeds the ``sw_baselines`` bench) and the EXION
   configurations.
"""

import json
from pathlib import Path

import pytest

from repro.baselines.cambricon_d import CambriconDModel
from repro.baselines.gpu import GPUModel
from repro.baselines.specs import A100, EDGE_GPU, SERVER_GPU
from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import estimate_profile
from repro.program import lower_plan
from repro.workloads.specs import (
    ALL_MODEL_ORDER,
    BENCHMARK_ORDER,
    MODEL_SPECS,
    get_spec,
)

BASELINE_PATH = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "baseline" / "BENCH_repro.json"
)

EDGE_MODELS = ("mld", "mdm", "edge", "make_an_audio")
TABLE2 = {
    "exion4": ExionAccelerator.exion4,
    "exion24": ExionAccelerator.exion24,
    "exion42": ExionAccelerator.exion42,
}
ABLATIONS = ("base", "ep", "ffnr", "all")


@pytest.fixture(scope="module")
def baseline():
    with BASELINE_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)["results"]


@pytest.fixture(scope="module")
def profiles():
    return {
        name: estimate_profile(get_spec(name), seed=0)
        for name in MODEL_SPECS
    }


def _report_fields(report):
    return (
        report.latency_s,
        report.energy_j,
        report.dense_equivalent_ops,
        report.computed_ops,
        report.compute_bound_fraction,
        report.energy_breakdown_j,
    )


class TestSpecPathEqualsPlanPath:
    @pytest.mark.parametrize("model", sorted(MODEL_SPECS))
    @pytest.mark.parametrize("table2", sorted(TABLE2))
    def test_every_model_every_config_every_ablation(
        self, model, table2, profiles
    ):
        spec = get_spec(model)
        acc = TABLE2[table2]()
        for ablation in ABLATIONS:
            config = ExionConfig.for_model(model).ablation(ablation)
            via_spec = acc.simulate(
                spec,
                profiles[model],
                enable_ffn_reuse=config.enable_ffn_reuse,
                enable_eager_prediction=config.enable_eager_prediction,
                iterations=10,
            )
            via_plan = acc.simulate_plan(
                lower_plan(spec, config=config, iterations=10),
                profiles[model],
            )
            assert _report_fields(via_spec) == _report_fields(via_plan)


class TestTimelineParity:
    @pytest.mark.parametrize("model", ALL_MODEL_ORDER)
    @pytest.mark.parametrize("table2", sorted(TABLE2))
    @pytest.mark.parametrize("batch", (1, 4, 8))
    def test_timeline_sums_to_accelerator_report(
        self, model, table2, batch, profiles
    ):
        """The per-iteration timeline and simulate_plan read one walk over
        the plan's steps; at full schedules their totals must agree bit
        for bit, on every interpreter."""
        from repro.hw.timeline import simulate_timeline

        spec = get_spec(model)
        acc = TABLE2[table2]()
        report = acc.simulate(spec, profiles[model], batch=batch)
        timeline = simulate_timeline(acc, spec, profiles[model], batch=batch)
        # The report adds latencies left to right, so this fold must match
        # it exactly (the builtin sum is compensated from CPython 3.12 and
        # differs from the fold in the last digits).
        folded = 0.0
        for record in timeline.records:
            folded += record.latency_s
        assert folded == report.latency_s
        assert len(timeline.records) == report.iterations
        assert (
            2 * sum(r.macs_computed for r in timeline.records)
            == report.computed_ops
        )


class TestCommittedBaselineParity:
    """IR-derived metrics equal the committed pre-refactor values."""

    def _value(self, baseline, bench, metric):
        return baseline[bench]["metrics"][metric]["value"]

    def test_fig04_op_counts(self, baseline):
        from repro.analysis.opcount import operation_breakdown

        for name in BENCHMARK_ORDER:
            info = operation_breakdown(get_spec(name))
            assert info["total_ops"] == self._value(
                baseline, "fig04_opcount", f"{name}.total_ops"
            )
            assert info["transformer_share"] == self._value(
                baseline, "fig04_opcount", f"{name}.transformer_share"
            )
            assert info["ffn_share_of_transformer"] == self._value(
                baseline, "fig04_opcount",
                f"{name}.ffn_share_of_transformer",
            )

    @pytest.mark.parametrize("batch", (1, 8))
    def test_fig19a_latency_speedups(self, baseline, profiles, batch):
        panels = (
            ("fig19a_latency_edge", ExionAccelerator.exion4(),
             GPUModel(EDGE_GPU), EDGE_MODELS),
            ("fig19a_latency_server", ExionAccelerator.exion24(),
             GPUModel(SERVER_GPU), BENCHMARK_ORDER),
        )
        for bench, acc, gpu, models in panels:
            for name in models:
                spec = get_spec(name)
                speedup = (
                    gpu.simulate(spec, batch=batch).latency_s
                    / acc.simulate(spec, profiles[name],
                                   batch=batch).latency_s
                )
                assert speedup == self._value(
                    baseline, bench, f"b{batch}.{name}.speedup"
                ), (bench, name, batch)

    @pytest.mark.parametrize("batch", (1, 8))
    def test_fig18_efficiency_gains(self, baseline, profiles, batch):
        panels = (
            ("fig18a_edge_efficiency", ExionAccelerator.exion4(),
             GPUModel(EDGE_GPU), EDGE_MODELS),
            ("fig18b_server_efficiency", ExionAccelerator.exion24(),
             GPUModel(SERVER_GPU), BENCHMARK_ORDER),
        )
        for bench, acc, gpu, models in panels:
            for name in models:
                spec = get_spec(name)
                gain = (
                    acc.simulate(spec, profiles[name],
                                 batch=batch).tops_per_watt
                    / gpu.simulate(spec, batch=batch).tops_per_watt
                )
                assert gain == self._value(
                    baseline, bench, f"b{batch}.{name}.gain_all"
                ), (bench, name, batch)

    def test_fig19b_sota_speedups(self, baseline, profiles):
        gpu = GPUModel(A100)
        cd = CambriconDModel()
        ex42 = ExionAccelerator.exion42()
        for name in ("stable_diffusion", "dit"):
            spec = get_spec(name)
            assert cd.simulate(spec).speedup_vs_gpu == self._value(
                baseline, "fig19b_sota", f"{name}.cambricon_d_speedup"
            )
            ex_speedup = (
                gpu.simulate(spec).latency_s
                / ex42.simulate(spec, profiles[name]).latency_s
            )
            assert ex_speedup == self._value(
                baseline, "fig19b_sota", f"{name}.exion42_speedup"
            )

    def test_program_lowering_fingerprints(self, baseline):
        """The committed plan digests re-derive from a cold lowering
        (extended models included: temporal/geglu lowering drift must
        fail tier-1, not just the bench-compare job)."""
        from repro.program import lower_program, plan_digest, plan_json
        from repro.workloads.specs import ALL_MODEL_ORDER

        lower_program.cache_clear()
        for name in ALL_MODEL_ORDER:
            plan = lower_plan(get_spec(name))
            assert len(plan_json(plan)) == self._value(
                baseline, "program_lowering", f"{name}.plan_bytes"
            )
            assert int(plan_digest(plan)[:12], 16) == self._value(
                baseline, "program_lowering", f"{name}.plan_digest48"
            )
