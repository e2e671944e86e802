"""Unit tests for per-iteration simulation timelines."""

import pytest

from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.constants import HARDWARE
from repro.hw.profile import estimate_profile
from repro.hw.timeline import simulate_timeline
from repro.workloads.specs import get_spec


@pytest.fixture(scope="module")
def dit_timeline():
    spec = get_spec("dit")
    return simulate_timeline(
        ExionAccelerator.exion24(),
        spec,
        profile=estimate_profile(spec, HARDWARE, seed=0),
        iterations=12,
    )


class TestTimeline:
    def test_record_count(self, dit_timeline):
        assert len(dit_timeline.records) == 12

    def test_phase_cadence(self, dit_timeline):
        """Dense at 0, 3, 6, 9 for DiT's N=2 schedule."""
        dense_indices = [r.index for r in dit_timeline.dense_records()]
        assert dense_indices == [0, 3, 6, 9]

    def test_dense_iterations_slower(self, dit_timeline):
        """The FFN-Reuse signature: dense iterations take longer than
        sparse iterations at steady state."""
        assert dit_timeline.dense_sparse_latency_ratio > 1.1

    def test_first_iteration_longest(self, dit_timeline):
        """Iteration 0 pays the full weight fill from DRAM."""
        latencies = [r.latency_s for r in dit_timeline.records]
        assert latencies[0] == max(latencies)

    def test_total_matches_accelerator_simulate(self):
        spec = get_spec("dit")
        profile = estimate_profile(spec, HARDWARE, seed=0)
        acc = ExionAccelerator.exion24()
        timeline = simulate_timeline(acc, spec, profile, iterations=12)
        report = acc.simulate(spec, profile, iterations=12)
        total = sum(r.latency_s for r in timeline.records)
        assert total == pytest.approx(report.latency_s)

    def test_config_matches_accelerator_simulate(self):
        spec = get_spec("dit")
        profile = estimate_profile(spec, HARDWARE, seed=0)
        acc = ExionAccelerator.exion24()
        config = ExionConfig.for_model("dit").ablation("ep")
        timeline = simulate_timeline(acc, spec, profile, config,
                                     iterations=12)
        report = acc.simulate(spec, profile, config, iterations=12)
        assert len(timeline.sparse_records()) == 0
        total = sum(r.latency_s for r in timeline.records)
        assert total == pytest.approx(report.latency_s)

    def test_sparse_iterations_compute_fewer_macs(self, dit_timeline):
        dense = dit_timeline.dense_records()[0]
        sparse = dit_timeline.sparse_records()[0]
        assert sparse.macs_computed < dense.macs_computed

    def test_bound_labels(self, dit_timeline):
        for record in dit_timeline.records:
            assert record.bound in ("compute", "memory")

    def test_no_ffnr_all_dense(self):
        spec = get_spec("dit")
        timeline = simulate_timeline(
            ExionAccelerator.exion24(), spec,
            estimate_profile(spec, HARDWARE, seed=0),
            ExionConfig.for_model("dit", enable_ffn_reuse=False),
            iterations=6,
        )
        assert len(timeline.sparse_records()) == 0
        assert timeline.dense_sparse_latency_ratio == 1.0
