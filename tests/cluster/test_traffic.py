"""Arrival processes, workload mixes and trace files."""

import numpy as np
import pytest

from repro.cluster.traffic import (
    ClusterRequest,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    WorkloadMix,
    load_trace,
    save_trace,
    synthesize_trace,
)


class TestArrivalProcesses:
    def test_poisson_rate_and_monotonicity(self):
        times = PoissonProcess(rate_rps=100.0).times(
            2000, np.random.default_rng(0)
        )
        assert all(b > a for a, b in zip(times, times[1:]))
        mean_gap = times[-1] / len(times)
        assert mean_gap == pytest.approx(0.01, rel=0.1)

    def test_poisson_deterministic_per_seed(self):
        p = PoissonProcess(rate_rps=10.0)
        assert p.times(50, 7) == p.times(50, 7)
        assert p.times(50, 7) != p.times(50, 8)

    def test_poisson_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonProcess(rate_rps=0.0)

    def test_mmpp_is_burstier_than_poisson(self):
        # Squared coefficient of variation of inter-arrival gaps: 1 for
        # Poisson, > 1 for a two-state MMPP with well-separated rates.
        n = 4000
        mmpp = MMPPProcess(rate_low_rps=5.0, rate_high_rps=200.0,
                           mean_dwell_s=2.0)
        times = mmpp.times(n, np.random.default_rng(1))
        gaps = np.diff([0.0] + times)
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 1.5

    def test_diurnal_rate_oscillates(self):
        proc = DiurnalProcess(base_rate_rps=10.0, peak_rate_rps=100.0,
                              period_s=10.0)
        assert proc.rate_at(0.0) == pytest.approx(10.0)
        assert proc.rate_at(5.0) == pytest.approx(100.0)
        assert proc.rate_at(10.0) == pytest.approx(10.0)
        times = proc.times(500, np.random.default_rng(2))
        assert all(b > a for a, b in zip(times, times[1:]))


PROCESSES = {
    "poisson": lambda: PoissonProcess(rate_rps=40.0),
    "mmpp": lambda: MMPPProcess(rate_low_rps=5.0, rate_high_rps=80.0,
                                mean_dwell_s=0.5),
    "diurnal": lambda: DiurnalProcess(base_rate_rps=10.0,
                                      peak_rate_rps=60.0, period_s=4.0),
}


@pytest.mark.parametrize("process", sorted(PROCESSES))
class TestEveryProcess:
    def test_times_increase_and_repeat_per_seed(self, process):
        proc = PROCESSES[process]()
        times = proc.times(200, 5)
        assert len(times) == 200
        assert times[0] >= 0.0
        assert all(b > a for a, b in zip(times, times[1:]))
        assert proc.times(200, 5) == times
        assert proc.describe()["process"] == proc.name

    def test_trace_file_replays_the_synthesized_trace(self, process,
                                                      tmp_path):
        requests = synthesize_trace(PROCESSES[process](), 30, rng=11)
        path = tmp_path / f"{process}.jsonl"
        save_trace(path, requests)
        assert load_trace(path) == requests


class TestWorkloadMix:
    def test_validates_models_eagerly(self):
        with pytest.raises(KeyError):
            WorkloadMix(models=("resnet50",))
        with pytest.raises(ValueError):
            WorkloadMix(models=())
        with pytest.raises(ValueError):
            WorkloadMix(models=("dit",), weights=(1.0, 2.0))

    def test_weighted_sampling(self):
        mix = WorkloadMix(models=("dit", "mld"), weights=(3.0, 1.0))
        requests = synthesize_trace(
            PoissonProcess(100.0), 400, mix=mix, rng=0
        )
        share = sum(r.model == "dit" for r in requests) / len(requests)
        assert share == pytest.approx(0.75, abs=0.08)


class TestSynthesizeAndTraceFiles:
    def test_deterministic_per_seed(self):
        proc = PoissonProcess(50.0)
        assert synthesize_trace(proc, 20, rng=3) == synthesize_trace(
            proc, 20, rng=3
        )
        assert synthesize_trace(proc, 20, rng=3) != synthesize_trace(
            proc, 20, rng=4
        )

    def test_requests_carry_generation_inputs(self):
        request = synthesize_trace(PoissonProcess(10.0), 1, rng=0)[0]
        assert request.model == "dit"
        assert request.ablation == "all"
        assert request.class_label is not None
        assert request.pipeline_key == ("dit", "all")

    def test_rejects_negative_arrival(self):
        with pytest.raises(ValueError):
            ClusterRequest(arrival_s=-1.0, model="dit")

    def test_save_load_round_trip(self, tmp_path):
        requests = synthesize_trace(
            PoissonProcess(25.0), 12,
            mix=WorkloadMix(models=("dit", "mld")), rng=9,
        )
        path = tmp_path / "trace.jsonl"
        save_trace(path, requests)
        assert load_trace(path) == sorted(
            requests, key=lambda r: r.arrival_s
        )
