"""Unit tests for Pareto extraction and the built-in objectives."""

import pytest

from repro.core.config import ExionConfig
from repro.explore.objectives import (
    Objective,
    PointEvaluator,
    accelerator_from_point,
    config_from_point,
    get_objective,
    knee_point,
    pareto_front,
)

LAT = Objective("latency_s", "lower_better", "s")
ACC = Objective("accuracy_psnr_db", "higher_better", "dB")


class TestParetoFront:
    def test_hand_built_frontier(self):
        """Five points: three on the frontier, one dominated, one duplicate
        of a frontier point (kept — neither dominates the other)."""
        values = [
            {"latency_s": 1.0, "accuracy_psnr_db": 10.0},  # frontier
            {"latency_s": 2.0, "accuracy_psnr_db": 20.0},  # frontier
            {"latency_s": 3.0, "accuracy_psnr_db": 30.0},  # frontier
            {"latency_s": 2.5, "accuracy_psnr_db": 15.0},  # dominated by [1]
            {"latency_s": 2.0, "accuracy_psnr_db": 20.0},  # duplicate of [1]
        ]
        assert pareto_front(values, [LAT, ACC]) == [0, 1, 2, 4]

    def test_single_objective_collapses_to_best(self):
        values = [{"latency_s": v} for v in (3.0, 1.0, 2.0)]
        assert pareto_front(values, [LAT]) == [1]

    def test_direction_matters(self):
        values = [{"accuracy_psnr_db": 10.0}, {"accuracy_psnr_db": 20.0}]
        assert pareto_front(values, [ACC]) == [1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="not finite"):
            pareto_front([{"latency_s": float("inf")}], [LAT])


class TestKneePoint:
    def test_knee_is_closest_to_ideal_corner(self):
        # An L-shaped frontier: the corner point is the knee.
        values = [
            {"latency_s": 1.0, "accuracy_psnr_db": 10.0},
            {"latency_s": 1.1, "accuracy_psnr_db": 29.0},  # the corner
            {"latency_s": 3.0, "accuracy_psnr_db": 30.0},
        ]
        assert knee_point(values, [LAT, ACC]) == 1

    def test_empty_and_single(self):
        assert knee_point([], [LAT]) is None
        assert knee_point([{"latency_s": 1.0}], [LAT]) == 0


class TestObjectiveRegistry:
    def test_known_and_unknown(self):
        assert get_objective("latency_s").direction == "lower_better"
        assert get_objective("accuracy_psnr_db").direction == "higher_better"
        with pytest.raises(ValueError, match="unknown objective"):
            get_objective("throughput_mph")

    def test_direction_validation(self):
        with pytest.raises(ValueError, match="direction"):
            Objective("x", "sideways_better")


class TestPointMapping:
    def test_config_from_point_overrides_algo_knobs(self):
        config = config_from_point("dit", {
            "enable_ffn_reuse": False, "top_k_ratio": 0.25,
            "num_dscs": 8,  # hardware knob: ignored by the config
        })
        assert config.enable_ffn_reuse is False
        assert config.top_k_ratio == 0.25
        assert config.sparse_iters_n == (
            ExionConfig.for_model("dit").sparse_iters_n
        )

    def test_config_validation_still_applies(self):
        with pytest.raises(ValueError, match="top_k_ratio"):
            config_from_point("dit", {"top_k_ratio": 0.0})

    def test_accelerator_from_point(self):
        acc = accelerator_from_point({
            "num_dscs": 8, "dram": "lpddr5", "bandwidth_gbps": 100.0,
            "gsc_mb": 16.0,
        })
        assert acc.num_dscs == 8
        assert acc.dram.bandwidth_gbps == 100.0
        assert acc.gsc_bytes == int(16.0 * 1024 * 1024 / 8) * 8


class TestPointEvaluator:
    def test_hardware_objectives(self):
        evaluator = PointEvaluator(
            objectives=("latency_s", "energy_j", "tops_per_watt"),
            iterations=4,
        )
        small = evaluator({"num_dscs": 4, "bandwidth_gbps": 51.0})
        big = evaluator({"num_dscs": 24, "bandwidth_gbps": 819.0})
        assert set(small) == {"latency_s", "energy_j", "tops_per_watt"}
        assert big["latency_s"] < small["latency_s"]

    def test_accuracy_depends_only_on_algorithm_knobs(self):
        evaluator = PointEvaluator(
            objectives=("accuracy_psnr_db",), iterations=4,
        )
        edge = evaluator({"num_dscs": 4, "top_k_ratio": 0.4})
        server = evaluator({"num_dscs": 24, "top_k_ratio": 0.4})
        other = evaluator({"num_dscs": 24, "top_k_ratio": 0.8})
        assert edge["accuracy_psnr_db"] == server["accuracy_psnr_db"]
        assert other["accuracy_psnr_db"] != edge["accuracy_psnr_db"]

    def test_cluster_objectives(self):
        evaluator = PointEvaluator(
            objectives=("slo_attainment", "samples_per_s"),
            iterations=4, cluster_requests=16,
        )
        values = evaluator({
            "num_dscs": 24, "replicas": 2, "router": "jsq",
            "rate_rps": 100.0,
        })
        assert 0.0 <= values["slo_attainment"] <= 1.0
        assert values["samples_per_s"] > 0.0

    def test_value_knobs_move_hardware_objectives(self):
        """The FFN-Reuse period and sparsity target must reach the
        hardware walk, not just the two enable flags."""
        evaluator = PointEvaluator(
            objectives=("latency_s", "energy_j"), iterations=8,
        )
        dense = evaluator({"sparse_iters_n": 0})
        sparse = evaluator({"sparse_iters_n": 8})
        assert sparse["latency_s"] < dense["latency_s"]
        low = evaluator({"ffn_target_sparsity": 0.6})
        high = evaluator({"ffn_target_sparsity": 0.95})
        assert high["energy_j"] < low["energy_j"]

    def test_iterations_price_the_schedule(self):
        full = PointEvaluator(objectives=("latency_s",), iterations=8)
        short = PointEvaluator(objectives=("latency_s",), iterations=4)
        point = {"num_dscs": 24}
        assert short(point)["latency_s"] < full(point)["latency_s"]
