"""Unit tests for the Table I evaluation harness."""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.workloads.evaluation import (
    TABLE1_METHODS,
    EvaluationReport,
    evaluate_config,
    evaluate_model,
)


@pytest.fixture(scope="module")
def mld_report():
    return evaluate_model("mld", rng=0)


class TestEvaluateModel:
    def test_all_methods_present(self, mld_report):
        assert [m.method for m in mld_report.methods] == list(TABLE1_METHODS)

    def test_vanilla_is_reference(self, mld_report):
        vanilla = mld_report.method("vanilla")
        assert vanilla.psnr_mean == float("inf")
        assert vanilla.fid_proxy == pytest.approx(0.0, abs=1e-6)

    def test_optimized_methods_finite(self, mld_report):
        for name in TABLE1_METHODS[1:]:
            entry = mld_report.method(name)
            assert 0.0 < entry.psnr_mean < float("inf")
            assert entry.fid_proxy >= 0.0
            assert entry.is_proxy > 0.0

    def test_sparsity_targets_hit(self, mld_report):
        ffnr = mld_report.method("ffn_reuse")
        assert ffnr.inter_sparsity == pytest.approx(0.95, abs=0.05)
        assert ffnr.intra_sparsity == 0.0  # EP disabled

    def test_ep_adds_intra_sparsity(self, mld_report):
        assert mld_report.method("ffn_reuse_ep").intra_sparsity > 0.1

    def test_method_lookup_raises(self, mld_report):
        with pytest.raises(KeyError):
            mld_report.method("nonexistent")

    def test_six_samples_per_method(self, mld_report):
        assert mld_report.n_samples == 6
        assert mld_report.methods[0].method == "vanilla"

    def test_unconditioned_model_runs(self):
        report = evaluate_model("dit", rng=0)
        assert isinstance(report, EvaluationReport)
        assert report.n_samples == 6

    def test_rng_is_required_and_explicit(self):
        with pytest.raises(TypeError):
            evaluate_model("mld")  # no rng
        with pytest.raises(TypeError, match="explicit"):
            evaluate_model("mld", rng=None)

    def test_same_rng_same_report(self, mld_report):
        again = evaluate_model("mld", rng=0)
        assert again.methods == mld_report.methods

    def test_generator_instance_accepted(self, mld_report):
        """An int seed is normalized to the generator it names."""
        report = evaluate_model("mld", rng=np.random.default_rng(0))
        assert report.methods == mld_report.methods


class TestEvaluateConfig:
    def test_matches_ladder_method(self):
        """The ffn_reuse ladder rung expressed as an explicit config point
        scores identically under the same rng stream."""
        ladder = evaluate_model("mld", rng=5).method("ffn_reuse")
        direct = evaluate_config(
            "mld",
            ExionConfig.for_model("mld", enable_eager_prediction=False),
            n_samples=6, iterations=15, rng=5,
        )
        assert direct.psnr_mean == ladder.psnr_mean
        assert direct.fid_proxy == ladder.fid_proxy
        assert direct.inter_sparsity == ladder.inter_sparsity

    def test_label_and_rng_required(self):
        result = evaluate_config(
            "mld", ExionConfig.for_model("mld"),
            n_samples=2, iterations=4, label="point", rng=0,
        )
        assert result.method == "point"
        with pytest.raises(TypeError):
            evaluate_config("mld", ExionConfig.for_model("mld"),
                            n_samples=2, iterations=4)
