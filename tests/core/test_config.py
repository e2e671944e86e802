"""Unit tests for ExionConfig."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ABLATIONS, ExionConfig, require_ablation
from repro.workloads.specs import BENCHMARK_ORDER, get_spec


class TestValidation:
    def test_defaults_valid(self):
        ExionConfig()

    def test_rejects_negative_sparse_n(self):
        with pytest.raises(ValueError):
            ExionConfig(sparse_iters_n=-1)

    def test_rejects_bad_target_sparsity(self):
        with pytest.raises(ValueError):
            ExionConfig(ffn_target_sparsity=1.0)

    def test_rejects_bad_topk(self):
        with pytest.raises(ValueError):
            ExionConfig(top_k_ratio=0.0)
        with pytest.raises(ValueError):
            ExionConfig(top_k_ratio=1.5)

    def test_rejects_negative_qth(self):
        with pytest.raises(ValueError):
            ExionConfig(q_threshold=-0.1)

    def test_rejects_unknown_lod_mode(self):
        with pytest.raises(ValueError):
            ExionConfig(lod_mode="three_step")

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            ExionConfig(prediction_bits=1)

    def test_rejects_nan_qth(self):
        with pytest.raises(ValueError, match="q_threshold"):
            ExionConfig(q_threshold=float("nan"))

    @pytest.mark.parametrize("field", ["sparse_iters_n", "prediction_bits"])
    @pytest.mark.parametrize("value", [2.5, 12.0, True, "4", None])
    def test_rejects_non_integral_counts(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExionConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_accepts_numpy_integers(self, value):
        cfg = ExionConfig(sparse_iters_n=value, prediction_bits=value)
        assert cfg.sparse_iters_n == cfg.prediction_bits == 5


class TestForModel:
    def test_pulls_table1_values(self):
        cfg = ExionConfig.for_model("dit")
        assert cfg.sparse_iters_n == 2
        assert cfg.ffn_target_sparsity == 0.80
        assert cfg.q_threshold == 0.15
        assert cfg.top_k_ratio == 0.05

    def test_lod_mode_override(self):
        assert ExionConfig.for_model("dit", lod_mode="lod").lod_mode == "lod"

    def test_disable_flags(self):
        cfg = ExionConfig.for_model("mld", enable_ffn_reuse=False)
        assert not cfg.enable_ffn_reuse
        assert cfg.enable_eager_prediction


class TestForSpec:
    @pytest.mark.parametrize("name", BENCHMARK_ORDER)
    def test_for_model_is_for_spec_of_the_named_spec(self, name):
        assert ExionConfig.for_model(name) == ExionConfig.for_spec(
            get_spec(name))

    def test_knob_modified_spec_yields_its_own_knobs(self):
        spec = replace(get_spec("dit"), sparse_iters_n=5,
                       target_inter_sparsity=0.6, q_threshold=0.3,
                       top_k_ratio=0.1)
        cfg = ExionConfig.for_spec(spec)
        assert (cfg.sparse_iters_n, cfg.ffn_target_sparsity,
                cfg.q_threshold, cfg.top_k_ratio) == (5, 0.6, 0.3, 0.1)
        assert cfg.enable_ffn_reuse and cfg.enable_eager_prediction


class TestAblation:
    @pytest.mark.parametrize(
        "which,ffnr,ep",
        [
            ("base", False, False),
            ("ep", False, True),
            ("ffnr", True, False),
            ("all", True, True),
        ],
    )
    def test_variants(self, which, ffnr, ep):
        cfg = ExionConfig.for_model("dit").ablation(which)
        assert cfg.enable_ffn_reuse is ffnr
        assert cfg.enable_eager_prediction is ep

    def test_preserves_other_fields(self):
        cfg = ExionConfig.for_model("dit").ablation("base")
        assert cfg.sparse_iters_n == 2
        assert cfg.top_k_ratio == 0.05

    def test_unknown_ablation(self):
        with pytest.raises(ValueError, match="base/ep/ffnr/all"):
            ExionConfig().ablation("everything")

    def test_the_table_round_trips_every_name(self):
        """One table maps each name to its enable flags and back, in the
        order the CLI offers them."""
        assert list(ABLATIONS) == ["base", "ep", "ffnr", "all"]
        for name in ABLATIONS:
            require_ablation(name)
            config = ExionConfig.for_model("dit").ablation(name)
            assert config.ablation_name == name
