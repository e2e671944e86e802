"""Unit tests for the paper-scale MMUL workloads the lowering emits."""

import pytest

from repro.program.ir import Op
from repro.program.lower import lower_program, spec_block_ops
from repro.workloads.specs import get_spec


class TestOp:
    def test_macs(self):
        load = Op("x", "qkv", 4, 8, 16, count=2)
        assert load.macs == 4 * 8 * 16 * 2

    def test_weight_bytes_packed_int12(self):
        load = Op("x", "qkv", 4, 8, 16)
        assert load.weight_bytes == int(8 * 16 * 1.5)

    def test_activation_matmuls_have_no_weights(self):
        load = Op("attn_score", "attention", 4, 8, 4,
                            has_weights=False)
        assert load.weight_bytes == 0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Op("x", "qkv", 0, 8, 16)


class TestBlockWorkloads:
    def test_self_attention_only(self):
        loads = spec_block_ops(get_spec("dit"), scale="paper")
        names = [load.name for load in loads]
        assert "q_proj" in names
        assert "ffn_linear1" in names
        assert not any(n.startswith("xattn") for n in names)

    def test_cross_attention_added(self):
        loads = spec_block_ops(
            get_spec("stable_diffusion"), scale="paper"
        )
        names = [load.name for load in loads]
        assert "xattn_k_proj" in names
        assert "xattn_score" in names

    def test_geglu_doubles_ffn1_columns(self):
        sd = get_spec("stable_diffusion")
        loads = {
            load.name: load for load in spec_block_ops(sd, scale="paper")
        }
        assert loads["ffn_linear1"].c == 2 * 4 * sd.paper_dim

    def test_attention_score_per_head(self):
        dit = get_spec("dit")
        loads = {
            load.name: load for load in spec_block_ops(dit, scale="paper")
        }
        assert loads["attn_score"].count == dit.paper_heads
        assert loads["attn_score"].k == dit.paper_dim // dit.paper_heads


class TestIterationWorkloads:
    def test_depth_multiplies_counts(self):
        dit = get_spec("dit")
        loads = {
            load.name: load
            for load in lower_program(dit, scale="paper").ops
        }
        assert loads["q_proj"].count == dit.paper_depth

    def test_etc_workload_matches_share(self):
        sd = get_spec("stable_diffusion")
        macs = lower_program(sd, scale="paper").macs_by_kind()
        transformer = macs["qkv"] + macs["attention"] + macs["ffn"]
        share = transformer / (transformer + macs["etc"])
        assert share == pytest.approx(sd.paper_transformer_share, abs=0.02)

    def test_pure_transformer_has_no_etc(self):
        macs = lower_program(get_spec("dit"), scale="paper").macs_by_kind()
        assert macs["etc"] == 0

    def test_ffn_dominates_transformer(self):
        """Fig. 4: FFN layers are the largest transformer category."""
        for name in ("dit", "mdm", "stable_diffusion"):
            macs = lower_program(
                get_spec(name), scale="paper"
            ).macs_by_kind()
            assert macs["ffn"] > macs["qkv"]
            assert macs["ffn"] > macs["attention"]
