"""Unit tests for the single lowering: spec -> IterationProgram."""

import pytest

from repro.program import (
    IterationProgram,
    Op,
    OpKind,
    block_ops,
    lower_plan,
    lower_program,
    spec_block_ops,
)
from repro.program.lower import SIM_CONTEXT_TOKENS
from repro.workloads.specs import ALL_MODEL_ORDER, get_spec


class TestOp:
    def test_macs_and_weight_bytes(self):
        op = Op("x", "qkv", 4, 8, 16, count=2)
        assert op.macs == 4 * 8 * 16 * 2
        assert op.weight_bytes == int(8 * 16 * 1.5 * 2)

    def test_weightless_op(self):
        op = Op("attn_score", "attention", 4, 8, 4, has_weights=False)
        assert op.weight_bytes == 0

    def test_kind_coerced_to_enum(self):
        op = Op("x", "ffn1", 1, 1, 1)
        assert op.kind is OpKind.FFN1
        assert op.kind == "ffn1"

    def test_rejects_bad_dims_and_kind(self):
        with pytest.raises(ValueError):
            Op("x", "qkv", 0, 8, 16)
        with pytest.raises(ValueError):
            Op("x", "conv3d", 1, 1, 1)


class TestBlockOps:
    def test_cross_attention_group(self):
        names = [op.name for op in block_ops(16, 64, 4, 4,
                                             context_tokens=77)]
        assert "xattn_k_proj" in names
        assert "xattn_score" in names

    def test_geglu_doubles_ffn1_columns(self):
        ops = {op.name: op for op in block_ops(16, 64, 4, 4,
                                               activation="geglu")}
        assert ops["ffn_linear1"].c == 2 * 4 * 64

    def test_temporal_attention_factorization(self):
        ops = {op.name: op
               for op in block_ops(64, 64, 4, 4, temporal_frames=8)}
        spatial = 64 // 8
        assert ops["attn_score"].r == spatial
        assert ops["attn_score"].count == 4 * 8  # heads x frames
        assert ops["temporal_attn_score"].r == 8
        assert ops["temporal_attn_score"].count == 4 * spatial
        assert ops["temporal_q_proj"].kind is OpKind.QKV
        assert not ops["temporal_attn_av"].has_weights
        assert ops["temporal_out_proj"].has_weights

    def test_temporal_validation(self):
        with pytest.raises(ValueError):
            block_ops(65, 64, 4, 4, temporal_frames=8)  # not divisible
        with pytest.raises(ValueError):
            block_ops(8, 64, 4, 4, temporal_frames=8)  # 1 spatial token

    def test_heads_must_divide_dim(self):
        with pytest.raises(ValueError):
            block_ops(16, 65, 4, 4)


class TestLowerProgram:
    def test_depth_multiplies_counts(self):
        program = lower_program(get_spec("dit"))
        ops = {op.name: op for op in program.ops}
        assert ops["q_proj"].count == get_spec("dit").paper_depth

    def test_pure_transformer_has_no_etc(self):
        macs = lower_program(get_spec("dit")).macs_by_kind()
        assert macs["etc"] == 0

    def test_etc_matches_transformer_share(self):
        sd = get_spec("stable_diffusion")
        macs = lower_program(sd).macs_by_kind()
        transformer = macs["qkv"] + macs["attention"] + macs["ffn"]
        share = transformer / (transformer + macs["etc"])
        assert share == pytest.approx(sd.paper_transformer_share, abs=0.02)

    def test_temporal_spec_emits_temporal_ops(self):
        program = lower_program(get_spec("latte_video_dit"))
        names = {op.name for op in program.ops}
        assert "temporal_attn_score" in names
        assert "temporal_out_proj" in names
        assert program.temporal_frames == 16

    def test_sim_scale_uses_runnable_dims(self):
        spec = get_spec("stable_diffusion")
        program = lower_program(spec, scale="sim")
        assert program.tokens == spec.tokens
        assert program.dim == spec.dim
        ops = {op.name: op for op in program.ops}
        assert ops["xattn_k_proj"].r == SIM_CONTEXT_TOKENS

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            lower_program(get_spec("dit"), scale="nano")
        with pytest.raises(ValueError):
            spec_block_ops(get_spec("dit"), scale="nano")

    def test_every_model_lowers(self):
        for name in ALL_MODEL_ORDER:
            program = lower_program(get_spec(name))
            assert isinstance(program, IterationProgram)
            assert program.total_macs > 0
            assert program.weight_bytes > 0
            assert all(isinstance(op.kind, OpKind) for op in program.ops)


class TestLowerPlan:
    def test_phase_cadence_matches_spec(self):
        spec = get_spec("dit")  # N=2: dense every 3rd iteration
        plan = lower_plan(spec, iterations=9)
        assert [s.is_dense for s in plan.steps] == [
            True, False, False, True, False, False, True, False, False,
        ]
        assert plan.dense_iterations == 3
        assert plan.sparse_iterations == 6

    def test_disabled_ffn_reuse_is_all_dense(self):
        plan = lower_plan(get_spec("dit"), enable_ffn_reuse=False,
                          iterations=5)
        assert all(s.is_dense for s in plan.steps)

    def test_residency_annotation(self):
        plan = lower_plan(get_spec("dit"), iterations=4)
        assert plan.steps[0].weight_fetch == "cold"
        assert all(s.weight_fetch == "resident" for s in plan.steps[1:])

    def test_config_supplies_flags_and_bits(self):
        from repro.core.config import ExionConfig

        config = ExionConfig.for_model("dit").ablation("base")
        plan = lower_plan(get_spec("dit"), config=config, iterations=4)
        assert not plan.enable_ffn_reuse
        assert not plan.enable_eager_prediction
        assert plan.prediction_bits == config.prediction_bits

    def test_config_n_shapes_the_schedule(self):
        """A config whose FFN-Reuse period differs from the spec's wins:
        the priced cadence is the one the pipeline would execute."""
        from dataclasses import replace as dc_replace

        from repro.core.config import ExionConfig

        spec = get_spec("dit")  # Table I N=2
        config = dc_replace(ExionConfig.for_model("dit"), sparse_iters_n=9)
        plan = lower_plan(spec, config=config, iterations=20)
        assert plan.sparse_iters_n == 9
        assert plan.dense_iterations == 2  # iterations 0 and 10
        assert plan.steps[10].is_dense

    def test_dense_equivalent_macs_scale_with_batch(self):
        spec = get_spec("mld")
        b1 = lower_plan(spec, iterations=5, batch=1)
        b8 = lower_plan(spec, iterations=5, batch=8)
        assert b8.dense_equivalent_macs == 8 * b1.dense_equivalent_macs

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            lower_plan(get_spec("mld"), batch=0)


class TestMappingFacade:
    def test_delta_dit_block_macs_match_network(self):
        """Sim-scale block lowering equals the runnable network's own
        analytic MAC count (what Delta-DiT's accounting relies on)."""
        from repro.models.zoo import build_model

        for name in ("dit", "mdm", "edge"):
            model = build_model(name, seed=0, total_iterations=2)
            block = model.network.blocks[0]
            tokens = model.network.tokens
            spec = model.spec
            lowered = sum(
                op.macs
                for op in block_ops(
                    tokens, spec.dim, spec.num_heads, spec.ffn_mult,
                    activation=spec.activation,
                )
            )
            assert lowered == sum(block.macs(tokens).values())
