"""Unit tests for the single lowering: spec -> IterationProgram."""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.models.attention import MultiHeadAttention
from repro.models.conditioning import ConditioningEncoder
from repro.models.linear import Linear
from repro.models.network import NetworkType, network_stages
from repro.models.norm import AdaLNModulation
from repro.models.resblock import Conv2d, ResBlock
from repro.models.zoo import build_model
from repro.program import (
    IterationProgram,
    Op,
    OpKind,
    block_ops,
    lower_plan,
    lower_program,
)
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

    def test_attention_score_per_head(self):
        ops = {op.name: op for op in block_ops(16, 64, 4, 4)}
        assert ops["attn_score"].count == 4
        assert ops["attn_score"].k == 64 // 4
        assert not any(name.startswith("xattn") for name in ops)

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

    def test_ffn_dominates_transformer(self):
        """Fig. 4: FFN layers are the largest transformer category."""
        for name in ("dit", "mdm", "stable_diffusion"):
            macs = lower_program(get_spec(name)).macs_by_kind()
            assert macs["ffn"] > macs["qkv"]
            assert macs["ffn"] > macs["attention"]

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
        assert ops["xattn_k_proj"].r == ConditioningEncoder.max_tokens

    def test_unet_blocks_run_at_their_stage_token_count(self):
        """A UNet's decoder half runs on ceil(tokens / 2) tokens, as in
        ``DiffusionNetwork.walk``; a transformer-only stack is one stage."""
        spec = get_spec("stable_diffusion")  # paper: 16 blocks, 1024 tokens
        ffn1 = [op for op in lower_program(spec).ops
                if op.name == "ffn_linear1"]
        assert [(op.r, op.count) for op in ffn1] == [(1024, 8), (512, 8)]
        mld = network_stages(1, 5, 3)  # odd tokens pool with the last
        assert [(s.tokens, s.blocks) for s in mld] == [
            (5, range(1)), (3, range(1, 3))]
        assert network_stages(NetworkType.TRANSFORMER_ONLY, 5, 3) == (
            (5, range(3)),)

    def test_rejects_unknown_scale(self):
        with pytest.raises(ValueError):
            lower_program(get_spec("dit"), scale="nano")

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
        plan = lower_plan(
            get_spec("dit"),
            ExionConfig.for_model("dit", enable_ffn_reuse=False),
            iterations=5,
        )
        assert all(s.is_dense for s in plan.steps)

    def test_residency_annotation(self):
        plan = lower_plan(get_spec("dit"), iterations=4)
        assert plan.steps[0].weight_fetch == "cold"
        assert all(s.weight_fetch == "resident" for s in plan.steps[1:])

    def test_config_supplies_flags_and_bits(self):
        config = ExionConfig.for_model("dit").ablation("base")
        plan = lower_plan(get_spec("dit"), config=config, iterations=4)
        assert not plan.enable_ffn_reuse
        assert not plan.enable_eager_prediction
        assert plan.prediction_bits == config.prediction_bits

    def test_config_n_shapes_the_schedule(self):
        """A config whose FFN-Reuse period differs from the spec's wins:
        the priced cadence is the one the pipeline would execute."""
        from dataclasses import replace as dc_replace

        spec = get_spec("dit")  # Table I N=2
        config = dc_replace(ExionConfig.for_model("dit"), sparse_iters_n=9)
        plan = lower_plan(spec, config=config, iterations=20)
        assert plan.sparse_iters_n == 9
        assert plan.dense_iterations == 2  # iterations 0 and 10
        assert plan.steps[10].is_dense

    def test_default_config_is_the_specs_own(self):
        """Without a config, a knob-modified spec lowers with its own
        knobs."""
        from dataclasses import replace as dc_replace

        spec = dc_replace(get_spec("dit"), sparse_iters_n=4, q_threshold=0.3)
        plan = lower_plan(spec, iterations=10)
        assert plan == lower_plan(spec, ExionConfig.for_spec(spec),
                                  iterations=10)
        assert (plan.sparse_iters_n, plan.q_threshold) == (4, 0.3)
        assert plan.dense_iterations == 2  # iterations 0 and 5

    def test_dense_equivalent_macs_scale_with_batch(self):
        spec = get_spec("mld")
        b1 = lower_plan(spec, iterations=5, batch=1)
        b8 = lower_plan(spec, iterations=5, batch=8)
        assert b8.dense_equivalent_macs == 8 * b1.dense_equivalent_macs

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            lower_plan(get_spec("mld"), batch=0)


def _kind_of_linears(network):
    """Each block Linear's Fig. 4 category; any other Linear is etc."""
    kinds = {}
    for block in network.blocks:
        for attn in filter(None, (block.self_attn, block.cross_attn)):
            for linear in (attn.wq, attn.wk, attn.wv):
                kinds[id(linear)] = "qkv"
            kinds[id(attn.wo)] = "attention"
        kinds[id(block.ffn.linear1)] = kinds[id(block.ffn.linear2)] = "ffn"
    return kinds


def _oracle_iteration_macs(model, prompt, monkeypatch):
    """Spy every product one dense forward of the numpy network runs on
    ``prompt``'s context and sum its MACs per Fig. 4 category."""
    network = model.network
    context = model.make_pipeline().embed_prompt(prompt)
    kinds = _kind_of_linears(network)
    executed = {"qkv": 0, "attention": 0, "ffn": 0, "etc": 0}

    def spy(cls, attr, macs_of):
        original = getattr(cls, attr)

        def counted(self, *args):
            kind, macs = macs_of(self, *args)
            executed[kind] += macs
            return original(self, *args)

        monkeypatch.setattr(cls, attr, counted)

    spy(Linear, "__call__", lambda lin, x: (
        kinds.get(id(lin), "etc"),
        np.size(x) * lin.out_features))
    # Q K^T and probs @ V: tq * tk * head_dim per head, twice.
    spy(MultiHeadAttention, "attend", lambda attn, x, k, v: (
        "attention", 2 * x.shape[-2] * k.shape[-2] * attn.dim))
    spy(AdaLNModulation, "__call__", lambda ada, t_embed: (
        "etc", t_embed.size * ada.weight.shape[1]))
    spy(Conv2d, "__call__", lambda conv, x: (
        "etc", x.size * conv.out_channels * conv.kernel_size ** 2))
    spy(ResBlock, "__call__", lambda res, x, t_embed: (
        "etc", res.time_proj.size))

    rng = np.random.default_rng(0)
    network(rng.standard_normal((network.tokens, network.dim)), 500,
            context=context)
    return executed


#: A prompt as long as the context bound: every priced key is real.
LONGEST_PROMPT = " ".join(
    f"word{i}" for i in range(ConditioningEncoder.max_tokens)
)


@pytest.mark.parametrize("name", ALL_MODEL_ORDER)
def test_sim_program_macs_are_what_one_oracle_iteration_executes(
    name, monkeypatch
):
    """The MAC law: one dense forward of the numpy network on the
    longest context executes, per Fig. 4 category, exactly the MACs the
    sim-scale lowering prices."""
    model = build_model(name, seed=0, total_iterations=2)
    executed = _oracle_iteration_macs(model, LONGEST_PROMPT, monkeypatch)
    assert executed == lower_program(model.spec, scale="sim").macs_by_kind()


@pytest.mark.parametrize("name", [
    name for name in ALL_MODEL_ORDER if get_spec(name).context_dim
])
def test_a_short_prompt_executes_fewer_keys_than_the_program_prices(
    name, monkeypatch
):
    """A context of ``L`` real tokens falls short of the priced
    ``max_tokens`` keys by exactly ``max_tokens - L`` keys in every
    cross-attention layer: each missing key is one K and one V
    projection row and one column of Q K^T and of probs @ V."""
    model = build_model(name, seed=0, total_iterations=2)
    network = model.network
    executed = _oracle_iteration_macs(model, "two words", monkeypatch)
    priced = lower_program(model.spec, scale="sim").macs_by_kind()
    missing = ConditioningEncoder.max_tokens - 2
    per_key_kv = per_key_scores = 0
    for stage in network.stages:
        for index in stage.blocks:
            attn = network.blocks[index].cross_attn
            per_key_kv += 2 * attn.context_dim * attn.dim
            per_key_scores += 2 * stage.tokens * attn.dim
    assert per_key_kv and per_key_scores
    assert priced["qkv"] - executed["qkv"] == missing * per_key_kv
    assert priced["attention"] - executed["attention"] == (
        missing * per_key_scores
    )
    assert executed["ffn"] == priced["ffn"]
    assert executed["etc"] == priced["etc"]
