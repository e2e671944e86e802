"""Unit tests for the transformer block."""

import numpy as np

from repro.models.transformer import Executors, TransformerBlock


def cross_contexts(block, x, context=None) -> list:
    """The context shapes the block's cross-attention executor saw."""
    seen = []

    def cross(layer, h, ctx):
        seen.append(ctx.shape)
        return layer.forward_exact(h, ctx)

    block(x, context=context, executors=Executors(cross_attention=cross))
    return seen


class TestTransformerBlock:
    def test_output_shape(self, rng):
        block = TransformerBlock(16, 4, 4, rng)
        out = block(rng.standard_normal((6, 16)))
        assert out.shape == (6, 16)

    def test_no_cross_attention_when_unconfigured(self, rng):
        block = TransformerBlock(16, 4, 4, rng)
        assert block.cross_attn is None
        x = rng.standard_normal((6, 16))
        ctx = rng.standard_normal((3, 16))
        assert block(x, context=ctx).tobytes() == block(x).tobytes()

    def test_cross_attention_runs_with_context(self, rng):
        block = TransformerBlock(16, 4, 4, rng, context_dim=8)
        ctx = rng.standard_normal((3, 8))
        x = rng.standard_normal((6, 16))
        assert cross_contexts(block, x, ctx) == [(3, 8)]

    def test_cross_attention_skipped_without_context(self, rng):
        block = TransformerBlock(16, 4, 4, rng, context_dim=8)
        assert cross_contexts(block, rng.standard_normal((6, 16))) == []

    def test_residual_structure(self, rng):
        """Output differs from input, but retains strong correlation
        (residual path dominates for small weights)."""
        block = TransformerBlock(16, 4, 4, rng)
        x = rng.standard_normal((6, 16))
        out = block(x)
        assert not np.allclose(out, x)
        corr = np.corrcoef(x.ravel(), out.ravel())[0, 1]
        assert corr > 0.3

    def test_adaln_timestep_changes_output(self, rng):
        block = TransformerBlock(16, 4, 4, rng, timestep_dim=8)
        x = rng.standard_normal((6, 16))
        out1 = block(x, t_embed=np.ones(8))
        out2 = block(x, t_embed=-np.ones(8))
        assert not np.allclose(out1, out2)

    def test_ffn_executor_is_used(self, rng):
        block = TransformerBlock(16, 4, 4, rng)
        calls = []

        def ffn_exec(layer, x):
            calls.append(x.shape)
            return layer.forward_exact(x)

        block(rng.standard_normal((6, 16)), executors=Executors(ffn=ffn_exec))
        assert calls == [(6, 16)]

    def test_attention_executor_is_used(self, rng):
        block = TransformerBlock(16, 4, 4, rng)
        calls = []

        def attn_exec(layer, x, context):
            calls.append(True)
            return layer.forward_exact(x, context)

        block(
            rng.standard_normal((6, 16)),
            executors=Executors(self_attention=attn_exec),
        )
        assert calls == [True]

    def test_deterministic(self):
        b1 = TransformerBlock(8, 2, 4, np.random.default_rng(3))
        b2 = TransformerBlock(8, 2, 4, np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal((5, 8))
        np.testing.assert_array_equal(b1(x), b2(x))
