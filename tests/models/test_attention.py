"""Unit tests for multi-head attention."""

import numpy as np
import pytest

from repro.models.activations import softmax
from repro.models.attention import MultiHeadAttention

#: No leading axis, and a leading batch of three requests.
BATCHES = ((), (3,))


def assert_stacked(batched, rows):
    """``batched`` is byte-equal to stacking the per-request results."""
    stacked = np.stack(rows)
    assert batched.shape == stacked.shape
    assert batched.tobytes() == stacked.tobytes()


class TestMultiHeadAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadAttention(16, 4, rng)
        out = attn(rng.standard_normal((6, 16)))
        assert out.shape == (6, 16)

    def test_rejects_indivisible_heads(self, rng):
        with pytest.raises(ValueError, match="not divisible"):
            MultiHeadAttention(10, 3, rng)

    def test_probs_are_distributions(self, rng):
        """Every probability row sums to one: attending all-ones values
        gives all-ones heads."""
        attn = MultiHeadAttention(8, 2, rng)
        x = rng.standard_normal((5, 8))
        k, v = attn.kv(x)
        np.testing.assert_allclose(
            attn.attend(x, k, np.ones_like(v)), attn.wo(np.ones((5, 8))),
            atol=1e-12,
        )

    @pytest.mark.parametrize("batch", BATCHES)
    def test_split_merge_roundtrip(self, rng, batch):
        attn = MultiHeadAttention(12, 3, rng)
        x = rng.standard_normal((*batch, 7, 12))
        heads = attn.split_heads(x)
        assert heads.shape == (*batch, 3, 7, 4)
        np.testing.assert_array_equal(attn.merge_heads(heads), x)
        if batch:
            assert_stacked(heads, [attn.split_heads(xb) for xb in x])
            assert_stacked(attn.merge_heads(heads),
                           [attn.merge_heads(hb) for hb in heads])

    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_manual_computation(self, rng, batch):
        attn = MultiHeadAttention(8, 1, rng)
        x = rng.standard_normal((*batch, 4, 8))
        q, k, v = attn.wq(x), attn.wk(x), attn.wv(x)
        scores = (q @ k.swapaxes(-1, -2)) * attn.scale
        expected = attn.wo(softmax(scores) @ v)
        got = attn.attend(x, *attn.kv(x))
        np.testing.assert_allclose(got, expected)
        if batch:  # each request's own call
            assert_stacked(got, [attn.attend(xb, *attn.kv(xb)) for xb in x])
        else:
            assert got.tobytes() == attn(x).tobytes()

    def test_cross_attention_uses_context(self, rng):
        attn = MultiHeadAttention(8, 2, rng, context_dim=6)
        x = rng.standard_normal((4, 8))
        ctx1 = rng.standard_normal((3, 6))
        ctx2 = rng.standard_normal((3, 6))
        out1 = attn(x, context=ctx1)
        out2 = attn(x, context=ctx2)
        assert not np.allclose(out1, out2)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_cross_attention_shapes(self, rng, batch):
        attn = MultiHeadAttention(8, 2, rng, context_dim=6)
        x = rng.standard_normal((*batch, 4, 8))
        context = rng.standard_normal((*batch, 3, 6))
        k, v = attn.kv(context)
        assert k.shape == v.shape == (*batch, 2, 3, 4)
        got = attn.attend(x, k, v)
        assert got.shape == (*batch, 4, 8)
        if not batch:
            assert got.tobytes() == attn(x, context=context).tobytes()
            return
        assert_stacked(k, [attn.kv(c)[0] for c in context])
        assert_stacked(v, [attn.kv(c)[1] for c in context])
        assert_stacked(got, [attn.attend(xb, *attn.kv(c))
                             for xb, c in zip(x, context)])

    def test_executor_hook_overrides(self, rng):
        attn = MultiHeadAttention(8, 2, rng)

        def executor(layer, x, context):
            return np.zeros_like(x)

        out = attn(rng.standard_normal((4, 8)), executor=executor)
        np.testing.assert_array_equal(out, np.zeros((4, 8)))
