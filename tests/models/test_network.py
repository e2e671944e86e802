"""Unit tests for the diffusion networks (all three types)."""

import numpy as np
import pytest

from repro.models.network import (
    TIMESTEP_DIM,
    DiffusionNetwork,
    NetworkType,
    timestep_embedding,
)
from repro.models.transformer import Executors
from repro.models.zoo import build_model
from repro.workloads.specs import ALL_MODEL_ORDER

RESBLOCK_MODELS = ("stable_diffusion", "make_an_audio", "videocrafter2")
#: No leading axis, and a leading batch of three requests.
BATCHES = ((), (3,))


def block_tokens(net, x, t):
    """The prediction plus the token count each transformer block's
    self-attention saw, in call order."""
    tokens = []

    def attention(layer, h, context):
        tokens.append(h.shape[0])
        return layer.forward_exact(h, context)

    out = net(x, t=t, executors=lambda i: Executors(self_attention=attention))
    return out, tokens


def assert_stacked(batched, rows):
    """``batched`` is byte-equal to stacking the per-request results."""
    stacked = np.stack(rows)
    assert batched.shape == stacked.shape
    assert batched.tobytes() == stacked.tobytes()


def make_network(network_type, rng, tokens=16, depth=4, **kwargs):
    return DiffusionNetwork(
        network_type,
        tokens=tokens,
        dim=32,
        num_heads=4,
        depth=depth,
        ffn_mult=4,
        rng=rng,
        **kwargs,
    )


class TestTimestepEmbedding:
    def test_shape(self):
        assert timestep_embedding(5, 16).shape == (16,)

    def test_odd_dim_padded(self):
        assert timestep_embedding(5, 15).shape == (15,)

    def test_distinct_timesteps_distinct_embeddings(self):
        e1 = timestep_embedding(1, 32)
        e2 = timestep_embedding(900, 32)
        assert not np.allclose(e1, e2)

    def test_bounded(self):
        assert np.max(np.abs(timestep_embedding(999, 64))) <= 1.0


class TestTransformerOnly:
    def test_forward_shape(self, rng):
        net = make_network(NetworkType.TRANSFORMER_ONLY, rng)
        out, tokens = block_tokens(net, rng.standard_normal((16, 32)), t=10)
        assert out.shape == (16, 32)
        assert len(tokens) == 4

    def test_rejects_wrong_latent_shape(self, rng):
        net = make_network(NetworkType.TRANSFORMER_ONLY, rng)
        with pytest.raises(ValueError, match="latent shape"):
            net(np.zeros((8, 32)), t=0)

    def test_timestep_changes_output_with_adaln(self, rng):
        net = make_network(NetworkType.TRANSFORMER_ONLY, rng, use_adaln=True)
        x = rng.standard_normal((16, 32))
        out1 = net(x, t=10)
        out2 = net(x, t=900)
        assert not np.allclose(out1, out2)

    def test_executors_list_and_callable(self, rng):
        net = make_network(NetworkType.TRANSFORMER_ONLY, rng)
        x = rng.standard_normal((16, 32))
        seen = []

        def provider(i):
            seen.append(i)
            return Executors()

        net(x, t=0, executors=provider)
        assert seen == [0, 1, 2, 3]
        net(x, t=0, executors=[Executors()] * 4)  # sequence form works too


class TestTransformerUNet:
    def test_forward_shape(self, rng):
        net = make_network(NetworkType.TRANSFORMER_UNET, rng)
        out, tokens = block_tokens(net, rng.standard_normal((16, 32)), t=5)
        assert out.shape == (16, 32)
        assert len(tokens) == 4

    @pytest.mark.parametrize("batch", BATCHES)
    def test_odd_token_count(self, rng, batch):
        net = make_network(NetworkType.TRANSFORMER_UNET, rng, tokens=15)
        out = net(rng.standard_normal((15, 32)), t=5)
        assert out.shape == (15, 32)
        h = rng.standard_normal((*batch, 15, 32))
        down = net._downsample(h)  # the odd last token pairs with itself
        assert down.shape == (*batch, 8, 32)
        up = net._upsample(down[..., :3, :], 15)  # 6 tokens: padded to 15
        assert up.shape == (*batch, 15, 32)
        if batch:
            assert_stacked(down, [net._downsample(hb) for hb in h])
            assert_stacked(up, [net._upsample(db[:3], 15) for db in down])

    def test_decoder_runs_at_half_resolution(self, rng):
        net = make_network(NetworkType.TRANSFORMER_UNET, rng)
        _, tokens = block_tokens(net, rng.standard_normal((16, 32)), t=5)
        # First half of blocks see 16 tokens, second half 8.
        assert tokens == [16, 16, 8, 8]


class TestResBlockUNet:
    def test_requires_square_tokens(self, rng):
        with pytest.raises(ValueError, match="square"):
            make_network(NetworkType.RESBLOCK_UNET, rng, tokens=15)

    def test_forward_shape(self, rng):
        net = make_network(NetworkType.RESBLOCK_UNET, rng, tokens=16, depth=2)
        out, tokens = block_tokens(net, rng.standard_normal((16, 32)), t=5)
        assert out.shape == (16, 32)
        assert len(tokens) == 2

    def test_has_resblocks(self, rng):
        net = make_network(NetworkType.RESBLOCK_UNET, rng, tokens=16, depth=2)
        assert len(net.resblocks) == 2

    @pytest.mark.parametrize("name", RESBLOCK_MODELS)
    @pytest.mark.parametrize("tokens", (16, 8, 7))  # 8, 7: non-square crops
    @pytest.mark.parametrize("batch", (1, 3, 8))
    def test_resblock_stage_over_a_batch_matches_per_request(
        self, rng, name, tokens, batch
    ):
        net = build_model(name, total_iterations=2).network
        h = rng.standard_normal((batch, tokens, net.dim))
        t_embeds = rng.standard_normal((batch, TIMESTEP_DIM))
        for resblock in net.resblocks:
            stacked = net._apply_resblock(resblock, h, t_embeds)
            per_request = np.stack([
                net._apply_resblock(resblock, h[b], t_embeds[b])
                for b in range(batch)
            ])
            assert stacked.tobytes() == per_request.tobytes()



class TestWalk:
    @pytest.mark.parametrize("name", ALL_MODEL_ORDER)
    def test_blocks_run_in_the_published_stages(self, rng, name):
        """``walk`` calls every block once, in ``stages`` order, on its
        stage's token count: the structure the lowering prices."""
        net = build_model(name, total_iterations=2).network
        calls = []

        def block(index, h):
            calls.append((index, h.shape[-2]))
            return h

        net.walk(rng.standard_normal((net.tokens, net.dim)),
                 net._embed_timestep(3), block)
        assert calls == [(i, stage.tokens)
                         for stage in net.stages for i in stage.blocks]

    @pytest.mark.parametrize("network_type,depth", (
        (NetworkType.TRANSFORMER_ONLY, 4),
        (NetworkType.TRANSFORMER_UNET, 1),
        (NetworkType.TRANSFORMER_UNET, 3),
        (NetworkType.RESBLOCK_UNET, 1),
        (NetworkType.RESBLOCK_UNET, 3),
    ))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_walk_is_the_forward_for_any_batch(self, rng, network_type, depth,
                                              batch):
        """A plain block through ``walk`` is the oracle's forward, and a
        leading batch of three is its three solo forwards stacked."""
        net = make_network(network_type, rng, depth=depth)
        timesteps = (7, 70, 700)
        xs = rng.standard_normal((3, 16, 32))
        t_embeds = np.stack([net._embed_timestep(t) for t in timesteps])
        solo = [net(xb, t) for xb, t in zip(xs, timesteps)]

        def block(index, h):
            return net.blocks[index](h)

        if batch:
            assert_stacked(net.walk(xs, t_embeds, block), solo)
        else:
            out = net.walk(xs[0], t_embeds[0], block)
            assert out.tobytes() == solo[0].tobytes()
        if depth == 1:
            # One encoder stage, an empty decoder, and the skip across them.
            h = xs[0]
            if net.resblocks:
                h = net._apply_resblock(net.resblocks[0], h, t_embeds[0])
            h = block(0, h)
            h = net._upsample(net._downsample(h), 16) + h
            assert solo[0].tobytes() == net.out_proj(net.final_norm(h)).tobytes()
