"""Unit tests for the diffusion networks (all three types)."""

import numpy as np
import pytest

from repro.models.network import (
    DiffusionNetwork,
    NetworkType,
    timestep_embedding,
)
from repro.models.transformer import Executors
from repro.models.zoo import build_model

RESBLOCK_MODELS = ("stable_diffusion", "make_an_audio", "videocrafter2")


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
        out, traces = net(rng.standard_normal((16, 32)), t=10)
        assert out.shape == (16, 32)
        assert len(traces) == 4

    def test_rejects_wrong_latent_shape(self, rng):
        net = make_network(NetworkType.TRANSFORMER_ONLY, rng)
        with pytest.raises(ValueError, match="latent shape"):
            net(np.zeros((8, 32)), t=0)

    def test_timestep_changes_output_with_adaln(self, rng):
        net = make_network(NetworkType.TRANSFORMER_ONLY, rng, use_adaln=True)
        x = rng.standard_normal((16, 32))
        out1, _ = net(x, t=10)
        out2, _ = net(x, t=900)
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
        out, traces = net(rng.standard_normal((16, 32)), t=5)
        assert out.shape == (16, 32)
        assert len(traces) == 4

    def test_odd_token_count(self, rng):
        net = make_network(NetworkType.TRANSFORMER_UNET, rng, tokens=15)
        out, _ = net(rng.standard_normal((15, 32)), t=5)
        assert out.shape == (15, 32)

    def test_decoder_runs_at_half_resolution(self, rng):
        net = make_network(NetworkType.TRANSFORMER_UNET, rng)
        _, traces = net(rng.standard_normal((16, 32)), t=5)
        # First half of blocks see 16 tokens, second half 8.
        assert traces[0].self_attention.scores.shape[-1] == 16
        assert traces[-1].self_attention.scores.shape[-1] == 8


class TestResBlockUNet:
    def test_requires_square_tokens(self, rng):
        with pytest.raises(ValueError, match="square"):
            make_network(NetworkType.RESBLOCK_UNET, rng, tokens=15)

    def test_forward_shape(self, rng):
        net = make_network(NetworkType.RESBLOCK_UNET, rng, tokens=16, depth=2)
        out, traces = net(rng.standard_normal((16, 32)), t=5)
        assert out.shape == (16, 32)
        assert len(traces) == 2

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
        t_embeds = rng.standard_normal((batch, net.timestep_dim))
        for resblock in net.resblocks:
            stacked = net._apply_resblock(resblock, h, t_embeds)
            per_request = np.stack([
                net._apply_resblock(resblock, h[b], t_embeds[b])
                for b in range(batch)
            ])
            assert stacked.tobytes() == per_request.tobytes()

