"""Unit tests for the benchmark model zoo."""

import numpy as np
import pytest

from repro.models.network import NetworkType
from repro.models.zoo import BENCHMARK_MODELS, build_model
from repro.workloads.specs import ALL_MODEL_ORDER, BENCHMARK_ORDER, get_spec


class TestBuildModel:
    def test_all_seven_models_build(self):
        for name in BENCHMARK_ORDER:
            model = build_model(name, seed=0, total_iterations=2)
            assert model.name == name

    def test_unknown_model_raises_with_known_list(self):
        with pytest.raises(KeyError, match="known models"):
            build_model("sora")

    def test_network_type_matches_spec(self):
        assert (
            build_model("mld").network.network_type
            is NetworkType.TRANSFORMER_UNET
        )
        assert (
            build_model("stable_diffusion").network.network_type
            is NetworkType.RESBLOCK_UNET
        )
        assert (
            build_model("dit").network.network_type
            is NetworkType.TRANSFORMER_ONLY
        )

    def test_conditioning_presence_matches_spec(self):
        assert build_model("dit").conditioning is None
        assert build_model("stable_diffusion").conditioning is not None

    def test_overrides(self):
        model = build_model("dit", total_iterations=5, depth=2)
        assert model.spec.total_iterations == 5
        assert model.network.depth == 2

    @pytest.mark.parametrize("arg", ("total_iterations", "depth"))
    def test_rejects_an_empty_override_naming_it(self, arg):
        with pytest.raises(ValueError, match=f"{arg} must be >= 1, got 0"):
            build_model("dit", **{arg: 0})

    def test_deterministic_weights(self):
        a = build_model("mdm", seed=9)
        b = build_model("mdm", seed=9)
        np.testing.assert_array_equal(
            a.network.blocks[0].ffn.linear1.weight,
            b.network.blocks[0].ffn.linear1.weight,
        )

    def test_seed_changes_weights(self):
        a = build_model("mdm", seed=1)
        b = build_model("mdm", seed=2)
        assert not np.allclose(
            a.network.blocks[0].ffn.linear1.weight,
            b.network.blocks[0].ffn.linear1.weight,
        )

    def test_geglu_for_stable_diffusion(self):
        model = build_model("stable_diffusion")
        assert model.network.blocks[0].ffn.activation == "geglu"

    def test_benchmark_models_constant(self):
        assert tuple(BENCHMARK_MODELS) == BENCHMARK_ORDER


@pytest.mark.parametrize("name", ALL_MODEL_ORDER)
class TestEveryModel:
    def test_network_matches_spec(self, name):
        spec = get_spec(name)
        model = build_model(name, seed=0, total_iterations=2, depth=2)
        network = model.network
        assert network.network_type is NetworkType(spec.network_type)
        assert (network.tokens, network.dim) == (spec.tokens, spec.dim)
        assert network.num_transformer_blocks == 2
        for block in network.blocks:
            assert block.ffn.activation == spec.activation
            assert block.ffn.hidden_dim == spec.dim * spec.ffn_mult
        has_resblocks = spec.network_type == NetworkType.RESBLOCK_UNET.value
        assert bool(network.resblocks) == has_resblocks
        assert (model.conditioning is None) == (spec.context_dim is None)

    def test_one_call_predicts_a_finite_latent(self, name):
        model = build_model(name, seed=0, total_iterations=2, depth=2)
        network = model.network
        x = np.random.default_rng(0).standard_normal(
            (network.tokens, network.dim)
        )
        context = (
            model.conditioning.encode("a test prompt")
            if model.conditioning is not None else None
        )
        blocks = []
        out = network(x, t=500, context=context,
                      executors=lambda i: blocks.append(i))
        assert out.shape == x.shape
        assert np.all(np.isfinite(out))
        assert blocks == list(range(network.num_transformer_blocks))


class TestSpecs:
    def test_get_spec_roundtrip(self):
        for name in BENCHMARK_ORDER:
            assert get_spec(name).name == name

    def test_dense_period(self):
        assert get_spec("dit").dense_period == 3  # N=2 sparse + 1 dense

    def test_table1_configs(self):
        """Spot-check Table I values."""
        dit = get_spec("dit")
        assert dit.total_iterations == 100
        assert dit.sparse_iters_n == 2
        assert dit.target_inter_sparsity == 0.80
        assert dit.q_threshold == 0.15
        assert dit.top_k_ratio == 0.05
        mld = get_spec("mld")
        assert mld.sparse_iters_n == 9
        assert mld.target_inter_sparsity == 0.95

    def test_resblock_flags(self):
        resblock = NetworkType.RESBLOCK_UNET.value  # paper Fig. 3 type 2
        assert get_spec("stable_diffusion").network_type == resblock
        assert get_spec("videocrafter2").network_type == resblock
        assert get_spec("dit").network_type != resblock
