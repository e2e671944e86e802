"""Unit tests for the conditioning encoder."""

import gc
import weakref

import numpy as np
import pytest

from repro.models.conditioning import (
    ConditioningEncoder,
    hash_tokenize,
    make_conditioning,
)
from repro.models.zoo import build_model


class TestHashTokenize:
    def test_deterministic(self):
        a = hash_tokenize("a corgi surfing", 4096, 16)
        b = hash_tokenize("a corgi surfing", 4096, 16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_prompts_distinct_ids(self):
        a = hash_tokenize("red apple", 4096, 16)
        b = hash_tokenize("blue sky", 4096, 16)
        assert not np.array_equal(a, b)

    def test_empty_prompt_yields_token(self):
        assert len(hash_tokenize("", 4096, 16)) == 1

    def test_truncates_to_max_tokens(self):
        ids = hash_tokenize("a " * 40, 4096, 8)
        assert len(ids) == 8

    def test_ids_within_vocab(self):
        ids = hash_tokenize("some words here", 100, 16)
        assert np.all(ids < 100)


class TestConditioningEncoder:
    def test_output_shape_is_the_real_length(self):
        enc = ConditioningEncoder(dim=32)
        out = enc.encode("two words")
        assert out.shape == (2, 32)
        assert np.all(np.abs(out).sum(axis=1) > 0.0)

    def test_long_prompt_truncates_to_max_tokens(self):
        enc = ConditioningEncoder(dim=16)
        out = enc.encode(" ".join(f"word{i}" for i in range(40)))
        assert out.shape == (ConditioningEncoder.max_tokens, 16) == (16, 16)

    def test_empty_ids_raise(self):
        enc = ConditioningEncoder(dim=16)
        with pytest.raises(ValueError, match="ids"):
            enc.encode_ids([])
        with pytest.raises(ValueError, match="ids"):
            enc.encode_ids(np.zeros(0, dtype=np.int64))

    def test_deterministic(self):
        enc1 = ConditioningEncoder(dim=16, seed=5)
        enc2 = ConditioningEncoder(dim=16, seed=5)
        np.testing.assert_array_equal(
            enc1.encode("hello world"), enc2.encode("hello world")
        )

    def test_prompt_sensitivity(self):
        enc = ConditioningEncoder(dim=16)
        assert not np.allclose(enc.encode("a cat"), enc.encode("a dog"))

    def test_class_label_encoding(self):
        enc = ConditioningEncoder(dim=16)
        a = enc.encode_class(3)
        b = enc.encode_class(7)
        assert a.shape == b.shape == (1, 16)
        assert not np.allclose(a, b)

    def test_make_conditioning_none_passthrough(self):
        assert make_conditioning(None) is None
        assert make_conditioning(16) is not None


def _weights(encoder):
    """Every array a shared encoder owns, by name."""
    arrays = {"embedding": encoder.embedding}
    for i, block in enumerate(encoder.blocks):
        attn, ffn = block.self_attn, block.ffn
        for name, layer in (("wq", attn.wq), ("wk", attn.wk), ("wv", attn.wv),
                            ("wo", attn.wo), ("linear1", ffn.linear1),
                            ("linear2", ffn.linear2)):
            arrays[f"blocks[{i}].{name}"] = layer.weight
    return arrays


class TestSharedEncoder:
    """Conditioned models of one width and seed hold one read-only
    encoder, which lives while some model holds it."""

    def test_models_of_one_width_and_seed_share_one_encoder(self):
        first = build_model("stable_diffusion", depth=1).conditioning
        assert build_model("mld", depth=1).conditioning is first
        assert build_model("stable_diffusion", depth=1).conditioning is first
        assert make_conditioning(64, seed=1) is first

    @pytest.mark.parametrize("name", [
        "embedding", *(f"blocks[{i}].{w}" for i in range(2)
                       for w in ("wq", "wk", "wv", "wo", "linear1", "linear2"))
    ])
    def test_every_shared_array_refuses_writes(self, name):
        array = _weights(make_conditioning(64, seed=1))[name]
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        np.testing.assert_array_equal(array, before)
        # A directly built encoder is untouched: its arrays stay writable.
        _weights(ConditioningEncoder(64, seed=1))[name][0] = 0.0

    def test_distinct_seeds_get_distinct_encoders(self):
        one = build_model("stable_diffusion", seed=1, depth=1).conditioning
        two = build_model("stable_diffusion", seed=2, depth=1).conditioning
        assert one is not two
        assert one is build_model("mld", seed=1, depth=1).conditioning
        assert not np.array_equal(one.embedding, two.embedding)

    def test_the_encoder_dies_with_its_last_holder(self):
        models = [build_model(name, seed=4321, depth=1)
                  for name in ("stable_diffusion", "mld")]
        assert models[0].conditioning is models[1].conditioning
        ref = weakref.ref(models[0].conditioning)
        del models
        gc.collect()
        assert ref() is None

    def test_shared_contexts_equal_a_directly_built_encoder(self):
        shared = build_model("stable_diffusion", depth=1).conditioning
        assert build_model("mld", depth=1).conditioning is shared
        direct = ConditioningEncoder(64, seed=1)
        for encode in (lambda e: e.encode("a corgi surfing a wave"),
                       lambda e: e.encode_class(207)):
            assert encode(shared).tobytes() == encode(direct).tobytes()
