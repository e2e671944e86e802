"""Unit tests for the conditioning encoder."""

import numpy as np

from repro.models.conditioning import (
    ConditioningEncoder,
    hash_tokenize,
    make_conditioning,
)


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
    def test_output_shape_padded(self):
        enc = ConditioningEncoder(dim=32)
        out = enc.encode("two words")
        assert out.shape == (16, 32)
        np.testing.assert_array_equal(out[2:], 0.0)

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
        assert a.shape == (16, 16)
        assert not np.allclose(a, b)

    def test_make_conditioning_none_passthrough(self):
        assert make_conditioning(None) is None
        assert make_conditioning(16) is not None
