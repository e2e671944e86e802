"""Conditioning encoders standing in for CLIP / CLAP.

The paper runs a transformer conditioning network once per prompt to embed
text, sound or class labels, then feeds those embeddings to the denoising
network via cross-attention (Fig. 2). This module provides a deterministic
pure-numpy equivalent: a hash tokenizer plus a small transformer encoder.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.network import timestep_embedding
from repro.models.norm import LayerNorm
from repro.models.transformer import TransformerBlock


def hash_tokenize(prompt: str, vocab_size: int, max_tokens: int) -> np.ndarray:
    """Deterministically map a prompt to token ids via per-word hashing."""
    words = prompt.lower().split()
    ids = []
    for word in words[:max_tokens]:
        acc = 2166136261
        for ch in word.encode("utf-8"):
            acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
        ids.append(acc % vocab_size)
    if not ids:
        ids = [0]
    return np.asarray(ids, dtype=np.int64)


class ConditioningEncoder:
    """Small transformer encoder producing ``(max_tokens, dim)`` embeddings:
    two 4-head blocks over a 4096-word hash vocabulary."""

    max_tokens = 16
    vocab_size = 4096

    def __init__(self, dim: int, seed: int = 1234) -> None:
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.embedding = rng.normal(0.0, 0.02, size=(self.vocab_size, dim))
        self.blocks = [TransformerBlock(dim, 4, 4, rng) for _ in range(2)]
        self.final_norm = LayerNorm(dim)

    def encode_ids(self, ids: np.ndarray) -> np.ndarray:
        """Embed token ids, padded/truncated to ``max_tokens``."""
        ids = np.asarray(ids, dtype=np.int64) % self.vocab_size
        ids = ids[: self.max_tokens]
        h = self.embedding[ids]
        positions = np.stack(
            [timestep_embedding(i, self.dim) for i in range(len(ids))]
        )
        h = h + 0.1 * positions
        for block in self.blocks:
            h, _ = block(h)
        h = self.final_norm(h)
        if h.shape[0] < self.max_tokens:
            pad = np.zeros((self.max_tokens - h.shape[0], self.dim))
            h = np.concatenate([h, pad], axis=0)
        return h

    def encode(self, prompt: str) -> np.ndarray:
        """Embed a text prompt."""
        return self.encode_ids(hash_tokenize(prompt, self.vocab_size, self.max_tokens))

    def encode_class(self, label: int) -> np.ndarray:
        """Embed a class label (DiT-style class conditioning)."""
        return self.encode_ids(np.asarray([label]))


def make_conditioning(
    context_dim: Optional[int], seed: int = 1234
) -> Optional[ConditioningEncoder]:
    """Build an encoder when the model spec calls for cross-attention."""
    if context_dim is None:
        return None
    return ConditioningEncoder(context_dim, seed=seed)
