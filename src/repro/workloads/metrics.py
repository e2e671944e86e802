"""Evaluation metrics and dataset-metric proxies.

The paper reports FID, IS, R-Precision, FAD, Beat-Align, PFC, VQA and
PSNR-versus-vanilla per model (Table I). Real datasets and pretrained
feature extractors are unavailable offline, so this module provides:

- exact **PSNR vs vanilla** (identical to the paper's metric: both runs use
  the same seed, so divergence is purely the optimization error);
- **proxy metrics** that measure the same vanilla-vs-optimized divergence
  through the statistical lenses the original metrics use (Frechet distance
  for FID/FAD, retrieval precision for R-Precision, entropy for IS, beat
  correlation for Beat-Align). See DESIGN.md, substitutions table.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg


def psnr(reference: np.ndarray, test: np.ndarray) -> float:
    """Peak signal-to-noise ratio of ``test`` against ``reference`` in dB,
    over the reference's value range (1 for a constant reference)."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("psnr inputs must have identical shapes")
    mse = float(np.mean((reference - test) ** 2))
    if mse == 0.0:
        return float("inf")
    data_range = float(reference.max() - reference.min())
    if data_range == 0.0:
        data_range = 1.0
    return 10.0 * float(np.log10(data_range**2 / mse))


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two flattened tensors."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def _feature_projection(dim_in: int, dim_out: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim_in, dim_out)) / np.sqrt(dim_in)


def random_features(samples: np.ndarray, dim_out: int = 16, seed: int = 7) -> np.ndarray:
    """Random-projection + tanh feature extractor (stands in for Inception).

    ``samples`` is ``(n, ...)``; features are ``(n, dim_out)``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    flat = samples.reshape(samples.shape[0], -1)
    proj = _feature_projection(flat.shape[1], dim_out, seed)
    return np.tanh(flat @ proj)


def frechet_distance(
    mu1: np.ndarray, sigma1: np.ndarray, mu2: np.ndarray, sigma2: np.ndarray
) -> float:
    """Frechet distance between two Gaussians (the FID formula)."""
    diff = mu1 - mu2
    covmean = np.real(linalg.sqrtm(sigma1 @ sigma2))
    value = diff @ diff + np.trace(sigma1 + sigma2 - 2.0 * covmean)
    return float(max(value, 0.0))


def fid_proxy(reference: np.ndarray, generated: np.ndarray) -> float:
    """FID-style Frechet distance over random-projection features.

    Both inputs are ``(n, ...)`` stacks of samples.
    """
    ref_feat = random_features(reference)
    gen_feat = random_features(generated)
    mu1, mu2 = ref_feat.mean(axis=0), gen_feat.mean(axis=0)
    sigma1 = np.cov(ref_feat, rowvar=False) + 1e-6 * np.eye(16)
    sigma2 = np.cov(gen_feat, rowvar=False) + 1e-6 * np.eye(16)
    return frechet_distance(mu1, sigma1, mu2, sigma2)


def inception_score_proxy(generated: np.ndarray) -> float:
    """IS-style exp(mean KL(p(y|x) || p(y))) over a random 8-class head."""
    feats = random_features(generated, 8, seed=11)
    exps = np.exp(feats - feats.max(axis=1, keepdims=True))
    probs = exps / exps.sum(axis=1, keepdims=True)
    marginal = probs.mean(axis=0)
    kl = np.sum(probs * (np.log(probs + 1e-12) - np.log(marginal + 1e-12)), axis=1)
    return float(np.exp(kl.mean()))


def r_precision_proxy(
    generated: np.ndarray, condition_embeddings: np.ndarray
) -> float:
    """Retrieval precision: does sample i match its own condition embedding?

    Both inputs are ``(n, ...)``; a match is counted when the true condition
    ranks first by feature cosine similarity, mirroring the paper's
    text-motion R-Precision (top-1) protocol.
    """
    gen_feat = random_features(generated, 16, seed=13)
    cond_feat = random_features(condition_embeddings, 16, seed=13)
    n = gen_feat.shape[0]
    sims = gen_feat @ cond_feat.T
    hits = 0
    for i in range(n):
        if np.argsort(-sims[i])[0] == i:
            hits += 1
    return hits / n


def beat_alignment_proxy(motion: np.ndarray) -> float:
    """Beat-Align-style score: energy autocorrelation at the beat period.

    ``motion`` is ``(frames, channels)``; the score is the normalized
    autocorrelation of frame-wise motion energy at an 8-frame period.
    """
    motion = np.asarray(motion, dtype=np.float64)
    energy = np.linalg.norm(np.diff(motion, axis=0), axis=1)
    if energy.size <= 8 or float(energy.std()) == 0.0:
        return 0.0
    centered = energy - energy.mean()
    ac = float(centered[:-8] @ centered[8:]) / (float(centered @ centered) + 1e-12)
    return 0.5 * (1.0 + ac)


def physical_foot_contact_proxy(motion: np.ndarray) -> float:
    """PFC-style score: mean squared acceleration (lower is smoother)."""
    motion = np.asarray(motion, dtype=np.float64)
    if motion.shape[0] < 3:
        return 0.0
    accel = np.diff(motion, n=2, axis=0)
    return float(np.mean(accel**2))
