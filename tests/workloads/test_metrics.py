"""Unit tests for evaluation metrics and proxies."""

import numpy as np
import pytest

from repro.workloads.metrics import (
    beat_alignment_proxy,
    cosine_similarity,
    fid_proxy,
    frechet_distance,
    inception_score_proxy,
    physical_foot_contact_proxy,
    psnr,
    r_precision_proxy,
    random_features,
)


class TestPSNR:
    def test_identical_is_infinite(self, rng):
        x = rng.standard_normal((4, 4))
        assert psnr(x, x) == float("inf")

    def test_decreases_with_noise(self, rng):
        x = rng.standard_normal((16, 16))
        small = psnr(x, x + 0.01 * rng.standard_normal((16, 16)))
        large = psnr(x, x + 0.5 * rng.standard_normal((16, 16)))
        assert small > large

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_peak_is_the_reference_range(self, rng):
        x = rng.standard_normal((8, 8))
        span = float(x.max() - x.min())
        assert psnr(x, x + 0.1) == pytest.approx(
            10.0 * np.log10(span**2 / 0.01))
        # A constant reference falls back to a unit range.
        assert psnr(np.ones(4), np.ones(4) + 0.1) == pytest.approx(20.0)


class TestCosine:
    def test_self_similarity_is_one(self, rng):
        x = rng.standard_normal(64)
        assert cosine_similarity(x, x) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]),
                                 np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_zero_vector_defined(self):
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0


class TestFrechet:
    def test_identical_distributions_zero(self):
        mu = np.zeros(4)
        sigma = np.eye(4)
        assert frechet_distance(mu, sigma, mu, sigma) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_mean_shift_increases_distance(self):
        sigma = np.eye(4)
        d = frechet_distance(np.zeros(4), sigma, np.full(4, 2.0), sigma)
        assert d == pytest.approx(16.0, rel=0.01)


class TestFIDProxy:
    def test_same_samples_near_zero(self, rng):
        samples = rng.standard_normal((32, 8, 8))
        assert fid_proxy(samples, samples) == pytest.approx(0.0, abs=1e-6)

    def test_perturbation_ordering(self, rng):
        ref = rng.standard_normal((64, 8, 8))
        near = ref + 0.05 * rng.standard_normal(ref.shape)
        far = ref + 2.0 * rng.standard_normal(ref.shape)
        assert fid_proxy(ref, near) < fid_proxy(ref, far)


class TestISProxy:
    def test_positive(self, rng):
        assert inception_score_proxy(rng.standard_normal((16, 8, 8))) > 0

    def test_diverse_beats_collapsed(self, rng):
        diverse = rng.standard_normal((64, 32)) * 10
        collapsed = np.tile(rng.standard_normal((1, 32)), (64, 1))
        assert inception_score_proxy(diverse) > inception_score_proxy(
            collapsed
        )


class TestRPrecisionProxy:
    def test_perfectly_aligned_retrieval(self, rng):
        cond = rng.standard_normal((16, 32))
        score = r_precision_proxy(cond.copy(), cond)
        assert score == 1.0

    def test_random_near_chance(self, rng):
        gen = rng.standard_normal((64, 32))
        cond = rng.standard_normal((64, 32))
        assert r_precision_proxy(gen, cond) < 0.3


class TestMotionProxies:
    def test_periodic_motion_high_beat_score(self):
        """Motion with energy bursts every 8 frames (dance hits on the
        beat) scores higher than unstructured noise."""
        motion = np.zeros((64, 3))
        motion[::8] = 5.0  # a jump every beat
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(motion.shape)
        assert beat_alignment_proxy(motion) > beat_alignment_proxy(noise)

    def test_constant_motion_zero(self):
        assert beat_alignment_proxy(np.zeros((32, 3))) == 0.0

    def test_pfc_smooth_beats_jerky(self, rng):
        smooth = np.cumsum(np.ones((32, 3)) * 0.1, axis=0)
        jerky = rng.standard_normal((32, 3)) * 5
        assert physical_foot_contact_proxy(smooth) < (
            physical_foot_contact_proxy(jerky)
        )

    def test_pfc_short_motion(self):
        assert physical_foot_contact_proxy(np.zeros((2, 3))) == 0.0

    def test_features_shape(self, rng):
        feats = random_features(rng.standard_normal((10, 4, 4)), dim_out=6)
        assert feats.shape == (10, 6)
