"""Unit tests for sparsity profiles."""

import pytest

from repro.core.sparsity import RunStats
from repro.hw.constants import HARDWARE
from repro.hw.profile import (
    SparsityProfile,
    estimate_profile,
    one_hot_rate_from_spec,
    profile_from_stats,
)
from repro.workloads.specs import get_spec


class TestOneHotRate:
    def test_consistent_decomposition(self):
        """one_hot + (1-one_hot)(1-k) must reproduce the target sparsity."""
        for name in ("mld", "dit", "edge"):
            spec = get_spec(name)
            rate = one_hot_rate_from_spec(spec)
            implied = rate + (1 - rate) * (1 - spec.top_k_ratio)
            assert implied >= spec.target_intra_sparsity - 0.01

    def test_bounded(self):
        for name in ("mld", "mdm", "stable_diffusion"):
            assert 0.0 <= one_hot_rate_from_spec(get_spec(name)) <= 1.0


class TestEstimateProfile:
    def test_fields_in_range(self):
        profile = estimate_profile(get_spec("stable_diffusion"), HARDWARE, seed=0)
        assert 0.0 < profile.ffn_remaining_ratio <= 1.0
        assert profile.ffn_remaining_ratio <= profile.ffn_condense_ratio
        assert 0.0 < profile.ffn_utilization <= 1.0

    def test_merging_improves_on_condensing(self):
        profile = estimate_profile(get_spec("stable_diffusion"), HARDWARE, seed=0)
        assert profile.ffn_remaining_ratio < profile.ffn_condense_ratio

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparsityProfile(
                name="x", dense_period=2,
                ffn_sparsity=1.5, ffn_condense_ratio=0.5,
                ffn_remaining_ratio=0.5, ffn_utilization=0.5,
                attn_sparsity=0.5, attn_condense_ratio=0.5,
                attn_remaining_ratio=0.5, attn_utilization=0.5,
                q_skip=0.2, kv_skip=0.2,
            )

    def test_deterministic_given_seed(self):
        a = estimate_profile(get_spec("dit"), HARDWARE, seed=3)
        b = estimate_profile(get_spec("dit"), HARDWARE, seed=3)
        assert a == b


class TestProfileFromStats:
    def test_measured_sparsities_override(self):
        stats = RunStats()
        stats.ffn_sparsities.append(0.77)
        stats.attention_sparsities.append(0.33)
        stats.q_projection.add(100, 80)
        stats.kv_projection.add(100, 90)
        profile = profile_from_stats(get_spec("dit"), stats, HARDWARE)
        assert profile.ffn_sparsity == pytest.approx(0.77)
        assert profile.attn_sparsity == pytest.approx(0.33)
        assert profile.q_skip == pytest.approx(0.2)
        assert profile.kv_skip == pytest.approx(0.1)

    def test_empty_stats_fall_back_to_spec(self):
        profile = profile_from_stats(get_spec("dit"), RunStats(), HARDWARE)
        assert profile.ffn_sparsity == get_spec("dit").target_inter_sparsity
        assert profile.attn_sparsity == get_spec("dit").target_intra_sparsity
        assert profile.q_skip == HARDWARE.q_skip
        assert profile.kv_skip == HARDWARE.kv_skip

    def test_measured_zero_stays_zero(self):
        """A run that recorded its ops and skipped nothing reports 0, not
        the paper's averages or the spec's targets."""
        stats = RunStats()
        stats.ffn_sparsities.append(0.0)
        stats.attention_sparsities.append(0.0)
        stats.q_projection.add(100, 100)
        stats.kv_projection.add(100, 100)
        profile = profile_from_stats(get_spec("dit"), stats, HARDWARE)
        assert profile.ffn_sparsity == 0.0
        assert profile.attn_sparsity == 0.0
        assert profile.q_skip == 0.0
        assert profile.kv_skip == 0.0
