"""Unit + property tests for log-domain arithmetic (LOD / TS-LOD)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExionConfig
from repro.core.eager_prediction import _prepare_per_request
from repro.core.logdomain import (
    approximate,
    approximation_table,
    leading_one_position,
    lod_approximate,
    log_domain_matmul,
    prepare_log_operand,
    quantize_symmetric,
    quantize_symmetric_batched,
    ts_lod_approximate,
)

MODES = ("lod", "ts_lod", "exact")


class TestQuantize:
    def test_roundtrip_small_error(self, rng):
        x = rng.standard_normal((8, 8))
        ints, scale = quantize_symmetric(x, 12)
        assert np.max(np.abs(ints.astype(float) * scale - x)) < scale

    def test_zero_input(self):
        ints, scale = quantize_symmetric(np.zeros((2, 2)), 12)
        assert scale == 1.0
        assert np.all(ints == 0)

    def test_range_respected(self, rng):
        ints, _ = quantize_symmetric(rng.standard_normal((50,)), 8)
        assert np.max(np.abs(ints)) <= 127

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_operand_fails_by_name(self, bad):
        """A NaN/inf activation used to quantize to undefined integers
        and a silently wrong prediction."""
        x = np.ones((2, 3, 4))
        x[1, 2, 3] = bad
        for call in (
            lambda: quantize_symmetric(x, 12),
            lambda: quantize_symmetric_batched(x, 12),
            lambda: prepare_log_operand(x[1]),
            lambda: _prepare_per_request(x, "ts_lod", 12),
            lambda: log_domain_matmul(np.ones((2, 4)), x[1].T),
        ):
            with pytest.raises(ValueError, match="non-finite operand"):
                call()

    @pytest.mark.parametrize("bits", [2, 8, 12, 32])
    def test_in_place_rounding_is_the_clip_round_formula(self, rng, bits):
        """Both quantizers round and clip in place; the bytes are the
        ``np.clip(np.round(x / scale), -qmax, qmax)`` they replaced, ties
        to even and the clipped extremes included."""
        qmax = (1 << (bits - 1)) - 1
        halves = np.round(rng.standard_normal((3, 5, 7)) * 2 * qmax) / 2
        halves[0, 0, :2] = (-qmax * 1.0, qmax * 1.0)
        for x in (rng.standard_normal((3, 5, 7)), halves, halves[:, ::-1],
                  np.array(2.5)):
            ints, scale = quantize_symmetric(x, bits)
            want = np.clip(np.round(x / scale), -qmax, qmax).astype(np.int64)
            assert ints.dtype == want.dtype and ints.shape == x.shape
            assert ints.tobytes() == want.tobytes()
            if x.ndim < 2:
                continue
            ints, scales = quantize_symmetric_batched(x, bits)
            for b in range(x.shape[0]):
                alone, scale = quantize_symmetric(x[b], bits)
                assert ints[b].tobytes() == alone.tobytes()
                assert scales[b] == scale

    def test_wide_quantization_still_allowed(self):
        """Only the table is capped at 16 bits; hw.epre and the fake
        quantizer keep the [2, 32] range."""
        ints, _ = quantize_symmetric(np.array([-1.0, 0.5, 1.0]), 32)
        np.testing.assert_array_equal(ints, [-(2**31 - 1), 2**30, 2**31 - 1])


class TestLeadingOne:
    def test_paper_example(self):
        """Fig. 5 (a): 2 -> position 1, 3 -> position 1, 5 -> position 2."""
        np.testing.assert_array_equal(
            leading_one_position(np.array([2, 3, 5])), [1, 1, 2]
        )

    def test_zero_is_minus_one(self):
        assert leading_one_position(np.array([0]))[0] == -1

    def test_negative_uses_magnitude(self):
        assert leading_one_position(np.array([-8]))[0] == 3

    @given(st.integers(1, 2**40))
    @settings(max_examples=100, deadline=None)
    def test_matches_bit_length(self, value):
        assert leading_one_position(np.array([value]))[0] == value.bit_length() - 1

    def test_exact_around_every_power_of_two(self):
        """Integer route: the float ``log2`` one rounds ``2**p - 1`` up
        from ``p = 49``."""
        values = [0] + [
            sign * ((1 << p) + d)
            for p in range(1, 53) for d in (-1, 0, 1) for sign in (1, -1)
        ]
        got = leading_one_position(np.array(values, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [abs(v).bit_length() - 1 for v in values]


class TestLOD:
    def test_paper_example(self):
        """Fig. 5 (a): 3 -> 2, 5 -> 4 (one-bit approximation)."""
        np.testing.assert_array_equal(lod_approximate(np.array([3, 5])), [2, 4])

    def test_sign_preserved(self):
        np.testing.assert_array_equal(lod_approximate(np.array([-5])), [-4])

    def test_powers_of_two_exact(self):
        x = np.array([1, 2, 4, 8, 1024])
        np.testing.assert_array_equal(lod_approximate(x), x)

    @given(st.integers(-(2**30), 2**30))
    @settings(max_examples=100, deadline=None)
    def test_error_under_half(self, value):
        approx = int(lod_approximate(np.array([value]))[0])
        assert abs(approx - value) <= abs(value) / 2 + 1e-9


class TestTSLOD:
    def test_paper_example(self):
        """Fig. 15: 3 -> 3 exact, 5 -> 5 exact, 13 -> 12 with two bits."""
        np.testing.assert_array_equal(
            ts_lod_approximate(np.array([3, 5, 13])), [3, 5, 12]
        )

    def test_two_bit_values_exact(self):
        x = np.array([3, 5, 6, 9, 10, 12, 96])
        np.testing.assert_array_equal(ts_lod_approximate(x), x)

    @given(st.integers(-(2**30), 2**30))
    @settings(max_examples=100, deadline=None)
    def test_strictly_better_than_lod(self, value):
        x = np.array([value])
        lod_err = abs(int(lod_approximate(x)[0]) - value)
        ts_err = abs(int(ts_lod_approximate(x)[0]) - value)
        assert ts_err <= lod_err

    @given(st.integers(-(2**30), 2**30))
    @settings(max_examples=100, deadline=None)
    def test_error_under_quarter(self, value):
        approx = int(ts_lod_approximate(np.array([value]))[0])
        assert abs(approx - value) <= abs(value) / 4 + 1e-9

    def test_exact_mode_is_identity(self):
        x = np.array([17, -23])
        np.testing.assert_array_equal(approximate(x, "exact"), x)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            approximate(np.array([1]), "triple")


class TestApproximationTable:
    """The table is the memo of ``approximate``; the operand paths that
    read it are byte-equal to the formula they replaced."""

    @pytest.mark.parametrize("mode", MODES)
    def test_exhaustive_against_approximate(self, mode):
        for bits in range(2, 17):
            qmax = (1 << (bits - 1)) - 1
            table = approximation_table(mode, bits)
            assert table.dtype == np.float64 and table.shape == (2 * qmax + 1,)
            ints = np.arange(-qmax, qmax + 1)
            np.testing.assert_array_equal(table, approximate(ints, mode))

    def test_built_once_and_read_only(self):
        table = approximation_table("ts_lod", 12)
        assert approximation_table("ts_lod", 12) is table
        with pytest.raises(ValueError):
            table[0] = 1.0

    @pytest.mark.parametrize("bits", [1, 17, 32])
    def test_rejects_bits_with_the_config_message(self, bits):
        with pytest.raises(ValueError) as config_error:
            ExionConfig(prediction_bits=bits)
        with pytest.raises(ValueError) as table_error:
            approximation_table("ts_lod", bits)
        assert str(table_error.value) == str(config_error.value)
        with pytest.raises(ValueError, match="prediction_bits"):
            prepare_log_operand(np.ones((2, 2)), "ts_lod", bits)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown log-domain mode"):
            approximation_table("triple", 12)

    @staticmethod
    def _operands(rng):
        peaked = rng.standard_normal((16, 64))
        peaked[3, 5] = -np.abs(peaked).max() * 4  # one element at -max
        return {
            "random": rng.standard_normal((16, 64)) * 3.0,
            "zeros": np.zeros((4, 8)),
            "single": np.array([[-2.5]]),
            "plus_minus_max": np.array([[1.0, -1.0, 0.25], [0.0, 1.0, -1.0]]),
            "peaked": peaked,
        }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bits", [2, 8, 12, 16])
    def test_prepare_log_operand_is_the_old_formula(self, rng, mode, bits):
        for name, x in self._operands(rng).items():
            ints, scale = quantize_symmetric(x, bits)
            expected = approximate(ints, mode).astype(np.float64)
            got = prepare_log_operand(x, mode, bits)
            assert got.approx.tobytes() == expected.tobytes(), name
            assert got.approx.shape == x.shape and got.scale == scale

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bits", [2, 12, 16])
    def test_batched_prepare_is_the_old_formula(self, rng, mode, bits):
        operands = self._operands(rng)
        stacks = [np.stack([operands["random"], operands["peaked"],
                            np.zeros((16, 64))])]
        stacks += [x[None] for x in operands.values()]
        for x in stacks:
            ints, scales = quantize_symmetric_batched(x, bits)
            expected = approximate(ints, mode).astype(np.float64)
            approx, got_scales = _prepare_per_request(x, mode, bits)
            assert approx.tobytes() == expected.tobytes()
            np.testing.assert_array_equal(got_scales, scales)
            for b in range(x.shape[0]):  # per request = the 2-D path alone
                alone = prepare_log_operand(x[b], mode, bits)
                assert approx[b].tobytes() == alone.approx.tobytes()


class TestLogDomainMatmul:
    def test_exact_mode_close_to_float(self, rng):
        a = rng.standard_normal((6, 8))
        b = rng.standard_normal((8, 4))
        out = log_domain_matmul(a, b, mode="exact", bits=14)
        np.testing.assert_allclose(out, a @ b, atol=0.05)

    def test_ts_lod_more_accurate_than_lod(self, rng):
        a = rng.standard_normal((16, 32))
        b = rng.standard_normal((32, 16))
        exact = a @ b
        err_lod = np.abs(log_domain_matmul(a, b, "lod") - exact).mean()
        err_ts = np.abs(log_domain_matmul(a, b, "ts_lod") - exact).mean()
        assert err_ts < err_lod

    def test_preserves_ranking_mostly(self, rng):
        """Predicted scores must preserve the argmax most of the time —
        the property EP's top-k selection relies on."""
        a = rng.standard_normal((32, 16))
        b = rng.standard_normal((16, 32))
        exact = a @ b
        pred = log_domain_matmul(a, b, "ts_lod")
        agreement = np.mean(exact.argmax(axis=1) == pred.argmax(axis=1))
        assert agreement > 0.8
