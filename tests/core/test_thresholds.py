"""Unit tests for threshold determination."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.thresholds import (
    ThresholdCalibrator,
    ThresholdTable,
    quantile_threshold,
    quantile_thresholds,
)
from repro.models.zoo import build_model
from repro.workloads.specs import MODEL_SPECS


class TestQuantileThreshold:
    def test_hits_target_sparsity(self, rng):
        values = rng.standard_normal(10000)
        th = quantile_threshold(values, 0.9)
        assert np.mean(np.abs(values) <= th) == pytest.approx(0.9, abs=0.01)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            quantile_threshold(np.ones(4), -0.1)


# tokens x hidden of every zoo FFN, full and downsampled, plus the two
# smallest rows there are.
ZOO_ROW_SIZES = (1, 2, 512, 1024, 2048, 4096, 5120, 6144)
SPEC_TARGETS = tuple(sorted(
    {spec.target_inter_sparsity for spec in MODEL_SPECS.values()}
))
TARGETS = st.one_of(
    st.sampled_from((0.0, *SPEC_TARGETS, 1.0 - 1e-12)),
    st.floats(0.0, 1.0, exclude_max=True),
)
FLAVOURS = ("normal", "ties", "constant_rows", "exact_zeros", "subnormal",
            "signed_zeros")


def _draw(rows, n, flavour, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows, n))
    if flavour == "ties":
        values = np.round(values, 1)
    elif flavour == "constant_rows":
        values = np.repeat(values[:, :1], n, axis=1)
    elif flavour == "exact_zeros":
        values[rng.random((rows, n)) < 0.3] = 0.0
    elif flavour == "subnormal":
        values = np.round(values * 8) * 5e-324
    elif flavour == "signed_zeros":
        values = np.where(rng.random((rows, n)) < 0.6,
                          np.copysign(0.0, values), values)
    return values


def _same_bits(got, want):
    """Bitwise equal; a NaN stands for any NaN (``np.quantile`` hands back
    one of the input's, arithmetic makes its own)."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.array_equal(np.isnan(got), nan)
        and got[~nan].tobytes() == want[~nan].tobytes()
    )


class TestSelectionEqualsNpQuantile:
    """``np.quantile`` is the definition; the helpers find the same order
    statistics by one ``partition`` and must return the same bits."""

    @given(
        rows=st.integers(1, 8),
        n=st.one_of(st.sampled_from(ZOO_ROW_SIZES), st.integers(1, 6200)),
        q=TARGETS,
        flavour=st.sampled_from(FLAVOURS),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_for_bit(self, rows, n, q, flavour, seed):
        values = _draw(rows, n, flavour, seed)
        want = np.quantile(np.abs(values), q, axis=1)
        got = quantile_thresholds(values, q)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        # Per-request independence, which the serve parity rests on: row
        # i of a batch resolves to what request i resolves to alone.
        for i in range(rows):
            alone = quantile_threshold(values[i], q)
            assert type(alone) is float
            assert alone == float(np.quantile(np.abs(values[i]), q))
            assert np.float64(alone).tobytes() == got[i].tobytes()

    @given(
        rows=st.integers(1, 4),
        n=st.integers(1, 300),
        q=TARGETS,
        planted=st.sampled_from(("nan", "inf", "-inf", "nan+inf", "all_inf")),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=200, deadline=None)
    def test_non_finite_rows(self, rows, n, q, planted, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((rows, n))
        if planted == "all_inf":
            values[0] = np.inf
        else:
            for token in planted.split("+"):
                values[rng.random((rows, n)) < 0.1] = float(token)
            values[0, rng.integers(n)] = float(planted.split("+")[0])
        # inf - inf in the interpolation, in np.quantile as here.
        with np.errstate(invalid="ignore"):
            want = np.quantile(np.abs(values), q, axis=1)
            got = quantile_thresholds(values, q)
            assert _same_bits(got, want)
            for i in range(rows):
                assert _same_bits(quantile_threshold(values[i], q), want[i])

    def test_one_request_takes_any_shape(self, rng):
        hidden = rng.standard_normal((16, 256))
        want = float(np.quantile(np.abs(hidden), 0.8))
        assert quantile_threshold(hidden, 0.8) == want
        assert quantile_threshold(hidden.T, 0.8) == want
        assert quantile_threshold(hidden.ravel().tolist(), 0.8) == want

    @pytest.mark.parametrize("kind", ("c_contiguous", "sliced", "float32"))
    def test_the_argument_is_not_written(self, kind, rng):
        # The selection partitions in place; the dense compile reads the
        # hidden state again after the call (bitmask, partial sums), so it
        # must run on the helper's own copy whatever the argument's layout
        # or dtype.
        base = rng.standard_normal((6, 700))
        if kind == "float32":
            base = base.astype(np.float32)
        values = base[::2, 5::3] if kind == "sliced" else base
        assert values.flags["C_CONTIGUOUS"] == (kind != "sliced")
        before = hashlib.sha256(base.tobytes()).hexdigest()
        rows = quantile_thresholds(values, 0.8)
        one = quantile_threshold(values[1], 0.8)
        assert hashlib.sha256(base.tobytes()).hexdigest() == before
        assert rows.tobytes() == np.quantile(
            np.abs(values.astype(np.float64)), 0.8, axis=1
        ).tobytes()
        assert one == rows[1]

    @pytest.mark.parametrize("target", (1.0, -0.1, 1.5, float("nan")))
    def test_both_entry_points_reject_a_target_outside_0_1(self, target):
        with pytest.raises(ValueError, match="target_sparsity"):
            quantile_threshold(np.ones(4), target)
        with pytest.raises(ValueError, match="target_sparsity"):
            quantile_thresholds(np.ones((2, 4)), target)

    def test_an_empty_row_is_a_value_error_naming_values(self):
        with pytest.raises(ValueError, match="values"):
            quantile_thresholds(np.empty((3, 0)), 0.5)
        with pytest.raises(ValueError, match="values"):
            quantile_threshold(np.array([]), 0.5)


class TestThresholdTable:
    def test_set_get_exact(self):
        table = ThresholdTable(target_sparsity=0.9)
        table.set(0, 1, 0.5)
        assert table.get(0, 1) == 0.5

    def test_falls_back_to_earlier_dense_index(self):
        table = ThresholdTable(target_sparsity=0.9)
        table.set(0, 1, 0.5)
        table.set(2, 1, 0.7)
        assert table.get(1, 1) == 0.5
        assert table.get(5, 1) == 0.7

    def test_missing_block_returns_none(self):
        table = ThresholdTable(target_sparsity=0.9)
        table.set(0, 1, 0.5)
        assert table.get(0, 2) is None

    def test_len(self):
        table = ThresholdTable(target_sparsity=0.9)
        table.set(0, 0, 0.1)
        table.set(0, 1, 0.2)
        assert len(table) == 2


class TestCalibrator:
    def test_builds_table_for_every_dense_iteration_and_block(self):
        model = build_model("dit", seed=0, total_iterations=6)
        calib = ThresholdCalibrator(target_sparsity=0.8, dense_period=3)
        table = calib.calibrate(model, seed=1)
        # 6 iterations, period 3 -> dense at 0 and 3 -> 2 dense indices.
        assert len(table) == 2 * model.network.depth

    def test_thresholds_positive(self):
        model = build_model("dit", seed=0, total_iterations=3)
        table = ThresholdCalibrator(0.8, 3).calibrate(model, seed=1)
        assert all(v > 0 for v in table.values.values())

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(0.8, 0)

    def test_table_is_quantiles_of_the_hidden_states(self):
        """One entry per dense iteration and block: the magnitude quantile
        of that iteration's FFN non-linearity output."""
        model = build_model("dit", seed=0, total_iterations=6)
        table = ThresholdCalibrator(0.8, 3).calibrate(model, seed=1, prompt="calibrate")
        states = model.make_pipeline().ffn_hidden_states(seed=1, prompt="calibrate")
        assert table.values == {
            (iteration // 3, block): float(np.quantile(np.abs(hidden), 0.8))
            for iteration, row in enumerate(states) if iteration % 3 == 0
            for block, hidden in enumerate(row)
        }
