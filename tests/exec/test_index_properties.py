"""Property-based tests for the index sets the compiled executors use.

The compiled executor never re-tests a bitmask at step time — it runs on
flat gather-index sets produced once per phase by
:func:`repro.core.ffn_reuse.ffn_dense_compile` (and its batch-axis twin
:func:`repro.exec.batched.ffn_dense_compile_batched`). If one of these
drops, duplicates or reorders an index, the sparse step silently
recomputes the wrong elements, so the laws are pinned here over random
layers and thresholds plus the degenerate corners (empty and full masks).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExionConfig
from repro.core.ffn_reuse import ffn_dense_compile, ffn_sparse_step
from repro.exec.batched import ffn_dense_compile_batched
from repro.models.ffn import FeedForward

ACTIVATIONS = ("gelu", "geglu")


@st.composite
def phases(draw, max_tokens=12, max_hidden=24):
    """A random FFN layer, input and fixed threshold."""
    activation = draw(st.sampled_from(ACTIVATIONS))
    tokens = draw(st.integers(1, max_tokens))
    dim = draw(st.integers(1, 8))
    hidden = draw(st.integers(1, max_hidden))
    threshold = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layer = FeedForward(dim, hidden, rng, activation=activation)
    x = rng.standard_normal((tokens, dim))
    return layer, x, threshold


def _compile(layer, x, threshold):
    return ffn_dense_compile(layer, x, lambda hidden: threshold)


class TestPhaseGatherIndices:
    @given(phases())
    @settings(max_examples=80, deadline=None)
    def test_gather_is_the_mask(self, phase):
        layer, x, threshold = phase
        _, state = _compile(layer, x, threshold)
        indices = state.gather_indices
        assert indices.dtype == np.int64
        assert np.all(np.diff(indices) > 0)  # ascending, no duplicates
        assert indices.size == state.nnz == int(state.mask.sum())
        back = np.zeros(state.mask.size, dtype=bool)
        back[indices] = True
        assert np.array_equal(back.reshape(state.mask.shape), state.mask)
        assert state.sparsity == 1.0 - state.nnz / state.mask.size

    @given(phases())
    @settings(max_examples=60, deadline=None)
    def test_mask_is_the_threshold_test(self, phase):
        layer, x, threshold = phase
        _, state = _compile(layer, x, threshold)
        assert state.threshold == threshold
        assert np.array_equal(state.mask,
                              np.abs(state.hidden_dense) > threshold)

    @given(phases())
    @settings(max_examples=60, deadline=None)
    def test_geglu_indices_address_value_and_gate(self, phase):
        layer, x, threshold = phase
        _, state = _compile(layer, x, threshold)
        if layer.activation != "geglu":
            assert state.value_indices is None
            assert state.gate_indices is None
            return
        pre = layer.linear1(x)
        value, gate = np.split(pre, 2, axis=-1)
        flat = pre.ravel()
        assert np.array_equal(flat[state.value_indices], value[state.mask])
        assert np.array_equal(flat[state.gate_indices], gate[state.mask])

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("tokens,hidden", ((1, 1), (1, 7), (16, 16), (3, 5)))
    def test_empty_and_full_masks(self, activation, tokens, hidden):
        rng = np.random.default_rng(tokens * 100 + hidden)
        layer = FeedForward(4, hidden, rng, activation=activation)
        x = rng.standard_normal((tokens, 4))

        out, empty = _compile(layer, x, np.inf)
        assert empty.gather_indices.size == 0
        assert empty.nnz == 0 and empty.sparsity == 1.0
        # Nothing recomputed: the reused partial sums are the whole output.
        np.testing.assert_allclose(empty.partial_sums, out,
                                   rtol=1e-12, atol=1e-12)

        _, full = _compile(layer, x, -1.0)
        assert np.array_equal(full.gather_indices,
                              np.arange(tokens * hidden))
        assert full.nnz == tokens * hidden and full.sparsity == 0.0
        # Everything recomputed: only the second linear's bias is reused.
        np.testing.assert_array_equal(
            full.partial_sums,
            np.broadcast_to(layer.linear2.bias, (tokens, layer.dim)),
        )


class TestSparseStep:
    @given(phases())
    @settings(max_examples=60, deadline=None)
    def test_same_input_reproduces_dense_output(self, phase):
        """Replaying the phase on the dense iteration's own input
        recomputes the masked elements to the values they already had."""
        layer, x, threshold = phase
        out, state = _compile(layer, x, threshold)
        step = ffn_sparse_step(layer, x, state)
        np.testing.assert_allclose(step, out, rtol=1e-9, atol=1e-9)

    @given(phases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_recomputes_exactly_the_gathered_elements(self, phase, seed):
        layer, x, threshold = phase
        _, state = _compile(layer, x, threshold)
        x_new = np.random.default_rng(seed).standard_normal(x.shape)
        step = ffn_sparse_step(layer, x_new, state)
        fresh = layer.nonlinear(layer.linear1(x_new))
        hidden = np.where(state.mask, fresh, state.hidden_dense)
        np.testing.assert_allclose(step, layer.linear2(hidden),
                                   rtol=1e-9, atol=1e-9)

    @given(phases())
    @settings(max_examples=20, deadline=None)
    def test_repeated_steps_leave_the_phase_state_intact(self, phase):
        """The scatter lands in a copy: replaying one phase twice gives
        the same bytes and leaves the dense hidden state untouched."""
        layer, x, threshold = phase
        _, state = _compile(layer, x, threshold)
        hidden_dense = state.hidden_dense.copy()
        first = ffn_sparse_step(layer, 2.0 * x, state)
        second = ffn_sparse_step(layer, 2.0 * x, state)
        assert first.tobytes() == second.tobytes()
        assert state.hidden_dense.tobytes() == hidden_dense.tobytes()


class TestBatchedGatherIndices:
    @given(phases(max_tokens=6, max_hidden=10), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_batch_gather_is_the_per_request_gathers_offset(self, phase,
                                                            batch):
        """One flat gather over the stacked batch equals each request's
        own gather shifted by its offset in the batch-wide index space."""
        layer, x, threshold = phase
        rng = np.random.default_rng(batch)
        xs = np.stack([x] + [rng.standard_normal(x.shape)
                             for _ in range(batch - 1)])
        config = ExionConfig(ffn_threshold=threshold)
        _, stacked = ffn_dense_compile_batched(
            layer, xs, 0, np.zeros(batch, dtype=np.int64), config, None
        )
        per_request = [_compile(layer, xb, threshold)[1] for xb in xs]
        size = per_request[0].mask.size
        expected = np.concatenate([
            state.gather_indices + b * size
            for b, state in enumerate(per_request)
        ])
        assert np.array_equal(stacked.gather_indices, expected)
        assert list(stacked.nnz_per_request) == [s.nnz for s in per_request]
        if layer.activation == "geglu":
            width = layer.linear1.out_features * x.shape[0]
            expected_value = np.concatenate([
                state.value_indices + b * width
                for b, state in enumerate(per_request)
            ])
            assert np.array_equal(stacked.value_indices, expected_value)
            assert np.array_equal(stacked.gate_indices,
                                  stacked.value_indices + layer.hidden_dim)
