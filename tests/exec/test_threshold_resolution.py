"""Batched FFN-Reuse threshold resolution with a partial table.

A :class:`~repro.core.thresholds.ThresholdTable` that covers only some
``(dense_index, block)`` pairs splits a continuous batch: members whose
dense phase the table reaches read a stored constant, the others fall
back to their own magnitude quantile. Whatever the split, request ``b``
must resolve to exactly what the interpreted oracle
(``FFNReuse._resolve_threshold`` at that dense phase) returns for it
alone.
"""

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.ffn_reuse import FFNReuse, resolve_thresholds
from repro.core.thresholds import ThresholdTable

# The table holds block 1 from dense index 2 on and block 0 everywhere;
# block 2 is absent. ThresholdTable.get falls back to the nearest
# *earlier* dense index, so on block 1 the members at phases 0 and 1 are
# the pending ones.
DENSE_INDICES = np.array([0, 3, 1, 2, 0, 5])
PENDING_BY_BLOCK = {0: [], 1: [0, 2, 4], 2: [0, 1, 2, 3, 4, 5]}


@pytest.fixture(scope="module")
def setup():
    config = ExionConfig.for_model("dit")
    table = ThresholdTable(target_sparsity=config.ffn_target_sparsity)
    table.set(0, 0, 0.125)
    table.set(2, 1, 0.25)
    table.set(4, 1, 0.5)
    hidden = np.random.default_rng(5).standard_normal(
        (len(DENSE_INDICES), 16, 64)
    )
    return FFNReuse(config, num_blocks=3, threshold_table=table), hidden


@pytest.mark.parametrize("block", sorted(PENDING_BY_BLOCK))
def test_each_request_resolves_as_it_would_alone(setup, block):
    oracle, hidden = setup
    table = oracle.threshold_table
    pending = [
        b for b, phase in enumerate(DENSE_INDICES)
        if table.get(int(phase), block) is None
    ]
    assert pending == PENDING_BY_BLOCK[block]

    before = hidden.tobytes()
    got = resolve_thresholds(
        hidden, block, DENSE_INDICES, oracle.config, table
    )
    assert hidden.tobytes() == before
    assert got.dtype == np.float64 and got.shape == (len(DENSE_INDICES),)
    for b, phase in enumerate(DENSE_INDICES):
        oracle.begin_iteration(int(phase) * oracle.dense_period)
        alone = oracle._resolve_threshold(hidden[b], block)
        assert np.float64(alone).tobytes() == got[b].tobytes()


def test_without_a_table_every_request_takes_its_quantile(setup):
    oracle, hidden = setup
    config = oracle.config
    got = resolve_thresholds(hidden, 0, DENSE_INDICES, config, None)
    want = np.quantile(
        np.abs(hidden.reshape(len(hidden), -1)),
        config.ffn_target_sparsity, axis=1,
    )
    assert got.tobytes() == want.tobytes()
