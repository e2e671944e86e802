"""ExecArena scratch-buffer reuse: stable buffers, zero drift."""

import numpy as np

from repro.core.config import ExionConfig
from repro.core.logdomain import approximation_table
from repro.exec.arena import ExecArena


class TestExecArena:
    def test_same_key_reuses_the_buffer(self):
        arena = ExecArena()
        a = arena.take("x", (4, 8))
        b = arena.take("x", (4, 8))
        assert a is b
        assert arena.allocations == 1
        assert arena.reuses == 1

    def test_distinct_shape_or_dtype_allocates(self):
        arena = ExecArena()
        base = arena.take("x", (4, 8))
        assert arena.take("x", (2, 8)) is not base
        assert arena.take("x", (4, 8), dtype=np.float32) is not base
        assert arena.take("y", (4, 8)) is not base
        assert arena.allocations == 4

    def test_stats_and_clear(self):
        arena = ExecArena()
        arena.take("x", (2, 2))
        arena.take("x", (2, 2))
        stats = arena.stats()
        assert stats["allocations"] == 1
        assert stats["reuses"] == 1
        assert stats["buffers"] == 1
        assert stats["bytes"] == 2 * 2 * 8
        assert list(stats) == sorted(stats)
        arena.clear()
        assert arena.stats()["buffers"] == 0


class TestArenaByteIdentity:
    def test_repeated_generations_are_bit_equal(self):
        """Two generations on one executor reuse every scratch buffer —
        the second run (all-reuse) must be bit-identical to the first."""
        from repro.exec.executor import CompiledExecutor
        from repro.models.zoo import build_model

        model = build_model("dit", total_iterations=4)
        config = ExionConfig.for_model("dit")
        executor = CompiledExecutor(model, config)
        first = executor.generate(seed=0)
        allocations_after_first = executor._arena.allocations
        tables_after_first = approximation_table.cache_info().misses
        second = executor.generate(seed=0)
        np.testing.assert_array_equal(first.sample, second.sample)
        # the second generation allocated nothing new
        assert executor._arena.allocations == allocations_after_first
        assert executor._arena.reuses > 0
        # ... and built no approximation table: it is plan-time state
        assert approximation_table.cache_info().misses == tables_after_first

    def test_repeated_drained_batches_are_bit_equal(self):
        """The batched twin: a second ``run_batch`` of the same seeds on
        one engine is all-reuse and bit-identical to the first."""
        from repro.exec import ContinuousExecutor
        from repro.models.zoo import build_model
        from repro.serve.request import GenerationRequest

        model = build_model("dit", total_iterations=4)
        executor = ContinuousExecutor(model, ExionConfig.for_model("dit"))
        requests = [GenerationRequest(i, seed=i) for i in range(3)]
        first = executor.run_batch(requests)
        allocations_after_first = executor._arena.allocations
        tables_after_first = approximation_table.cache_info().misses
        second = executor.run_batch(requests)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.sample, b.sample)
        assert executor._arena.allocations == allocations_after_first
        assert executor._arena.reuses > 0
        assert approximation_table.cache_info().misses == tables_after_first
