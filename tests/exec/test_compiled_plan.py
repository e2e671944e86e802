"""Structural invariants of :func:`repro.program.compile_plan`.

The compiled schedule is where the executor's correctness starts: if the
phase grouping here drifts from what the run-time FFN-Reuse manager
derives step by step, the parity suite fails downstream in confusing
ways. These tests pin the schedule directly — for every model, both
lowering scales, every ablation — and check that compilation is a pure
view (the Table II accelerator points price the same plan identically
before and after compiling it).
"""

import dataclasses
import math

import pytest

from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import estimate_profile
from repro.program import compile_plan, lower_plan
from repro.program.compiled import TILE_ROWS, TILE_WIDTH
from repro.workloads.specs import MODEL_SPECS, get_spec

MODELS = sorted(MODEL_SPECS)
ABLATIONS = ("base", "ep", "ffnr", "all")
SCALES = ("paper", "sim")
TABLE2 = {
    "exion4": ExionAccelerator.exion4,
    "exion24": ExionAccelerator.exion24,
    "exion42": ExionAccelerator.exion42,
}


def _compiled(model, ablation, scale, iterations=10):
    config = ExionConfig.for_model(model).ablation(ablation)
    plan = lower_plan(get_spec(model), config=config,
                      iterations=iterations, scale=scale)
    return compile_plan(plan)


class TestScheduleInvariants:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_steps_and_phases_partition(self, model, scale):
        for ablation in ABLATIONS:
            cp = _compiled(model, ablation, scale)
            assert cp.iterations == len(cp.plan.steps)
            assert [s.index for s in cp.steps] == list(range(cp.iterations))
            # Phases partition the step set exactly.
            covered = []
            for phase in cp.phases:
                covered.append(phase.dense_step)
                covered.extend(phase.sparse_steps)
                # Sparse steps trail their dense step in order.
                assert list(phase.sparse_steps) == sorted(phase.sparse_steps)
                assert all(s > phase.dense_step for s in phase.sparse_steps)
            assert sorted(covered) == list(range(cp.iterations))
            # Step→phase assignment agrees with the phase view.
            for phase in cp.phases:
                for idx in (phase.dense_step, *phase.sparse_steps):
                    assert cp.steps[idx].phase == phase.index
            dense_steps = tuple(s.index for s in cp.steps if s.is_dense)
            assert dense_steps == tuple(p.dense_step for p in cp.phases)

    @pytest.mark.parametrize("model", MODELS)
    def test_dense_cadence_matches_sparse_iters_n(self, model):
        """With FFN-Reuse on, dense steps recur every N+1 iterations —
        the schedule FFNReuse.begin_iteration derives at run time."""
        cp = _compiled(model, "all", "sim")
        n = cp.plan.sparse_iters_n
        dense_steps = tuple(s.index for s in cp.steps if s.is_dense)
        assert dense_steps == tuple(range(0, cp.iterations, n + 1))
        assert cp.max_phase_length <= n + 1

    @pytest.mark.parametrize("model", MODELS)
    def test_ffnr_off_means_every_step_its_own_phase(self, model):
        cp = _compiled(model, "ep", "sim")
        assert not cp.plan.enable_ffn_reuse
        assert cp.num_phases == cp.iterations
        assert all(p.sparse_steps == () for p in cp.phases)

    def test_sparse_start_plan_rejected(self):
        plan = lower_plan(get_spec("dit"), iterations=4)
        bad_steps = tuple(
            dataclasses.replace(s, is_dense=False) for s in plan.steps
        )
        bad = dataclasses.replace(plan, steps=bad_steps)
        with pytest.raises(ValueError, match="starts with a sparse step"):
            compile_plan(bad)

    def test_compilation_is_deterministic(self):
        a = _compiled("dit", "all", "sim")
        b = _compiled("dit", "all", "sim")
        assert a.steps == b.steps
        assert a.phases == b.phases
        assert a.index_set_stats() == b.index_set_stats()


class TestIndexSetStats:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("scale", SCALES)
    def test_expected_sizes_derive_from_plan_targets(self, model, scale):
        cp = _compiled(model, "all", scale)
        program = cp.plan.program
        stats = cp.index_set_stats()
        assert stats["model"] == program.model
        assert stats["scale"] == scale
        assert stats["tile_rows"] == TILE_ROWS
        assert stats["tile_width"] == TILE_WIDTH
        ffn = stats["ffn"]
        assert ffn["mask_shape"] == [program.tokens, program.hidden]
        assert ffn["expected_gather_size"] == int(round(
            (1.0 - cp.plan.ffn_target_sparsity)
            * program.tokens * program.hidden
        ))
        assert ffn["tiles_per_mask"] == (
            math.ceil(program.tokens / TILE_ROWS)
            * math.ceil(program.hidden / TILE_WIDTH)
        )
        attn = stats["attention"]
        assert attn["keep_per_row"] == max(
            1, math.ceil(cp.plan.top_k_ratio * program.tokens)
        )
        assert attn["expected_keep_size"] == (
            program.heads * program.tokens * attn["keep_per_row"]
        )
        assert attn["cached_weight_operands"] == 2 * program.depth

    def test_sections_follow_ablation_flags(self):
        assert "ffn" not in _compiled("dit", "ep", "sim").index_set_stats()
        assert "attention" not in (
            _compiled("dit", "ffnr", "sim").index_set_stats()
        )
        base = _compiled("dit", "base", "sim").index_set_stats()
        assert "ffn" not in base and "attention" not in base


class TestCompilationIsAPureView:
    """compile_plan must not perturb the plan the Table II accelerator
    models price — same report fields bit for bit, before and after."""

    @pytest.mark.parametrize("table2", sorted(TABLE2))
    def test_pricing_unchanged_by_compilation(self, table2):
        spec = get_spec("dit")
        profile = estimate_profile(spec, seed=0)
        acc = TABLE2[table2]()
        plan = lower_plan(spec, config=ExionConfig.for_model("dit"),
                          iterations=10)
        before = acc.simulate_plan(plan, profile)
        cp = compile_plan(plan)
        after = acc.simulate_plan(cp.plan, profile)
        assert cp.plan is plan
        assert (before.latency_s, before.energy_j, before.computed_ops) == (
            after.latency_s, after.energy_j, after.computed_ops
        )
