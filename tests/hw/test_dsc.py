"""Unit tests for the DSC per-iteration cost model."""

import pytest

from repro.hw.dsc import DSCModel
from repro.hw.constants import HARDWARE
from repro.hw.profile import estimate_profile
from repro.program.lower import lower_program
from repro.workloads.specs import get_spec


@pytest.fixture(scope="module")
def dit_setup():
    spec = get_spec("dit")
    program = lower_program(spec, scale="paper")
    return program, estimate_profile(spec, HARDWARE, seed=0), DSCModel()


class TestIterationCost:
    def test_base_dense_equals_computed(self, dit_setup):
        program, profile, dsc = dit_setup
        cost = dsc.iteration_cost(program, profile, False, False, False)
        assert cost.macs_computed == cost.macs_dense_equivalent
        assert cost.epre_cycles == 0
        assert cost.cau_cycles == 0

    def test_sparse_phase_reduces_ffn_cycles(self, dit_setup):
        program, profile, dsc = dit_setup
        dense = dsc.iteration_cost(program, profile, True, False, sparse_phase=False)
        sparse = dsc.iteration_cost(program, profile, True, False, sparse_phase=True)
        assert sparse.sdue_cycles < dense.sdue_cycles
        assert sparse.per_kind_cycles["ffn1"] < dense.per_kind_cycles["ffn1"]
        assert sparse.per_kind_cycles["ffn2"] < dense.per_kind_cycles["ffn2"]

    def test_ep_reduces_attention_and_projection(self, dit_setup):
        program, profile, dsc = dit_setup
        base = dsc.iteration_cost(program, profile, False, False, False)
        ep = dsc.iteration_cost(program, profile, False, True, False)
        assert ep.per_kind_cycles["attention"] < base.per_kind_cycles["attention"]
        assert ep.per_kind_cycles["qkv"] < base.per_kind_cycles["qkv"]
        assert ep.epre_cycles > 0  # prediction overhead is charged

    def test_dense_phase_runs_cau(self, dit_setup):
        program, profile, dsc = dit_setup
        dense = dsc.iteration_cost(program, profile, True, False, sparse_phase=False)
        assert dense.cau_cycles > 0

    def test_sparse_phase_cuts_weight_traffic(self, dit_setup):
        program, profile, dsc = dit_setup
        dense = dsc.iteration_cost(program, profile, True, False, sparse_phase=False)
        sparse = dsc.iteration_cost(program, profile, True, False, sparse_phase=True)
        assert sparse.weight_bytes < dense.weight_bytes

    def test_batch_scales_activations_not_weights(self, dit_setup):
        program, profile, dsc = dit_setup
        b1 = dsc.iteration_cost(program, profile, False, False, False, batch=1)
        b8 = dsc.iteration_cost(program, profile, False, False, False, batch=8)
        assert b8.weight_bytes == b1.weight_bytes
        assert b8.activation_bytes == 8 * b1.activation_bytes
        assert b8.macs_dense_equivalent == 8 * b1.macs_dense_equivalent

    def test_rejects_bad_batch(self, dit_setup):
        program, profile, dsc = dit_setup
        with pytest.raises(ValueError):
            dsc.iteration_cost(program, profile, False, False, False, batch=0)

    def test_activity_below_one_with_sparsity(self, dit_setup):
        program, profile, dsc = dit_setup
        sparse = dsc.iteration_cost(program, profile, True, True, sparse_phase=True)
        assert sparse.sdue_activity < 1.0

    def test_etc_workload_never_optimized(self):
        """ResBlock/etc work runs dense in every configuration (the paper
        applies no sparsity optimization there, Section V-C)."""
        spec = get_spec("stable_diffusion")
        program = lower_program(spec, scale="paper")
        profile = estimate_profile(spec, HARDWARE, seed=0)
        dsc = DSCModel()
        base = dsc.iteration_cost(program, profile, False, False, False)
        full = dsc.iteration_cost(program, profile, True, True, sparse_phase=True)
        assert full.per_kind_cycles["etc"] == base.per_kind_cycles["etc"]

    @pytest.mark.parametrize("name", ["dit", "mld", "stable_diffusion"])
    def test_sdue_cycles_match_analytic_dense_model(self, name):
        """With both optimizations off every lowered op runs dense: the
        iteration's SDUE cycles are the per-op dense tile cycles, summed."""
        spec = get_spec(name)
        program = lower_program(spec, scale="paper")
        dsc = DSCModel()
        cost = dsc.iteration_cost(
            program, estimate_profile(spec, HARDWARE, seed=0), False, False, False
        )
        assert cost.sdue_cycles == sum(
            dsc.sdue.dense_cycles(op.r, op.k, op.c) * op.count
            for op in program.ops
        )
