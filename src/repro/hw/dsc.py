"""Diffusion-sparsity-aware core: per-iteration cost model.

Combines the engine models (SDUE / EPRE / CFSE / CAU) into the cycle,
activity and traffic cost of one denoising iteration, for the dense and
sparse phases of the FFN-Reuse schedule and the four ablation settings
(Base / EP / FFNR / All).

The DSC prices the IR: :meth:`DSCModel.iteration_cost` consumes an
:class:`~repro.program.ir.IterationProgram` (the single lowering's
output) and dispatches on each op's :class:`~repro.program.ir.OpKind`;
it never walks the model structure itself. Per-block non-MMUL work (CFSE
functions, CAU classification, activation spill) is priced per stage,
from the token count and block count of the program's ``ffn_linear1``
ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from repro.hw.cfse import CFSEModel
from repro.hw.epre import EPREModel
from repro.hw.profile import SparsityProfile
from repro.hw.sdue import SDUEModel
from repro.program.ir import IterationProgram, MMUL_BYTES_PER_ELEMENT


@dataclass
class IterationCost:
    """Cycle/traffic cost of one denoising iteration on one DSC's engines.

    Cycle counts are totals (undivided); the accelerator model splits them
    across DSCs. ``per_kind_cycles`` keys SDUE cycles by IR op class.
    """

    sdue_cycles: int = 0
    epre_cycles: int = 0
    cfse_cycles: int = 0
    cau_cycles: int = 0
    sdue_active_cell_cycles: float = 0.0
    sdue_total_cell_cycles: float = 0.0
    weight_bytes: int = 0
    activation_bytes: int = 0
    macs_dense_equivalent: int = 0
    macs_computed: int = 0
    per_kind_cycles: dict = field(default_factory=dict)

    @property
    def sdue_activity(self) -> float:
        if self.sdue_total_cell_cycles == 0:
            return 1.0
        return self.sdue_active_cell_cycles / self.sdue_total_cell_cycles

    def add_sdue(self, cycles: int, activity: float, kind: str) -> None:
        self.sdue_cycles += cycles
        cells = cycles * 256  # 16x16 array
        self.sdue_total_cell_cycles += cells
        self.sdue_active_cell_cycles += cells * activity
        self.per_kind_cycles[kind] = self.per_kind_cycles.get(kind, 0) + cycles


class DSCModel:
    """Cost model of one DSC (Fig. 10) over a lowered iteration program."""

    def __init__(self) -> None:
        self.sdue = SDUEModel()
        self.epre = EPREModel()
        self.cfse = CFSEModel()

    # ------------------------------------------------------------------
    def iteration_cost(
        self,
        program: IterationProgram,
        profile: SparsityProfile,
        enable_ffn_reuse: bool,
        enable_eager_prediction: bool,
        sparse_phase: bool,
        batch: int = 1,
    ) -> IterationCost:
        """Cost of one iteration at paper scale.

        ``sparse_phase`` selects the FFN-Reuse sparse iteration (only
        meaningful when ``enable_ffn_reuse``).
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        cost = IterationCost()
        ep = enable_eager_prediction
        ffnr_sparse = enable_ffn_reuse and sparse_phase

        for op in program.ops:
            r = op.r * batch
            k, c, count = op.k, op.c, op.count
            dense_cycles = self.sdue.dense_cycles(r, k, c) * count
            weight_bytes = op.weight_bytes
            macs = r * k * c * count
            cost.macs_dense_equivalent += macs

            kind = op.kind.value
            if kind == "qkv" and ep:
                skip = profile.q_skip if op.name.endswith("q_proj") else profile.kv_skip
                r_eff = max(1, int(round(r * (1.0 - skip))))
                cycles = self.sdue.dense_cycles(r_eff, k, c) * count
                # Rows skipped inside a 16-row tile save no cycles but are
                # clock-gated (paper IV-B: gating handles residual sparsity).
                tile_rows = -(-r_eff // 16) * 16
                activity = min(1.0, r * (1.0 - skip) / tile_rows)
                cost.add_sdue(cycles, activity, kind)
                cost.macs_computed += r_eff * k * c * count
                # EPRE predicts Q and K in the log domain.
                cost.epre_cycles += self.epre.prediction_cycles(r, k, c) * count
            elif kind == "attention" and ep and "score" in op.name:
                cycles = max(1, int(round(dense_cycles * profile.attn_remaining_ratio)))
                cost.add_sdue(cycles, profile.attn_utilization, kind)
                kept = 1.0 - profile.attn_sparsity
                cost.macs_computed += int(macs * kept)
                cost.epre_cycles += self.epre.prediction_cycles(r, k, c) * count
            elif kind == "attention" and ep and "av" in op.name:
                k_eff = max(1, int(round(k * (1.0 - profile.attn_sparsity))))
                cycles = self.sdue.dense_cycles(r, k_eff, c) * count
                cost.add_sdue(cycles, 1.0, kind)
                cost.macs_computed += r * k_eff * c * count
            elif kind == "ffn1" and ffnr_sparse:
                cycles = max(1, int(round(dense_cycles * profile.ffn_remaining_ratio)))
                cost.add_sdue(cycles, profile.ffn_utilization, kind)
                cost.macs_computed += int(macs * (1.0 - profile.ffn_sparsity))
                # Condensing also avoids fetching dead columns' weights.
                weight_bytes = int(weight_bytes * profile.ffn_condense_ratio)
            elif kind == "ffn2" and ffnr_sparse:
                k_eff = max(1, int(round(k * (1.0 - profile.ffn_sparsity))))
                cycles = self.sdue.dense_cycles(r, k_eff, c) * count
                cost.add_sdue(cycles, 1.0, kind)
                cost.macs_computed += r * k_eff * c * count
                # Only W2 rows of hidden features with any recomputed
                # element are touched (same structure condensing exposes).
                weight_bytes = int(weight_bytes * profile.ffn_condense_ratio)
            else:
                cost.add_sdue(dense_cycles, 1.0, kind)
                cost.macs_computed += macs

            cost.weight_bytes += weight_bytes

        cost.cfse_cycles = self._cfse_cycles(program, profile, ep, ffnr_sparse, batch)
        if enable_ffn_reuse and not sparse_phase:
            cost.cau_cycles = self._cau_cycles(program, batch)
        cost.activation_bytes = self._activation_bytes(program, batch)
        return cost

    # ------------------------------------------------------------------
    def _cfse_cycles(
        self,
        program: IterationProgram,
        profile: SparsityProfile,
        ep: bool,
        ffnr_sparse: bool,
        batch: int,
    ) -> int:
        d = program.dim
        fn = self.cfse.function_cycles
        cycles = 0
        for tokens, blocks in program.stages:
            t = tokens * batch
            softmax_elems = t * tokens  # per block, all heads
            if ep:
                softmax_elems = int(softmax_elems * (1.0 - profile.attn_sparsity))
            gelu_elems = t * program.hidden
            if ffnr_sparse:
                gelu_elems = int(gelu_elems * (1.0 - profile.ffn_sparsity))
            cycles += fn("softmax", max(softmax_elems, 1)) * blocks
            cycles += fn("gelu", max(gelu_elems, 1)) * blocks
            cycles += fn("layernorm", t * d) * 2 * blocks
            cycles += fn("residual_add", t * d) * 3 * blocks
        return cycles

    def _cau_cycles(self, program: IterationProgram, batch: int) -> int:
        # Classification streams one column per lane-group cycle while the
        # SDUE computes; CVG merge work is ~2 attempts per block pair.
        hidden = program.hidden
        cycles = 0
        for tokens, blocks in program.stages:
            row_tiles = -(-tokens * batch // 16)
            classify = hidden * row_tiles
            merge = (hidden // 16) * row_tiles * 2
            cycles += (classify + merge) * blocks
        return cycles

    def _activation_bytes(self, program: IterationProgram, batch: int) -> int:
        # Latent in/out plus per-block spill through the GSC.
        per_token = 2 * batch * program.dim * MMUL_BYTES_PER_ELEMENT
        spill = sum(tokens * blocks for tokens, blocks in program.stages)
        return per_token * (program.tokens + spill)
