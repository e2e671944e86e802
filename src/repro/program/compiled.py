"""Plan compilation: :class:`PhasePlan` → :class:`CompiledPlan`.

A :class:`~repro.program.ir.PhasePlan` says *what* work each iteration
does; a :class:`CompiledPlan` fixes *how* the compiled executor
(:mod:`repro.exec`) will run it, with every schedule decision taken once
up front:

- the step table is regrouped into **phases** — one dense iteration plus
  the sparse iterations that reuse its bitmask — so the executor's inner
  loop is a flat replay with zero per-step branching;
- the SDUE **tile geometry** the per-phase bitmask→gather conversions and
  ConMerge layouts will use is pinned;
- the **expected index-set sizes** (from the plan's sparsity targets) are
  derivable without running the model, which is what
  ``python -m repro program --compile`` prints.

The compilation is purely structural: no weights, activations or RNG are
touched, so the same :class:`CompiledPlan` drives any seed. The per-phase
*numeric* artifacts (gather indices, partial sums, log-domain operands)
are produced at run time by :mod:`repro.exec`, once per phase, exactly
where this plan schedules them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.program.ir import PhasePlan

#: SDUE tile extent (paper Section III-B: 16x16 tile blocks).
TILE_ROWS = 16
TILE_WIDTH = 16


@dataclass(frozen=True)
class CompiledStep:
    """One executor iteration: its phase and its role within it."""

    index: int
    is_dense: bool
    phase: int

    def __post_init__(self) -> None:
        if self.index < 0 or self.phase < 0:
            raise ValueError("step index and phase must be >= 0")


@dataclass(frozen=True)
class PhaseSegment:
    """One dense iteration plus the sparse iterations amortizing it."""

    index: int
    dense_step: int
    sparse_steps: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "sparse_steps", tuple(self.sparse_steps))

    @property
    def length(self) -> int:
        return 1 + len(self.sparse_steps)


@dataclass(frozen=True)
class CompiledPlan:
    """A :class:`PhasePlan` frozen into executor order.

    ``steps`` replays one :class:`CompiledStep` per iteration; ``phases``
    gives the same schedule grouped by dense phase. :data:`TILE_ROWS` /
    :data:`TILE_WIDTH` pin the SDUE tile geometry of every bitmask→gather
    and ConMerge conversion the executor performs at phase boundaries.
    """

    plan: PhasePlan
    steps: tuple = ()
    phases: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        object.__setattr__(self, "phases", tuple(self.phases))
        #: ``is_dense`` per step — the whole schedule as one bit pattern
        #: (built once: ``cursors_aligned`` reads it on every join check).
        object.__setattr__(
            self, "dense_flags", tuple(s.is_dense for s in self.steps)
        )

    # ------------------------------------------------------------------
    # schedule views
    # ------------------------------------------------------------------
    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def max_phase_length(self) -> int:
        return max((p.length for p in self.phases), default=0)

    # ------------------------------------------------------------------
    # continuous-batching boundary predicates
    # ------------------------------------------------------------------
    def is_boundary(self, cursor: int) -> bool:
        """Whether a request whose *next* step is ``cursor`` sits at a
        dense-phase boundary.

        At a boundary the request either recompiles its FFN state on the
        coming dense step or has finished — in both cases it carries no
        sparse-phase state forward, so batch membership may change around
        it. ``cursor == iterations`` (the request just finished) counts.
        """
        if cursor < 0 or cursor > self.iterations:
            raise ValueError(f"cursor {cursor} outside [0, {self.iterations}]")
        return cursor == self.iterations or self.steps[cursor].is_dense

    def cursors_aligned(self, cursors) -> bool:
        """Whether requests at ``cursors`` can run the rest of the plan in
        lockstep: every pair must agree on dense/sparse for the steps they
        will share. A fresh join is ``cursors_aligned(active + [0])``.

        For the strictly periodic schedules :func:`schedule_phases`
        produces, requests admitted at dense boundaries stay congruent
        modulo the phase length forever — this predicate is how the
        scheduler *proves* that instead of assuming it.
        """
        flags = self.dense_flags
        total = len(flags)
        done = [c for c in cursors if not 0 <= c <= total]
        if done:
            raise ValueError(f"cursors {done} outside [0, {total}]")
        live = sorted(c for c in cursors if c < total)
        for a, b in zip(live, live[1:]):
            overlap = total - b
            if flags[a:a + overlap] != flags[b:]:
                return False
        return True

    # ------------------------------------------------------------------
    # expected index-set statistics (CLI --compile report)
    # ------------------------------------------------------------------
    def index_set_stats(self) -> dict:
        """Expected per-phase index-set sizes from the plan's targets.

        Everything here is computable without running the model: mask
        and score shapes come from the program's stages (a UNet decoder
        stage runs at half the tokens), expected gather sizes from the
        sparsity targets the schedule was lowered for, and the cached
        Q/K weight operands from the attention layers each block holds
        (a cross-attention layer too when the program has a context).
        The run-time sets differ per seed but match these in
        expectation — the report is for sizing, not for parity.
        """
        program = self.plan.program
        hidden = program.hidden
        heads = program.heads
        stats: dict = {
            "model": program.model,
            "scale": program.scale,
            "iterations": self.iterations,
            "phases": self.num_phases,
            "max_phase_length": self.max_phase_length,
            "tile_rows": TILE_ROWS,
            "tile_width": TILE_WIDTH,
        }
        if self.plan.enable_ffn_reuse:
            kept = 1.0 - self.plan.ffn_target_sparsity
            stats["ffn"] = {
                "stages": [
                    {
                        "mask_shape": [tokens, hidden],
                        "masks_per_phase": blocks,
                        "expected_gather_size": int(
                            round(kept * tokens * hidden)
                        ),
                        "tiles_per_mask": (
                            math.ceil(tokens / TILE_ROWS)
                            * math.ceil(hidden / TILE_WIDTH)
                        ),
                    }
                    for tokens, blocks in program.stages
                ],
                "expected_sparsity": self.plan.ffn_target_sparsity,
                "sparse_steps_amortizing": max(
                    (len(p.sparse_steps) for p in self.phases), default=0
                ),
            }
        if self.plan.enable_eager_prediction:
            stages = []
            for tokens, blocks in program.stages:
                keep = max(1, math.ceil(self.plan.top_k_ratio * tokens))
                stages.append({
                    "score_shape": [heads, tokens, tokens],
                    "layers": blocks,
                    "keep_per_row": keep,
                    "expected_keep_size": heads * tokens * keep,
                })
            # Q and K of each block's self-attention, and of its
            # cross-attention when the program has a context.
            layers = 2 if program.context_tokens else 1
            stats["attention"] = {
                "stages": stages,
                "cached_weight_operands": 2 * layers * program.depth,
            }
        return stats


@dataclass
class _PhaseBuilder:
    dense_step: int
    sparse_steps: list = field(default_factory=list)


def compile_plan(plan: PhasePlan) -> CompiledPlan:
    """Freeze a lowered :class:`PhasePlan` into executor order.

    Dense steps open a new phase; each following sparse step joins the
    open phase (the same grouping :class:`repro.core.ffn_reuse.FFNReuse`
    derives step by step at run time, taken here once). A plan whose
    first step is sparse is rejected — the run-time managers would fall
    back to a dense run there, so such a plan was lowered inconsistently.
    """
    builders: list[_PhaseBuilder] = []
    steps: list[CompiledStep] = []
    for step in plan.steps:
        if step.is_dense:
            builders.append(_PhaseBuilder(dense_step=step.index))
        else:
            if not builders:
                raise ValueError(
                    "phase plan starts with a sparse step; cannot compile"
                )
            builders[-1].sparse_steps.append(step.index)
        steps.append(
            CompiledStep(
                index=step.index,
                is_dense=step.is_dense,
                phase=max(0, len(builders) - 1),
            )
        )
    phases = tuple(
        PhaseSegment(
            index=i, dense_step=b.dense_step, sparse_steps=tuple(b.sparse_steps)
        )
        for i, b in enumerate(builders)
    )
    return CompiledPlan(plan=plan, steps=tuple(steps), phases=phases)


__all__ = [
    "CompiledPlan",
    "CompiledStep",
    "PhaseSegment",
    "TILE_ROWS",
    "TILE_WIDTH",
    "compile_plan",
]
