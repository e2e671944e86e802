"""Block merging with conflict-vector constrained relocation (Fig. 9, 14).

Two tile blocks merge column-slot by column-slot. Where both blocks hold an
element at the same (row, column-slot) position, the incoming element is
relocated to another row of the same column slot. Relocation is limited by
the hardware: each DPU lane has exactly one conflict input line, so every
relocated element landing on a lane must need the *same* foreign input row
(recorded in the conflict vector).

Conflicts are resolved in degree-of-freedom order, mirroring the CVG: the
column with the fewest spare slots per conflict is handled first, one
relocation per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.conmerge.blocks import TileBlock
from repro.core.conmerge.vectors import CellAssignment


@dataclass
class MergeAttempt:
    """Outcome of one merge attempt, with its CVG cycle cost.

    ``cycles`` counts the setup (bitmask-map construction plus DOF
    evaluation, 2 cycles) and one cycle per *conflicted column* processed —
    the CVG resolves a column's conflicts in parallel (paper Fig. 14) —
    including work spent on attempts that ultimately fail.
    """

    success: bool
    merged: Optional[TileBlock]
    cycles: int


_SETUP_CYCLES = 2


def _cv_compatible(block: TileBlock, lane: int, input_row: int) -> bool:
    """Can a cell needing ``input_row`` live on ``lane``?"""
    if input_row == lane:
        return True
    cv = block.conflict_vector[lane]
    return cv is None or cv == input_row


def _place(
    block: TileBlock,
    lane: int,
    slot: int,
    entry: CellAssignment,
    buffer_offset: int,
) -> None:
    if block.cells[lane][slot] is not None:
        raise RuntimeError("placement target is occupied")
    block.cells[lane][slot] = CellAssignment(
        lane=lane,
        col_slot=slot,
        input_row=entry.input_row,
        origin_col=entry.origin_col,
        buffer_index=entry.buffer_index + buffer_offset,
    )
    if entry.input_row != lane:
        block.conflict_vector[lane] = entry.input_row


def try_merge(base: TileBlock, incoming: TileBlock) -> MergeAttempt:
    """Attempt to merge ``incoming`` into ``base`` (non-destructively).

    Returns a failed attempt (with its cycle cost) when the triple-buffer
    origin limit would be exceeded or a conflict cannot be relocated.
    """
    if base.rows != incoming.rows or base.width != incoming.width:
        raise ValueError("blocks must share tile dimensions")
    cycles = _SETUP_CYCLES  # bitmask-map construction + DOF evaluation
    total_origins = base.num_origins + incoming.num_origins
    if total_origins > 3:
        return MergeAttempt(success=False, merged=None, cycles=cycles)

    merged = base.copy()
    buffer_offset = base.num_origins

    # Direct placements first; collect per-column conflicts.
    conflicts: dict = {}  # col_slot -> list[CellAssignment]
    for entry in incoming.entries():
        lane, slot = entry.lane, entry.col_slot
        if merged.cells[lane][slot] is None and _cv_compatible(
            merged, lane, entry.input_row
        ):
            _place(merged, lane, slot, entry, buffer_offset)
        else:
            conflicts.setdefault(slot, []).append(entry)

    def dof(slot: int) -> int:
        """Writable empty slots minus pending conflicts (paper Fig. 14)."""
        empties = sum(
            1
            for lane in range(merged.rows)
            if merged.cells[lane][slot] is None
            and merged.conflict_vector[lane] is None
        )
        return empties - len(conflicts[slot])

    while conflicts:
        # The tightest column is processed first; all of its conflicts
        # resolve within the column's cycle (parallel slot moves).
        slot = min(conflicts, key=dof)
        pending = conflicts.pop(slot)
        cycles += 1
        for entry in pending:
            target = _find_slot(merged, slot, entry.input_row)
            if target is None:
                return MergeAttempt(success=False, merged=None,
                                    cycles=cycles)
            _place(merged, target, slot, entry, buffer_offset)

    merged.num_origins = total_origins
    return MergeAttempt(success=True, merged=merged, cycles=cycles)


def _find_slot(block: TileBlock, slot: int, input_row: int) -> Optional[int]:
    """First lane whose cell at ``slot`` is empty and whose conflict line
    can carry ``input_row`` — preferring lanes already carrying it."""
    fallback = None
    for lane in range(block.rows):
        if block.cells[lane][slot] is not None:
            continue
        cv = block.conflict_vector[lane]
        if cv == input_row or lane == input_row:
            return lane
        if cv is None and fallback is None:
            fallback = lane
    return fallback


def greedy_merge(blocks: list) -> tuple:
    """Merge a block list pairwise, first-fit, up to two merges per block.

    Returns ``(merged_blocks, total_cycles, successes)``. This is
    the unsorted baseline of Fig. 12; :func:`repro.core.conmerge.cvg.conmerge`
    layers the SortBuffer ordering on top.
    """
    pending = [b.copy() for b in blocks]
    out = []
    cycles = 0
    successes = 0
    while pending:
        base = pending.pop(0)
        merges_left = 3 - base.num_origins
        for _ in range(min(2, merges_left)):
            hit = None
            for idx, candidate in enumerate(pending):
                attempt = try_merge(base, candidate)
                cycles += attempt.cycles
                if attempt.success:
                    hit = (idx, attempt.merged)
                    successes += 1
                    break
            if hit is None:
                break
            idx, base = hit
            pending.pop(idx)
        out.append(base)
    return out, cycles, successes
