"""Block merging with conflict-vector constrained relocation (Fig. 9, 14).

Two tile blocks merge column-slot by column-slot. Where both blocks hold an
element at the same (row, column-slot) position, the incoming element is
relocated to another row of the same column slot. Relocation is limited by
the hardware: each DPU lane has exactly one conflict input line, so every
relocated element landing on a lane must need the *same* foreign input row
(recorded in the conflict vector).

Conflicts are resolved in degree-of-freedom order, mirroring the CVG: the
column with the fewest spare slots per conflict is handled first, one
relocation per cycle. As in the CVG's bitmask maps, every decision is an
and/or/popcount over lane bitmasks; cell records are written only when the
merge succeeds, so a failed attempt (most are) copies no cell list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.conmerge.blocks import TileBlock


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


def _lanes(mask: int):
    """Indices of the set bits of a lane bitmask, lowest first."""
    while mask:
        bit = mask & -mask
        mask ^= bit
        yield bit.bit_length() - 1


def try_merge(base: TileBlock, incoming: TileBlock) -> MergeAttempt:
    """Attempt to merge ``incoming`` into ``base`` (non-destructively).

    Returns a failed attempt (with its cycle cost) when the triple-buffer
    origin limit would be exceeded or a conflict cannot be relocated.
    Decisions run on lane bitmasks; cell records are written only once
    the merge has succeeded.
    """
    if base.rows != incoming.rows or base.width != incoming.width:
        raise ValueError("blocks must share tile dimensions")
    cycles = _SETUP_CYCLES  # bitmask-map construction + DOF evaluation
    total_origins = base.num_origins + incoming.num_origins
    if total_origins > 3:
        return MergeAttempt(success=False, merged=None, cycles=cycles)

    width = base.width
    source = incoming.records
    busy = list(base.columns)
    free = (1 << base.rows) - 1  # lanes whose conflict line is unused
    carriers: dict = {}  # input row -> lanes whose conflict line carries it
    for lane, row in enumerate(base.conflict_vector):
        if row is not None:
            free &= ~(1 << lane)
            carriers[row] = carriers.get(row, 0) | 1 << lane

    # An own-row cell lands where the base lane is idle; the rest are its
    # slot's pending conflicts.
    own = list(incoming.columns)
    foreign = []  # incoming cells reading a conflict line, row-major
    for lane, row in enumerate(incoming.conflict_vector):
        if row is None:
            continue
        for slot in range(width):
            cell = source[lane * width + slot]
            if cell is not None and cell[0] != lane:
                own[slot] &= ~(1 << lane)
                foreign.append((lane, slot))
    pending = [column & own_lanes for column, own_lanes in zip(busy, own)]
    direct = [own_lanes & ~column for column, own_lanes in zip(busy, own)]
    busy = [column | own_lanes for column, own_lanes in zip(busy, own)]
    moves = []  # (target lane, slot, incoming lane) of every other cell

    def place(target: int, slot: int, lane: int, row: int) -> None:
        """Occupy ``target``'s cell and, if needed, its conflict line."""
        nonlocal free
        bit = 1 << target
        busy[slot] |= bit
        if free & bit and target != row:
            free ^= bit
            carriers[row] = carriers.get(row, 0) | bit
        moves.append((target, slot, lane))

    # Foreign-row cells go lane by lane in slot order: each may claim its
    # lane's conflict line for the later ones.
    for lane, slot in foreign:
        row = source[lane * width + slot][0]
        if (busy[slot] | ~(free | carriers.get(row, 0))) >> lane & 1:
            pending[slot] |= 1 << lane
        else:
            place(lane, slot, lane, row)

    # Conflicted slots in the row-major order of their first conflict;
    # the tightest (fewest writable empty lanes per pending conflict,
    # paper Fig. 14) resolves first, all its conflicts in one cycle.
    order = sorted((slot for slot in range(width) if pending[slot]),
                   key=lambda slot: pending[slot] & -pending[slot])
    while order:
        slot = min(order, key=lambda s: (free & ~busy[s]).bit_count()
                   - pending[s].bit_count())
        order.remove(slot)
        cycles += 1
        for lane in _lanes(pending[slot]):
            row = source[lane * width + slot][0]
            # First idle lane carrying the row (or the row's own lane),
            # else the first idle lane with an unused conflict line.
            empty = ~busy[slot]
            target = empty & (carriers.get(row, 0) | 1 << row) or empty & free
            if not target:
                return MergeAttempt(success=False, merged=None, cycles=cycles)
            place((target & -target).bit_length() - 1, slot, lane, row)

    records = list(base.records)
    conflict_vector = list(base.conflict_vector)
    moves += [(lane, slot, lane) for slot in range(width) for lane in _lanes(direct[slot])]
    for target, slot, lane in moves:
        row, origin_col, buffer_index = source[lane * width + slot]
        records[target * width + slot] = (
            row, origin_col, buffer_index + base.num_origins)
        if row != target:
            conflict_vector[target] = row
    merged = TileBlock(
        rows=base.rows,
        width=width,
        columns=busy,
        records=records,
        conflict_vector=conflict_vector,
        num_origins=total_origins,
    )
    return MergeAttempt(success=True, merged=merged, cycles=cycles)


def greedy_merge(blocks: list) -> tuple:
    """Merge a block list pairwise, first-fit, up to two merges per block.

    Returns ``(merged_blocks, total_cycles, successes)``. This is
    the unsorted baseline of Fig. 12; :func:`repro.core.conmerge.cvg.conmerge`
    layers the SortBuffer ordering on top.
    """
    pending = list(blocks)
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
