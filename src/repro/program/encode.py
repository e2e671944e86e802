"""Canonical serialization of iteration programs and phase plans.

Programs and plans are pure data, so they serialize to plain JSON
documents. Serialization is *canonical* —
key-sorted, fixed separators, trailing newline — which makes the bytes
of a lowered plan a determinism fingerprint: the same spec + ablation
config must encode to the same bytes on every run, machine and Python
version (the ``program_lowering`` bench and ``tests/program`` gate
this).
"""

from __future__ import annotations

import hashlib

from repro.canon import canonical_json
from repro.program.ir import IterationProgram, Op, PhasePlan


def op_to_dict(op: Op) -> dict:
    """Plain-JSON document of one op."""
    return {
        "name": op.name,
        "kind": op.kind.value,
        "r": op.r,
        "k": op.k,
        "c": op.c,
        "count": op.count,
        "has_weights": op.has_weights,
    }


def program_to_dict(program: IterationProgram) -> dict:
    """Plain-JSON document of one iteration program."""
    return {
        "model": program.model,
        "scale": program.scale,
        "tokens": program.tokens,
        "dim": program.dim,
        "heads": program.heads,
        "depth": program.depth,
        "ffn_mult": program.ffn_mult,
        "activation": program.activation,
        "context_tokens": program.context_tokens,
        "temporal_frames": program.temporal_frames,
        "ops": [op_to_dict(op) for op in program.ops],
        "totals": {
            "macs": program.total_macs,
            "weight_bytes": program.weight_bytes,
            "macs_by_kind": program.macs_by_kind(),
        },
    }


def plan_to_dict(plan: PhasePlan) -> dict:
    """Plain-JSON document of one phase plan.

    Every step is encoded explicitly as ``[index, is_dense,
    weight_fetch]`` — deliberately redundant with the schedule
    parameters, so a digest change pins down *which* iterations moved.
    """
    return {
        "program": program_to_dict(plan.program),
        "steps": [
            [step.index, step.is_dense, step.weight_fetch]
            for step in plan.steps
        ],
        "enable_ffn_reuse": plan.enable_ffn_reuse,
        "enable_eager_prediction": plan.enable_eager_prediction,
        "batch": plan.batch,
        "sparse_iters_n": plan.sparse_iters_n,
        "ffn_target_sparsity": plan.ffn_target_sparsity,
        "intra_sparsity_target": plan.intra_sparsity_target,
        "top_k_ratio": plan.top_k_ratio,
        "q_threshold": plan.q_threshold,
        "prediction_bits": plan.prediction_bits,
        "totals": {
            "iterations": plan.iterations,
            "dense_iterations": plan.dense_iterations,
            "dense_equivalent_macs": plan.dense_equivalent_macs,
        },
    }


def plan_json(plan: PhasePlan) -> str:
    """Canonical JSON bytes of one plan (the determinism fingerprint)."""
    return canonical_json(plan_to_dict(plan))


def plan_digest(plan: PhasePlan) -> str:
    """SHA-256 hex digest of the canonical plan encoding."""
    return hashlib.sha256(plan_json(plan).encode("utf-8")).hexdigest()


__all__ = [
    "op_to_dict",
    "plan_digest",
    "plan_json",
    "plan_to_dict",
    "program_to_dict",
]
