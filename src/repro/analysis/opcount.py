"""Operation-count breakdowns (paper Fig. 4).

Counts are analytic, derived from the published model dimensions via
the paper-scale lowering (:func:`repro.program.lower.lower_program`), and
grouped into the paper's categories: QKV projection, attention
computation, FFN layers and everything else.
"""

from __future__ import annotations

from repro.program.lower import lower_program
from repro.workloads.specs import BENCHMARK_ORDER, ModelSpec, get_spec


def operation_breakdown(spec: ModelSpec) -> dict:
    """Per-iteration operation counts (2 ops per MAC) by Fig. 4 category."""
    macs = lower_program(spec, scale="paper").macs_by_kind()
    ops = {kind: 2 * value for kind, value in macs.items()}
    total = sum(ops.values())
    shares = {kind: (value / total if total else 0.0) for kind, value in ops.items()}
    transformer = ops["qkv"] + ops["attention"] + ops["ffn"]
    return {
        "ops": ops,
        "total_ops": total,
        "shares": shares,
        "transformer_share": transformer / total if total else 0.0,
        "ffn_share_of_transformer": ops["ffn"] / transformer if transformer else 0.0,
    }


def operation_breakdown_table() -> list:
    """Fig. 4 rows for every benchmark model."""
    rows = []
    for name in BENCHMARK_ORDER:
        spec = get_spec(name)
        info = operation_breakdown(spec)
        rows.append(
            {
                "model": spec.display_name,
                "total_ops": info["total_ops"],
                "paper_total_ops": spec.paper_total_ops,
                "qkv_share": info["shares"]["qkv"],
                "attention_share": info["shares"]["attention"],
                "ffn_share": info["shares"]["ffn"],
                "etc_share": info["shares"]["etc"],
                "transformer_share": info["transformer_share"],
                "paper_transformer_share": spec.paper_transformer_share,
                "ffn_share_of_transformer": info["ffn_share_of_transformer"],
            }
        )
    return rows
