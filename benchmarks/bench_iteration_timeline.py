"""Per-iteration execution timeline: the FFN-Reuse cadence in hardware.

Not a paper figure, but the microarchitectural signature behind Fig. 18/19:
dense iterations (full FFN compute, CAU vector generation, full weight
working set) run measurably longer than the N sparse iterations between
them, and iteration 0 additionally pays the DRAM weight fill. A second
bench validates the stream-level DRAM bandwidth assumption against the
banked model.
"""

from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.hw.accelerator import ExionAccelerator
from repro.hw.dram_detail import (
    GDDR6_TIMINGS,
    LPDDR5_TIMINGS,
    validate_stream_assumption,
)
from repro.hw.timeline import simulate_timeline
from repro.workloads.specs import get_spec

from .conftest import emit_result


@register_bench("iteration_timeline", tags=("hw", "timeline"))
def build_timeline(ctx):
    spec = get_spec("dit")
    acc = ExionAccelerator.exion24()
    timeline = simulate_timeline(acc, spec, ctx.profiles["dit"],
                                 ExionConfig.for_model("dit", True, True),
                                 1, 12)

    result = BenchResult("iteration_timeline", model="dit")
    rows = []
    for record in timeline.records:
        rows.append(
            [
                record.index,
                "dense" if record.is_dense else "sparse",
                f"{record.latency_s * 1e6:.1f} us",
                record.bound,
                f"{record.macs_computed / 1e9:.2f} GMAC",
            ]
        )
    result.add_series(
        "DiT on EXION24: per-iteration execution (N=2 schedule)",
        ["iter", "phase", "latency", "bound", "computed"],
        rows,
    )
    result.add_note(
        f"dense/sparse steady-state latency ratio: "
        f"{timeline.dense_sparse_latency_ratio:.2f}x"
    )
    result.add_metric(
        "dense_sparse_latency_ratio", timeline.dense_sparse_latency_ratio,
        unit="x", direction="higher_better", tolerance=0.10,
    )
    max_latency = max(r.latency_s for r in timeline.records)
    result.add_metric(
        "first_iteration_is_slowest",
        1.0 if timeline.records[0].latency_s == max_latency else 0.0,
        direction="higher_better", tolerance=0.0,
    )
    return result


@register_bench("dram_stream", tags=("hw", "dram", "smoke"))
def build_dram_stream(ctx):
    result = BenchResult("dram_stream", model="")
    rows = []
    for timings in (LPDDR5_TIMINGS, GDDR6_TIMINGS):
        outcome = validate_stream_assumption(timings, megabytes=2)
        rows.append(
            [
                timings.name,
                f"{outcome['sequential_gbps']:.1f} GB/s",
                f"{outcome['random_gbps']:.1f} GB/s",
                f"{outcome['sequential_fraction_of_peak']:.1%}",
                f"{outcome['sequential_hit_rate']:.1%}",
            ]
        )
        key = timings.name.lower()
        result.add_metric(
            f"{key}.sequential_fraction_of_peak",
            outcome["sequential_fraction_of_peak"],
            direction="higher_better", tolerance=0.05,
        )
        result.add_metric(
            f"{key}.sequential_gbps", outcome["sequential_gbps"],
            unit="GB/s", direction="higher_better", tolerance=0.05,
        )
        result.add_metric(
            f"{key}.random_gbps", outcome["random_gbps"],
            unit="GB/s", direction="higher_better", tolerance=0.10,
        )
    result.add_series(
        "Banked-DRAM validation of the stream bandwidth assumption",
        ["device", "sequential", "random", "fraction of peak",
         "row-hit rate"],
        rows,
    )
    return result


def test_iteration_timeline(bench_ctx):
    result = build_timeline(bench_ctx)
    emit_result(result)

    assert result.value("dense_sparse_latency_ratio") > 1.1
    assert result.value("first_iteration_is_slowest") == 1.0


def test_dram_stream_assumption(bench_ctx):
    """Sanity bench for the stream-level DRAM model: sequential bursts
    run near the per-channel interface rate, random bursts far below."""
    result = build_dram_stream(bench_ctx)
    emit_result(result)

    for timings in (LPDDR5_TIMINGS, GDDR6_TIMINGS):
        key = timings.name.lower()
        assert result.value(f"{key}.sequential_fraction_of_peak") > 0.9
