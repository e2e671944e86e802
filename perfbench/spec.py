"""The benchmark's names: workloads, metrics, units, directions, sizes.

Everything that ``BENCHMARK.json`` lists is generated from the tables
here (:func:`benchmark_json`), and every result a run prints is checked
against them (:func:`validate_result`), so a name exists in one place.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
CALIBRATION_JSON = Path(__file__).resolve().parent / "calibration.json"


def add_program_to_path() -> None:
    """Put this checkout's ``src`` first on ``sys.path``: the benchmark
    measures ``src/repro`` of the checkout it sits in and nothing else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


COMMAND = ["python3", "-m", "perfbench"]
PATHS = ["perfbench"]
#: Seconds one run measures for. The op counts below are sized so that a
#: workload's timed phase lasts about this long on the 2-core reference box.
RUN_SECONDS = 12

#: Op counts are fixed per ``--seconds`` (not durations), so exact counts
#: compare across commits: ``ops = round(REF_OPS * seconds / REF_SECONDS)``.
#: ``seconds / REF_SECONDS`` is the common op-count scale factor every
#: result records.
REF_SECONDS = 36
REF_OPS = {
    "single_stream": 198,  # generate() calls, rotating three models
    "batch8": 36,  # generate_batch() calls of 8 seeds
    "serve_saturated": 288,  # requests through one ContinuousServer
    "fleet_sim": 54,  # cells of CELL_REQUESTS simulated requests
}
#: Fresh processes timed for ``setup_s`` in one run (the median is reported).
SETUP_PROBES = 5
#: A traced run repeats the workload at this share of the op count.
TRACE_OPS_SHARE = 1 / 3
MIN_OPS = {"single_stream": 3, "batch8": 2, "serve_saturated": 12, "fleet_sim": 1}
CELL_REQUESTS = 100

WORKLOADS = (
    ("single_stream",
     "closed loop, 1 caller, compiled generate() over dit@50/stable_diffusion/mld: "
     "per-sample latency; core, models and exec do all the work"),
    ("batch8",
     "closed loop, compiled generate_batch(8 seeds, batched=True) on dit@50 and "
     "stable_diffusion: offline throughput through the batched kernels"),
    ("serve_saturated",
     "closed loop, 12 outstanding on a real-numerics ContinuousServer with staggered "
     "joins: continuous goodput including membership edits and DRR admission"),
    ("fleet_sim",
     "dry-run MMPP cells on 4 continuous replicas plus trace analysis and report: "
     "simulator and analytics speed; bypasses every numeric kernel"),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    exact: bool = False  # a count or digest that repeats exactly per seed


#: Regression bounds when BENCHMARK.json is absent; ``--sets 2`` re-derives
#: them from measured spread and stores what it measured in calibration.json.
END_TO_END = (
    (Metric("work_per_s", "1/s", "higher"), 0.25),
    (Metric("call_p50_ms", "ms", "lower"), 0.25),
    (Metric("setup_s", "s", "lower"), 0.25),
    (Metric("peak_rss_mb", "MB", "lower"), 0.10),
)

#: Layers of the cProfile bucketing: package names plus numpy and other.
SHARE_LAYERS = (
    "models", "core", "program", "hw", "exec", "serve", "cluster", "obs",
    "obs.analyze", "numpy", "other",
)
GENERATION_MODELS = ("dit", "stable_diffusion", "mld")


def _per_layer() -> tuple:
    lo, hi = "lower", "higher"
    rows = [
        ("models.build_s", "s", lo), ("models.gelu_us", "us", lo),
        ("models.layernorm_us", "us", lo),
        ("core.ts_lod_us", "us", lo), ("core.quantize_symmetric_us", "us", lo),
        ("core.leading_one_us", "us", lo), ("core.log_matmul_us", "us", lo),
        ("core.ep_attention_step_us", "us", lo),
        ("core.ffn_output_sparsity", "ratio", hi, True),
        ("core.attention_output_sparsity", "ratio", hi, True),
        ("core.ffn_ops_reduction", "ratio", hi, True),
        ("core.dense_iterations", "count", lo, True),
        ("program.lower_ms", "ms", lo), ("program.compile_ms", "ms", lo),
        ("program.digest_ms", "ms", lo),
        ("program.cache_misses_setup", "count", lo, True),
        ("program.cache_hit_rate_steady", "ratio", hi, True),
        ("hw.profile_s", "s", lo), ("hw.price_ms", "ms", lo),
        ("exec.construct_s", "s", lo), ("exec.first_call_extra_ms", "ms", lo),
    ]
    rows += [(f"exec.samples_per_s.{m}", "1/s", hi) for m in GENERATION_MODELS]
    rows += [
        ("exec.dense_iter_ms", "ms", lo), ("exec.sparse_iter_ms", "ms", lo),
        ("exec.tick_ms_occ1", "ms", lo), ("exec.tick_ms_occ8", "ms", lo),
        ("exec.restack_extra_ms", "ms", lo),
        ("serve.ticks", "count", lo, True), ("serve.joins", "count", lo, True),
        ("serve.mean_occupancy", "ratio", hi, True),
        ("serve.preemptions", "count", lo, True),
        ("serve.midflight_join_share", "ratio", hi, True),
        ("serve.queue_wait_p50_ms", "ms", lo),
        ("serve.sched_us_per_tick", "us", lo),
        ("serve.threshold_cache_hit_rate", "ratio", hi, True),
        ("serve.open.latency_p50_ms", "ms", lo),
        ("serve.open.latency_p90_ms", "ms", lo),
        ("serve.open.join_wait_p50_ms", "ms", lo),
        ("serve.open.deadline_met_share", "ratio", hi),
        ("serve.open.generator_lag_p99_ms", "ms", lo),
        ("cluster.sim_req_per_s", "1/s", hi), ("cluster.host_us_per_tick", "us", lo),
        ("cluster.trace_synth_ms", "ms", lo), ("cluster.report_encode_ms", "ms", lo),
        ("cluster.drain_req_per_s", "1/s", hi),
        ("cluster.backlog_scaling_exp", "ratio", lo),
        ("cluster.served", "count", hi, True), ("cluster.drops", "count", lo, True),
        ("cluster.mean_utilization", "ratio", hi, True),
        ("cluster.report_digest", "hex48", lo, True),
        ("obs.spans", "count", lo, True), ("obs.export_ms", "ms", lo),
        ("obs.enabled_overhead_ratio", "ratio", lo),
        ("obs.analyze.spans_per_s", "1/s", hi),
        ("obs.analyze.attribution_ms", "ms", lo),
        ("obs.analyze.critical_path_ms", "ms", lo),
        ("obs.analyze.slo_ms", "ms", lo), ("obs.analyze.to_json_ms", "ms", lo),
        ("obs.analyze.render_html_ms", "ms", lo),
        ("obs.analyze.max_residual_ns", "ns", lo, True),
        ("host.cpu_s_per_wall_s", "ratio", hi), ("host.gc_collections", "count", lo),
        ("host.trace_overhead_ratio", "ratio", lo),
        ("host.profile_residual_share", "ratio", lo),
        ("host.speed_factor", "ratio", lo),
        # Demoted from end-to-end: two workloads finish too few calls in a
        # run for any ladder percentile, and the contract wants every
        # end-to-end metric on every workload.
        ("call_tail_ms", "ms", lo),
    ]
    for layer in SHARE_LAYERS:
        rows.append((f"{layer}.self_share", "ratio", lo))
        rows.append((f"{layer}.self_ms_per_op", "ms", lo))
    return tuple(Metric(*row) for row in rows)


PER_LAYER = _per_layer()
E2E_NAMES = tuple(m.name for m, _ in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
UNITS = {m.name: m.unit for m in PER_LAYER}
UNITS.update({m.name: m.unit for m, _ in END_TO_END})
BETTER = {m.name: m.better for m in PER_LAYER}
BETTER.update({m.name: m.better for m, _ in END_TO_END})
EXACT_NAMES = tuple(m.name for m in PER_LAYER if m.exact)


def ops_for(workload: str, seconds: float, quick: bool = False) -> int:
    """The fixed op count of ``workload`` for a ``--seconds`` budget."""
    if quick:
        return MIN_OPS[workload]
    return max(MIN_OPS[workload], round(REF_OPS[workload] * seconds / REF_SECONDS))


def benchmark_json(bounds: dict | None = None) -> dict:
    """The BENCHMARK.json document, with exactly the contract's keys."""
    bounds = bounds or {}
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": bounds.get(m.name, default)}
            for m, default in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def stored_bounds() -> dict:
    """Bounds as committed in BENCHMARK.json (defaults when it is absent)."""
    bounds = {m.name: default for m, default in END_TO_END}
    if BENCHMARK_JSON.is_file():
        doc = json.loads(BENCHMARK_JSON.read_text())
        bounds.update({row["name"]: row["bound"] for row in doc["end_to_end"]})
    return bounds


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate_result(result: dict, trace: bool) -> list:
    """Problems with one run's result line; an empty list means valid."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"keys are {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = PER_LAYER_NAMES if trace else E2E_NAMES
    metrics = result["metrics"]
    for name in expected:
        if name not in metrics:
            problems.append(f"missing {name}")
    for name, row in metrics.items():
        if name not in expected:
            problems.append(f"unexpected {name}")
            continue
        if sorted(row) != ["unit", "value"]:
            problems.append(f"{name}: keys are {sorted(row)}")
            continue
        if row["unit"] != UNITS[name] or not _UNIT_RE.match(row["unit"]):
            problems.append(f"{name}: unit {row['unit']!r}")
        value = row["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: value is not a number")
        elif value != value or value in (float("inf"), float("-inf")):
            problems.append(f"{name}: value is not finite")
        elif not trace and value == 0:
            problems.append(f"{name}: end-to-end value is 0")
    return problems


def validate_benchmark_json(doc: dict) -> list:
    """Problems with a BENCHMARK.json document against the contract."""
    problems = []
    keys = ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
    if sorted(doc) != keys:
        return [f"keys are {sorted(doc)}"]
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"]]
    names += [m["name"] for m in doc["per_layer"]]
    for name in names:
        if not _NAME_RE.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for row in doc["end_to_end"]:
        if sorted(row) != ["better", "bound", "name", "unit"]:
            problems.append(f"{row.get('name')}: keys are {sorted(row)}")
        elif not 0 < row["bound"] <= 0.25:
            problems.append(f"{row['name']}: bound {row['bound']}")
    for row in doc["end_to_end"] + doc["per_layer"]:
        if not _UNIT_RE.match(row["unit"]):
            problems.append(f"{row['name']}: unit {row['unit']!r}")
        if row["better"] not in ("higher", "lower"):
            problems.append(f"{row['name']}: better {row['better']!r}")
    if not any(
        row["name"] == "setup_s" and row["unit"] == "s" and row["better"] == "lower"
        for row in doc["end_to_end"]
    ):
        problems.append("no setup_s end-to-end metric")
    if not 2 <= len(doc["workloads"]) <= 8:
        problems.append("workload count")
    if not 1 <= len(doc["per_layer"]) <= 128:
        problems.append("per_layer count")
    for w in doc["workloads"]:
        if sorted(w) != ["name", "why"] or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w.get('name')}: why")
    return problems
