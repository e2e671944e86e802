"""Lowering-pipeline gate: byte-stable plans, accelerator-vs-IR parity.

Two contracts of :mod:`repro.program`, locked into the perf baseline:

- **byte stability** — the canonical JSON of every model's lowered
  :class:`~repro.program.ir.PhasePlan` must not change silently. The
  plan's byte length and its SHA-256 digest (first 48 bits, an exact
  float) are gated with zero tolerance; any structural change to the
  lowering shows up as a digest drift that must be re-baselined
  deliberately.
- **single-lowering parity** — pricing a spec through the spec-level
  wrapper (:meth:`~repro.hw.accelerator.ExionAccelerator.simulate`) and
  through an explicitly lowered plan
  (:meth:`~repro.hw.accelerator.ExionAccelerator.simulate_plan`) must
  agree *exactly*: same latency, same dense-equivalent ops. Tolerance is
  0 — there is only one lowering, so there is nothing to drift.

The gate covers the Table I models and the extended lowering-pipeline
scenarios (video DiT with temporal attention, SDXL-class UNet).
"""

from repro.bench import BenchResult, register_bench
from repro.hw.accelerator import ExionAccelerator
from repro.hw.profile import estimate_profile
from repro.program import lower_plan, plan_digest, plan_json
from repro.workloads.specs import ALL_MODEL_ORDER, get_spec

from .conftest import emit_result


def _profile_for(ctx, name):
    if name in ctx.profiles:
        return ctx.profiles[name]
    return estimate_profile(get_spec(name), seed=0)


@register_bench("program_lowering", tags=("program", "smoke"))
def build_program_lowering(ctx):
    result = BenchResult("program_lowering", model="all")
    acc = ExionAccelerator.exion24()
    rows = []
    for name in ALL_MODEL_ORDER:
        spec = get_spec(name)
        profile = _profile_for(ctx, name)
        plan = lower_plan(spec)
        blob = plan_json(plan)
        digest = plan_digest(plan)

        spec_report = acc.simulate(spec, profile)
        plan_report = acc.simulate_plan(plan, profile)
        latency_parity = abs(
            plan_report.latency_s - spec_report.latency_s
        ) / spec_report.latency_s
        macs_parity = abs(
            plan_report.dense_equivalent_ops
            - 2 * plan.dense_equivalent_macs
        ) / (2 * plan.dense_equivalent_macs)

        result.add_metric(f"{name}.plan_bytes", len(blob),
                          unit="B", tolerance=0.0)
        # First 48 bits of the digest: exactly representable as a float,
        # so the whole canonical encoding is pinned bit-for-bit.
        result.add_metric(f"{name}.plan_digest48", int(digest[:12], 16),
                          tolerance=0.0)
        result.add_metric(f"{name}.latency_parity_rel", latency_parity,
                          direction="lower_better", tolerance=0.0)
        result.add_metric(f"{name}.macs_parity_rel", macs_parity,
                          direction="lower_better", tolerance=0.0)
        rows.append([
            name,
            len(plan.program.ops),
            f"{plan.program.total_macs:.3e}",
            f"{plan.program.weight_bytes / 1e6:.1f} MB",
            f"{plan.iterations} ({plan.dense_iterations}d)",
            digest[:12],
        ])
    result.add_series(
        "Lowering pipeline — spec -> IterationProgram -> PhasePlan",
        ["model", "ops", "MACs/iter", "weights/iter", "iters (dense)",
         "plan digest"],
        rows,
    )
    return result


def test_program_lowering(bench_ctx):
    result = build_program_lowering(bench_ctx)
    emit_result(result)
    for name in ALL_MODEL_ORDER:
        assert result.value(f"{name}.latency_parity_rel") == 0.0
        assert result.value(f"{name}.macs_parity_rel") == 0.0
        assert result.value(f"{name}.plan_bytes") > 0
