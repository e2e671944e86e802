"""Unified iteration-program IR: one lowering, every backend.

The paper's headline numbers all derive from a single conceptual object
— the per-iteration work schedule under FFN-Reuse phases and output
sparsity. This package makes that object explicit and **single-sourced**:

- :mod:`repro.program.ir` — the typed IR
  (:class:`Op`/:class:`IterationProgram`/:class:`PhasePlan`);
- :mod:`repro.program.lower` — the one lowering
  (:func:`lower_program`, :func:`lower_plan`, :func:`block_ops`), over
  the stages :func:`repro.models.network.network_stages` gives, the ones
  the numpy network runs;
- :mod:`repro.program.encode` — canonical byte-stable JSON
  serialization and the plan digest.

Every backend consumes the IR instead of re-walking the model: the EXION
hardware simulator prices a :class:`PhasePlan`, the GPU roofline and
Cambricon-D baselines price an :class:`IterationProgram`, Delta-DiT
accounts block MACs from the sim-scale program, and the explore/cluster
layers lower once and hand the plan to the accelerator. Registering a
new :class:`~repro.workloads.specs.ModelSpec` therefore lights up every
backend with zero backend-specific code.

Quickstart::

    from repro.core.config import ExionConfig
    from repro.program import lower_plan, plan_json
    from repro.workloads.specs import get_spec

    plan = lower_plan(get_spec("dit"))   # Table I config, All ablation
    print(plan.iterations, plan.dense_iterations)
    print(plan_json(plan))           # canonical, byte-stable
    ep = ExionConfig.for_model("dit").ablation("ep")
    print(lower_plan(get_spec("dit"), ep).dense_iterations)

or from the command line: ``python -m repro program --model dit --json``.
"""

from repro.program.cache import (
    PlanCache,
    fresh_plan_cache,
    get_plan_cache,
)
from repro.program.compiled import (
    CompiledPlan,
    CompiledStep,
    PhaseSegment,
    TILE_ROWS,
    TILE_WIDTH,
    compile_plan,
)
from repro.program.encode import (
    op_to_dict,
    plan_digest,
    plan_json,
    plan_to_dict,
    program_to_dict,
)
from repro.program.ir import (
    IterationProgram,
    MMUL_BYTES_PER_ELEMENT,
    Op,
    OpKind,
    PhasePlan,
    PhaseStep,
    WEIGHT_BYTES_PER_ELEMENT,
)
from repro.program.lower import (
    block_ops,
    lower_plan,
    lower_program,
    schedule_phases,
)

__all__ = [
    "CompiledPlan",
    "CompiledStep",
    "IterationProgram",
    "MMUL_BYTES_PER_ELEMENT",
    "Op",
    "OpKind",
    "PhasePlan",
    "PhaseSegment",
    "PhaseStep",
    "PlanCache",
    "TILE_ROWS",
    "TILE_WIDTH",
    "WEIGHT_BYTES_PER_ELEMENT",
    "block_ops",
    "compile_plan",
    "fresh_plan_cache",
    "get_plan_cache",
    "lower_plan",
    "lower_program",
    "op_to_dict",
    "plan_digest",
    "plan_json",
    "plan_to_dict",
    "program_to_dict",
    "schedule_phases",
]
