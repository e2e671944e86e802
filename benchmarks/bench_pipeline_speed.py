"""Single-stream generation parity: compiled executor vs interpreted.

:mod:`repro.exec` compiles the phase plan once (log-domain weight
operands, timestep/adaLN tables, phase schedule, bitmask→gather index
sets) so each iteration is a pure gather/scatter replay. This bench holds
the half of that claim that is a value: at full scale (50 iterations,
full-depth DiT, the paper's Table I EXION configuration) the compiled
path is bit-identical to the interpreted oracle. ``tests/exec/`` runs
the same parity grid at ``depth=2``, 6 iterations.

The equivalence metric gates at tolerance 0.0 (parity is all-or-nothing).
How much faster the compiled path is belongs to ``perfbench``
(``exec.samples_per_s.dit``).

Run with::

    pytest benchmarks/bench_pipeline_speed.py --import-mode=importlib -s
"""

import numpy as np

from repro.bench import BenchResult, register_bench
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model

from .conftest import emit_result

ITERATIONS = 50
CLASS_LABEL = 207
SEED = 0


@register_bench("pipeline_speed", tags=("exec", "core", "smoke"))
def build_pipeline_speed(ctx):
    model = build_model("dit", seed=0, total_iterations=ITERATIONS)
    config = ExionConfig.for_model("dit")
    # The oracle must be asked for: two default pipelines would compare
    # the compiled engine against itself.
    want = ExionPipeline(model, config, compiled=False).generate(
        seed=SEED, class_label=CLASS_LABEL)
    got = ExionPipeline(model, config).generate(
        seed=SEED, class_label=CLASS_LABEL)
    checks = [
        ["sample", np.array_equal(got.sample, want.sample)],
        ["stats summary", got.stats.summary() == want.stats.summary()],
        ["FFN sparsities",
         got.stats.ffn_sparsities == want.stats.ffn_sparsities],
        ["attention sparsities",
         got.stats.attention_sparsities == want.stats.attention_sparsities],
    ]

    result = BenchResult("pipeline_speed", model="dit")
    result.add_series(
        f"DiT single-stream generation ({ITERATIONS} iterations), "
        f"compiled vs interpreted",
        ["compared", "outcome"],
        [[what, "identical" if same else "DIVERGED"]
         for what, same in checks],
    )
    result.add_metric("equivalence",
                      1.0 if all(same for _, same in checks) else 0.0,
                      direction="higher_better", tolerance=0.0)
    return result


def test_pipeline_speed(bench_ctx):
    result = build_pipeline_speed(bench_ctx)
    emit_result(result)

    assert result.value("equivalence") == 1.0
