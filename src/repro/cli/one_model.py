"""The commands that look at one model, or list them: ``models``,
``generate``, ``program``, ``simulate``, ``opcount`` and ``conmerge``;
each command's flags beside its handler."""

import argparse
import json

from repro.analysis.report import format_table, percent
from repro.cli.common import ACCELERATOR_NAMES, count, model_name
from repro.core.config import ABLATIONS


def _cmd_models(args: argparse.Namespace) -> int:
    from repro.workloads.specs import BENCHMARK_ORDER, EXTENDED_ORDER, get_spec

    def rows_for(names):
        return [
            [name, spec.task, f"type {spec.network_type}", spec.total_iterations,
             f"N={spec.sparse_iters_n}", percent(spec.target_inter_sparsity, 0),
             percent(spec.target_intra_sparsity, 0)]
            for name in names for spec in [get_spec(name)]
        ]

    headers = ["name", "task", "network", "iters", "FFN-Reuse",
               "inter sparsity", "intra sparsity"]
    print(format_table(headers, rows_for(BENCHMARK_ORDER),
                       title="Benchmark models (paper Table I)"))
    print(format_table(headers, rows_for(EXTENDED_ORDER),
                       title="Extended models (lowering-pipeline scenarios)"))
    return 0


def add_models(sub) -> None:
    sub.add_parser("models", help="list benchmark models").set_defaults(func=_cmd_models)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.core.config import ExionConfig
    from repro.core.pipeline import ExionPipeline
    from repro.models.zoo import build_model
    from repro.workloads.metrics import psnr

    model = build_model(args.model, seed=args.model_seed,
                        total_iterations=args.iterations)
    config = ExionConfig.for_model(args.model).ablation(args.ablation)
    pipeline = ExionPipeline(model, config)
    kwargs = {"seed": args.seed}
    if args.class_label is not None:
        kwargs["class_label"] = args.class_label
    else:
        kwargs["prompt"] = args.prompt

    result = pipeline.generate(**kwargs)
    stats = result.stats
    print(f"model={args.model} ablation={args.ablation} seed={args.seed}")
    print(f"sample shape {result.sample.shape}, "
          f"range [{result.sample.min():.3f}, {result.sample.max():.3f}]")
    summary = stats.summary()
    for key, value in summary.items():
        formatted = percent(value) if isinstance(value, float) else value
        print(f"  {key:28s} {formatted}")
    if args.compare_vanilla:
        vanilla = pipeline.generate_vanilla(**kwargs)
        print(f"  PSNR vs vanilla              "
              f"{psnr(vanilla.sample, result.sample):.2f} dB")
    return 0


def add_generate(sub) -> None:
    gen = sub.add_parser("generate", help="run EXION inference")
    gen.add_argument("--model", type=model_name, default="dit")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--model-seed", type=int, default=0)
    gen.add_argument("--iterations", type=count, default=None)
    conditioning = gen.add_mutually_exclusive_group()
    conditioning.add_argument("--prompt", default="a corgi surfing a wave")
    conditioning.add_argument("--class-label", type=int, default=None)
    gen.add_argument("--ablation", default="all", choices=ABLATIONS)
    gen.add_argument("--compare-vanilla", action="store_true")
    gen.set_defaults(func=_cmd_generate)


def _cmd_program(args: argparse.Namespace) -> int:
    from repro.core.config import ExionConfig
    from repro.program import lower_plan, plan_digest, plan_json
    from repro.workloads.specs import get_spec

    spec = get_spec(args.model)
    config = ExionConfig.for_model(args.model).ablation(args.ablation)
    plan = lower_plan(spec, config=config, iterations=args.iterations, batch=args.batch)
    if args.compile:
        return _print_compiled_plan(plan, as_json=args.json)
    if args.json:
        print(plan_json(plan), end="")
        return 0

    program = plan.program
    rows = [
        [op.name, op.kind.value, op.r, op.k, op.c, op.count,
         f"{op.macs:.3e}", op.weight_bytes]
        for op in program.ops
    ]
    print(format_table(
        ["op", "kind", "r", "k", "c", "count", "MACs", "weight bytes"],
        rows,
        title=(f"IterationProgram {program.model} "
               f"({program.scale} scale, depth {program.depth})"),
    ))
    by_kind = program.macs_by_kind()
    total = max(program.total_macs, 1)
    print(f"phase plan: {plan.iterations} iterations "
          f"({plan.dense_iterations} dense / {plan.sparse_iterations} "
          f"sparse, N={plan.sparse_iters_n}), batch={plan.batch}, "
          f"ablation={args.ablation}")
    print("MACs/iter "
          + "  ".join(f"{k}={percent(v / total)}" for k, v in by_kind.items())
          + f"  total={program.total_macs:.3e}")
    print(f"weights/iter {program.weight_bytes / 1e6:.2f} MB (INT12 packed)")
    print(f"plan digest {plan_digest(plan)}")
    return 0


def _print_compiled_plan(plan, as_json: bool = False) -> int:
    """Render ``compile_plan(plan).index_set_stats()`` (``--compile``)."""
    from repro.program import compile_plan

    compiled = compile_plan(plan)
    stats = compiled.index_set_stats()
    if as_json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0

    shown = compiled.phases[:12]
    rows = [[p.index, p.dense_step,
             " ".join(str(s) for s in p.sparse_steps) or "-"]
            for p in shown]
    if len(compiled.phases) > len(shown):
        rows.append(["...", f"({len(compiled.phases) - len(shown)} more)",
                     ""])
    print(format_table(
        ["phase", "dense step", "sparse steps"],
        rows,
        title=(f"CompiledPlan {stats['model']} ({stats['scale']} scale): "
               f"{stats['iterations']} iterations -> "
               f"{stats['phases']} phases, "
               f"{stats['tile_rows']}x{stats['tile_width']} tiles"),
    ))
    ffn = stats.get("ffn")
    if ffn is not None:
        masks = ", ".join(
            f"mask {s['mask_shape'][0]}x{s['mask_shape'][1]} "
            f"x{s['masks_per_phase']}/phase (expected gather "
            f"{s['expected_gather_size']}, {s['tiles_per_mask']} tiles/mask)"
            for s in ffn["stages"]
        )
        print(f"ffn index sets: {masks}; "
              f"{percent(1.0 - ffn['expected_sparsity'])} kept, "
              f"amortized over {ffn['sparse_steps_amortizing']} "
              "sparse steps")
    attn = stats.get("attention")
    if attn is not None:
        scores = ", ".join(
            f"scores {'x'.join(str(d) for d in s['score_shape'])} "
            f"x{s['layers']}, keep {s['keep_per_row']}/row "
            f"(expected keep {s['expected_keep_size']})"
            for s in attn["stages"]
        )
        print(f"attention index sets: {scores}; "
              f"{attn['cached_weight_operands']} cached weight operands")
    if ffn is None and attn is None:
        print("base ablation: no sparse index sets to precompute")
    return 0


def add_program(sub) -> None:
    prg = sub.add_parser(
        "program",
        help="inspect the lowered iteration-program IR for a model",
    )
    prg.add_argument("--model", type=model_name, default="dit")
    prg.add_argument("--ablation", default="all", choices=ABLATIONS)
    prg.add_argument("--iterations", type=count, default=None,
                     help="phase-plan length (default: the spec's count)")
    prg.add_argument("--batch", type=count, default=1)
    prg.add_argument("--json", action="store_true",
                     help="emit the canonical byte-stable plan JSON")
    prg.add_argument("--compile", action="store_true",
                     help="compile the plan and dump its phase schedule "
                          "and expected index-set sizes (with --json: "
                          "the stats dict as JSON)")
    prg.set_defaults(func=_cmd_program)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines.gpu import GPUModel
    from repro.baselines.specs import EDGE_GPU, SERVER_GPU
    from repro.cluster.replica import make_accelerator
    from repro.workloads.specs import get_spec

    spec = get_spec(args.model)
    acc = make_accelerator(args.accelerator)
    report = acc.simulate(spec, batch=args.batch)
    gpu_spec = EDGE_GPU if args.accelerator == "exion4" else SERVER_GPU
    gpu = GPUModel(gpu_spec).simulate(spec, batch=args.batch)

    rows = [
        [gpu.gpu, f"{gpu.latency_s * 1e3:.3f} ms", f"{gpu.energy_j:.4f} J",
         f"{gpu.tops_per_watt:.4f}"],
        [report.accelerator, f"{report.latency_s * 1e3:.3f} ms",
         f"{report.energy_j:.4f} J", f"{report.tops_per_watt:.4f}"],
    ]
    print(format_table(
        ["device", "latency", "energy", "TOPS/W"],
        rows,
        title=f"{spec.display_name}, batch={args.batch}",
    ))
    print(f"speedup {gpu.latency_s / report.latency_s:.1f}x, "
          f"efficiency gain "
          f"{report.tops_per_watt / gpu.tops_per_watt:.1f}x, "
          f"{report.computed_ops / report.dense_equivalent_ops:.1%} of "
          f"the dense ops computed")
    return 0


def add_simulate(sub) -> None:
    sim = sub.add_parser("simulate", help="hardware simulation vs GPU")
    sim.add_argument("--model", type=model_name, default="dit")
    sim.add_argument("--accelerator", default="exion24",
                     choices=ACCELERATOR_NAMES)
    sim.add_argument("--batch", type=count, default=1)
    sim.set_defaults(func=_cmd_simulate)


def _cmd_opcount(args: argparse.Namespace) -> int:
    from repro.analysis.opcount import operation_breakdown_table

    rows = operation_breakdown_table()
    print(format_table(
        ["model", "ops/iter", "qkv", "attention", "ffn", "etc"],
        [
            [
                r["model"],
                f"{r['total_ops']:.2e}",
                percent(r["qkv_share"]),
                percent(r["attention_share"]),
                percent(r["ffn_share"]),
                percent(r["etc_share"]),
            ]
            for r in rows
        ],
        title="Operation breakdown per iteration (paper Fig. 4)",
    ))
    return 0


def add_opcount(sub) -> None:
    sub.add_parser("opcount", help="Fig. 4 operation breakdown").set_defaults(func=_cmd_opcount)


def _cmd_conmerge(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.conmerge.cvg import conmerge_tiled
    from repro.workloads.generator import ffn_output_bitmask
    from repro.workloads.specs import get_spec

    spec = get_spec(args.model)
    mask = ffn_output_bitmask(
        min(spec.paper_tokens, 128),
        min(spec.paper_ffn_mult * spec.paper_dim, 1024),
        spec.target_inter_sparsity,
        rng=np.random.default_rng(args.seed),
    )
    result = conmerge_tiled(mask)
    print(f"{spec.display_name}: {mask.rows}x{mask.cols} mask at "
          f"{percent(mask.sparsity)} sparsity")
    print(f"  condensing : {percent(result.condense_ratio)} columns remain")
    print(f"  + merging  : {percent(result.remaining_column_ratio)} "
          f"columns remain across {result.num_blocks} tile blocks")
    print(f"  utilization: {percent(result.utilization)} of DPUs active")
    print(f"  CVG cycles : {result.cycles}")
    return 0


def add_conmerge(sub) -> None:
    cm = sub.add_parser("conmerge", help="ConMerge compaction demo")
    cm.add_argument("--model", type=model_name, default="stable_diffusion")
    cm.add_argument("--seed", type=int, default=0)
    cm.set_defaults(func=_cmd_conmerge)
