"""``explore``: parallel design-space exploration with Pareto
reporting; its flags beside its handler."""

import argparse
import json

from repro.cli.common import count, load_json, model_name, read, write


def _parse_set_expression(expression: str) -> tuple:
    """Parse one ``--set DIM=V1[,V2...]`` into ``(name, values)``."""
    if "=" not in expression:
        raise SystemExit(
            f"bad --set: expected DIM=V1[,V2...], got {expression!r}"
        )
    name, _, raw = expression.partition("=")
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(json.loads(token))
        except ValueError:
            values.append(token)
    if not values:
        raise SystemExit(f"bad --set: {name}= needs at least one value")
    return name.strip(), values


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (ExploreRunner, GridSearch, PointEvaluator, RandomSearch,
                               SearchSpace, cluster_space, default_space)

    if args.space is not None:
        space = read(
            "--space", lambda path: SearchSpace.from_dict(load_json(path)),
            args.space,
        )
    elif args.cluster:
        space = cluster_space(args.model)
    else:
        space = default_space(args.model)
    for expression in args.set or []:
        name, values = _parse_set_expression(expression)
        try:
            space = space.restrict(name, values)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"bad --set: {exc.args[0]}")

    if args.objectives is not None:
        objectives = tuple(
            t.strip() for t in args.objectives.split(",") if t.strip()
        )
    elif args.cluster:
        objectives = ("samples_per_s", "slo_attainment", "energy_j")
    else:
        objectives = ("latency_s", "energy_j", "accuracy_psnr_db")

    try:
        if args.strategy == "grid":
            strategy = GridSearch(levels=args.grid_levels)
        else:
            strategy = RandomSearch(budget=args.budget)
    except ValueError as exc:
        flag = "--grid-levels" if args.strategy == "grid" else "--budget"
        raise SystemExit(f"bad {flag}: {exc}")

    evaluator = PointEvaluator(objectives=objectives, model=args.model,
                               iterations=args.iterations, base_seed=args.seed)
    runner = ExploreRunner(space, strategy, evaluator, workers=args.workers,
                           cache_dir=args.cache_dir, seed=args.seed)
    report = runner.run()
    print(report.render())
    stats = runner.stats
    print(
        f"evaluated={stats.evaluated} cache_hits={stats.cache_hits} "
        f"cache_misses={stats.cache_misses} "
        f"(hit rate {stats.hit_rate * 100:.1f}%) workers={stats.workers}"
    )
    if args.json is not None:
        write(args.json, report.to_json())
    return 0


def add_explore(sub) -> None:
    exp = sub.add_parser(
        "explore",
        help="parallel design-space exploration with Pareto reporting",
    )
    exp.add_argument("--space", default=None,
                     help="JSON space file (SearchSpace.to_dict layout); "
                          "default is the built-in co-design space")
    exp.add_argument("--cluster", action="store_true",
                     help="explore the fleet scenario space (replicas, "
                          "router, arrival rate) instead of the default "
                          "hardware+ablation space")
    exp.add_argument("--set", action="append", default=[],
                     metavar="DIM=V1[,V2...]",
                     help="pin or restrict a dimension inline (repeatable); "
                          "values are parsed as JSON when possible")
    exp.add_argument("--model", type=model_name, default="dit",
                     help="benchmark model the default space is built for")
    exp.add_argument("--strategy", default="random",
                     choices=["grid", "random"])
    exp.add_argument("--budget", type=int, default=12,
                     help="points sampled by the random strategy")
    exp.add_argument("--grid-levels", type=int, default=2,
                     help="grid levels per range dimension")
    exp.add_argument("--objectives", default=None,
                     help="comma-separated objective names (default: "
                          "latency_s,energy_j,accuracy_psnr_db; cluster "
                          "mode: samples_per_s,slo_attainment,energy_j)")
    exp.add_argument("--iterations", type=count, default=12,
                     help="denoising iterations the objectives price")
    exp.add_argument("--workers", type=count, default=1,
                     help="evaluation worker processes")
    exp.add_argument("--cache-dir", default=None,
                     help="content-addressed evaluation cache directory "
                          "(identical points are never re-evaluated)")
    exp.add_argument("--seed", type=int, default=0,
                     help="search + evaluation seed; same seed -> "
                          "byte-identical report")
    exp.add_argument("--json", default=None,
                     help="write the canonical ExploreReport JSON here")
    exp.set_defaults(func=_cmd_explore)
