"""``bench``: the structured benchmark harness (run / list / compare);
its flags beside its handler."""

import argparse
import sys

from repro.analysis.report import format_table, percent
from repro.cli.common import read


def _paper_summary_table(result_sets: dict) -> str:
    """Each labelled result set's paper predictions, one column apiece."""
    from repro.bench import paper_summary

    summaries = [paper_summary(results) for results in result_sets.values()]
    return format_table(
        ["", *result_sets],
        [
            ["predictions", *(s["predictions"] for s in summaries)],
            ["median |value - paper| / |paper|",
             *(percent(s["median_deviation"]) for s in summaries)],
            ["above 30%", *(s["above_30pct"] for s in summaries)],
        ],
        title="Paper predictions",
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (compare_results, discover, format_report, load_results,
                             run_benches)

    if args.compare:
        baseline, current = (
            read("--compare", load_results, path) for path in args.compare
        )
        report = compare_results(baseline, current, strict=args.strict)
        print(format_report(report))
        print("\n" + _paper_summary_table({"baseline": baseline, "current": current}))
        return report.exit_code()

    registry = discover(args.benchmarks_dir)
    if args.list:
        rows = [
            [entry.name, ", ".join(entry.tags), entry.module]
            for name in registry.names()
            for entry in [registry.get(name)]
        ]
        print(format_table(
            ["bench", "tags", "module"], rows,
            title=f"Registered benches ({len(registry)})",
        ))
        return 0

    if not args.run:
        print("nothing to do: pass --list, --run, or --compare",
              file=sys.stderr)
        return 2

    results = run_benches(
        args.run, out_dir=args.out, registry=registry,
        progress=print if args.verbose else None,
    )
    rows = [
        [name, len(result.metrics), len(result.series)]
        for name, result in sorted(results.items())
    ]
    print(format_table(
        ["bench", "metrics", "series"], rows,
        title=f"Ran {len(results)} benches -> {args.out}",
    ))
    print("\n" + _paper_summary_table({
        "run": {name: result.to_dict() for name, result in results.items()},
    }))
    if args.show:
        for name, result in sorted(results.items()):
            print(f"\n=== {name} ===")
            print(result.render())
    return 0


def add_bench(sub) -> None:
    bench = sub.add_parser(
        "bench", help="structured benchmark harness (run / list / compare)"
    )
    bench.add_argument("--list", action="store_true",
                       help="list registered benches and exit")
    bench.add_argument("--run", metavar="SELECTOR", default=None,
                       help="comma-separated: 'all', bench names, tag:<tag>")
    bench.add_argument("--out", default="bench_results",
                       help="directory for BENCH_<name>.json results")
    bench.add_argument("--compare", nargs=2,
                       metavar=("BASELINE", "CURRENT"), default=None,
                       help="diff two result sets (file or directory each)")
    bench.add_argument("--strict", action="store_true",
                       help="treat missing benches/metrics as regressions")
    bench.add_argument("--benchmarks-dir", default=None,
                       help="override the benchmarks/ directory to discover")
    bench.add_argument("--show", action="store_true",
                       help="print each bench's rendered tables after running")
    bench.add_argument("--verbose", action="store_true",
                       help="print per-bench progress while running")
    bench.set_defaults(func=_cmd_bench)
