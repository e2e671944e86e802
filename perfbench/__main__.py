"""``python -m perfbench``: run the benchmark.

With ``--workload`` it is the command ``BENCHMARK.json`` names: one
workload in this process, every metric printed with its unit, the result
object on the last line. Without it, every workload runs in its own fresh
subprocess, one at a time, untraced then traced; ``--sets 2 --runs 10``
calibrates the regression bounds from two back-to-back sets.
"""

import time

_T0 = time.perf_counter()  # before ``import repro``: set-up time starts here

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from perfbench.spec import RUN_SECONDS, WORKLOAD_NAMES, add_program_to_path  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="sizes the fixed op counts; 36 is scale 1.0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="1/50 scale with short schedules (the tests use it)")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat the whole benchmark; 2 calibrates the bounds")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload and set, seeds seed..seed+runs-1")
    parser.add_argument("--out", default=None,
                        help="where the combined results go (default perfbench/out/results.json)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    add_program_to_path()
    if args.workload is None:
        if args.trace is not None or args.setup_probe:
            sys.exit("perfbench: --trace and --setup-probe need --workload")
        from perfbench.suite import run_suite

        return run_suite(args.seed, args.seconds, args.quick, args.sets, args.runs, args.out)

    from perfbench import runner

    if args.setup_probe:
        print(json.dumps(runner.setup_probe(args.workload, args.seed, args.quick, _T0)))
        return 0
    run = runner.run_traced if args.trace else runner.run_untraced
    doc = run(args.workload, args.seed, args.seconds, args.quick)
    runner.write_document(doc)
    runner.print_run(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
