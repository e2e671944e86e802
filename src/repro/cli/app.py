"""The ``repro`` parser: the root flags, and each command added by the
module that also handles it."""

import argparse

from repro.cli.bench import add_bench
from repro.cli.explore import add_explore
from repro.cli.obs import add_obs, add_trace
from repro.cli.one_model import (add_conmerge, add_generate, add_models, add_opcount,
                                 add_program, add_simulate)
from repro.cli.serving import add_cluster, add_serve


def build_parser() -> argparse.ArgumentParser:
    from repro._version import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="EXION (HPCA 2025) reproduction CLI"
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version (single-sourced from pyproject)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (add_models, add_generate, add_serve, add_cluster,  # --help order
                add_explore, add_trace, add_obs, add_program, add_simulate,
                add_opcount, add_conmerge, add_bench):
        add(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
