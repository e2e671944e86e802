"""Command-line interface for the EXION reproduction.

Usage::

    python -m repro --version                      # single-sourced version
    python -m repro models                         # list benchmark models
    python -m repro generate --model dit --seed 1  # run EXION inference
    python -m repro serve --model dit --requests 16 --batch-size 8
    python -m repro cluster --replicas 4 --router jsq --rate 200
    python -m repro explore --strategy random --budget 16 --workers 4
    python -m repro simulate --model dit           # HW sim vs GPU baselines
    python -m repro program --model dit --json     # inspect the lowered IR
    python -m repro opcount                        # Fig. 4 breakdown
    python -m repro conmerge --model stable_diffusion

One module per command family holds each command's flags beside its
handler; ``common`` holds what they share.
"""

from repro.cli.app import build_parser, main

__all__ = ["build_parser", "main"]
