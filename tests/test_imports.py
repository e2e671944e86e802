"""Import budget: a cold ``import repro`` loads what it runs and no more.

scipy is needed only by ``frechet_distance`` (its ``sqrtm``), which
imports it when called; ``numpy.f2py`` and ``numpy.testing`` came in only
through scipy. The second case checks that the deferred import still
gives the committed ``table1_accuracy`` value.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.models.zoo import build_model
from repro.workloads.metrics import fid_proxy

ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = ROOT / "benchmarks" / "baseline" / "BENCH_repro.json"
PACKAGES = (
    "repro", "repro.cluster", "repro.obs", "repro.obs.analyze", "repro.exec",
    "repro.serve", "repro.hw", "repro.program",
)
ABSENT = ("scipy", "numpy.f2py", "numpy.testing")


def test_cold_import_leaves_heavy_modules_unloaded():
    code = (
        "import importlib, sys\n"
        f"for name in {PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in {ABSENT!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.stdout.strip() == "[]"


def test_fid_proxy_matches_committed_table1_value():
    """``dit.ffnr.fid_proxy`` as ``bench_table1_accuracy`` computes it:
    vanilla vs FFN-Reuse over seeds 0-5 at 15 iterations. ``sqrtm``'s last
    bits follow the BLAS build (the committed value and numpy 2.4.6 with
    scipy 1.17.1 on x86-64 differ by 1e-11 relative), hence ``rel=1e-9``."""
    with BASELINE_PATH.open(encoding="utf-8") as fh:
        metrics = json.load(fh)["results"]["table1_accuracy"]["metrics"]
    model = build_model("dit", seed=0, total_iterations=15)
    vanilla_pipe = ExionPipeline(model, ExionConfig.for_model("dit"))
    ffnr_pipe = ExionPipeline(
        model, ExionConfig.for_model("dit", enable_eager_prediction=False))
    seeds = range(6)
    vanilla = np.stack([
        vanilla_pipe.generate_vanilla(seed=s, prompt="bench").sample
        for s in seeds
    ])
    ffnr = np.stack([
        ffnr_pipe.generate(seed=s, prompt="bench").sample for s in seeds
    ])
    committed = metrics["dit.ffnr.fid_proxy"]["value"]
    assert fid_proxy(vanilla, ffnr) == pytest.approx(committed, rel=1e-9)
