"""One cProfile pass bucketed into layers by module path.

``tottime`` (time in a function itself, callees excluded) of every
profiled function lands in exactly one bucket, so the shares sum to 1 by
construction. The bucketed total is compared with the wall time around
the profiled region and the residual is reported, not assumed small.

cProfile charges Python-call-heavy code more than numpy-heavy code, so
the shares rank layers; the probe and span timings size them.
"""

from __future__ import annotations

import cProfile
import os
import time

from perfbench.spec import SHARE_LAYERS

_SEP = os.sep
_REPRO = f"{_SEP}repro{_SEP}"
_NUMPY = f"{_SEP}numpy{_SEP}"


def layer_of(code) -> str:
    """The layer a profiler entry's code belongs to."""
    if isinstance(code, str):  # a builtin: "<built-in method numpy...>"
        return "numpy" if "numpy" in code else "other"
    filename = code.co_filename
    at = filename.rfind(_REPRO)
    if at >= 0:
        parts = filename[at + len(_REPRO):].split(_SEP)
        if parts[:2] == ["obs", "analyze"]:
            return "obs.analyze"
        if parts[0] in SHARE_LAYERS:
            return parts[0]
        return "other"
    return "numpy" if _NUMPY in filename else "other"


def profile_layers(fn) -> dict:
    """Run ``fn()`` under cProfile; self seconds per layer plus residual."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    wall_s = time.perf_counter() - start
    self_s = {layer: 0.0 for layer in SHARE_LAYERS}
    for entry in profiler.getstats():
        self_s[layer_of(entry.code)] += entry.inlinetime
    total_s = sum(self_s.values())
    return {
        "value": value,
        "wall_s": wall_s,
        "self_s": self_s,
        "shares": {k: v / total_s for k, v in self_s.items()},
        "residual_share": abs(wall_s - total_s) / wall_s,
    }
