"""EXION's primary contribution: output-sparsity algorithms and ConMerge.

- :mod:`repro.core.ffn_reuse` — inter-iteration output sparsity (Fig. 6),
- :mod:`repro.core.eager_prediction` — intra-iteration output sparsity
  via log-domain attention-score prediction (Fig. 5, Fig. 15),
- :mod:`repro.core.conmerge` — data compaction of sparse output matrices
  (Figs. 8, 9, 12, 13, 14),
- :mod:`repro.core.pipeline` — end-to-end EXION inference over a benchmark
  model with statistics collection.
"""

from repro.core.bitmask import Bitmask
from repro.core.config import ExionConfig
from repro.core.eager_prediction import EagerPredictor
from repro.core.ffn_reuse import FFNReuse
from repro.core.logdomain import (
    leading_one_position,
    lod_approximate,
    log_domain_matmul,
    ts_lod_approximate,
)
from repro.core.pipeline import ExionPipeline, GenerationResult
from repro.core.sparsity import RunStats

__all__ = [
    "Bitmask",
    "EagerPredictor",
    "ExionConfig",
    "ExionPipeline",
    "FFNReuse",
    "GenerationResult",
    "RunStats",
    "leading_one_position",
    "lod_approximate",
    "log_domain_matmul",
    "ts_lod_approximate",
]
