"""Typed intermediate representation of one denoising iteration.

The IR is the repo's single description of *what work a diffusion model
does per iteration* — every backend (the EXION hardware simulator, the
GPU roofline, Cambricon-D, Delta-DiT's compute accounting, the explore
objectives and the cluster service-time model) prices these objects
instead of re-walking the model structure itself:

- :class:`Op` — one MMUL of shape ``(r, k) @ (k, c)`` repeated ``count``
  times, tagged with an :class:`OpKind` (the paper Fig. 4 category) that
  backends dispatch on;
- :class:`IterationProgram` — the ordered ops of one iteration plus the
  model dimensions backends need for auxiliary (non-MMUL) work; a
  UNet's block ops appear once per stage, at that stage's token count;
- :class:`PhasePlan` — the full per-iteration schedule of one
  generation under the FFN-Reuse dense/sparse phases, annotated with the
  ablation configuration and weight-residency hints.

Lowering (model spec -> IR) lives in :mod:`repro.program.lower`;
canonical serialization in :mod:`repro.program.encode`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

#: Activation operand width on the SDUE datapath (INT12 padded to 16 bit
#: for bank alignment).
MMUL_BYTES_PER_ELEMENT = 2

#: Weight storage width: INT12 packed densely in DRAM/GSC (1.5 bytes).
WEIGHT_BYTES_PER_ELEMENT = 1.5


class OpKind(str, enum.Enum):
    """Operation category an :class:`Op` belongs to (paper Fig. 4).

    Values are plain strings (``"qkv"``, ``"attention"``, ...), so
    backends may compare against literals; the enum exists to make the
    category set closed and typo-proof.
    """

    QKV = "qkv"
    ATTENTION = "attention"
    FFN1 = "ffn1"
    FFN2 = "ffn2"
    ETC = "etc"


@dataclass(frozen=True)
class Op:
    """One MMUL of shape ``(r, k) @ (k, c)`` repeated ``count`` times."""

    name: str
    kind: OpKind
    r: int
    k: int
    c: int
    count: int = 1
    #: False for activation-by-activation MMULs (QK^T, probs @ V), which
    #: fetch no weights from DRAM.
    has_weights: bool = True

    def __post_init__(self) -> None:
        if min(self.r, self.k, self.c) <= 0 or self.count <= 0:
            raise ValueError("workload dimensions must be positive")
        object.__setattr__(self, "kind", OpKind(self.kind))

    @property
    def macs(self) -> int:
        return self.r * self.k * self.c * self.count

    @property
    def weight_bytes(self) -> int:
        """Weight footprint per execution (INT12-packed)."""
        if not self.has_weights:
            return 0
        return int(self.k * self.c * WEIGHT_BYTES_PER_ELEMENT * self.count)


@dataclass(frozen=True)
class IterationProgram:
    """Ordered ops of one denoising iteration plus the model dimensions.

    ``tokens``/``dim``/``heads``/``depth``/``ffn_mult`` are the dims the
    ops were lowered from (paper scale or sim scale per ``scale``);
    ``tokens`` is the latent's token count, which a UNet's decoder stage
    halves. Backends size auxiliary non-MMUL work (softmax/norm elements,
    CAU classification, activation spill) from these dims and from each
    stage's ``ffn_linear1`` op (its ``r`` is the stage's tokens, its
    ``count`` the stage's blocks), without touching the model.
    """

    model: str
    scale: str  # "paper" or "sim"
    tokens: int
    dim: int
    heads: int
    depth: int
    ffn_mult: int
    activation: str
    context_tokens: Optional[int]
    temporal_frames: Optional[int]
    ops: tuple = ()

    def __post_init__(self) -> None:
        if self.scale not in ("paper", "sim"):
            raise ValueError(f"scale must be 'paper' or 'sim', got {self.scale!r}")
        object.__setattr__(self, "ops", tuple(self.ops))

    @property
    def hidden(self) -> int:
        """FFN hidden width at this program's scale."""
        return self.ffn_mult * self.dim

    @property
    def stages(self) -> tuple:
        """``(tokens, blocks)`` of every stage holding blocks, in the
        order :func:`repro.models.network.network_stages` gives them:
        each transformer block runs one ``ffn_linear1`` on its stage's
        tokens."""
        return tuple(
            (op.r, op.count) for op in self.ops if op.name == "ffn_linear1"
        )

    @property
    def total_macs(self) -> int:
        return sum(op.macs for op in self.ops)

    @property
    def weight_bytes(self) -> int:
        """Dense per-iteration weight footprint (INT12-packed)."""
        return sum(op.weight_bytes for op in self.ops)

    def macs_by_kind(self) -> dict:
        """MAC totals per Fig. 4 category (``ffn1``/``ffn2`` fold into
        ``ffn``)."""
        totals = {"qkv": 0, "attention": 0, "ffn": 0, "etc": 0}
        for op in self.ops:
            kind = op.kind.value
            if kind in ("ffn1", "ffn2"):
                kind = "ffn"
            totals[kind] += op.macs
        return totals


@dataclass(frozen=True)
class PhaseStep:
    """One iteration of a :class:`PhasePlan`.

    ``weight_fetch`` annotates GSC residency: ``"cold"`` iterations
    stream the full dense weight footprint from DRAM; ``"resident"``
    iterations re-read the GSC-cached fraction on chip and stream only
    the remainder (diffusion reuses identical weights every iteration).
    """

    index: int
    is_dense: bool
    weight_fetch: str  # "cold" or "resident"

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if self.weight_fetch not in ("cold", "resident"):
            raise ValueError(
                f"weight_fetch must be 'cold' or 'resident', "
                f"got {self.weight_fetch!r}"
            )


@dataclass(frozen=True)
class PhasePlan:
    """The full per-iteration work schedule of one generation.

    One :class:`IterationProgram` (the per-iteration ops) plus the
    dense/sparse phase of every iteration under FFN-Reuse, the ablation
    configuration that shaped the schedule, and the sparsity annotations
    backends price against.
    """

    program: IterationProgram
    steps: tuple = ()
    enable_ffn_reuse: bool = True
    enable_eager_prediction: bool = True
    batch: int = 1
    # Ablation annotations (paper Table I knobs the plan was lowered for).
    sparse_iters_n: int = 0
    ffn_target_sparsity: float = 0.0
    intra_sparsity_target: float = 0.0
    top_k_ratio: float = 1.0
    q_threshold: float = 0.0
    prediction_bits: int = 12

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def iterations(self) -> int:
        return len(self.steps)

    @property
    def dense_iterations(self) -> int:
        return sum(1 for step in self.steps if step.is_dense)

    @property
    def sparse_iterations(self) -> int:
        return self.iterations - self.dense_iterations

    @property
    def dense_equivalent_macs(self) -> int:
        """Total dense-equivalent MACs of the whole generation (skipped
        work counts as done, matching the simulator's crediting)."""
        return self.program.total_macs * self.batch * self.iterations


__all__ = [
    "IterationProgram",
    "MMUL_BYTES_PER_ELEMENT",
    "Op",
    "OpKind",
    "PhasePlan",
    "PhaseStep",
    "WEIGHT_BYTES_PER_ELEMENT",
]
