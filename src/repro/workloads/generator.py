"""Synthetic paper-scale workload generation.

The runnable substrate is simulation-scale; the hardware evaluation needs
output-sparsity *masks* at the published model dimensions (e.g. Stable
Diffusion's 1024-token, 2560-hidden FFN). This module synthesizes bitmasks
with the two structural properties the paper's data exhibits:

- **FFN masks** have column structure: some hidden features stay below the
  reuse threshold for *every* token (these are what condensing removes),
  while active features are non-sparse for only a small fraction of tokens
  (paper Figs. 7-8);
- **attention keep-masks** concentrate on popular key columns (top-k rows
  agree on important keys) with fully-skipped one-hot rows, which is what
  makes EP's K/V-projection skipping possible (Section II-B).

Every generator takes an **explicit** RNG: pass a seeded
``numpy.random.Generator`` (or an integer seed, normalized through
:func:`as_rng`). There is deliberately no hidden ``default_rng(0)``
fallback — serve and cluster runs must propagate one seed end to end to
stay reproducible, so a forgotten RNG is an error, not a silent default.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.bitmask import Bitmask


def as_rng(rng: Union[int, np.random.Generator]) -> np.random.Generator:
    """Normalize an explicit seed or generator into a ``Generator``.

    ``None`` is rejected on purpose: callers must say where their
    randomness comes from.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        "pass an explicit int seed or numpy.random.Generator "
        f"(got {rng!r}); the hidden default_rng(0) fallback was removed"
    )


def ffn_output_bitmask(
    rows: int,
    cols: int,
    sparsity: float,
    dead_col_fraction: Optional[float] = None,
    *,
    rng: Union[int, np.random.Generator],
) -> Bitmask:
    """FFN-Reuse bitmask with column-correlated sparsity.

    ``dead_col_fraction`` of columns (``None``: the ``HARDWARE`` record's)
    are fully sparse (condensable); the remaining columns carry Bernoulli
    occupancy tuned so the overall element sparsity equals ``sparsity``.
    """
    rng = as_rng(rng)
    if dead_col_fraction is None:  # imported here: repro.hw imports this module
        from repro.hw.constants import HARDWARE
        dead_col_fraction = HARDWARE.dead_col_fraction
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be in [0, 1]")
    if not 0.0 <= dead_col_fraction < 1.0:
        raise ValueError("dead_col_fraction must be in [0, 1)")
    live_fraction = 1.0 - dead_col_fraction
    # Element sparsity within live columns that hits the overall target.
    live_sparsity = 1.0 - (1.0 - sparsity) / live_fraction
    live_sparsity = min(max(live_sparsity, 0.0), 1.0)

    dead = rng.random(cols) < dead_col_fraction
    # Per-column activity rates vary (features differ in importance).
    col_scale = rng.beta(2.0, 2.0, size=cols) * 2.0
    keep_prob = np.clip((1.0 - live_sparsity) * col_scale, 0.0, 1.0)
    mask = rng.random((rows, cols)) < keep_prob[None, :]
    mask[:, dead] = False
    # Renormalize achieved sparsity toward the target by random flips.
    _tune_sparsity(mask, sparsity, dead, rng)
    return Bitmask(mask)


def _tune_sparsity(
    mask: np.ndarray, target: float, dead: np.ndarray, rng: np.random.Generator
) -> None:
    """Flip random live-column elements until sparsity ~= target."""
    size = mask.size
    want_nnz = int(round((1.0 - target) * size))
    live_cols = np.flatnonzero(~dead)
    if live_cols.size == 0:
        return
    current = int(mask.sum())
    if current < want_nnz:
        # Need more non-sparse elements among live columns.
        candidates = np.argwhere(~mask[:, live_cols])
        need = min(want_nnz - current, len(candidates))
        if need > 0:
            pick = rng.choice(len(candidates), size=need, replace=False)
            for idx in pick:
                r, c = candidates[idx]
                mask[r, live_cols[c]] = True
    elif current > want_nnz:
        candidates = np.argwhere(mask)
        drop = min(current - want_nnz, len(candidates))
        if drop > 0:
            pick = rng.choice(len(candidates), size=drop, replace=False)
            for idx in pick:
                r, c = candidates[idx]
                mask[r, c] = False


def attention_keepmask(
    tq: int,
    tk: int,
    top_k_ratio: float,
    one_hot_rate: float = 0.0,
    *,
    rng: Union[int, np.random.Generator],
) -> Bitmask:
    """EP keep-mask: per-row top-k over shared key-popularity scores.

    ``one_hot_rate`` rows are dominance-collapsed (entirely skipped); a
    gamma(1/1.5) key popularity skews rows toward agreeing on the same
    keys (more agreement = more condensable key columns).
    """
    rng = as_rng(rng)
    if not 0.0 < top_k_ratio <= 1.0:
        raise ValueError("top_k_ratio must be in (0, 1]")
    if not 0.0 <= one_hot_rate <= 1.0:
        raise ValueError("one_hot_rate must be in [0, 1]")
    keep_count = max(1, int(np.ceil(top_k_ratio * tk)))
    popularity = rng.gamma(shape=1.0 / 1.5, size=tk)
    mask = np.zeros((tq, tk), dtype=bool)
    for row in range(tq):
        if rng.random() < one_hot_rate:
            continue  # one-hot row: exact computation fully skipped
        scores = popularity * rng.gamma(shape=2.0, size=tk)
        top = np.argpartition(-scores, keep_count - 1)[:keep_count]
        mask[row, top] = True
    return Bitmask(mask)

