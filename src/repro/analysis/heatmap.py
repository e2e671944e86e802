"""ASCII heatmap rendering (terminal version of the paper's Fig. 7 (a)).

Matplotlib is unavailable offline, so heatmaps render as character ramps —
enough to eyeball the diagonal-band structure of the cosine-similarity
matrix.
"""

from __future__ import annotations

import numpy as np

#: Character ramp from low to high values.
RAMP = " .:-=+*#%@"


def render_heatmap(
    matrix: np.ndarray,
    vmin: float = None,
    vmax: float = None,
    axis_label: str = "",
) -> str:
    """Render a 2-D array as an ASCII heatmap string.

    Large matrices are downsampled by block-averaging to 40 x 40.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("heatmap input must be 2-D")
    matrix = _downsample(matrix, 40)
    lo = float(matrix.min()) if vmin is None else vmin
    hi = float(matrix.max()) if vmax is None else vmax
    span = hi - lo if hi > lo else 1.0
    levels = np.clip(((matrix - lo) / span) * (len(RAMP) - 1), 0,
                     len(RAMP) - 1).astype(int)
    lines = ["".join(RAMP[v] for v in row) for row in levels]
    if axis_label:
        lines.append(f"[{axis_label}; '{RAMP[0]}'={lo:.2f} .. "
                     f"'{RAMP[-1]}'={hi:.2f}]")
    return "\n".join(lines)


def _downsample(matrix: np.ndarray, max_size: int) -> np.ndarray:
    rows, cols = matrix.shape
    if rows <= max_size and cols <= max_size:
        return matrix
    r_factor = -(-rows // max_size)
    c_factor = -(-cols // max_size)
    r_pad = (-rows) % r_factor
    c_pad = (-cols) % c_factor
    padded = np.pad(matrix, ((0, r_pad), (0, c_pad)), mode="edge")
    shaped = padded.reshape(
        padded.shape[0] // r_factor, r_factor,
        padded.shape[1] // c_factor, c_factor,
    )
    return shaped.mean(axis=(1, 3))


def render_bitmask(mask) -> str:
    """Render a :class:`repro.core.bitmask.Bitmask` ('#' = non-sparse)."""
    grid = np.asarray(mask.mask, dtype=float)
    grid = _downsample(grid, 64)
    lines = []
    for row in grid:
        lines.append("".join("#" if v > 0.5 else "." for v in row))
    return "\n".join(lines)
