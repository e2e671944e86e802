"""Plain-text table formatting for the benchmark harness output."""

from __future__ import annotations

from typing import Optional


def percent(value: float, digits: int = 1) -> str:
    """Format a ratio as a percentage string."""
    return f"{100.0 * value:.{digits}f}%"


def format_table(
    headers: list,
    rows: list,
    title: Optional[str] = None,
) -> str:
    """Fixed-width table; cells are stringified with str()."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
