"""Plain-text table formatting for benchmark output.

The paper reports results as tables and figure series; our benches print
the same rows.  No third-party table dependency — fixed-width columns with
smart numeric formatting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _fmt_cell(v: object, precision: int) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1e5 or abs(v) < 10 ** (-precision):
            return f"{v:.{precision}e}"
        return f"{v:.{precision}g}"
    return str(v)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render a fixed-width table; returns the string (caller prints)."""
    str_rows: List[List[str]] = [[_fmt_cell(v, precision) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row width {len(row)} != header width {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
