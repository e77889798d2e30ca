"""Plain-text tables and series, matching how the benches print results."""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence


def _render_cell(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = "") -> str:
    """Aligned ASCII table."""
    rendered_rows: List[List[str]] = [[_render_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row width {len(row)} != header width {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
