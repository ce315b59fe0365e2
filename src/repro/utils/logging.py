"""Plain-text tables for benchmark and example output."""

from __future__ import annotations

from typing import Any

__all__ = ["format_table"]


def format_table(rows: list[dict[str, Any]], columns: list[str] | None = None) -> str:
    """Render dict rows as a monospace table (benchmark output helper)."""
    if not rows:
        return "(empty)"
    cols = columns or list(rows[0].keys())
    cells = [[_fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)]
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    sep = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(row[i].ljust(widths[i]) for i in range(len(cols))) for row in cells)
    return f"{header}\n{sep}\n{body}"


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)
