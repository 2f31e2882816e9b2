"""Plain-text tables for the CLI and the benchmark harness.

The benchmarks print the same rows the paper reports; these helpers keep
that output consistent and readable.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with a header rule (floats shown to 2 decimals)."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_records(records: Sequence[Mapping[str, object]],
                   metrics: Sequence[str], title: str | None = None) -> str:
    """Result records as a table: their coordinates, then ``metrics``
    (3 decimals).  ``run_key`` is left out."""
    axes = [k for k in records[0] if k not in metrics
            and k != "run_key"] if records else []
    rows = [tuple(r[name] for name in axes)
            + tuple(f"{r[m]:.3f}" for m in metrics) for r in records]
    return format_table(axes + list(metrics), rows, title=title)
