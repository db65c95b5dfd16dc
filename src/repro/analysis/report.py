"""Plain-text table rendering for bench output and trace reports.

Every benchmark prints the rows/series the corresponding paper table or
figure reports; this module keeps that output aligned and consistent.
:func:`phase_breakdown` / :func:`format_phase_breakdown` turn a recorded
span trace into the per-phase time table that used to be assembled from
ad-hoc ``time.perf_counter()`` calls — the Fig. 10 phase story, driven by
the same spans the Chrome trace shows.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.observability.tracer import Span


def format_table(
    rows: Sequence[Dict[str, Any]],
    title: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dict rows as an aligned text table.

    Column order follows ``columns`` when given, else the first row's key
    order.  Missing cells render empty.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns = list(columns) if columns else list(rows[0].keys())
    cells: List[List[str]] = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def phase_breakdown(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Aggregate spans into per-phase rows (count, total time, share).

    Phases are the span categories (``pipeline``/``job``/``map``/
    ``reduce``/``shuffle``/``driver``/``service``).  A phase's
    ``total_s`` sums only its outermost spans — a span nested inside
    another span of the same phase is already inside that span's time —
    while ``mean_ms`` is the mean duration of all its spans.  ``share``
    is ``total_s`` over the summed *root*-span time, and retried task
    attempts are reported separately (``map (retried)``) so
    fault-injection runs show the re-execution cost as its own row.
    Rows are ordered by first span start, the execution order.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    by_id = {span.span_id: span for span in spans}
    root_total = sum(s.duration for s in spans if s.parent_id is None) or None
    for span in spans:
        label = _phase_label(span)
        row = rows.get(label)
        if row is None:
            row = rows[label] = {
                "phase": label,
                "spans": 0,
                "total_s": 0.0,
                "_sum": 0.0,
                "_first": span.start,
            }
        row["spans"] += 1
        row["_sum"] += span.duration
        if not _nested_in_phase(span, label, by_id):
            row["total_s"] += span.duration
        row["_first"] = min(row["_first"], span.start)
    ordered = sorted(rows.values(), key=lambda row: row.pop("_first"))
    for row in ordered:
        row["mean_ms"] = row.pop("_sum") / row["spans"] * 1e3
        if root_total:
            row["share"] = f"{row['total_s'] / root_total:.1%}"
    return ordered


def _phase_label(span: Span) -> str:
    label = span.phase or "(untagged)"
    if span.attrs.get("status") == "retried":
        label = f"{label} (retried)"
    return label


def _nested_in_phase(span: Span, label: str, by_id: Dict[int, Span]) -> bool:
    """Does ``span`` have an ancestor whose row is ``label``?"""
    parent = by_id.get(span.parent_id)
    while parent is not None:
        if _phase_label(parent) == label:
            return True
        parent = by_id.get(parent.parent_id)
    return False


def format_phase_breakdown(
    spans: Sequence[Span], title: Optional[str] = "phase breakdown"
) -> str:
    """Render :func:`phase_breakdown` as an aligned table."""
    return format_table(phase_breakdown(spans), title=title)
