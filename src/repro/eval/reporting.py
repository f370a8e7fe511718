"""Paper-style rendering of sweep results.

Plain-text tables matching the figures and tables of Section 6: one
row per experiment, one column per sweep position, recall and precision
as percentages — the same series the paper plots.
"""

from __future__ import annotations

from typing import Sequence

from ..core.heuristics import KClosestDescendants
from ..xmlkit.schema import Schema, SchemaElement
from .harness import FilterSweepResult, SweepResult, ThresholdSweepResult


def _format_grid(
    title: str,
    header: list[str],
    rows: list[list[str]],
) -> str:
    widths = [
        max(len(header[column]), *(len(row[column]) for row in rows))
        for column in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(cell.ljust(width) for cell, width in zip(header, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def format_sweep_table(sweep: SweepResult, metric: str, title: str) -> str:
    """Render one metric ("recall" or "precision") of a sweep."""
    if metric not in ("recall", "precision", "f1"):
        raise ValueError(f"unknown metric {metric!r}")
    header = ["experiment"] + [
        f"{sweep.parameter_name}={position}" for position in sweep.positions
    ]
    rows = []
    for name, by_position in sweep.series.items():
        row = [name]
        for position in sweep.positions:
            value = getattr(by_position[position], metric)
            row.append(f"{value:6.1%}")
        rows.append(row)
    return _format_grid(title, header, rows)


def format_threshold_table(
    sweep: ThresholdSweepResult, title: str = "Figure 7: precision vs. θ_cand"
) -> str:
    header = ["θ_cand", "precision", "pairs found", "exact pairs"]
    rows = [
        [
            f"{threshold:.2f}",
            f"{sweep.precision[threshold]:6.1%}",
            str(sweep.pairs_found[threshold]),
            str(sweep.exact_pairs_found[threshold]),
        ]
        for threshold in sweep.thresholds
    ]
    return _format_grid(title, header, rows)


def format_filter_table(
    sweep: FilterSweepResult,
    title: str = "Figure 8: object-filter recall & precision vs. duplicate %",
) -> str:
    header = ["duplicates", "recall", "precision", "pruned"]
    rows = [
        [
            f"{percentage}%",
            f"{sweep.metrics[percentage].recall:6.1%}",
            f"{sweep.metrics[percentage].precision:6.1%}",
            str(sweep.pruned[percentage]),
        ]
        for percentage in sweep.percentages
    ]
    return _format_grid(title, header, rows)


def _flags(element: SchemaElement) -> str:
    parts = [element.data_type.value]
    parts.append("ME" if element.is_mandatory else "not ME")
    parts.append("SE" if element.is_singleton else "not SE")
    return ", ".join(parts)


def format_schema_elements_table(
    schema: Schema,
    candidate_path: str,
    max_k: int = 8,
    title: str = "Table 5: elements in the object description",
) -> str:
    """Table 5/6 analogue: the breadth-first element inventory of a
    candidate type with data type / mandatory / singleton flags."""
    candidate = schema.element_at(candidate_path)
    selection = KClosestDescendants(max_k).select(candidate)
    header = ["k", "depth", "element", "flags"]
    rows = []
    for position, element in enumerate(selection, start=1):
        depth = element.depth - candidate.depth
        relative = element.path()[len(candidate.path()) + 1 :]
        rows.append(
            [
                str(position),
                str(depth),
                f"{candidate.name}/{relative}",
                f"({_flags(element)})",
            ]
        )
    return _format_grid(title, header, rows)


def format_comparable_elements_table(
    schemas: Sequence[tuple[str, Schema, str]],
    max_r: int = 4,
    title: str = "Table 6: comparable elements per radius",
) -> str:
    """Table 6 analogue for multiple sources.

    ``schemas`` is a sequence of (source label, schema, candidate path).
    """
    header = ["r"] + [label for label, _, _ in schemas]
    rows = []
    for radius in range(1, max_r + 1):
        row = [str(radius)]
        for _, schema, path in schemas:
            candidate = schema.element_at(path)
            level = candidate.descendants_at_depth(radius)
            textual = [
                element for element in level if element.can_have_text
            ]
            if textual:
                row.append(
                    "; ".join(
                        f"{element.path()[len(candidate.path()) - len(candidate.name):]}"
                        f" ({_flags(element)})"
                        for element in textual
                    )
                )
            else:
                row.append("-")
        rows.append(row)
    return _format_grid(title, header, rows)
