"""Rendering: ASCII figures/tables and the EXPERIMENTS.md writer."""

from __future__ import annotations

from typing import List, Optional, TextIO

from ..core.parameters import MINUTE, YEAR, ModelParameters
from .runner import FigureResult

__all__ = [
    "render_figure",
    "render_ascii_chart",
    "render_table3",
    "write_markdown_section",
]


def _format_x(x: float) -> str:
    if float(x).is_integer() and abs(x) >= 1:
        return str(int(x))
    return f"{x:g}"


def render_figure(figure: FigureResult, precision: int = 4) -> str:
    """Render a figure as an aligned ASCII table: one row per x value,
    one column per series (with 95% half-widths)."""
    labels = list(figure.series)
    x_grid = sorted({x for label in labels for x, _, _ in figure.series[label]})
    by_series = {
        label: {x: (y, h) for x, y, h in figure.series[label]} for label in labels
    }

    header = [figure.x_label] + labels
    rows: List[List[str]] = []
    for x in x_grid:
        row = [_format_x(x)]
        for label in labels:
            cell = by_series[label].get(x)
            if cell is None:
                row.append("-")
            else:
                y, h = cell
                if figure.metric == "total_useful_work":
                    row.append(f"{y:.0f} ±{h:.0f}")
                else:
                    row.append(f"{y:.{precision}f} ±{h:.{precision}f}")
        rows.append(row)

    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = [figure.title, ""]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    for note in figure.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_ascii_chart(
    figure: FigureResult, width: int = 60, height: int = 16
) -> str:
    """Render a figure as a terminal scatter chart.

    Each series gets a marker letter; x positions follow the rank of
    the x value (the paper's grids are logarithmic, so rank spacing
    reads better than linear). Intended for quick visual inspection
    in the CLI; :func:`render_figure` remains the numeric record.
    """
    if width < 10 or height < 4:
        raise ValueError("chart needs width >= 10 and height >= 4")
    labels = list(figure.series)
    if not labels:
        return f"{figure.title}\n(empty figure)"
    x_grid = sorted({x for label in labels for x, _, _ in figure.series[label]})
    all_y = [y for label in labels for _, y, _ in figure.series[label]]
    y_low, y_high = min(all_y), max(all_y)
    if y_high == y_low:
        y_high = y_low + 1.0

    grid = [[" "] * width for _ in range(height)]
    markers = "abcdefghijklmnopqrstuvwxyz"
    for index, label in enumerate(labels):
        marker = markers[index % len(markers)]
        for x, y, _ in figure.series[label]:
            column = round(
                x_grid.index(x) / max(1, len(x_grid) - 1) * (width - 1)
            )
            row = round((y - y_low) / (y_high - y_low) * (height - 1))
            grid[height - 1 - row][column] = marker

    lines = [figure.title, ""]
    for row_index, row in enumerate(grid):
        if row_index == 0:
            y_label = f"{y_high:10.4g} |"
        elif row_index == height - 1:
            y_label = f"{y_low:10.4g} |"
        else:
            y_label = " " * 10 + " |"
        lines.append(y_label + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(
        " " * 12
        + f"{_format_x(x_grid[0])}  ...  {_format_x(x_grid[-1])}   ({figure.x_label})"
    )
    for index, label in enumerate(labels):
        lines.append(f"  {markers[index % len(markers)]} = {label}")
    return "\n".join(lines)


def render_table3(params: Optional[ModelParameters] = None) -> str:
    """Table 3: the model parameters, in the paper's units."""
    params = params or ModelParameters()
    rows = [
        ("Checkpoint interval", f"{params.checkpoint_interval / MINUTE:g} min",
         "paper range: 15 min - 4 hr"),
        ("MTTF per node", f"{params.mttf_node / YEAR:g} yr", "paper range: 1 - 25 yr"),
        ("MTTR (compute nodes, system-wide)", f"{params.mttr / MINUTE:g} min", "10 min"),
        ("MTTR of IO nodes", f"{params.mttr_io / MINUTE:g} min", "1 min"),
        ("Number of compute processors", str(params.n_processors),
         "paper range: 8K - 256K"),
        ("Processors per node", str(params.processors_per_node), "8 (16/32 in 4g/4h)"),
        ("MTTQ (per-unit mean time to quiesce)", f"{params.mttq:g} s",
         "paper range: 0.5 - 10 s"),
        ("Broadcast overhead", f"{params.broadcast_overhead * 1e3:g} ms", "1 ms"),
        ("Software transmission overhead", f"{params.software_overhead * 1e3:g} ms",
         "1 ms"),
        ("I/O-compute cycle period", f"{params.app_io_cycle_period / MINUTE:g} min",
         "3 min"),
        ("Fraction of computation", f"{params.compute_fraction:g}",
         "paper range: 0.88 - 1.0"),
        ("Timeout value", "none" if params.timeout is None else f"{params.timeout:g} s",
         "paper range: 20 s - 2 min"),
        ("Probability of correlated failure", f"{params.prob_correlated_failure:g}",
         "paper range: 0 - 0.2"),
        ("Correlated failure factor (r)", f"{params.frate_correlated_factor:g}",
         "paper range: 100 - 1600"),
        ("Correlated failure window",
         f"{params.correlated_failure_window / MINUTE:g} min", "3 min"),
        ("System reboot time", f"{params.system_reboot_time / MINUTE:g} min", "1 hr"),
        ("Compute-to-I/O bandwidth (per group)",
         f"{params.bandwidth_compute_to_io / 1e6:g} MB/s", "350 MB/s"),
        ("Compute nodes per I/O node", str(params.compute_nodes_per_io_node), "64"),
        ("File-system bandwidth per I/O node",
         f"{params.bandwidth_io_to_fs * 8 / 1e9:g} Gb/s", "1 Gb/s"),
        ("Checkpoint size per node",
         f"{params.checkpoint_size_per_node / 1e6:g} MB", "256 MB"),
        ("Average I/O data per node",
         f"{params.app_io_data_per_node / 1e6:g} MB", "10 MB"),
        ("-- derived: checkpoint dump time --",
         f"{params.checkpoint_dump_time:.1f} s", "46.8 s at defaults"),
        ("-- derived: checkpoint FS write time --",
         f"{params.checkpoint_fs_write_time:.1f} s", "131 s at defaults"),
        ("-- derived: system MTBF --",
         f"{params.system_mtbf / MINUTE:.1f} min", "64 min at defaults"),
    ]
    name_width = max(len(name) for name, _, _ in rows)
    value_width = max(len(value) for _, value, _ in rows)
    lines = ["Table 3: Model parameters", ""]
    for name, value, comment in rows:
        lines.append(f"{name.ljust(name_width)}  {value.ljust(value_width)}  {comment}")
    return "\n".join(lines)


def write_markdown_section(figure: FigureResult, stream: TextIO) -> None:
    """Append one figure as a Markdown section (used to build
    EXPERIMENTS.md)."""
    stream.write(f"### {figure.figure_id}: {figure.title}\n\n")
    stream.write("```\n")
    stream.write(render_figure(figure))
    stream.write("\n```\n\n")
