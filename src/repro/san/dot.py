"""GraphViz (DOT) export of SAN models.

Renders a :class:`~repro.san.model.SANModel` in the classic SAN visual
vocabulary so the composed checkpoint model (or any user model) can be
inspected with ``dot -Tsvg``:

* places — circles, labelled with their initial marking when non-zero;
* timed activities — hollow boxes;
* instantaneous activities — thin filled bars;
* input/output arcs — solid arrows (weight annotated when > 1);
* input-gate *declared reads* — dashed grey edges (the enabling
  predicate's data dependencies);
* ``resample_on`` dependencies — dotted grey edges.

``python -m repro dot`` prints the full checkpoint model; clusters
group activities by submodel.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .model import SANModel

__all__ = ["to_dot"]


def _quote(name: str) -> str:
    return '"' + name.replace('"', r"\"") + '"'


def to_dot(
    model: SANModel,
    graph_name: str = "san",
    group_by_submodel: bool = True,
    include_gate_reads: bool = True,
) -> str:
    """Render the model as a DOT digraph string."""
    lines: List[str] = [
        f"digraph {_quote(graph_name)} {{",
        "  rankdir=LR;",
        "  node [fontsize=10];",
    ]

    # Places.
    for place in model.places:
        label = place.name
        if place.initial:
            label += f"\\n({place.initial})"
        lines.append(
            f"  {_quote('p:' + place.name)} [shape=circle, label={_quote(label)}];"
        )

    # Activities, optionally clustered by submodel.
    activity_to_submodel: Dict[str, str] = {}
    for submodel in model.submodels:
        for activity_name in model.submodel_activities(submodel):
            activity_to_submodel[activity_name] = submodel

    def activity_node(activity) -> str:
        shape = "box" if activity.timed else "box"
        style = "" if activity.timed else ", style=filled, fillcolor=black, fontcolor=white, height=0.1"
        return (
            f"  {_quote('a:' + activity.name)} "
            f"[shape={shape}, label={_quote(activity.name)}{style}];"
        )

    if group_by_submodel and model.submodels:
        clusters: Dict[str, List] = {}
        loose = []
        for activity in model.activities:
            submodel = activity_to_submodel.get(activity.name)
            if submodel is None:
                loose.append(activity)
            else:
                clusters.setdefault(submodel, []).append(activity)
        for index, (submodel, activities) in enumerate(sorted(clusters.items())):
            lines.append(f"  subgraph cluster_{index} {{")
            lines.append(f"    label={_quote(submodel)};")
            lines.append("    color=grey;")
            for activity in activities:
                lines.append("  " + activity_node(activity))
            lines.append("  }")
        for activity in loose:
            lines.append(activity_node(activity))
    else:
        for activity in model.activities:
            lines.append(activity_node(activity))

    # Arcs and gate dependencies.
    for activity in model.activities:
        a_node = _quote("a:" + activity.name)
        for arc in activity.input_arcs:
            attributes = "" if arc.weight == 1 else f' [label="{arc.weight}"]'
            lines.append(f"  {_quote('p:' + arc.place.name)} -> {a_node}{attributes};")
        seen_outputs: Set[str] = set()
        for case_index, case in enumerate(activity.cases):
            case_label = (
                "" if len(activity.cases) == 1 else f' [label="case {case_index}"]'
            )
            for arc in case.output_arcs:
                weight = "" if arc.weight == 1 else f" x{arc.weight}"
                key = f"{arc.place.name}/{case_index}"
                if key in seen_outputs:
                    continue
                seen_outputs.add(key)
                lines.append(
                    f"  {a_node} -> {_quote('p:' + arc.place.name)}{case_label};"
                )
        if include_gate_reads:
            for gate in activity.input_gates:
                for name in gate.reads:
                    lines.append(
                        f"  {_quote('p:' + name)} -> {a_node} "
                        f"[style=dashed, color=grey, arrowhead=none];"
                    )
            if activity.timed:
                for name in activity.resample_on:
                    lines.append(
                        f"  {_quote('p:' + name)} -> {a_node} "
                        f"[style=dotted, color=grey, arrowhead=none];"
                    )

    lines.append("}")
    return "\n".join(lines)
