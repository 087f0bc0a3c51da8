"""Directly-follows model discovery, variants, and renderable graph export.

Discovery is a commutative fold over traces: per-trace counts merge
associatively, and duration statistics are computed from sorted sample
lists, so any execution order yields identical results.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .errors import EmptyLog, EmptySelection, MismatchedLog
from .eventlog import CaseLog, Ocel, iter_flattened_traces
from .files import read_json, write_json

# Arc colors per object type, assigned by sorted type index.
OC_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)


@dataclass(frozen=True)
class ArcStats:
    frequency: int
    mean_s: Optional[float] = None
    median_s: Optional[float] = None


@dataclass(frozen=True)
class Dfg:
    """Activity nodes with total frequencies plus directly-follows arcs."""

    nodes: tuple            # tuple of (activity, total event count)
    arcs: tuple             # tuple of ((source, target), ArcStats)
    start_counts: tuple     # tuple of (activity, count of traces starting there)
    end_counts: tuple       # tuple of (activity, count)

    def node_dict(self) -> dict[str, int]:
        return dict(self.nodes)

    def arc_dict(self) -> dict[tuple[str, str], ArcStats]:
        return {pair: stats for pair, stats in self.arcs}

    def start_dict(self) -> dict[str, int]:
        return dict(self.start_counts)

    def end_dict(self) -> dict[str, int]:
        return dict(self.end_counts)


@dataclass(frozen=True)
class OcDfg:
    """One Dfg per object type over that type's flattened traces."""

    per_type: tuple  # tuple of (object_type, Dfg), sorted by type

    def type_dict(self) -> dict[str, Dfg]:
        return dict(self.per_type)

    def node_dict(self) -> dict[str, int]:
        """Activity totals summed over the object types."""
        totals: dict[str, int] = {}
        for _, dfg in self.per_type:
            for activity, n in dfg.nodes:
                totals[activity] = totals.get(activity, 0) + n
        return totals


@dataclass(frozen=True)
class Variant:
    sequence: tuple
    count: int
    mean_duration_s: float


def discover_dfg(log: CaseLog) -> Dfg:
    """Count adjacent activity pairs, trace starts and trace ends."""
    if not log.traces:
        raise EmptyLog("cannot discover a model from an empty log")
    nodes: dict[str, int] = {}
    arcs: dict[tuple[str, str], int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for trace in log.traces:
        acts = trace.activities
        for a in acts:
            nodes[a] = nodes.get(a, 0) + 1
        starts[acts[0]] = starts.get(acts[0], 0) + 1
        ends[acts[-1]] = ends.get(acts[-1], 0) + 1
        for a, b in zip(acts, acts[1:]):
            arcs[(a, b)] = arcs.get((a, b), 0) + 1
    return Dfg(
        nodes=tuple(sorted(nodes.items())),
        arcs=tuple((pair, ArcStats(frequency=n)) for pair, n in sorted(arcs.items())),
        start_counts=tuple(sorted(starts.items())),
        end_counts=tuple(sorted(ends.items())),
    )


def annotate_durations(dfg: Dfg, log: CaseLog) -> Dfg:
    """Attach mean and median transit seconds to every arc of the model.

    Each adjacent event pair contributes t(target) - t(source); samples are
    sorted before aggregation so results do not depend on fold order.
    """
    samples: dict[tuple[str, str], list[float]] = {}
    for trace in log.traces:
        for (a, ta), (b, tb) in zip(trace.events, trace.events[1:]):
            samples.setdefault((a, b), []).append(tb - ta)
    known = {pair for pair, _ in dfg.arcs}
    for pair in samples:
        if pair not in known:
            raise MismatchedLog(f"log contains pair {pair} absent from the model")
    annotated = []
    for pair, stats in dfg.arcs:
        values = sorted(samples.get(pair, []))
        if values:
            annotated.append(
                (pair, replace(stats, mean_s=sum(values) / len(values),
                               median_s=float(statistics.median(values))))
            )
        else:
            annotated.append((pair, stats))
    return replace(dfg, arcs=tuple(annotated))


def extract_variants(log: CaseLog, top_k: Optional[int] = None) -> list[Variant]:
    """Distinct activity sequences ordered by count desc, then lexicographic."""
    if not log.traces:
        raise EmptyLog("cannot extract variants from an empty log")
    counts: dict[tuple, int] = {}
    duration_sums: dict[tuple, float] = {}
    for trace in log.traces:
        seq = trace.activities
        counts[seq] = counts.get(seq, 0) + 1
        duration_sums[seq] = duration_sums.get(seq, 0.0) + (
            trace.events[-1][1] - trace.events[0][1]
        )
    variants = [
        Variant(sequence=seq, count=n, mean_duration_s=duration_sums[seq] / n)
        for seq, n in counts.items()
    ]
    variants.sort(key=lambda v: (-v.count, v.sequence))
    return variants[:top_k] if top_k is not None else variants


def filter_log_by_variants(
    log: CaseLog,
    selection: Iterable[Sequence[str]],
    allow_empty_result: bool = False,
) -> CaseLog:
    """Keep exactly the traces whose activity sequence is in the selection."""
    wanted = {tuple(seq) for seq in selection}
    if not wanted:
        raise EmptySelection("variant selection is empty")
    kept = tuple(t for t in log.traces if t.activities in wanted)
    if not kept and not allow_empty_result:
        raise EmptySelection("no trace matches the selected variants")
    return replace(log, traces=kept)


def discover_ocdfg(ocel: Ocel) -> OcDfg:
    """Per-type models over flattened object traces, durations included."""
    if not ocel.events:
        raise EmptyLog("cannot discover a model from an empty log")
    per_type = []
    for object_type in ocel.object_types:
        traces = iter_flattened_traces(ocel, object_type)
        if not traces:
            continue
        flat = CaseLog(traces=tuple(traces), level=ocel.level)
        per_type.append((object_type, annotate_durations(discover_dfg(flat), flat)))
    return OcDfg(per_type=tuple(per_type))


# --- export -----------------------------------------------------------------

def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _minutes(seconds: float) -> str:
    minutes = seconds / 60.0
    if minutes == int(minutes):
        return f"{int(minutes)}m"
    return f"{minutes:.1f}m"


def _arc_label(stats: ArcStats, show_frequency: bool, show_duration: bool) -> str:
    parts = []
    if show_frequency:
        parts.append(str(stats.frequency))
    if show_duration and stats.mean_s is not None:
        parts.append(f"μ={_minutes(stats.mean_s)}")
    return ", ".join(parts)


def export_dot(
    model: Union[Dfg, OcDfg],
    show_frequency: bool = True,
    show_duration: bool = False,
    min_arc_frequency: int = 0,
) -> str:
    """Byte-stable DOT text; nodes sorted, arcs sorted by (source, target, type).

    Arcs below min_arc_frequency are omitted while their nodes are kept to
    preserve activity totals.  Object-centric arcs carry one color per
    object type from a fixed palette.
    """
    lines = ["digraph dfg {", "  rankdir=LR;"]

    node_totals = model.node_dict()
    if isinstance(model, Dfg):
        arc_rows = [(pair, stats, None) for pair, stats in model.arcs]
    else:
        type_color = {
            object_type: OC_PALETTE[i % len(OC_PALETTE)]
            for i, (object_type, _) in enumerate(model.per_type)
        }
        arc_rows = [
            (pair, stats, object_type)
            for object_type, dfg in model.per_type
            for pair, stats in dfg.arcs
        ]

    for activity in sorted(node_totals):
        if show_frequency:
            lines.append(
                f"  {_quote(activity)} [label={_quote(f'{activity} ({node_totals[activity]})')}];"
            )
        else:
            lines.append(f"  {_quote(activity)};")

    arc_rows.sort(key=lambda row: (row[0][0], row[0][1], row[2] or ""))
    for (src, dst), stats, object_type in arc_rows:
        if stats.frequency < min_arc_frequency:
            continue
        attrs = [f"label={_quote(_arc_label(stats, show_frequency, show_duration))}"]
        if object_type is not None:
            attrs.append(f'color="{type_color[object_type]}"')
        lines.append(f"  {_quote(src)} -> {_quote(dst)} [{' '.join(attrs)}];")

    lines.append("}")
    return "\n".join(lines) + "\n"


def _arc_entry(pair: tuple[str, str], stats: ArcStats, object_type: Optional[str]) -> dict:
    entry = {
        "src": pair[0],
        "dst": pair[1],
        "freq": stats.frequency,
        "mean_s": stats.mean_s,
        "median_s": stats.median_s,
    }
    if object_type is not None:
        entry["objectType"] = object_type
    return entry


def model_to_dict(model: Union[Dfg, OcDfg]) -> dict:
    """JSON-serializable model dump with sorted arrays.

    startCounts/endCounts make the dump sufficient to rebuild a workflow net.
    """
    if isinstance(model, Dfg):
        return {
            "nodes": [{"activity": a, "frequency": n} for a, n in model.nodes],
            "arcs": [_arc_entry(pair, stats, None) for pair, stats in model.arcs],
            "startCounts": [{"activity": a, "count": n} for a, n in model.start_counts],
            "endCounts": [{"activity": a, "count": n} for a, n in model.end_counts],
        }
    arcs = [
        _arc_entry(pair, stats, object_type)
        for object_type, dfg in model.per_type
        for pair, stats in dfg.arcs
    ]
    arcs.sort(key=lambda e: (e["src"], e["dst"], e.get("objectType", "")))
    return {
        "nodes": [{"activity": a, "frequency": n} for a, n in sorted(model.node_dict().items())],
        "arcs": arcs,
        "objectTypes": [object_type for object_type, _ in model.per_type],
    }


def write_model_json(model: Union[Dfg, OcDfg], path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def load_dfg_json(path: str | Path) -> Dfg:
    doc = read_json(path)
    if "startCounts" not in doc:
        raise ValueError(f"model file {path}: not a case-centric model dump")
    return Dfg(
        nodes=tuple((e["activity"], e["frequency"]) for e in doc["nodes"]),
        arcs=tuple(
            (
                (e["src"], e["dst"]),
                ArcStats(frequency=e["freq"], mean_s=e["mean_s"], median_s=e["median_s"]),
            )
            for e in doc["arcs"]
        ),
        start_counts=tuple((e["activity"], e["count"]) for e in doc["startCounts"]),
        end_counts=tuple((e["activity"], e["count"]) for e in doc["endCounts"]),
    )


def write_variants_json(variants: Sequence[Variant], path: str | Path) -> None:
    write_json([asdict(v) for v in variants], path)
