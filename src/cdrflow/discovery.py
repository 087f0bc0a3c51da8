"""Directly-follows model discovery, variants, and renderable graph export.

Discovery is a commutative fold over traces: per-trace counts merge
associatively, and duration statistics are computed from sorted sample
lists, so any execution order yields identical results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from operator import attrgetter, itemgetter, sub
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import EmptyLog, EmptySelection, MismatchedLog
from .files import read_json, write_json

if TYPE_CHECKING:
    from .eventlog import CaseLog, Ocel

# Arc colors per object type, assigned by sorted type index.
OC_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)


@dataclass(frozen=True, slots=True)
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
            stats = _with_durations(stats.frequency, values)
        annotated.append((pair, stats))
    return replace(dfg, arcs=tuple(annotated))


def _with_durations(frequency: int, values: list[float]) -> ArcStats:
    """ArcStats of an arc with the mean and median of its sorted duration samples."""
    n, half = len(values), len(values) // 2
    # statistics.median's middle value, or mean of the two middle values
    median = values[half] if n % 2 else (values[half - 1] + values[half]) / 2
    return ArcStats(frequency, sum(values) / n, float(median))


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
    """Per-type models over flattened object traces, durations included.

    The flattened trace of an object is its events in (timestamp, event id)
    order, and its type's model is discover_dfg and annotate_durations over
    those traces.  Each object's ordered events are folded straight into
    its types' node, start, end and arc counts and duration samples, so no
    trace is built.
    """
    if not ocel.events:
        raise EmptyLog("cannot discover a model from an empty log")
    types_of: dict[str, set[str]] = {}
    for o in ocel.objects:
        types_of.setdefault(o.object_id, set()).add(o.object_type)
    events_of: dict[str, list] = {}
    for event in ocel.events:
        for object_id in {object_id for object_id, _ in event.relations}:
            events_of.setdefault(object_id, []).append(event)

    folds: dict[str, tuple[dict, dict, dict, dict]] = {}
    by_time_and_id = attrgetter("timestamp", "event_id")
    for object_id, events in events_of.items():
        types = types_of.get(object_id)
        if types is None:
            continue
        events.sort(key=by_time_and_id)
        acts = [e.activity for e in events]
        gaps = list(map(sub, [e.timestamp for e in events[1:]], [e.timestamp for e in events]))
        for object_type in types:
            if object_type not in folds:
                folds[object_type] = ({}, {}, {}, {})
            nodes, starts, ends, samples = folds[object_type]
            for a in acts:
                nodes[a] = nodes.get(a, 0) + 1
            starts[acts[0]] = starts.get(acts[0], 0) + 1
            ends[acts[-1]] = ends.get(acts[-1], 0) + 1
            for pair, gap in zip(zip(acts, acts[1:]), gaps):
                if pair in samples:
                    samples[pair].append(gap)
                else:
                    samples[pair] = [gap]

    per_type = []
    for object_type in ocel.object_types:
        if object_type not in folds:
            continue
        nodes, starts, ends, samples = folds[object_type]
        arcs = []
        for pair in sorted(samples):
            values = samples[pair]
            values.sort()
            arcs.append((pair, _with_durations(len(values), values)))
        per_type.append((object_type, Dfg(
            nodes=tuple(sorted(nodes.items())),
            arcs=tuple(arcs),
            start_counts=tuple(sorted(starts.items())),
            end_counts=tuple(sorted(ends.items())),
        )))
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
    quoted: dict[str, str] = {}  # each label is quoted once

    def quote(label: str) -> str:
        text = quoted.get(label)
        if text is None:
            text = quoted[label] = _quote(label)
        return text

    node_totals = model.node_dict()
    if isinstance(model, OcDfg):
        type_color = {
            object_type: OC_PALETTE[i % len(OC_PALETTE)]
            for i, (object_type, _) in enumerate(model.per_type)
        }

    for activity in sorted(node_totals):
        if show_frequency:
            lines.append(
                f"  {quote(activity)} [label={_quote(f'{activity} ({node_totals[activity]})')}];"
            )
        else:
            lines.append(f"  {quote(activity)};")

    for src, dst, object_type, stats in _arc_rows(model):
        if stats.frequency < min_arc_frequency:
            continue
        attrs = [f"label={quote(_arc_label(stats, show_frequency, show_duration))}"]
        if object_type is not None:
            attrs.append(f'color="{type_color[object_type]}"')
        lines.append(f"  {quote(src)} -> {quote(dst)} [{' '.join(attrs)}];")

    lines.append("}")
    return "\n".join(lines) + "\n"


def _arc_rows(model: Union[Dfg, OcDfg]) -> list[tuple]:
    """(source, target, object type, stats) of every arc, sorted by the first three.

    The object type is None in a case-centric model.
    """
    if isinstance(model, Dfg):
        rows = [(src, dst, None, stats) for (src, dst), stats in model.arcs]
        rows.sort(key=itemgetter(0, 1))
    else:
        rows = [
            (src, dst, object_type, stats)
            for object_type, dfg in model.per_type
            for (src, dst), stats in dfg.arcs
        ]
        rows.sort(key=itemgetter(0, 1, 2))
    return rows


def _arc_entry(src: str, dst: str, object_type: Optional[str], stats: ArcStats) -> dict:
    entry = {
        "src": src,
        "dst": dst,
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
            "arcs": [_arc_entry(src, dst, None, stats) for (src, dst), stats in model.arcs],
            "startCounts": [{"activity": a, "count": n} for a, n in model.start_counts],
            "endCounts": [{"activity": a, "count": n} for a, n in model.end_counts],
        }
    return {
        "nodes": [{"activity": a, "frequency": n} for a, n in sorted(model.node_dict().items())],
        "arcs": [_arc_entry(*row) for row in _arc_rows(model)],
        "objectTypes": [object_type for object_type, _ in model.per_type],
    }


def write_model_json(model: Union[Dfg, OcDfg], path: str | Path) -> None:
    write_json(model_to_dict(model), path)


def _model_entries(doc: dict, key: str, fields: dict, path: str | Path) -> list[tuple]:
    """The values of `fields` in each entry of doc[key], checked against their types."""
    entries = doc.get(key)
    if not isinstance(entries, list):
        raise ValueError(f"model file {path}: {key} is not a list")
    rows = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"model file {path}: {key}[{k}] is not an object")
        for name, kind in fields.items():
            if name not in entry:
                raise ValueError(f"model file {path}: {key}[{k}] has no {name!r}")
            value = entry[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"model file {path}: {key}[{k}]: {name!r} is {value!r}")
        rows.append(tuple(entry[name] for name in fields))
    return rows


def load_dfg_json(path: str | Path) -> Dfg:
    """The case-centric model in a dfg_model.json file.

    A file that is no such model, or a malformed entry, raises ValueError
    naming the file and the entry.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or "startCounts" not in doc:
        raise ValueError(f"model file {path}: not a case-centric model dump")
    seconds = (int, float, type(None))
    count = {"activity": str, "count": int}
    arcs = _model_entries(doc, "arcs", {
        "src": str, "dst": str, "freq": int, "mean_s": seconds, "median_s": seconds,
    }, path)
    return Dfg(
        nodes=tuple(_model_entries(doc, "nodes", {"activity": str, "frequency": int}, path)),
        arcs=tuple(
            ((src, dst), ArcStats(frequency=freq, mean_s=mean_s, median_s=median_s))
            for src, dst, freq, mean_s, median_s in arcs
        ),
        start_counts=tuple(_model_entries(doc, "startCounts", count, path)),
        end_counts=tuple(_model_entries(doc, "endCounts", count, path)),
    )


def write_variants_json(variants: Sequence[Variant], path: str | Path) -> None:
    write_json([asdict(v) for v in variants], path)
