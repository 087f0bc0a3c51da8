"""Directly-follows model discovery, variants, and renderable graph export.

Discovery is a commutative fold over traces: per-trace counts merge
associatively, and duration statistics are computed from sorted sample
lists, so any execution order yields identical results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cache
from operator import attrgetter, itemgetter
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


@dataclass(eq=False, slots=True)  # compared and hashed by identity
class _Fold:
    """Node, start and end counts and per-arc duration samples of folded traces.

    Both models are this fold: the case-centric one over the cases' traces,
    the object-centric one per type over its objects' flattened traces.
    """

    nodes: dict[str, int] = field(default_factory=dict)
    starts: dict[str, int] = field(default_factory=dict)
    ends: dict[str, int] = field(default_factory=dict)
    samples: dict[tuple[str, str], list[float]] = field(default_factory=dict)

    def add(self, traces: Iterable[Sequence[tuple[str, float]]]) -> _Fold:
        """Fold in traces, each a sequence of (activity, timestamp) pairs; returns self."""
        nodes, starts, ends, samples = self.nodes, self.starts, self.ends, self.samples
        for events in traces:
            for a, _ in events:
                nodes[a] = nodes.get(a, 0) + 1
            starts[events[0][0]] = starts.get(events[0][0], 0) + 1
            ends[events[-1][0]] = ends.get(events[-1][0], 0) + 1
            # each adjacent event pair contributes t(target) - t(source)
            for (a, ta), (b, tb) in zip(events, events[1:]):
                if (a, b) in samples:
                    samples[a, b].append(tb - ta)
                else:
                    samples[a, b] = [tb - ta]
        return self

    def dfg(self, durations: bool) -> Dfg:
        """The folded model, sorted; its arcs carry duration statistics if asked."""
        arcs = []
        for pair in sorted(self.samples):
            values = self.samples[pair]
            stats = _arc_stats(len(values), values) if durations else ArcStats(len(values))
            arcs.append((pair, stats))
        return Dfg(
            nodes=tuple(sorted(self.nodes.items())),
            arcs=tuple(arcs),
            start_counts=tuple(sorted(self.starts.items())),
            end_counts=tuple(sorted(self.ends.items())),
        )


def _arc_stats(frequency: int, values: list[float]) -> ArcStats:
    """ArcStats of an arc with the mean and median of its duration samples, sorted first."""
    values.sort()
    n, half = len(values), len(values) // 2
    # statistics.median's middle value, or mean of the two middle values
    median = values[half] if n % 2 else (values[half - 1] + values[half]) / 2
    return ArcStats(frequency, sum(values) / n, float(median))


def discover_dfg(log: CaseLog) -> Dfg:
    """Count adjacent activity pairs, trace starts and trace ends."""
    if not log.traces:
        raise EmptyLog("cannot discover a model from an empty log")
    return _Fold().add(trace.events for trace in log.traces).dfg(durations=False)


def annotate_durations(dfg: Dfg, log: CaseLog) -> Dfg:
    """Attach mean and median transit seconds to every arc of the model found in the log.

    Arcs keep the model's frequency; an arc absent from the log is left as it is.
    """
    samples = _Fold().add(trace.events for trace in log.traces).samples
    known = {pair for pair, _ in dfg.arcs}
    for pair in samples:
        if pair not in known:
            raise MismatchedLog(f"log contains pair {pair} absent from the model")
    arcs = []
    for pair, stats in dfg.arcs:
        values = samples.get(pair)
        arcs.append((pair, stats if values is None else _arc_stats(stats.frequency, values)))
    return replace(dfg, arcs=tuple(arcs))


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
    order; it is folded straight into the fold of each of the object's types.
    """
    if not ocel.events:
        raise EmptyLog("cannot discover a model from an empty log")
    folds = {object_type: _Fold() for object_type in ocel.object_types}
    folds_of: dict[str, set[_Fold]] = {}
    for o in ocel.objects:
        if o.object_type in folds:
            folds_of.setdefault(o.object_id, set()).add(folds[o.object_type])
    events_of: dict[str, list] = {}
    for event in ocel.events:
        for object_id in {object_id for object_id, _ in event.relations}:
            events_of.setdefault(object_id, []).append(event)

    by_time_and_id = attrgetter("timestamp", "event_id")
    for object_id, events in events_of.items():
        if object_id in folds_of:
            events.sort(key=by_time_and_id)
            trace = [(e.activity, e.timestamp) for e in events]
            for fold in folds_of[object_id]:
                fold.add((trace,))
    return OcDfg(per_type=tuple(
        (object_type, fold.dfg(durations=True)) for object_type, fold in folds.items() if fold.nodes
    ))


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
    quote = cache(_quote)  # each label is quoted once

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

    A case-centric model is read as one of object type None.
    """
    per_type = ((None, model),) if isinstance(model, Dfg) else model.per_type
    rows = [
        (src, dst, object_type, stats)
        for object_type, dfg in per_type
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


def _model_entries(doc: dict, key: str, fields: dict, unique: int, path: str | Path) -> list[tuple]:
    """The values of `fields` in each entry of doc[key], checked against their types.

    No two entries may share the values of their first `unique` fields.
    """
    entries = doc.get(key)
    if not isinstance(entries, list):
        raise ValueError(f"model file {path}: {key} is not a list")
    rows, seen = [], set()
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"model file {path}: {key}[{k}] is not an object")
        for name, kind in fields.items():
            if name not in entry:
                raise ValueError(f"model file {path}: {key}[{k}] has no {name!r}")
            value = entry[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"model file {path}: {key}[{k}]: {name!r} is {value!r}")
        row = tuple(entry[name] for name in fields)
        if row[:unique] in seen:
            names = "/".join(list(fields)[:unique])
            value = row[0] if unique == 1 else row[:unique]
            raise ValueError(f"model file {path}: {key}[{k}]: duplicate {names} {value!r}")
        seen.add(row[:unique])
        rows.append(row)
    return rows


def load_dfg_json(path: str | Path) -> Dfg:
    """The case-centric model in a dfg_model.json file.

    A file that is no such model, or a malformed or repeated entry, raises
    ValueError naming the file and the entry.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or "startCounts" not in doc:
        raise ValueError(f"model file {path}: not a case-centric model dump")
    seconds = (int, float, type(None))
    count = {"activity": str, "count": int}
    arcs = _model_entries(doc, "arcs", {
        "src": str, "dst": str, "freq": int, "mean_s": seconds, "median_s": seconds,
    }, 2, path)
    return Dfg(
        nodes=tuple(_model_entries(doc, "nodes", {"activity": str, "frequency": int}, 1, path)),
        arcs=tuple(
            ((src, dst), ArcStats(frequency=freq, mean_s=mean_s, median_s=median_s))
            for src, dst, freq, mean_s, median_s in arcs
        ),
        start_counts=tuple(_model_entries(doc, "startCounts", count, 1, path)),
        end_counts=tuple(_model_entries(doc, "endCounts", count, 1, path)),
    )


def write_variants_json(variants: Sequence[Variant], path: str | Path) -> None:
    write_json([asdict(v) for v in variants], path)
