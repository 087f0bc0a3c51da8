"""Case-centric and object-centric event logs built from trips.

A trip becomes one trace whose activities are the region labels visited at
its endpoints and at intermediate leg boundaries, collapsed over consecutive
duplicates at the chosen level.  The object-centric variant is built from
the case log, so it holds the same events by construction, and relates each
one to its trip object and to a singleton object for the trip's transport
mode, so the relation count is always twice the event count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .errors import UnresolvedRegion
from .files import read_csv, read_json, write_csv, write_json
from .timefmt import from_iso, to_iso

if TYPE_CHECKING:
    from .stays import Staypoint
    from .trips import Trip

LEVELS = ("parish", "municipality")


@dataclass(frozen=True, slots=True)
class Trace:
    """Timestamp-ordered activity sequence of one case."""

    case_id: str
    events: tuple  # tuple of (activity, timestamp)

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError(f"trace {self.case_id}: must not be empty")
        for (_, t1), (_, t2) in zip(self.events, self.events[1:]):
            if t2 < t1:
                raise ValueError(f"trace {self.case_id}: timestamps must not decrease")

    @property
    def activities(self) -> tuple:
        return tuple(a for a, _ in self.events)


@dataclass(frozen=True)
class CaseLog:
    traces: tuple
    level: str = "unknown"
    dropped_case_ids: tuple = ()


@dataclass(frozen=True, slots=True)
class OcelEvent:
    event_id: str
    activity: str
    timestamp: float
    relations: tuple  # tuple of (object_id, qualifier), qualifier in {"trip", "mode"}


@dataclass(frozen=True, slots=True)
class OcelObject:
    object_id: str
    object_type: str


@dataclass(frozen=True)
class Ocel:
    """Events, typed objects, and the event-object relation.

    Events and objects are stored sorted by id and object types sorted by
    name, so structurally equal logs compare equal and serialize to
    identical bytes.
    """

    events: tuple
    objects: tuple
    object_types: tuple
    level: str = "unknown"
    dropped_case_ids: tuple = ()

    def __post_init__(self) -> None:
        ids = [e.event_id for e in self.events]
        if len(set(ids)) != len(ids):
            raise ValueError("event ids must be unique")
        known_objects = {o.object_id for o in self.objects}
        if len(known_objects) != len(self.objects):
            raise ValueError("object ids must be unique")
        for event in self.events:
            for object_id, qualifier in event.relations:
                if object_id not in known_objects:
                    raise ValueError(
                        f"event {event.event_id} relates to unknown object {object_id!r}"
                    )
                if qualifier not in ("trip", "mode"):
                    raise ValueError(f"unknown relation qualifier {qualifier!r}")

    @property
    def n_relations(self) -> int:
        return sum(len(e.relations) for e in self.events)


@dataclass(frozen=True)
class LogStats:
    n_cases_or_objects: int
    n_events: int
    n_variants_or_object_types: int
    n_relations: Optional[int] = None


def _trip_events(
    trip: Trip, sp_index: dict[str, Staypoint], level: str, region_of: Callable
) -> list[tuple[str, float]]:
    """Region-label events for one trip at the given level.

    Both endpoints always emit an event (a trip can self-loop inside one
    region); intermediate leg boundaries emit only when their region differs
    from the previous emitted one, keeping the first timestamp of each run.
    region_of is stays.staypoint_region.
    """
    chain = [trip.triplegs[0].origin_staypoint] + [leg.dest_staypoint for leg in trip.triplegs]
    labels: list[str] = []
    times: list[float] = []
    for k, sp_id in enumerate(chain):
        sp, region = region_of(sp_index, sp_id, level, trip.trip_id)
        labels.append(region)
        times.append(trip.t_start if k == 0 else sp.t_start)

    events = [(labels[0], times[0])]
    for k in range(1, len(chain) - 1):
        if labels[k] != events[-1][0]:
            events.append((labels[k], times[k]))
    events.append((labels[-1], times[-1]))
    return events


def build_case_log(
    trips: Sequence[Trip], staypoints: Sequence[Staypoint], level: str
) -> CaseLog:
    """One trace per trip; trips with unresolved regions are dropped and counted."""
    from .stays import staypoint_region

    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    sp_index = {sp.staypoint_id: sp for sp in staypoints}
    traces = []
    dropped = []
    for trip in sorted(trips, key=lambda t: t.trip_id):
        try:
            events = _trip_events(trip, sp_index, level, staypoint_region)
        except UnresolvedRegion:
            dropped.append(trip.trip_id)
            continue
        traces.append(Trace(case_id=trip.trip_id, events=tuple(events)))
    return CaseLog(traces=tuple(traces), level=level, dropped_case_ids=tuple(dropped))


def build_ocel(case_log: CaseLog, trips: Sequence[Trip]) -> Ocel:
    """Object-centric log over exactly the case log's events.

    Objects are one per trace, typed by its trip's capitalized primary mode,
    plus one singleton object per mode class (id and type both the
    capitalized mode name).  Event k of the i-th trace is e{i}_{k} and
    relates to its trip object and its mode object.
    """
    trip_by_id = {trip.trip_id: trip for trip in trips}
    events: list[OcelEvent] = []
    objects: list[OcelObject] = []
    modes_seen: set[str] = set()
    for case_index, trace in enumerate(case_log.traces):
        trip = trip_by_id.get(trace.case_id)
        if trip is None:
            raise ValueError(f"case {trace.case_id!r} names no trip")
        mode_object = trip.primary_mode.capitalize()
        modes_seen.add(mode_object)
        objects.append(OcelObject(object_id=trace.case_id, object_type=mode_object))
        relations = ((trace.case_id, "trip"), (mode_object, "mode"))
        events.extend(
            OcelEvent(
                event_id=f"e{case_index}_{k}", activity=activity,
                timestamp=timestamp, relations=relations,
            )
            for k, (activity, timestamp) in enumerate(trace.events)
        )
    objects.extend(OcelObject(object_id=m, object_type=m) for m in sorted(modes_seen))
    return Ocel(
        events=tuple(sorted(events, key=lambda e: e.event_id)),
        objects=tuple(sorted(objects, key=lambda o: o.object_id)),
        object_types=tuple(sorted(modes_seen)),
        level=case_log.level,
        dropped_case_ids=case_log.dropped_case_ids,
    )


def compute_stats(log: Union[CaseLog, Ocel]) -> LogStats:
    if isinstance(log, CaseLog):
        return LogStats(
            n_cases_or_objects=len(log.traces),
            n_events=sum(len(t.events) for t in log.traces),
            n_variants_or_object_types=len({t.activities for t in log.traces}),
            n_relations=None,
        )
    return LogStats(
        n_cases_or_objects=len(log.objects),
        n_events=len(log.events),
        n_variants_or_object_types=len(log.object_types),
        n_relations=log.n_relations,
    )


# --- serialization ----------------------------------------------------------

CASE_LOG_HEADER = ["case_id", "activity", "timestamp"]


def write_case_log_csv(log: CaseLog, path: str | Path) -> None:
    """Rows sorted by (case_id, timestamp)."""
    rows = []
    for trace in log.traces:
        for activity, timestamp in trace.events:
            rows.append((trace.case_id, activity, timestamp))
    rows.sort(key=lambda r: (r[0], r[2]))
    write_csv(path, CASE_LOG_HEADER, (
        [case_id, activity, to_iso(timestamp)] for case_id, activity, timestamp in rows
    ))


def load_case_log_csv(path: str | Path, level: str = "unknown") -> CaseLog:
    def row(case_id, activity, timestamp):
        return case_id, (activity, from_iso(timestamp))

    grouped: dict[str, list[tuple[str, float]]] = {}
    for case_id, event in read_csv(path, CASE_LOG_HEADER, "case log", row):
        grouped.setdefault(case_id, []).append(event)
    traces = tuple(
        Trace(case_id=case_id, events=tuple(events))
        for case_id, events in sorted(grouped.items())
    )
    return CaseLog(traces=traces, level=level)


def ocel_to_dict(ocel: Ocel) -> dict:
    return {
        "objectTypes": [{"name": t} for t in ocel.object_types],
        "objects": [{"id": o.object_id, "type": o.object_type} for o in ocel.objects],
        "events": [
            {
                "id": e.event_id,
                "activity": e.activity,
                "timestamp": to_iso(e.timestamp),
                "relations": [
                    {"objectId": object_id, "qualifier": qualifier}
                    for object_id, qualifier in e.relations
                ],
            }
            for e in ocel.events
        ],
    }


def write_ocel_json(ocel: Ocel, path: str | Path) -> None:
    write_json(ocel_to_dict(ocel), path)


def _malformed(entry: dict, keys: Sequence[str], what: str) -> ValueError:
    """The error for an ocel.json entry whose `keys` are not all strings."""
    name = f"{what} {entry['id']!r}" if isinstance(entry.get("id"), str) else f"{what} {entry!r}"
    key = next(key for key in keys if not isinstance(entry.get(key), str))
    if key not in entry:
        return ValueError(f"{name} has no {key!r}")
    return ValueError(f"{name}: {key!r} is {entry[key]!r}, not a string")


def _ocel_entries(doc, key: str, kind: type, what: str, path: str | Path) -> list:
    """doc[key], checked to be a list of `kind`."""
    entries = doc.get(key) if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"JSON file {path}: {key} is not a list")
    for k, entry in enumerate(entries):
        if not isinstance(entry, kind):
            raise ValueError(f"JSON file {path}: {key}[{k}] is not {what}")
    return entries


def load_ocel_json(path: str | Path, level: str = "unknown") -> Ocel:
    """The log in an ocel.json file, its records built while the JSON is decoded.

    Events that relate to the same objects share one relations tuple.  A
    malformed entry raises ValueError naming the file and the entry.
    """
    shared: dict[tuple, tuple] = {}

    def record(entry: dict):
        # relations, then events, then objects; any other JSON object stays a dict
        if "objectId" in entry or "qualifier" in entry:
            object_id, qualifier = entry.get("objectId"), entry.get("qualifier")
            if type(object_id) is not str or type(qualifier) is not str:
                raise _malformed(entry, ("objectId", "qualifier"), "relation")
            return object_id, qualifier
        if "activity" in entry or "timestamp" in entry or "relations" in entry:
            event_id, activity = entry.get("id"), entry.get("activity")
            stamp, relations = entry.get("timestamp"), entry.get("relations")
            if type(event_id) is not str or type(activity) is not str or type(stamp) is not str:
                raise _malformed(entry, ("id", "activity", "timestamp"), "event")
            relations = tuple(relations) if type(relations) is list else None
            try:
                known = shared.get(relations)  # a relation left a dict is unhashable
            except TypeError:
                known = None
            if known is None:
                if relations is None or not all(type(r) is tuple for r in relations):
                    raise ValueError(f"event {event_id!r}: relations is not a list of relations")
                known = shared[relations] = relations
            try:
                timestamp = from_iso(stamp)
            except ValueError as exc:
                raise ValueError(f"event {event_id!r}: {exc}") from None
            return OcelEvent(event_id, activity, timestamp, known)
        if "type" in entry:
            object_id, object_type = entry.get("id"), entry.get("type")
            if type(object_id) is not str or type(object_type) is not str:
                raise _malformed(entry, ("id", "type"), "object")
            return OcelObject(object_id, object_type)
        return entry

    doc = read_json(path, object_hook=record)
    events = _ocel_entries(doc, "events", OcelEvent, "an event", path)
    objects = _ocel_entries(doc, "objects", OcelObject, "an object", path)
    names = [
        t.get("name") for t in _ocel_entries(doc, "objectTypes", dict, "an object type", path)
    ]
    if not all(isinstance(name, str) for name in names):
        raise ValueError(f"JSON file {path}: an object type has no name")
    events.sort(key=attrgetter("event_id"))
    objects.sort(key=attrgetter("object_id"))
    try:
        return Ocel(
            events=tuple(events), objects=tuple(objects), object_types=tuple(sorted(names)),
            level=level,
        )
    except ValueError as exc:
        raise ValueError(f"JSON file {path}: {exc}") from exc


def write_drop_report(log: Union[CaseLog, Ocel], path: str | Path) -> None:
    """Sidecar listing trips dropped for unresolved regions."""
    write_json(
        {"n_dropped": len(log.dropped_case_ids), "dropped_case_ids": list(log.dropped_case_ids)},
        path,
    )


def write_stats_json(stats_by_name: dict[str, LogStats], path: str | Path) -> None:
    write_json({name: asdict(s) for name, s in sorted(stats_by_name.items())}, path)
