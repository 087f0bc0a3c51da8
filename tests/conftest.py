import random

import pytest

from cdrflow.eventlog import CaseLog, Ocel, OcelEvent, Trace
from cdrflow.geo import GeoPoint, Region, RegionIndex


def square_region(region_id, level, lon0, lat0, size_deg, parent=None):
    ring = (
        GeoPoint(lat0, lon0),
        GeoPoint(lat0, lon0 + size_deg),
        GeoPoint(lat0 + size_deg, lon0 + size_deg),
        GeoPoint(lat0 + size_deg, lon0),
        GeoPoint(lat0, lon0),
    )
    return Region(
        region_id=region_id, name=region_id, level=level,
        parent_id=parent, polygons=((ring,),),
    )


@pytest.fixture
def two_municipalities():
    """Side-by-side unit squares 'A' (lon 0..1) and 'B' (lon 1..2)."""
    return RegionIndex(
        [
            square_region("A", "municipality", 0.0, 0.0, 1.0),
            square_region("B", "municipality", 1.0, 0.0, 1.0),
        ]
    )


def random_case_log(rng: random.Random, n_traces=None, alphabet=None) -> CaseLog:
    """Seeded random log with integer-second, nondecreasing timestamps."""
    if alphabet is None:
        alphabet = [chr(ord("A") + i) for i in range(rng.randint(2, 10))]
    if n_traces is None:
        n_traces = rng.randint(1, 200)
    traces = []
    for c in range(n_traces):
        length = rng.randint(1, 10)
        t = rng.randint(0, 10_000)
        events = []
        for _ in range(length):
            events.append((rng.choice(alphabet), float(t)))
            t += rng.randint(1, 900)
        traces.append(Trace(case_id=f"case{c:05d}", events=tuple(events)))
    return CaseLog(traces=tuple(traces), level="municipality")


# --- the flattening reference ------------------------------------------------
# discovery.discover_ocdfg folds each object's events into its types' models
# with the fold that discover_dfg and annotate_durations run over a case log,
# without building these traces; the tests compare it with those two over them.

def iter_flattened_traces(ocel: Ocel, object_type: str) -> list[Trace]:
    """Per-object event sequences for one type, ordered by (timestamp, id)."""
    events_by_object: dict[str, list[OcelEvent]] = {}
    typed = {o.object_id for o in ocel.objects if o.object_type == object_type}
    for event in ocel.events:
        related = {object_id for object_id, _ in event.relations if object_id in typed}
        for object_id in sorted(related):
            events_by_object.setdefault(object_id, []).append(event)
    traces = []
    for object_id in sorted(events_by_object):
        ordered = sorted(events_by_object[object_id], key=lambda e: (e.timestamp, e.event_id))
        traces.append(
            Trace(
                case_id=object_id,
                events=tuple((e.activity, e.timestamp) for e in ordered),
            )
        )
    return traces


def flattened_traces(ocel: Ocel) -> dict[str, list[Trace]]:
    """iter_flattened_traces for every object type, from one pass over the events."""
    types_of: dict[str, set[str]] = {}
    for o in ocel.objects:
        types_of.setdefault(o.object_id, set()).add(o.object_type)
    events_by_object: dict[str, list[OcelEvent]] = {}
    for event in ocel.events:
        for object_id in {object_id for object_id, _ in event.relations}:
            events_by_object.setdefault(object_id, []).append(event)
    by_type: dict[str, list[Trace]] = {}
    for object_id in sorted(events_by_object):
        ordered = sorted(events_by_object[object_id], key=lambda e: (e.timestamp, e.event_id))
        trace = Trace(case_id=object_id, events=tuple((e.activity, e.timestamp) for e in ordered))
        for object_type in types_of.get(object_id, ()):
            by_type.setdefault(object_type, []).append(trace)
    return by_type
