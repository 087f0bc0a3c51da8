"""Staypoint extraction from sparse positioned event streams.

Two-level scheme: a greedy temporal scan groups consecutive events into
stops (bounded roaming radius r1, bounded silence max_gap, minimum dwell
duration), then stop medians are clustered into shared destinations by
connected components of the distance-threshold graph (radius r2).

The component labeler is deliberately a swappable strategy: any callable
with the cluster_destinations signature can replace the threshold-graph
default, e.g. a modularity- or flow-based community labeler.
"""

from __future__ import annotations

import logging
from bisect import insort
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import UnresolvedRegion, UnsortedInput
from .files import read_csv, write_csv
from .geo import (
    GeoPoint,
    PositionedEvent,
    RegionIndex,
    group_by_user,
    haversine_m,
    haversine_m_array,
)
from .timefmt import from_iso, to_iso

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StopParams:
    """Thresholds for the two-level scheme, all strictly positive.

    r1: max roaming radius inside one stop, meters.
    r2: max distance linking stop medians into one destination, meters.
    min_duration: minimum stop span, seconds.
    max_gap: max silence between consecutive events inside one stop, seconds.
    """

    r1: float = 300.0
    r2: float = 500.0
    min_duration: float = 600.0
    max_gap: float = 3600.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "min_duration", "max_gap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"StopParams.{name} must be > 0")
        if self.r2 < self.r1:
            log.warning("StopParams: r2 (%.0f m) < r1 (%.0f m)", self.r2, self.r1)


@dataclass(frozen=True, slots=True)
class Stop:
    user_id: str
    median: GeoPoint
    t_start: float
    t_end: float
    n_events: int


@dataclass(frozen=True, slots=True)
class Staypoint:
    staypoint_id: str
    user_id: str
    location_id: str
    median: GeoPoint
    t_start: float
    t_end: float
    region_parish: Optional[str] = None
    region_municipality: Optional[str] = None


def staypoint_region(
    sp_index: dict[str, Staypoint], sp_id: str, level: str, trip_id: str
) -> tuple[Staypoint, str]:
    """Staypoint sp_id, an endpoint of trip trip_id, and its region at level.

    Raises UnresolvedRegion when the staypoint is unknown or has no region
    at that level.
    """
    sp = sp_index.get(sp_id)
    if sp is None:
        raise UnresolvedRegion(f"trip {trip_id}: staypoint {sp_id!r} not found")
    region = sp.region_parish if level == "parish" else sp.region_municipality
    if region is None:
        raise UnresolvedRegion(f"trip {trip_id}: staypoint {sp_id} has no {level} region")
    return sp, region


class _StopCandidate:
    """Grows a stop while keeping every member within r1 of the running median."""

    __slots__ = ("lats", "lons", "events", "r1", "med_lat", "med_lon")

    def __init__(self, first: PositionedEvent, r1: float):
        self.lats = [first.location.lat]
        self.lons = [first.location.lon]
        self.events = [first]
        self.r1 = r1
        self.med_lat = first.location.lat
        self.med_lon = first.location.lon

    def try_add(self, ev: PositionedEvent) -> bool:
        lat, lon = ev.location.lat, ev.location.lon
        if haversine_m(self.med_lat, self.med_lon, lat, lon) > self.r1:
            return False
        # Tentative add, then verify all members sit within r1 of the new
        # median; reject (and roll back) if the median drifted too far.
        insort(self.lats, lat)
        insort(self.lons, lon)
        self.events.append(ev)
        new_lat = _mid(self.lats)
        new_lon = _mid(self.lons)
        if self._contained(new_lat, new_lon):
            self.med_lat = new_lat
            self.med_lon = new_lon
            return True
        self.lats.remove(lat)
        self.lons.remove(lon)
        self.events.pop()
        return False

    def _contained(self, med_lat: float, med_lon: float) -> bool:
        # Bounding-box corners dominate member distances for desk-scale
        # extents, so four checks usually settle containment.
        lo_lat, hi_lat = self.lats[0], self.lats[-1]
        lo_lon, hi_lon = self.lons[0], self.lons[-1]
        corner_max = max(
            haversine_m(med_lat, med_lon, lo_lat, lo_lon),
            haversine_m(med_lat, med_lon, lo_lat, hi_lon),
            haversine_m(med_lat, med_lon, hi_lat, lo_lon),
            haversine_m(med_lat, med_lon, hi_lat, hi_lon),
        )
        if corner_max <= self.r1:
            return True
        return all(
            haversine_m(med_lat, med_lon, e.location.lat, e.location.lon) <= self.r1
            for e in self.events
        )

    def to_stop(self) -> Stop:
        return Stop(
            user_id=self.events[0].user_id,
            median=GeoPoint(lat=self.med_lat, lon=self.med_lon),
            t_start=self.events[0].timestamp,
            t_end=self.events[-1].timestamp,
            n_events=len(self.events),
        )


def _mid(sorted_vals: list[float]) -> float:
    n = len(sorted_vals)
    m = n // 2
    if n % 2:
        return sorted_vals[m]
    return (sorted_vals[m - 1] + sorted_vals[m]) / 2.0


def detect_stops(trace: Sequence[PositionedEvent], params: StopParams) -> list[Stop]:
    """Greedy stop extraction over one user's time-ordered events.

    A candidate stop accumulates consecutive events while each new event is
    within r1 of the running median and within max_gap of the previous one;
    it is emitted only when its span reaches min_duration.  Events in no
    emitted stop are moving points.
    """
    events = list(trace)
    for prev, cur in zip(events, events[1:]):
        if cur.timestamp < prev.timestamp:
            raise UnsortedInput(
                f"timestamps decrease for user {cur.user_id!r} at t={cur.timestamp}"
            )
        if cur.user_id != prev.user_id:
            raise ValueError("detect_stops expects a single user's trace")

    stops: list[Stop] = []
    i, n = 0, len(events)
    while i < n:
        cand = _StopCandidate(events[i], params.r1)
        j = i + 1
        while j < n:
            if events[j].timestamp - events[j - 1].timestamp > params.max_gap:
                break
            if not cand.try_add(events[j]):
                break
            j += 1
        if cand.events[-1].timestamp - cand.events[0].timestamp >= params.min_duration:
            stops.append(cand.to_stop())
            i = j
        else:
            i += 1
    return stops


def moving_events(
    trace: Sequence[PositionedEvent], stops: Sequence
) -> list[PositionedEvent]:
    """Events of the time-ordered trace not covered by any stop interval.

    Accepts Stop or Staypoint records; only t_start/t_end are read.
    """
    spans = sorted((s.t_start, s.t_end) for s in stops)
    out = []
    k = 0
    for ev in trace:
        while k < len(spans) and spans[k][1] < ev.timestamp:
            k += 1
        if k == len(spans) or ev.timestamp < spans[k][0]:
            out.append(ev)
    return out


def cluster_destinations(stops: Sequence[Stop], r2: float) -> list[str]:
    """Destination labels for stops, one per input position.

    Stops whose medians sit within r2 of each other (transitively) share a
    label.  The component containing the earliest-starting stop is "L0", the
    next "L1", and so on; t_start ties break on (user_id, t_end, median).
    """
    n = len(stops)
    if n == 0:
        return []

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    phi = np.radians(np.array([s.median.lat for s in stops]))
    lam = np.radians(np.array([s.median.lon for s in stops]))
    cos_phi = np.cos(phi)
    for i in range(n - 1):
        d = haversine_m_array(
            phi[i], lam[i], cos_phi[i], phi[i + 1 :], lam[i + 1 :], cos_phi[i + 1 :]
        )
        for j in np.nonzero(d <= r2)[0]:
            union(i, i + 1 + int(j))

    order = sorted(
        range(n),
        key=lambda k: (
            stops[k].t_start,
            stops[k].user_id,
            stops[k].t_end,
            stops[k].median.lat,
            stops[k].median.lon,
        ),
    )
    component_label: dict[int, str] = {}
    for k in order:
        root = find(k)
        if root not in component_label:
            component_label[root] = f"L{len(component_label)}"
    return [component_label[find(i)] for i in range(n)]


ClusterFn = Callable[[Sequence[Stop], float], list[str]]


def build_staypoints(
    traces: Iterable[PositionedEvent],
    params: StopParams,
    regions: Optional[RegionIndex] = None,
    cluster_fn: ClusterFn = cluster_destinations,
) -> list[Staypoint]:
    """Detect stops per user, cluster destinations globally, assign regions.

    Output is sorted by (user_id, t_start); staypoint ids are sequential in
    that order, so identical inputs always produce identical ids and labels.
    """
    by_user = group_by_user(traces)
    all_stops: list[Stop] = []
    for user_id in sorted(by_user):
        all_stops.extend(detect_stops(by_user[user_id], params))
    all_stops.sort(key=lambda s: (s.user_id, s.t_start))

    labels = cluster_fn(all_stops, params.r2)

    staypoints = []
    for i, (stop, label) in enumerate(zip(all_stops, labels)):
        parish = municipality = None
        if regions is not None:
            parish = regions.assign(stop.median, "parish")
            municipality = regions.assign(stop.median, "municipality")
        staypoints.append(
            Staypoint(
                staypoint_id=f"sp{i:06d}",
                user_id=stop.user_id,
                location_id=label,
                median=stop.median,
                t_start=stop.t_start,
                t_end=stop.t_end,
                region_parish=parish,
                region_municipality=municipality,
            )
        )
    return staypoints


STAYPOINTS_HEADER = [
    "staypoint_id", "user_id", "location_id", "lat", "lon",
    "t_start", "t_end", "parish", "municipality",
]


def write_staypoints_csv(staypoints: Iterable[Staypoint], path: str | Path) -> None:
    write_csv(path, STAYPOINTS_HEADER, (
        [sp.staypoint_id, sp.user_id, sp.location_id,
         repr(sp.median.lat), repr(sp.median.lon),
         to_iso(sp.t_start), to_iso(sp.t_end),
         sp.region_parish or "", sp.region_municipality or ""]
        for sp in staypoints
    ))


def _staypoint_row(
    sp_id, user_id, location_id, lat, lon, t_start, t_end, parish, municipality
) -> Staypoint:
    return Staypoint(
        staypoint_id=sp_id, user_id=user_id, location_id=location_id,
        median=GeoPoint(lat=float(lat), lon=float(lon)),
        t_start=from_iso(t_start), t_end=from_iso(t_end),
        region_parish=parish or None, region_municipality=municipality or None,
    )


def load_staypoints_csv(path: str | Path) -> list[Staypoint]:
    return list(read_csv(path, STAYPOINTS_HEADER, "staypoints file", _staypoint_row))
