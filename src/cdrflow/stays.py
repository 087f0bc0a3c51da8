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
import math
from bisect import insort
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import UnresolvedRegion, UnsortedInput
from .files import read_csv, write_csv
from .geo import (
    EARTH_RADIUS_M,
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
    """Thresholds for the two-level scheme, all finite and strictly positive.

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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"StopParams.{name} must be finite and > 0, got {value}")
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


def _mid(sorted_vals: list[float]) -> float:
    n = len(sorted_vals)
    m = n // 2
    if n % 2:
        return sorted_vals[m]
    return (sorted_vals[m - 1] + sorted_vals[m]) / 2.0


# A box passes the bound when (dlat*pi/360)**2 + (c*dlon*pi/360)**2 stays
# below sin(r1/2R)**2 by this factor.  sin(x) <= x and cos(phi1)*cos(phi2) <= c**2
# make the left side an upper bound on the haversine h of any two points in the
# box; the factor leaves room for the rounding of haversine_m, so every pair in
# a passing box is within r1 by haversine_m's own arithmetic too.
_BOX_SLACK = 1.0 - 1e-9
_HALF_DEG = math.pi / 360.0


def _grow_exact(
    lat_sorted: list[float], lon_sorted: list[float], med: tuple[float, float],
    lats: list[float], lons: list[float], first: int, new: int, r1: float,
) -> Optional[tuple[float, float]]:
    """Median after adding event `new` to the candidate first..new-1, or None.

    The exact test: the event must be within r1 of the running median, and
    every member within r1 of the new median.  lat_sorted and lon_sorted hold
    the members' coordinates and gain the event; a rejection ends the
    candidate, so they are not restored.
    """
    lat, lon = lats[new], lons[new]
    if haversine_m(med[0], med[1], lat, lon) > r1:
        return None
    insort(lat_sorted, lat)
    insort(lon_sorted, lon)
    med_lat, med_lon = _mid(lat_sorted), _mid(lon_sorted)
    # Bounding-box corners dominate member distances for desk-scale
    # extents, so four checks usually settle containment.
    lo_lat, hi_lat = lat_sorted[0], lat_sorted[-1]
    lo_lon, hi_lon = lon_sorted[0], lon_sorted[-1]
    corner_max = max(
        haversine_m(med_lat, med_lon, lo_lat, lo_lon),
        haversine_m(med_lat, med_lon, lo_lat, hi_lon),
        haversine_m(med_lat, med_lon, hi_lat, lo_lon),
        haversine_m(med_lat, med_lon, hi_lat, hi_lon),
    )
    if corner_max <= r1 or all(
        haversine_m(med_lat, med_lon, lats[k], lons[k]) <= r1 for k in range(first, new + 1)
    ):
        return med_lat, med_lon
    return None


def detect_stops(trace: Sequence[PositionedEvent], params: StopParams) -> list[Stop]:
    """Greedy stop extraction over one user's time-ordered events.

    A candidate stop accumulates consecutive events while each new event is
    within r1 of the running median and within max_gap of the previous one;
    it is emitted only when its span reaches min_duration.  Events in no
    emitted stop are moving points.

    While the members' bounding box, grown by the new event, is provably
    within r1 across (see _BOX_SLACK), both tests pass without computing
    them: the running median lies in the box.  Once the bound fails, the
    candidate runs the exact test (_grow_exact) for the rest of its life.
    """
    events = list(trace)
    for prev, cur in zip(events, events[1:]):
        if cur.timestamp < prev.timestamp:
            raise UnsortedInput(
                f"timestamps decrease for user {cur.user_id!r} at t={cur.timestamp}"
            )
        if cur.user_id != prev.user_id:
            raise ValueError("detect_stops expects a single user's trace")

    ts = [e.timestamp for e in events]
    lats = [e.location.lat for e in events]
    lons = [e.location.lon for e in events]
    coss = np.cos(np.radians(lats)).tolist()
    r1, max_gap = params.r1, params.max_gap
    limit = (math.sin(r1 / (2.0 * EARTH_RADIUS_M)) / _HALF_DEG) ** 2 * _BOX_SLACK

    stops: list[Stop] = []
    i, n = 0, len(events)
    while i < n:
        lo_lat = hi_lat = lats[i]
        lo_lon = hi_lon = lons[i]
        c = coss[i]  # largest cos(lat) among the members
        boxed = True  # the box bound has held for every member so far
        j = i + 1
        while j < n and ts[j] - ts[j - 1] <= max_gap:
            if boxed:
                lat, lon = lats[j], lons[j]
                box_lo_lat = lat if lat < lo_lat else lo_lat
                box_hi_lat = lat if lat > hi_lat else hi_lat
                box_lo_lon = lon if lon < lo_lon else lo_lon
                box_hi_lon = lon if lon > hi_lon else hi_lon
                box_c = coss[j] if coss[j] > c else c
                widest = 1.0 if box_lo_lat < 0.0 < box_hi_lat else box_c
                dlat = box_hi_lat - box_lo_lat
                dlon = widest * (box_hi_lon - box_lo_lon)
                if dlat * dlat + dlon * dlon <= limit:
                    lo_lat, hi_lat, lo_lon, hi_lon, c = (
                        box_lo_lat, box_hi_lat, box_lo_lon, box_hi_lon, box_c
                    )
                    j += 1
                    continue
                boxed = False
                lat_sorted, lon_sorted = sorted(lats[i:j]), sorted(lons[i:j])
                med = (_mid(lat_sorted), _mid(lon_sorted))
            grown = _grow_exact(lat_sorted, lon_sorted, med, lats, lons, i, j, r1)
            if grown is None:
                break
            med = grown
            j += 1
        if ts[j - 1] - ts[i] >= params.min_duration:
            if boxed:
                med = (_mid(sorted(lats[i:j])), _mid(sorted(lons[i:j])))
            stops.append(Stop(
                user_id=events[i].user_id,
                median=GeoPoint(lat=med[0], lon=med[1]),
                t_start=ts[i],
                t_end=ts[j - 1],
                n_events=j - i,
            ))
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


# Grid cells are this much wider than the farthest a pair within r2 can
# reach, so that rounding in the cell index never splits such a pair by
# more than one cell, and no narrower than _MIN_CELL_DEG, so that cell
# indices stay small integers.
_CELL_SLACK = 1.0 + 1e-6
_MIN_CELL_DEG = 1e-6
# Candidate pairs measured per haversine_m_array call; bounds its temporaries.
_PAIRS_PER_PASS = 1 << 16


def _grid_pairs(lat: np.ndarray, lon: np.ndarray, cmin: float, r2: float):
    """Candidate index pairs (first < second) that can lie within r2, in passes.

    Points are hashed into a grid whose cells span at least the latitude and
    longitude difference of any pair within r2, so such a pair sits in the
    same or in adjacent cells (Bentley, Stanat & Williams 1977).  A pair
    within r2 differs in latitude by at most r2/R radians; with both
    cosines at least cmin, the smallest cos(lat) in the data, it differs
    in longitude by at most 2*asin(sin(r2/2R)/cmin).  Columns wrap at the
    antimeridian.
    """
    n = len(lat)
    half = r2 / (2.0 * EARTH_RADIUS_M)
    lat_w = max(math.degrees(2.0 * half) * _CELL_SLACK, _MIN_CELL_DEG)
    # beyond half = pi/2 every pair is within r2
    reach = math.sin(min(half, math.pi / 2.0)) / cmin if cmin > 0.0 else math.inf
    n_cols = 1
    if reach < 1.0:
        lon_w = max(math.degrees(2.0 * math.asin(reach)) * _CELL_SLACK, _MIN_CELL_DEG)
        n_cols = int(360.0 / lon_w)
    if n_cols < 3:  # with fewer columns every column neighbours every other
        n_cols = 1
    row = np.floor(lat / lat_w).astype(np.int64)
    row -= row.min()
    col = np.floor((lon + 180.0) / (360.0 / n_cols)).astype(np.int64) % n_cols

    # Points sorted by cell; each point pairs with the rest of its own cell
    # and with every point of the cells east, north-west, north and
    # north-east of its own, so each pair of neighbouring cells is met once.
    key = row * n_cols + col
    order = np.argsort(key, kind="stable")
    key, row, col = key[order], row[order], col[order]
    pos = np.arange(n)
    starts, ends = [pos + 1], [np.searchsorted(key, key, "right")]
    offsets = ((1, 0),) if n_cols == 1 else ((0, 1), (1, -1), (1, 0), (1, 1))
    for d_row, d_col in offsets:
        other = (row + d_row) * n_cols + (col + d_col) % n_cols
        starts.append(np.searchsorted(key, other, "left"))
        ends.append(np.searchsorted(key, other, "right"))
    start = np.concatenate(starts)
    count = np.concatenate(ends) - start
    owner = np.tile(pos, len(offsets) + 1)
    filled = count > 0
    start, count, owner = start[filled], count[filled], owner[filled]
    done = np.cumsum(count)

    # pair t of range k is (owner[k], start[k] + t - first[k]), t counted over all ranges
    first = done - count
    k = 0
    while k < len(count):
        stop = int(np.searchsorted(done, first[k] + _PAIRS_PER_PASS, "right"))
        stop = max(stop, k + 1)
        c = count[k:stop]
        a = order[np.repeat(owner[k:stop], c)]
        b = order[np.repeat(start[k:stop] - first[k:stop], c) + np.arange(first[k], done[stop - 1])]
        yield np.minimum(a, b), np.maximum(a, b)
        k = stop


def cluster_destinations(stops: Sequence[Stop], r2: float) -> list[str]:
    """Destination labels for stops, one per input position.

    Stops whose medians sit within r2 of each other (transitively) share a
    label.  The component containing the earliest-starting stop is "L0", the
    next "L1", and so on; t_start ties break on (user_id, t_end, median).
    Only pairs in the same or adjacent cells of a grid hash are measured
    (_grid_pairs); every pair within r2 is among them.
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

    lat = np.array([s.median.lat for s in stops])
    lon = np.array([s.median.lon for s in stops])
    phi, lam = np.radians(lat), np.radians(lon)
    cos_phi = np.cos(phi)
    for first, second in _grid_pairs(lat, lon, float(cos_phi.min()), r2):
        d = haversine_m_array(
            phi[first], lam[first], cos_phi[first], phi[second], lam[second], cos_phi[second]
        )
        near = d <= r2
        for a, b in zip(first[near].tolist(), second[near].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

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
    all_stops: list[Stop] = []  # in (user_id, t_start) order: detect_stops emits in time order
    for user_id in sorted(by_user):
        all_stops.extend(detect_stops(by_user[user_id], params))

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
