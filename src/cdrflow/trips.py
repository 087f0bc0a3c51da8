"""Triplegs and trips between staypoints, with heuristic transport modes.

Mode labels come from a configurable speed/length decision table and are
indicative only; every export carries an explicit heuristic flag.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_TRIP_GAP_S, ModeThresholds
from .files import read_keyed_csv, strict_float, write_csv
from .records import GeoPoint, PositionedEvent, group_by_user, haversine_distance
from .stays import Staypoint
from .timefmt import from_iso, to_iso

MODES = ("walk", "bicycle", "bus", "car", "train", "unknown")


@dataclass(frozen=True, slots=True)
class Tripleg:
    tripleg_id: str
    user_id: str
    origin_staypoint: str
    dest_staypoint: str
    t_start: float
    t_end: float
    path_length_m: float
    avg_speed_kmh: float
    mode: str

    def __post_init__(self) -> None:
        if self.t_end <= self.t_start:
            raise ValueError(f"tripleg {self.tripleg_id}: t_end must exceed t_start")
        if self.mode not in MODES:
            raise ValueError(f"tripleg {self.tripleg_id}: unknown mode {self.mode!r}")
        if not (0.0 <= self.path_length_m < math.inf and 0.0 <= self.avg_speed_kmh < math.inf):
            raise ValueError(
                f"tripleg {self.tripleg_id}: path_length_m and avg_speed_kmh must be finite "
                f"and >= 0, got {self.path_length_m} and {self.avg_speed_kmh}"
            )


@dataclass(frozen=True, slots=True)
class Trip:
    trip_id: str
    user_id: str
    triplegs: tuple
    origin_staypoint: str
    dest_staypoint: str
    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if not self.triplegs:
            raise ValueError(f"trip {self.trip_id}: needs at least one tripleg")
        for leg in self.triplegs:
            if leg.user_id != self.user_id:
                raise ValueError(
                    f"trip {self.trip_id}: tripleg {leg.tripleg_id} is of user {leg.user_id!r}, "
                    f"not {self.user_id!r}"
                )
        for a, b in zip(self.triplegs, self.triplegs[1:]):
            if b.t_start < a.t_end:
                raise ValueError(f"trip {self.trip_id}: triplegs overlap in time")
            if a.dest_staypoint != b.origin_staypoint:
                raise ValueError(f"trip {self.trip_id}: tripleg chain is broken")

    @property
    def primary_mode(self) -> str:
        """Mode of the longest leg (earliest leg wins a tie)."""
        best = max(self.triplegs, key=lambda leg: (leg.path_length_m, -leg.t_start))
        return best.mode


def label_mode(leg: Tripleg, thresholds: ModeThresholds) -> str:
    """Decision-table lookup for one leg."""
    return thresholds.classify(leg.avg_speed_kmh, leg.path_length_m, leg.t_end - leg.t_start)


def derive_triplegs(
    staypoints: Sequence[Staypoint],
    moving: Sequence[PositionedEvent],
    thresholds: Optional[ModeThresholds] = None,
) -> list[Tripleg]:
    """Movement legs between one user's consecutive staypoints.

    A leg exists when the pair's location_ids differ or when at least one
    moving event falls into the gap; its path chains origin median, the
    gap's moving events, and destination median.  Consecutive staypoints at
    one location with a silent gap produce no leg.
    """
    thresholds = thresholds or ModeThresholds()
    moving = sorted(moving, key=lambda e: e.timestamp)
    ts = [e.timestamp for e in moving]
    legs: list[Tripleg] = []
    for a, b in zip(staypoints, staypoints[1:]):
        if a.user_id != b.user_id:
            raise ValueError("derive_triplegs expects a single user's staypoints")
        between = moving[bisect_right(ts, a.t_end):bisect_left(ts, b.t_start)]
        if a.location_id == b.location_id and not between:
            continue
        duration = b.t_start - a.t_end
        if duration <= 0:
            continue  # abutting staypoints leave no movement window
        chain: list[GeoPoint] = [a.median] + [e.location for e in between] + [b.median]
        path = sum(haversine_distance(p, q) for p, q in zip(chain, chain[1:]))
        speed = path / duration * 3.6
        legs.append(Tripleg(
            tripleg_id=f"{a.user_id}-leg{len(legs):04d}",
            user_id=a.user_id,
            origin_staypoint=a.staypoint_id,
            dest_staypoint=b.staypoint_id,
            t_start=a.t_end,
            t_end=b.t_start,
            path_length_m=path,
            avg_speed_kmh=speed,
            mode=thresholds.classify(speed, path, duration),
        ))
    return legs


def assemble_trips(
    triplegs: Sequence[Tripleg],
    gap_threshold: float = DEFAULT_TRIP_GAP_S,
    id_offset: int = 0,
) -> list[Trip]:
    """Merge one user's consecutive legs into trips.

    Legs join the running trip when the idle time between them is at most
    gap_threshold and the chain stays unbroken (previous destination equals
    next origin); otherwise a new trip starts.
    """
    trips: list[Trip] = []
    group: list[Tripleg] = []

    def flush() -> None:
        if not group:
            return
        trips.append(
            Trip(
                trip_id=f"trip{id_offset + len(trips):06d}",
                user_id=group[0].user_id,
                triplegs=tuple(group),
                origin_staypoint=group[0].origin_staypoint,
                dest_staypoint=group[-1].dest_staypoint,
                t_start=group[0].t_start,
                t_end=group[-1].t_end,
            )
        )

    for leg in triplegs:
        if group and (
            leg.t_start - group[-1].t_end > gap_threshold
            or leg.origin_staypoint != group[-1].dest_staypoint
        ):
            flush()
            group = []
        group.append(leg)
    flush()
    return trips


def build_trips(
    staypoints: Sequence[Staypoint],
    moving: Sequence[PositionedEvent],
    thresholds: Optional[ModeThresholds] = None,
    gap_threshold: float = DEFAULT_TRIP_GAP_S,
) -> list[Trip]:
    """Per-user tripleg derivation and trip assembly over the whole dataset."""
    sp_by_user = group_by_user(sorted(staypoints, key=lambda s: (s.user_id, s.t_start)))
    mv_by_user = group_by_user(moving)

    trips: list[Trip] = []
    for user_id in sorted(sp_by_user):
        legs = derive_triplegs(sp_by_user[user_id], mv_by_user.get(user_id, []), thresholds)
        trips.extend(assemble_trips(legs, gap_threshold, id_offset=len(trips)))
    return trips


TRIPS_HEADER = [
    "trip_id", "user_id", "origin_sp", "dest_sp", "t_start", "t_end",
    "n_legs", "primary_mode", "heuristic",
]
TRIPLEGS_HEADER = [
    "tripleg_id", "trip_id", "user_id", "origin_sp", "dest_sp",
    "t_start", "t_end", "path_length_m", "avg_speed_kmh", "mode",
]


def write_trips_csv(trips: Iterable[Trip], path: str | Path) -> None:
    write_csv(path, TRIPS_HEADER, (
        [t.trip_id, t.user_id, t.origin_staypoint, t.dest_staypoint,
         to_iso(t.t_start), to_iso(t.t_end), len(t.triplegs), t.primary_mode, "true"]
        for t in trips
    ))


def write_triplegs_csv(trips: Iterable[Trip], path: str | Path) -> None:
    write_csv(path, TRIPLEGS_HEADER, (
        [leg.tripleg_id, t.trip_id, leg.user_id, leg.origin_staypoint, leg.dest_staypoint,
         to_iso(leg.t_start), to_iso(leg.t_end),
         repr(leg.path_length_m), repr(leg.avg_speed_kmh), leg.mode]
        for t in trips
        for leg in t.triplegs
    ))


def load_trips_csv(trips_path: str | Path, triplegs_path: str | Path) -> list[Trip]:
    """Rebuild Trip objects from the trip and tripleg exports."""
    def tripleg(leg_id, trip_id, user_id, origin, dest, t_start, t_end, length, speed, mode):
        return leg_id, (trip_id, Tripleg(
            tripleg_id=leg_id, user_id=user_id, origin_staypoint=origin, dest_staypoint=dest,
            t_start=from_iso(t_start), t_end=from_iso(t_end),
            path_length_m=strict_float(length), avg_speed_kmh=strict_float(speed), mode=mode,
        ))

    legs_by_trip: dict[str, list[Tripleg]] = {}
    for trip_id, leg in read_keyed_csv(
        triplegs_path, TRIPLEGS_HEADER, "triplegs file", "tripleg_id", tripleg
    ).values():
        legs_by_trip.setdefault(trip_id, []).append(leg)

    def trip(trip_id, user_id, origin, dest, t_start, t_end, *_) -> tuple[str, Trip]:
        legs = legs_by_trip.get(trip_id, [])
        legs.sort(key=lambda leg: leg.t_start)
        return trip_id, Trip(
            trip_id=trip_id, user_id=user_id, triplegs=tuple(legs),
            origin_staypoint=origin, dest_staypoint=dest,
            t_start=from_iso(t_start), t_end=from_iso(t_end),
        )

    trips = read_keyed_csv(trips_path, TRIPS_HEADER, "trips file", "trip_id", trip)
    for trip_id, legs in legs_by_trip.items():
        if trip_id not in trips:
            raise ValueError(
                f"triplegs file {triplegs_path}: tripleg {legs[0].tripleg_id} names "
                f"trip {trip_id!r}, which trips file {trips_path} lacks"
            )
    return list(trips.values())


@dataclass(frozen=True, slots=True)
class TripEnds:
    """A trip's id and endpoint staypoints: all that an OD matrix reads of a trip."""

    trip_id: str
    origin_staypoint: str
    dest_staypoint: str


def load_trip_ends_csv(trips_path: str | Path) -> list[TripEnds]:
    """The trips of a trip export without their triplegs, timestamps checked as on load."""
    def ends(trip_id, user_id, origin, dest, t_start, t_end, *_) -> tuple[str, TripEnds]:
        from_iso(t_start), from_iso(t_end)  # a malformed timestamp fails as on load
        return trip_id, TripEnds(trip_id, origin, dest)

    return list(read_keyed_csv(trips_path, TRIPS_HEADER, "trips file", "trip_id", ends).values())
