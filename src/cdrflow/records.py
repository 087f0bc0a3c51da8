"""Event records, their column form and great-circle math on a sphere of radius 6,371,000 m.

numpy is imported only inside the functions that use it, so that a stage
that reads staypoints and trips loads neither numpy nor the positioning code.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        _check_coordinates(self.lat, self.lon)


def _check_coordinates(lat: float, lon: float) -> None:
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude out of range: {lat}")
    if not (-180.0 <= lon <= 180.0):
        raise ValueError(f"longitude out of range: {lon}")


@dataclass(frozen=True, slots=True)
class CdrEvent:
    """Raw telecom observation: who, when, which serving cell."""

    user_id: str
    timestamp: float
    cell_id: str


@dataclass(frozen=True, slots=True)
class PositionedEvent:
    """CDR event with a pseudo-location inside its sector."""

    user_id: str
    timestamp: float
    cell_id: str
    location: GeoPoint

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")


def _made(cls, n: int, *columns: Iterable) -> list:
    """n records of the slotted dataclass cls, field values from columns, no checks run.

    Each slot is set by one map of its descriptor's __set__ over the records,
    so no Python frame runs per record; callers check the values first.
    """
    made = list(map(object.__new__, repeat(cls, n)))
    for name, values in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, made, values), maxlen=0)
    return made


def _valid_events(ts: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    """Per event, whether PositionedEvent and GeoPoint accept its ts, lat and lon.

    The records' checks as one array pass: lat in [-90, 90], lon in
    [-180, 180] and a finite ts; NaN fails.
    """
    import numpy as np

    return np.isfinite(ts) & (-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)


def _check_events(ts: np.ndarray, lat: np.ndarray, lon: np.ndarray) -> None:
    """Raise the records' own error for the first event they would reject, if any."""
    valid = _valid_events(ts, lat, lon)
    if not valid.all():
        k = int(valid.argmin())
        PositionedEvent("", ts[k].item(), "", GeoPoint(lat[k].item(), lon[k].item()))


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two (lat, lon) pairs in degrees."""
    rad, sin, cos = math.radians, math.sin, math.cos
    h = (
        sin(rad(lat2 - lat1) / 2.0) ** 2
        + cos(rad(lat1)) * cos(rad(lat2)) * sin(rad(lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def haversine_m_array(phi1, lam1, cos_phi1, phi2, lam2, cos_phi2) -> np.ndarray:
    """Great-circle distances in meters from radians (phi1, lam1) to arrays (phi2, lam2).

    cos_phi1 and cos_phi2 are the cosines of phi1 and phi2, which callers
    already hold.
    """
    import numpy as np

    h = (
        np.sin((phi2 - phi1) / 2.0) ** 2
        + cos_phi1 * cos_phi2 * np.sin((lam2 - lam1) / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters between two points."""
    return haversine_m(a.lat, a.lon, b.lat, b.lon)


def initial_bearing(a: GeoPoint, b: GeoPoint) -> float:
    """Forward azimuth from a to b, degrees clockwise from north in [0, 360)."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dlam = math.radians(b.lon - a.lon)
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    return math.degrees(math.atan2(y, x)) % 360.0


def destination_point(start: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached from start after distance_m along the given bearing."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(start.lat)
    lam1 = math.radians(start.lon)
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    phi2 = math.asin(max(-1.0, min(1.0, sin_phi2)))
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * sin_phi2,
    )
    lon = (math.degrees(lam2) + 180.0) % 360.0 - 180.0
    return GeoPoint(lat=math.degrees(phi2), lon=lon)


# Events go through array passes in blocks of this many: enough rows that
# the passes outweigh their call overhead, few enough that a block's
# temporaries stay small beside the result.  Output does not depend on it.
_BLOCK_EVENTS = 1024


@dataclass(frozen=True, eq=False)
class EventColumns(Sequence):
    """Events as parallel columns, the library's and the staged CLI's one event type.

    `user` and `cell` are int32 codes into the `users` and `cells` tables,
    which list each id once; `ts`, `lat` and `lon` are float64.  `lat` and
    `lon` are None until the events are positioned.

    As a read-only sequence the columns give one record per event, a
    CdrEvent or, once positioned, a PositionedEvent, made when it is read;
    they equal a list or tuple of the same records.  take() gives columns.
    The values of each slice read are checked once as arrays (_check_events,
    which raises the records' own error) and then set without per-record
    checks (_made).
    """

    users: list[str]
    cells: list[str]
    user: np.ndarray
    cell: np.ndarray
    ts: np.ndarray
    lat: Optional[np.ndarray] = None
    lon: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, index):
        if not isinstance(index, slice):
            k = range(len(self))[index]
            return self[k:k + 1][0]
        ts = self.ts[index]
        fields = (
            map(self.users.__getitem__, self.user[index].tolist()), ts.tolist(),
            map(self.cells.__getitem__, self.cell[index].tolist()),
        )
        if self.lat is None:
            return _made(CdrEvent, len(ts), *fields)
        lat, lon = self.lat[index], self.lon[index]
        _check_events(ts, lat, lon)
        locations = _made(GeoPoint, len(ts), lat.tolist(), lon.tolist())
        return _made(PositionedEvent, len(ts), *fields, locations)

    def __iter__(self) -> Iterator:
        for start in range(0, len(self), _BLOCK_EVENTS):
            yield from self[start:start + _BLOCK_EVENTS]

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, tuple, EventColumns)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def take(self, index: np.ndarray) -> EventColumns:
        """The events at `index`, an index array or a boolean mask, in its order."""
        return EventColumns(
            self.users, self.cells, self.user[index], self.cell[index], self.ts[index],
            None if self.lat is None else self.lat[index],
            None if self.lon is None else self.lon[index],
        )


def id_codes(table: dict[str, int], ids: list[str]) -> np.ndarray:
    """int32 codes of ids, entering new ids in `table` in order of first appearance."""
    import numpy as np

    for key in dict.fromkeys(ids):
        table.setdefault(key, len(table))
    return np.fromiter(map(table.__getitem__, ids), dtype=np.int32, count=len(ids))


def user_rank(users: list[str]) -> np.ndarray:
    """Position of each id of a user table in the sorted table."""
    import numpy as np

    rank = np.empty(len(users), dtype=np.int64)
    rank[sorted(range(len(users)), key=users.__getitem__)] = np.arange(len(rank))
    return rank


def event_columns(records: Iterable) -> EventColumns:
    """EventColumns of CdrEvent or PositionedEvent records; EventColumns come back unchanged.

    The columns hold lat and lon when every record is a PositionedEvent.
    """
    import numpy as np

    if isinstance(records, EventColumns):
        return records
    records = list(records)
    users, cells = {}, {}
    user = id_codes(users, [ev.user_id for ev in records])
    cell = id_codes(cells, [ev.cell_id for ev in records])
    columns = [[ev.timestamp for ev in records]]
    if all(isinstance(ev, PositionedEvent) for ev in records):
        columns += [[ev.location.lat for ev in records], [ev.location.lon for ev in records]]
    return EventColumns(list(users), list(cells), user, cell, *np.array(columns, dtype=np.float64))


def sort_by_user_time(events: EventColumns) -> EventColumns:
    """The events in (user_id, timestamp) order; ties keep their input order.

    Stop detection needs each user's events in time order; exports need
    not be, and the sort is stable, so sorted input comes out unchanged.
    """
    import numpy as np

    return events.take(np.lexsort((events.ts, user_rank(events.users)[events.user])))


def group_by_user(records: Iterable) -> dict[str, list]:
    """Records grouped by their user_id, in input order within each group.

    Groups appear in the order their users first occur.
    """
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.user_id, []).append(record)
    return groups
