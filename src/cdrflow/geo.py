"""Geographic primitives: tower sectors, pseudo-location sampling, region assignment.

Cell identifiers carry no exact coordinates, so events are placed at
deterministic pseudo-locations inside the serving antenna's sector wedge.
All distances are great-circle meters on a sphere of radius 6,371,000 m.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ClippingExhausted
from .files import read_csv, read_json, write_csv, write_json
from .timefmt import from_iso, to_iso

EARTH_RADIUS_M = 6_371_000.0

# Rejection-sampling budget for land clipping.
DEFAULT_CLIP_ATTEMPTS = 64

# Tiny insets keep re-measured distance/bearing of sampled points strictly
# inside the sector predicate under floating-point recomputation.
_RADIAL_FRACTION_MIN = 1e-3
_RADIAL_FRACTION_MAX = 1.0 - 1e-9
_BEARING_MARGIN_DEG = 1e-6


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class TowerSector:
    """Antenna coverage wedge: center, azimuth, beamwidth, radius.

    A zero radius is accepted as the degenerate sector that maps every
    event onto its center.
    """

    cell_id: str
    center: GeoPoint
    azimuth_deg: float
    beamwidth_deg: float
    radius_m: float

    def __post_init__(self) -> None:
        # a NaN or infinite radius or azimuth would keep the draw's shrink loop going forever
        if not 0.0 <= self.radius_m < math.inf:
            raise ValueError(f"sector radius must be finite and >= 0, got {self.radius_m}")
        if not math.isfinite(self.azimuth_deg):
            raise ValueError(f"azimuth must be finite, got {self.azimuth_deg}")
        if not (0.0 < self.beamwidth_deg <= 360.0):
            raise ValueError(f"beamwidth must be in (0, 360], got {self.beamwidth_deg}")
        object.__setattr__(self, "azimuth_deg", self.azimuth_deg % 360.0)


@dataclass(frozen=True)
class Region:
    """Administrative area with one exterior ring and optional holes per polygon."""

    region_id: str
    name: str
    level: str  # "parish" | "municipality"
    parent_id: Optional[str]
    polygons: tuple  # tuple of polygons; polygon = tuple of rings; ring = tuple of GeoPoint

    def __post_init__(self) -> None:
        if self.level not in ("parish", "municipality"):
            raise ValueError(f"unknown region level: {self.level}")
        for polygon in self.polygons:
            for ring in polygon:
                if len(ring) < 4 or ring[0] != ring[-1]:
                    raise ValueError(
                        f"region {self.region_id}: ring must be closed (first == last)"
                    )


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


def bearing_within_wedge(bearing_deg: float, azimuth_deg: float, beamwidth_deg: float) -> bool:
    """Wrap-aware test that a bearing lies inside [azimuth - bw/2, azimuth + bw/2]."""
    diff = (bearing_deg - azimuth_deg + 180.0) % 360.0 - 180.0
    return abs(diff) <= beamwidth_deg / 2.0


# Positioning runs over blocks of this many events: enough rows that the
# array passes outweigh their call overhead, few enough that a block's
# temporaries stay small beside the result.  Output does not depend on it.
_BLOCK_EVENTS = 1024

_TWO_53 = float(1 << 53)


def _splitmix64(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Stable 64-bit generator over uint64 arrays, which wrap modulo 2**64.
    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return state, z ^ (z >> 31)


def event_seed(cell_id: str, user_id: str, timestamp: float) -> int:
    """Stable 64-bit sampling seed for one event, reproducible across runs."""
    ts = repr(int(timestamp)) if float(timestamp).is_integer() else repr(float(timestamp))
    payload = "\x1f".join((cell_id, user_id, ts)).encode("utf-8")
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def _libm(f, *arrays: np.ndarray) -> np.ndarray:
    # numpy's transcendental functions differ from libm in the last bit for
    # some inputs; the math module keeps draws identical across versions.
    return np.array(list(map(f, *(a.tolist() for a in arrays))), dtype=np.float64)


def _sin_squared(a: np.ndarray) -> np.ndarray:
    sin = math.sin
    return np.array([sin(x) ** 2 for x in a.tolist()], dtype=np.float64)


class _Sectors:
    """Wedge geometry of every tower, one row per sector in the towers' order."""

    # columns of `geometry`
    RADIUS, LO_BEARING, SPAN, PHI1, LAM1, SIN_PHI1, COS_PHI1 = range(7)

    def __init__(self, towers: dict[str, TowerSector]):
        self.sectors = list(towers.values())
        self.row = {cell_id: i for i, cell_id in enumerate(towers)}
        params = []
        for sector in self.sectors:
            half = sector.beamwidth_deg / 2.0
            margin = max(_BEARING_MARGIN_DEG * sector.beamwidth_deg, _BEARING_MARGIN_DEG)
            phi1 = math.radians(sector.center.lat)
            params.append((
                sector.radius_m,
                sector.azimuth_deg - half + margin,
                max(sector.beamwidth_deg - 2.0 * margin, 0.0),
                phi1,
                math.radians(sector.center.lon),
                math.sin(phi1),
                math.cos(phi1),
            ))
        self.geometry = np.array(params, dtype=np.float64).reshape(-1, 7)


def _wedge_draw(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lat, lon) degree arrays for unit draws u (radial) and v (angular).

    Row i of g is the _Sectors geometry of draw i.  The destination point is
    re-measured and the radial fraction shrunk, for the rows that overshoot
    the radius only, until every point lies within its sector's radius.
    """
    S = _Sectors
    radius, phi1, lam1 = g[:, S.RADIUS], g[:, S.PHI1], g[:, S.LAM1]
    sin_phi1, cos_phi1 = g[:, S.SIN_PHI1], g[:, S.COS_PHI1]
    fraction = np.minimum(np.maximum(np.sqrt(u), _RADIAL_FRACTION_MIN), _RADIAL_FRACTION_MAX)
    theta = np.radians(np.mod(g[:, S.LO_BEARING] + v * g[:, S.SPAN], 360.0))
    sin_theta, cos_theta = _libm(math.sin, theta), _libm(math.cos, theta)
    phi2 = np.empty(len(g))
    lam2 = np.empty(len(g))
    rows = np.arange(len(g))
    while rows.size:
        delta = fraction[rows] * radius[rows] / EARTH_RADIUS_M
        sin_delta, cos_delta = _libm(math.sin, delta), _libm(math.cos, delta)
        sin_p1, cos_p1 = sin_phi1[rows], cos_phi1[rows]
        sin_phi2 = sin_p1 * cos_delta + cos_p1 * sin_delta * cos_theta[rows]
        sin_phi2 = np.maximum(-1.0, np.minimum(1.0, sin_phi2))
        p2 = _libm(math.asin, sin_phi2)
        l2 = lam1[rows] + _libm(
            math.atan2, sin_theta[rows] * sin_delta * cos_p1, cos_delta - sin_p1 * sin_phi2
        )
        phi2[rows] = p2
        lam2[rows] = l2
        # re-measure; shrink the rows that overshoot (seen only at sub-micrometre radii)
        h = (
            _sin_squared((p2 - phi1[rows]) / 2.0)
            + cos_p1 * _libm(math.cos, p2) * _sin_squared((l2 - lam1[rows]) / 2.0)
        )
        distance = 2.0 * EARTH_RADIUS_M * _libm(math.asin, np.minimum(1.0, np.sqrt(h)))
        rows = rows[~(distance <= radius[rows])]
        fraction[rows] *= 0.999999
    lon = np.mod(np.degrees(lam2) + 180.0, 360.0) - 180.0
    return np.degrees(phi2), lon


def _place(
    seeds: Sequence[int],
    rows: Sequence[int],
    sectors: _Sectors,
    land: Optional["_Land"],
    max_attempts: int,
) -> list[GeoPoint]:
    """Pseudo-location of each seed in the sector of its row; see sample_sector_point.

    Each land attempt re-draws only the events whose previous draw fell off
    land.  An event's draws depend on its own seed alone.
    """
    rows = np.asarray(rows, dtype=np.intp)
    g = sectors.geometry[rows]
    points: list = [None] * len(rows)
    for i in np.flatnonzero(g[:, _Sectors.RADIUS] == 0.0).tolist():
        points[i] = sectors.sectors[rows[i]].center
    todo = np.flatnonzero(g[:, _Sectors.RADIUS] != 0.0)
    state = np.array(seeds, dtype=np.uint64)[todo]
    for _ in range(max(1, max_attempts) if land else 1):
        if not todo.size:
            break
        state, z1 = _splitmix64(state)
        state, z2 = _splitmix64(state)
        lat, lon = _wedge_draw(g[todo], (z1 >> 11) / _TWO_53, (z2 >> 11) / _TWO_53)
        ok = land.contains(lon, lat) if land else np.ones(len(todo), dtype=bool)
        for i, la, lo in zip(todo[ok].tolist(), lat[ok].tolist(), lon[ok].tolist()):
            points[i] = GeoPoint(lat=la, lon=lo)
        todo, state = todo[~ok], state[~ok]

    if todo.size:
        centers = [sectors.sectors[rows[i]].center for i in todo.tolist()]
        on_land = land.contains(
            np.array([c.lon for c in centers]), np.array([c.lat for c in centers])
        )
        for i, center, ok in zip(todo.tolist(), centers, on_land.tolist()):
            if not ok:
                raise ClippingExhausted(
                    f"no land point found for sector {sectors.sectors[rows[i]].cell_id} "
                    f"after {max_attempts} attempts"
                )
            points[i] = center
    return points


def sample_sector_point(
    sector: TowerSector,
    seed: int,
    land: Sequence[Region] = (),
    max_attempts: int = DEFAULT_CLIP_ATTEMPTS,
) -> GeoPoint:
    """Deterministic pseudo-location inside the sector wedge.

    The point is uniform over the wedge area (radial fraction sqrt(u)) and is
    a pure function of (sector, seed, land).  When land regions are given the
    draw is rejection-resampled until it falls inside one of them; after
    max_attempts the sector center is used if it is itself on land, otherwise
    ClippingExhausted is raised.
    """
    sectors = _Sectors({sector.cell_id: sector})
    seeds = [seed & 0xFFFFFFFFFFFFFFFF]
    return _place(seeds, [0], sectors, _Land(land) if land else None, max_attempts)[0]


# --- point-in-polygon -------------------------------------------------------

_BOUNDARY_EPS_DEG = 1e-12


def _on_segment(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> bool:
    if not (min(ax, bx) - _BOUNDARY_EPS_DEG <= px <= max(ax, bx) + _BOUNDARY_EPS_DEG):
        return False
    if not (min(ay, by) - _BOUNDARY_EPS_DEG <= py <= max(ay, by) + _BOUNDARY_EPS_DEG):
        return False
    cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    span = max(abs(bx - ax), abs(by - ay), 1.0)
    return abs(cross) <= _BOUNDARY_EPS_DEG * span


def _ray_cast(px: float, py: float, ring: Sequence[GeoPoint]) -> bool:
    inside = False
    n = len(ring) - 1  # closed ring: last vertex repeats the first
    for i in range(n):
        ax, ay = ring[i].lon, ring[i].lat
        bx, by = ring[i + 1].lon, ring[i + 1].lat
        if (ay > py) != (by > py):
            x_cross = ax + (py - ay) * (bx - ax) / (by - ay)
            if px < x_cross:
                inside = not inside
    return inside


def _ring_boundary(px: float, py: float, ring: Sequence[GeoPoint]) -> bool:
    n = len(ring) - 1
    for i in range(n):
        a, b = ring[i], ring[i + 1]
        if _on_segment(px, py, a.lon, a.lat, b.lon, b.lat):
            return True
    return False


def region_contains(region: Region, p: GeoPoint) -> bool:
    """Containment test; boundary points count as inside."""
    px, py = p.lon, p.lat
    for polygon in region.polygons:
        exterior = polygon[0]
        if _ring_boundary(px, py, exterior):
            return True
        if not _ray_cast(px, py, exterior):
            continue
        in_hole = False
        for hole in polygon[1:]:
            if _ring_boundary(px, py, hole):
                return True  # hole boundary still belongs to the region
            if _ray_cast(px, py, hole):
                in_hole = True
                break
        if not in_hole:
            return True
    return False


# Segments per array pass of the land test; bounds its temporaries to
# this many rows times the number of points.
_SEGMENTS_PER_PASS = 16


def _ring_segments(ring: Sequence[GeoPoint]) -> tuple[np.ndarray, ...]:
    lon = np.array([p.lon for p in ring], dtype=np.float64)
    lat = np.array([p.lat for p in ring], dtype=np.float64)
    ax, ay, bx, by = lon[:-1], lat[:-1], lon[1:], lat[1:]
    dx, dy = bx - ax, by - ay
    return (
        ax, ay, by, dx,
        np.where(dy == 0.0, 1.0, dy),  # the ray cast skips segments with dy == 0
        np.minimum(ax, bx) - _BOUNDARY_EPS_DEG, np.maximum(ax, bx) + _BOUNDARY_EPS_DEG,
        np.minimum(ay, by) - _BOUNDARY_EPS_DEG, np.maximum(ay, by) + _BOUNDARY_EPS_DEG,
        _BOUNDARY_EPS_DEG * np.maximum(np.maximum(np.abs(dx), np.abs(dy)), 1.0),
    )


def _ring_test(segments: tuple, px: np.ndarray, py: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(on boundary, ray-cast inside) per point: _ring_boundary and _ray_cast over arrays."""
    on_edge = np.zeros(len(px), dtype=bool)
    inside = np.zeros(len(px), dtype=bool)
    x, y = px[None, :], py[None, :]
    for k in range(0, len(segments[0]), _SEGMENTS_PER_PASS):
        ax, ay, by, dx, dy, lo_x, hi_x, lo_y, hi_y, tol = (
            s[k:k + _SEGMENTS_PER_PASS, None] for s in segments
        )
        cross = dx * (y - ay) - (by - ay) * (x - ax)
        on_edge |= (
            (lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y) & (np.abs(cross) <= tol)
        ).any(axis=0)
        crosses = ((ay > y) != (by > y)) & (x < ax + (y - ay) * dx / dy)
        inside ^= np.logical_xor.reduce(crosses, axis=0)
    return on_edge, inside


class _Land:
    """Land regions as segment arrays: region_contains over arrays of points."""

    def __init__(self, regions: Sequence[Region]):
        self._polygons = [
            (_ring_segments(polygon[0]), [_ring_segments(hole) for hole in polygon[1:]])
            for region in regions
            for polygon in region.polygons
        ]

    def contains(self, lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
        """Per point, whether some region contains it, as region_contains decides."""
        found = np.zeros(len(lon), dtype=bool)
        for exterior, holes in self._polygons:
            todo = np.flatnonzero(~found)
            if not todo.size:
                break
            x, y = lon[todo], lat[todo]
            on_edge, inside = _ring_test(exterior, x, y)
            result = on_edge | inside
            undecided = inside & ~on_edge
            for hole in holes:  # the first hole whose edge or inside holds the point decides
                hole_edge, hole_inside = _ring_test(hole, x, y)
                result &= ~(undecided & ~hole_edge & hole_inside)
                undecided &= ~(hole_edge | hole_inside)
            found[todo] = result
        return found


class _BoxGrid:
    """Bounding boxes hashed into uniform grid buckets.

    A box is entered in every bucket its extent touches, so the bucket of
    a point holds every box that contains the point, in the order the
    boxes were given.  The cell is the boxes' mean width and height, with
    at most 2*sqrt(n) + 1 cells along each axis.
    """

    __slots__ = ("_x0", "_y0", "_w", "_h", "_buckets")

    def __init__(self, entries: Sequence[tuple[tuple[float, float, float, float], Region]]):
        boxes = [bbox for bbox, _ in entries]
        self._x0 = min(b[0] for b in boxes)
        self._y0 = min(b[1] for b in boxes)
        span_x = max(b[2] for b in boxes) - self._x0
        span_y = max(b[3] for b in boxes) - self._y0
        most = 2 * math.isqrt(len(boxes)) + 1
        mean_w = sum(b[2] - b[0] for b in boxes) / len(boxes)
        mean_h = sum(b[3] - b[1] for b in boxes) / len(boxes)
        self._w = span_x / min(most, max(1, round(span_x / mean_w)))
        self._h = span_y / min(most, max(1, round(span_y / mean_h)))
        self._buckets: dict[tuple[int, int], list] = {}
        for entry in entries:
            minx, miny, maxx, maxy = entry[0]
            lo_x, lo_y = self._cell(minx, miny)
            hi_x, hi_y = self._cell(maxx, maxy)
            for cx in range(lo_x, hi_x + 1):
                for cy in range(lo_y, hi_y + 1):
                    self._buckets.setdefault((cx, cy), []).append(entry)

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        # monotone in x and y, so a point inside a box falls between its corners' cells
        return math.floor((x - self._x0) / self._w), math.floor((y - self._y0) / self._h)

    def bucket(self, x: float, y: float) -> list:
        return self._buckets.get(self._cell(x, y), [])


class RegionIndex:
    """Immutable region lookup: grid buckets of bounding boxes per level."""

    def __init__(self, regions: Iterable[Region]):
        self._by_level: dict[str, list[tuple[tuple[float, float, float, float], Region]]] = {}
        self._by_id: dict[str, Region] = {}
        for region in regions:
            if region.region_id in self._by_id:
                raise ValueError(f"duplicate region_id: {region.region_id}")
            self._by_id[region.region_id] = region
            bbox = self._bbox(region)
            self._by_level.setdefault(region.level, []).append((bbox, region))
        for entries in self._by_level.values():
            entries.sort(key=lambda e: e[1].region_id)
        self._grids = {level: _BoxGrid(entries) for level, entries in self._by_level.items()}
        for region in self._by_id.values():
            if region.level == "parish" and (
                region.parent_id is None or region.parent_id not in self._by_id
            ):
                raise ValueError(
                    f"parish {region.region_id} must reference an existing municipality parent"
                )

    @staticmethod
    def _bbox(region: Region) -> tuple[float, float, float, float]:
        pts = [pt for polygon in region.polygons for ring in polygon for pt in ring]
        eps = 1e-9
        return (
            min(p.lon for p in pts) - eps,
            min(p.lat for p in pts) - eps,
            max(p.lon for p in pts) + eps,
            max(p.lat for p in pts) + eps,
        )

    def get(self, region_id: str) -> Region:
        return self._by_id[region_id]

    def regions(self, level: Optional[str] = None) -> list[Region]:
        if level is None:
            return sorted(self._by_id.values(), key=lambda r: r.region_id)
        return [r for _, r in self._by_level.get(level, [])]

    def assign(self, p: GeoPoint, level: str) -> Optional[str]:
        """Id of the region at `level` containing p, or None.

        Ties on shared boundaries resolve to the lexicographically smallest
        region_id (buckets keep region_id order, so the first hit wins).
        """
        grid = self._grids.get(level)
        if grid is None:
            return None
        for (minx, miny, maxx, maxy), region in grid.bucket(p.lon, p.lat):
            if not (minx <= p.lon <= maxx and miny <= p.lat <= maxy):
                continue
            if region_contains(region, p):
                return region.region_id
        return None


def position_events(
    events: Iterable[CdrEvent],
    towers: dict[str, TowerSector],
    land: Sequence[Region] = (),
) -> list[PositionedEvent]:
    """Attach a deterministic pseudo-location to every CDR event.

    Equivalent to calling sample_sector_point with event_seed per event;
    the events are placed block by block with one array kernel.
    """
    sectors = _Sectors(towers)
    land_arrays = _Land(land) if land else None
    out: list[PositionedEvent] = []
    events = iter(events)
    while block := list(itertools.islice(events, _BLOCK_EVENTS)):
        rows = [sectors.row.get(ev.cell_id) for ev in block]
        # the events before an unknown cell are placed first, as one at a time would
        known = rows.index(None) if None in rows else len(block)
        seeds = [event_seed(ev.cell_id, ev.user_id, ev.timestamp) for ev in block[:known]]
        points = _place(seeds, rows[:known], sectors, land_arrays, DEFAULT_CLIP_ATTEMPTS)
        out.extend(
            PositionedEvent(
                user_id=ev.user_id, timestamp=ev.timestamp, cell_id=ev.cell_id, location=point
            )
            for ev, point in zip(block, points)
        )
        if known < len(block):
            raise ValueError(f"event references unknown cell_id {block[known].cell_id!r}")
    return out


def group_by_user(records: Iterable) -> dict[str, list]:
    """Records grouped by their user_id, in input order within each group.

    Groups appear in the order their users first occur.
    """
    groups: dict[str, list] = {}
    for record in records:
        groups.setdefault(record.user_id, []).append(record)
    return groups


# --- file formats -----------------------------------------------------------

TOWERS_HEADER = ["cell_id", "lat", "lon", "azimuth_deg", "beamwidth_deg", "radius_m"]


def _tower_row(cell_id, lat, lon, azimuth, beamwidth, radius) -> TowerSector:
    return TowerSector(
        cell_id=cell_id,
        center=GeoPoint(lat=float(lat), lon=float(lon)),
        azimuth_deg=float(azimuth),
        beamwidth_deg=float(beamwidth),
        radius_m=float(radius),
    )


def load_towers_csv(path: str | Path) -> dict[str, TowerSector]:
    towers: dict[str, TowerSector] = {}
    for sector in read_csv(path, TOWERS_HEADER, "towers file", _tower_row):
        if sector.cell_id in towers:
            raise ValueError(f"duplicate cell_id {sector.cell_id!r} in {path}")
        towers[sector.cell_id] = sector
    return towers


def write_towers_csv(towers: Iterable[TowerSector], path: str | Path) -> None:
    write_csv(path, TOWERS_HEADER, (
        [t.cell_id, repr(t.center.lat), repr(t.center.lon), repr(t.azimuth_deg),
         repr(t.beamwidth_deg), repr(t.radius_m)]
        for t in sorted(towers, key=lambda t: t.cell_id)
    ))


CDR_HEADER = ["user_id", "timestamp", "cell_id"]
POSITIONED_HEADER = ["user_id", "timestamp", "cell_id", "lat", "lon"]


def _cdr_row(user_id, ts, cell_id) -> CdrEvent:
    return CdrEvent(user_id=user_id, timestamp=from_iso(ts), cell_id=cell_id)


def load_cdr_csv(path: str | Path) -> list[CdrEvent]:
    return list(read_csv(path, CDR_HEADER, "cdr file", _cdr_row))


def write_cdr_csv(events: Iterable[CdrEvent], path: str | Path) -> None:
    write_csv(path, CDR_HEADER, ([ev.user_id, to_iso(ev.timestamp), ev.cell_id] for ev in events))


def _positioned_row(user_id, ts, cell_id, lat, lon) -> PositionedEvent:
    return PositionedEvent(
        user_id=user_id, timestamp=from_iso(ts), cell_id=cell_id,
        location=GeoPoint(lat=float(lat), lon=float(lon)),
    )


def load_positioned_csv(path: str | Path) -> list[PositionedEvent]:
    return list(read_csv(path, POSITIONED_HEADER, "positioned file", _positioned_row))


def write_positioned_csv(events: Iterable[PositionedEvent], path: str | Path) -> None:
    write_csv(path, POSITIONED_HEADER, (
        [ev.user_id, to_iso(ev.timestamp), ev.cell_id, repr(ev.location.lat), repr(ev.location.lon)]
        for ev in events
    ))


def _rings_to_coords(polygons: tuple) -> list:
    return [
        [[[pt.lon, pt.lat] for pt in ring] for ring in polygon]
        for polygon in polygons
    ]


def _coords_to_polygon(coords, where: str) -> tuple:
    def point(pt) -> GeoPoint:
        if not isinstance(pt, list) or len(pt) < 2:
            raise ValueError(f"{where}: position {pt!r} has fewer than 2 numbers")
        return GeoPoint(lat=float(pt[1]), lon=float(pt[0]))

    return tuple(tuple(point(pt) for pt in ring) for ring in coords)


def load_regions_geojson(path: str | Path) -> RegionIndex:
    doc = read_json(path)
    if doc.get("type") != "FeatureCollection":
        raise ValueError(f"regions file {path}: expected a GeoJSON FeatureCollection")
    regions = []
    for k, feature in enumerate(doc.get("features", [])):
        props = feature.get("properties") or {}
        geom = feature.get("geometry") or {}
        for key, holder in (("region_id", props), ("level", props), ("coordinates", geom)):
            if key not in holder:
                raise ValueError(f"regions file {path}: feature {k} has no {key}")
        gtype = geom.get("type")
        where = f"regions file {path}: feature {k}"
        if gtype == "Polygon":
            polygons = (_coords_to_polygon(geom["coordinates"], where),)
        elif gtype == "MultiPolygon":
            polygons = tuple(_coords_to_polygon(c, where) for c in geom["coordinates"])
        else:
            raise ValueError(f"region {props['region_id']}: unsupported geometry {gtype}")
        regions.append(
            Region(
                region_id=str(props["region_id"]),
                name=str(props.get("name", props["region_id"])),
                level=str(props["level"]),
                parent_id=props.get("parent_id"),
                polygons=polygons,
            )
        )
    return RegionIndex(regions)


def write_regions_geojson(regions: Iterable[Region], path: str | Path) -> None:
    features = []
    for r in sorted(regions, key=lambda r: r.region_id):
        coords = _rings_to_coords(r.polygons)
        geometry = (
            {"type": "Polygon", "coordinates": coords[0]}
            if len(coords) == 1
            else {"type": "MultiPolygon", "coordinates": coords}
        )
        features.append(
            {
                "type": "Feature",
                "properties": {
                    "region_id": r.region_id,
                    "name": r.name,
                    "level": r.level,
                    "parent_id": r.parent_id,
                },
                "geometry": geometry,
            }
        )
    write_json({"type": "FeatureCollection", "features": features}, path)
