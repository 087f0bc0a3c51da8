"""Tower sectors, pseudo-location sampling, land clipping, region assignment, file codecs.

Cell identifiers carry no exact coordinates, so events are placed at
deterministic pseudo-locations inside the serving antenna's sector wedge.
The event records and the great-circle math are in records.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .errors import ClippingExhausted
from .files import (
    is_strict, plain_csv_blocks, read_csv, read_json, read_keyed_csv, strict_float, write_csv,
    write_csv_blocks, write_json,
)
from .records import (
    _BLOCK_EVENTS, EARTH_RADIUS_M, CdrEvent, EventColumns, GeoPoint, PositionedEvent,
    _check_coordinates, event_columns, id_codes,
)
from .timefmt import from_iso, from_iso_block, to_iso_block

if TYPE_CHECKING:
    import numpy as np

# Rejection-sampling budget for land clipping.
DEFAULT_CLIP_ATTEMPTS = 64

# Tiny insets keep re-measured distance/bearing of sampled points strictly
# inside the sector predicate under floating-point recomputation.
_RADIAL_FRACTION_MIN = 1e-3
_RADIAL_FRACTION_MAX = 1.0 - 1e-9
_BEARING_MARGIN_DEG = 1e-6


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
        # a NaN or infinite radius or azimuth has no wedge to draw in
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


def bearing_within_wedge(bearing_deg: float, azimuth_deg: float, beamwidth_deg: float) -> bool:
    """Wrap-aware test that a bearing lies inside [azimuth - bw/2, azimuth + bw/2]."""
    diff = (bearing_deg - azimuth_deg + 180.0) % 360.0 - 180.0
    return abs(diff) <= beamwidth_deg / 2.0


_TWO_53 = float(1 << 53)


def _splitmix64(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Stable 64-bit generator over uint64 arrays, which wrap modulo 2**64.
    import numpy as np

    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return state, z ^ (z >> 31)


def _id_keys(ids: Sequence[str], domain: bytes) -> np.ndarray:
    """The 64-bit blake2b key of each id, personalised by its domain, as uint64."""
    import numpy as np

    digests = b"".join(
        blake2b(i.encode("utf-8"), digest_size=8, person=domain).digest() for i in ids
    )
    return np.frombuffer(digests, dtype="<u8")


_CELL_DOMAIN, _USER_DOMAIN = b"cdrflow.cell", b"cdrflow.user"


def _event_seeds(cell_key: np.ndarray, user_key: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """uint64 seeds of events from their cell and user keys and float64 timestamps.

    A counter-based generator (Salmon et al. 2011): the cell key, the user
    key and the bits of ts + 0.0 enter the state in turn, each followed by
    splitmix64's finalizer.  Adding 0.0 gives -0.0 the bits of 0.0.
    """
    import numpy as np

    _, z = _splitmix64(cell_key)
    _, z = _splitmix64(z ^ user_key)
    _, z = _splitmix64(z ^ (ts + 0.0).view(np.uint64))
    return z


def event_seed(cell_id: str, user_id: str, timestamp: float) -> int:
    """Stable 64-bit sampling seed for one event, a pure function of its arguments.

    It is position_events' seed of a one-event block; an integral timestamp
    gives the seed of its float.
    """
    import numpy as np

    return int(_event_seeds(
        _id_keys([cell_id], _CELL_DOMAIN), _id_keys([user_id], _USER_DOMAIN),
        np.array([timestamp], dtype=np.float64),
    )[0])


def _libm(f, *arrays: np.ndarray) -> np.ndarray:
    # numpy's transcendental functions differ from libm in the last bit for
    # some inputs; the math module keeps draws identical across versions.
    import numpy as np

    return np.fromiter(map(f, *(a.tolist() for a in arrays)), np.float64, len(arrays[0]))


def _sin_squared(a: np.ndarray) -> np.ndarray:
    import numpy as np

    sin = math.sin
    return np.fromiter([sin(x) ** 2 for x in a.tolist()], np.float64, len(a))


class _Sectors:
    """Wedge geometry of every tower, one row per sector in the towers' order."""

    # columns of `geometry`; LAT and LON are the centre in degrees
    RADIUS, LO_BEARING, SPAN, LAM1, SIN_PHI1, COS_PHI1, LAT, LON = range(8)

    def __init__(self, towers: dict[str, TowerSector]):
        import numpy as np

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
                math.radians(sector.center.lon),
                math.sin(phi1),
                math.cos(phi1),
                sector.center.lat,
                sector.center.lon,
            ))
        self.geometry = np.array(params, dtype=np.float64).reshape(-1, 8)


def _libm_haversine(dphi, dlam, cos_phi1, phi2) -> np.ndarray:
    """haversine_m's arithmetic over arrays of radians, with libm's sin, cos and asin."""
    import numpy as np

    h = _sin_squared(dphi / 2.0) + cos_phi1 * _libm(math.cos, phi2) * _sin_squared(dlam / 2.0)
    return 2.0 * EARTH_RADIUS_M * _libm(math.asin, np.minimum(1.0, np.sqrt(h)))


def _wedge_draw(
    g: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lat, lon, at_centre) arrays for unit draws u (radial) and v (angular).

    Row i of g is the _Sectors geometry of draw i.  Each destination point
    is measured once, by haversine_m's arithmetic on the degrees returned.
    A point beyond its sector's radius, which happens only at sub-micrometre
    radii, goes to the sector's centre; at_centre marks it.
    """
    import numpy as np

    S = _Sectors
    radius, sin_phi1, cos_phi1 = g[:, S.RADIUS], g[:, S.SIN_PHI1], g[:, S.COS_PHI1]
    fraction = np.minimum(np.maximum(np.sqrt(u), _RADIAL_FRACTION_MIN), _RADIAL_FRACTION_MAX)
    theta = np.radians(np.mod(g[:, S.LO_BEARING] + v * g[:, S.SPAN], 360.0))
    delta = fraction * radius / EARTH_RADIUS_M
    sin_delta, cos_delta = _libm(math.sin, delta), _libm(math.cos, delta)
    sin_phi2 = sin_phi1 * cos_delta + cos_phi1 * sin_delta * _libm(math.cos, theta)
    sin_phi2 = np.maximum(-1.0, np.minimum(1.0, sin_phi2))
    lam2 = g[:, S.LAM1] + _libm(
        math.atan2, _libm(math.sin, theta) * sin_delta * cos_phi1, cos_delta - sin_phi1 * sin_phi2
    )
    lat = np.degrees(_libm(math.asin, sin_phi2))
    lon = np.mod(np.degrees(lam2) + 180.0, 360.0) - 180.0
    dphi, dlam = np.radians(lat - g[:, S.LAT]), np.radians(lon - g[:, S.LON])
    at_centre = ~(_libm_haversine(dphi, dlam, cos_phi1, np.radians(lat)) <= radius)
    lat[at_centre], lon[at_centre] = g[at_centre, S.LAT], g[at_centre, S.LON]
    return lat, lon, at_centre


def _place(
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    n: int,
    sectors: _Sectors,
    land: Optional["_Land"],
    max_attempts: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pseudo-locations of n events, given as blocks of (uint64 seeds, sector rows) in order.

    Each event goes where sample_sector_point puts its seed in the sector
    of its row.  Returns (lat, lon, at_centre) arrays; at_centre marks the
    events placed at their sector's centre.  First draws go a block at a
    time.  Only the events whose draw fell off land carry their index, row
    and generator state on, and each later land attempt re-draws that
    pooled set _BLOCK_EVENTS at a time: the re-draws of all the blocks take
    a few calls, and beside the result only the pooled set is held.  An
    event's draws depend on its own seed alone, so neither the blocks nor
    the pooling change a position.
    """
    import numpy as np

    S = _Sectors
    geometry = sectors.geometry
    lat, lon, at_centre = np.empty(n), np.empty(n), np.zeros(n, dtype=bool)

    def attempt(index: np.ndarray, rows: np.ndarray, state: np.ndarray) -> tuple:
        # one draw for each event of index; returns the events still off land, their rows and state
        state, z1 = _splitmix64(state)
        state, z2 = _splitmix64(state)
        la, lo, centre = _wedge_draw(geometry[rows], (z1 >> 11) / _TWO_53, (z2 >> 11) / _TWO_53)
        ok = land.contains(lo, la) if land else np.ones(len(index), dtype=bool)
        lat[index[ok]], lon[index[ok]] = la[ok], lo[ok]
        at_centre[index[ok & centre]] = True
        return index[~ok], rows[~ok], state[~ok]

    pending = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0, np.uint64))]
    start = 0
    for seeds, rows in blocks:
        g = geometry[rows]
        stop = start + len(rows)
        lat[start:stop], lon[start:stop] = g[:, S.LAT], g[:, S.LON]
        at_centre[start:stop] = g[:, S.RADIUS] == 0.0
        draw = np.flatnonzero(~at_centre[start:stop])
        off = attempt(start + draw, rows[draw], seeds[draw])
        if off[0].size:
            pending.append(off)
        start = stop
    index, rows, state = (np.concatenate(column) for column in zip(*pending))
    for _ in range(max(1, max_attempts) - 1 if land else 0):
        if not index.size:
            break
        pending = [
            attempt(*(column[k:k + _BLOCK_EVENTS] for column in (index, rows, state)))
            for k in range(0, len(index), _BLOCK_EVENTS)
        ]
        index, rows, state = (np.concatenate(column) for column in zip(*pending))

    if index.size:  # in input order, so the first off land is the first event that failed
        off_land = ~land.contains(lon[index], lat[index])
        if off_land.any():
            raise ClippingExhausted(
                f"no land point found for sector {sectors.sectors[rows[off_land][0]].cell_id} "
                f"after {max_attempts} attempts"
            )
        at_centre[index] = True
    return lat, lon, at_centre


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
    import numpy as np

    sectors = _Sectors({sector.cell_id: sector})
    block = (np.array([seed & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64), np.zeros(1, dtype=np.intp))
    lat, lon, at_centre = _place([block], 1, sectors, _Land(land) if land else None, max_attempts)
    return sector.center if at_centre[0] else GeoPoint(lat=float(lat[0]), lon=float(lon[0]))


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


def _ring_segments(ring: Sequence[GeoPoint]) -> tuple[tuple[float, ...], tuple[np.ndarray, ...]]:
    """(box, segments) of a ring; box is (lo_x, hi_x, lo_y, hi_y) over its segments' boxes."""
    import numpy as np

    lon = np.array([p.lon for p in ring], dtype=np.float64)
    lat = np.array([p.lat for p in ring], dtype=np.float64)
    ax, ay, bx, by = lon[:-1], lat[:-1], lon[1:], lat[1:]
    dx, dy = bx - ax, by - ay
    lo_x, hi_x = np.minimum(ax, bx) - _BOUNDARY_EPS_DEG, np.maximum(ax, bx) + _BOUNDARY_EPS_DEG
    lo_y, hi_y = np.minimum(ay, by) - _BOUNDARY_EPS_DEG, np.maximum(ay, by) + _BOUNDARY_EPS_DEG
    box = (float(lo_x.min()), float(hi_x.max()), float(lo_y.min()), float(hi_y.max()))
    return box, (
        ax, ay, by, dx,
        np.where(dy == 0.0, 1.0, dy),  # the ray cast skips segments with dy == 0
        lo_x, hi_x, lo_y, hi_y,
        _BOUNDARY_EPS_DEG * np.maximum(np.maximum(np.abs(dx), np.abs(dy)), 1.0),
    )


def _ring_test(
    ring: tuple, px: np.ndarray, py: np.ndarray, among: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(on boundary, ray-cast inside) of the points among, an index array into px and py.

    These are _ring_boundary and _ray_cast over arrays, run only on the
    points inside the ring's box, which holds every segment's edge box.  A
    point outside it is on no edge, and the ray cast puts it outside.  Above
    or below the box, no segment has (ay > py) != (by > py).  Right of it,
    every x_cross is left of the point: x_cross lies between ax and bx up to
    its rounding, a few 1e-13 degrees at most for |dx| <= 360, well inside
    the box's _BOUNDARY_EPS_DEG margin.  Left of it, every segment with
    (ay > py) != (by > py) is crossed, and a closed ring has an even number
    of those.
    """
    import numpy as np

    (lo_x, hi_x, lo_y, hi_y), segments = ring
    x, y = px[among], py[among]
    near = (lo_x <= x) & (x <= hi_x) & (lo_y <= y) & (y <= hi_y)
    on_edge = np.zeros(len(among), dtype=bool)
    inside = np.zeros(len(among), dtype=bool)
    if not near.any():
        return on_edge, inside
    x, y = x[near][None, :], y[near][None, :]
    edge = np.zeros(x.shape[1], dtype=bool)
    crossed = np.zeros(x.shape[1], dtype=bool)
    for k in range(0, len(segments[0]), _SEGMENTS_PER_PASS):
        ax, ay, by, dx, dy, s_lo_x, s_hi_x, s_lo_y, s_hi_y, tol = (
            s[k:k + _SEGMENTS_PER_PASS, None] for s in segments
        )
        cross = dx * (y - ay) - (by - ay) * (x - ax)
        edge |= (
            (s_lo_x <= x) & (x <= s_hi_x) & (s_lo_y <= y) & (y <= s_hi_y) & (np.abs(cross) <= tol)
        ).any(axis=0)
        crosses = ((ay > y) != (by > y)) & (x < ax + (y - ay) * dx / dy)
        crossed ^= np.logical_xor.reduce(crosses, axis=0)
    on_edge[near], inside[near] = edge, crossed
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
        import numpy as np

        found = np.zeros(len(lon), dtype=bool)
        for exterior, holes in self._polygons:
            todo = np.flatnonzero(~found)
            if not todo.size:
                break
            on_edge, inside = _ring_test(exterior, lon, lat, todo)
            found[todo[on_edge]] = True
            undecided = todo[inside & ~on_edge]
            for hole in holes:  # the first hole whose edge or inside holds the point decides
                if not undecided.size:
                    break
                hole_edge, hole_inside = _ring_test(hole, lon, lat, undecided)
                found[undecided[hole_edge]] = True
                undecided = undecided[~(hole_edge | hole_inside)]
            found[undecided] = True
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


def _first_orphan(regions: dict[str, Region]) -> Optional[str]:
    """The id of the first parish whose parent_id is no key of regions, or None."""
    parishes = (r for r in regions.values() if r.level == "parish")
    return next((r.region_id for r in parishes if r.parent_id not in regions), None)


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
        orphan = _first_orphan(self._by_id)
        if orphan is not None:
            raise ValueError(f"parish {orphan} must reference an existing municipality parent")

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
    events: Iterable[CdrEvent], towers: dict[str, TowerSector], land: Sequence[Region] = ()
) -> EventColumns:
    """The events, CdrEvent records or EventColumns, as columns with lat and lon set.

    Each event goes where sample_sector_point puts it with its event_seed.
    Each id of the cells and users tables is hashed once; then one _place
    call places the events, seeded a block of _BLOCK_EVENTS at a time.  The
    events before an unknown cell are placed first, as one at a time would,
    so that their ClippingExhausted comes before the unknown cell's
    ValueError.
    """
    import numpy as np

    events = event_columns(events)
    sectors = _Sectors(towers)
    land = _Land(land) if land else None
    rows = np.array([sectors.row.get(c, -1) for c in events.cells], dtype=np.intp)  # per cell
    unknown = np.flatnonzero(np.isin(events.cell, np.flatnonzero(rows < 0)))
    known = int(unknown[0]) if unknown.size else len(events)
    cell_key = _id_keys(events.cells, _CELL_DOMAIN)
    user_key = _id_keys(events.users, _USER_DOMAIN)

    def blocks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for start in range(0, known, _BLOCK_EVENTS):
            block = slice(start, min(start + _BLOCK_EVENTS, known))
            codes = events.cell[block]
            seeds = _event_seeds(cell_key[codes], user_key[events.user[block]], events.ts[block])
            yield seeds, rows[codes]

    lat, lon, _ = _place(blocks(), known, sectors, land, DEFAULT_CLIP_ATTEMPTS)
    if unknown.size:
        raise ValueError(f"event references unknown cell_id {events.cells[events.cell[known]]!r}")
    return replace(events, lat=lat, lon=lon)


# --- file formats -----------------------------------------------------------

TOWERS_HEADER = ["cell_id", "lat", "lon", "azimuth_deg", "beamwidth_deg", "radius_m"]

def _tower_row(cell_id, lat, lon, azimuth, beamwidth, radius) -> tuple[str, TowerSector]:
    return cell_id, TowerSector(
        cell_id=cell_id,
        center=GeoPoint(lat=strict_float(lat), lon=strict_float(lon)),
        azimuth_deg=strict_float(azimuth),
        beamwidth_deg=strict_float(beamwidth),
        radius_m=strict_float(radius),
    )


def load_towers_csv(path: str | Path) -> dict[str, TowerSector]:
    return read_keyed_csv(path, TOWERS_HEADER, "towers file", "cell_id", _tower_row)


def write_towers_csv(towers: Iterable[TowerSector], path: str | Path) -> None:
    write_csv(path, TOWERS_HEADER, (
        [t.cell_id, repr(t.center.lat), repr(t.center.lon), repr(t.azimuth_deg),
         repr(t.beamwidth_deg), repr(t.radius_m)]
        for t in sorted(towers, key=lambda t: t.cell_id)
    ))


CDR_HEADER = ["user_id", "timestamp", "cell_id"]
POSITIONED_HEADER = ["user_id", "timestamp", "cell_id", "lat", "lon"]


def _cdr_fields(user_id, ts, cell_id) -> tuple:
    return user_id, from_iso(ts), cell_id


def _positioned_fields(user_id, ts, cell_id, lat, lon) -> tuple:
    # the checks and their order are those of PositionedEvent(..., GeoPoint(lat, lon))
    timestamp, lat, lon = from_iso(ts), strict_float(lat), strict_float(lon)
    _check_coordinates(lat, lon)
    if not math.isfinite(timestamp):
        raise ValueError("timestamp must be finite")
    return user_id, timestamp, cell_id, lat, lon


class _ColumnBuilder:
    """EventColumns grown a value or a block of values at a time."""

    def __init__(self, n_floats: int):
        self.user_codes: dict[str, int] = {}
        self.cell_codes: dict[str, int] = {}
        self.user, self.cell = array("i"), array("i")
        self.floats = [array("d") for _ in range(n_floats)]  # ts, then lat and lon if any

    def build(self) -> EventColumns:
        import numpy as np

        return EventColumns(
            list(self.user_codes), list(self.cell_codes),
            np.frombuffer(self.user, dtype=np.int32), np.frombuffer(self.cell, dtype=np.int32),
            *(np.frombuffer(column, dtype=np.float64) for column in self.floats),
        )


def _read_canonical_columns(path: str | Path, header: list[str]) -> Optional[EventColumns]:
    """EventColumns of a plain event file in canonical form, or None for any other file.

    Canonical is what the writers below give: plain CSV (files.plain_csv_blocks),
    timestamps in from_iso_block's form, and coordinates that strict_float reads
    within range.  For such a file this gives what _read_rows gives, with
    whole-array passes over each block instead of a check per row.
    """
    import numpy as np

    out = _ColumnBuilder(len(header) - 2)
    for columns in plain_csv_blocks(path, header):
        if columns is None:
            return None
        users, stamps, cells, *coordinates = columns
        ts = from_iso_block(stamps)
        if ts is None:
            return None
        if not all(map(is_strict, map("".join, coordinates))):
            return None
        try:
            floats = [np.fromiter(map(float, c), np.float64, len(c)) for c in coordinates]
        except ValueError:
            return None
        if floats:
            lat, lon = floats
            if not ((-90.0 <= lat) & (lat <= 90.0) & (-180.0 <= lon) & (lon <= 180.0)).all():
                return None  # NaN fails here too, as in _check_coordinates
        values = (id_codes(out.user_codes, users), id_codes(out.cell_codes, cells), ts, *floats)
        for column, block in zip((out.user, out.cell, *out.floats), values):
            column.frombytes(block.tobytes())
    return out.build()


def _read_rows(path: str | Path, header: list[str], what: str, fields) -> EventColumns:
    """EventColumns of a CSV whose rows fields(*row) turns into (user, ts, cell, *coordinates)."""
    out = _ColumnBuilder(len(header) - 2)
    for user_id, ts, cell_id, *coordinates in read_csv(path, header, what, fields):
        out.user.append(out.user_codes.setdefault(user_id, len(out.user_codes)))
        out.cell.append(out.cell_codes.setdefault(cell_id, len(out.cell_codes)))
        for column, value in zip(out.floats, (ts, *coordinates)):
            column.append(value)
    return out.build()


def _read_columns(path: str | Path, header: list[str], what: str, fields) -> EventColumns:
    """The canonical reader's columns, or the row-wise reader's for any other file.

    Both accept the same files with the same values; only the row-wise
    reader raises, naming the file and line.
    """
    columns = _read_canonical_columns(path, header)
    return _read_rows(path, header, what, fields) if columns is None else columns


def load_cdr_csv(path: str | Path) -> EventColumns:
    return _read_columns(path, CDR_HEADER, "cdr file", _cdr_fields)


def write_cdr_csv(events: Iterable[CdrEvent], path: str | Path) -> None:
    """cdr.csv of CdrEvent or PositionedEvent records, or of EventColumns, positioned or not."""
    write_cdr_columns([event_columns(events)], path)


def read_positioned_columns(path: str | Path) -> EventColumns:
    return _read_columns(path, POSITIONED_HEADER, "positioned file", _positioned_fields)


def load_positioned_csv(path: str | Path) -> list[PositionedEvent]:
    """PositionedEvents of the file, parsed row by row without numpy, for the trips stage."""
    return [
        PositionedEvent(user_id, ts, cell_id, GeoPoint(lat, lon))
        for user_id, ts, cell_id, lat, lon
        in read_csv(path, POSITIONED_HEADER, "positioned file", _positioned_fields)
    ]


def write_positioned_csv(events: Iterable[PositionedEvent], path: str | Path) -> None:
    """positioned.csv of PositionedEvent records or positioned EventColumns, a block at a time."""
    write_csv_blocks(path, POSITIONED_HEADER, _text_blocks(event_columns(events), coordinates=True))


def write_cdr_columns(parts: Iterable[EventColumns], path: str | Path) -> None:
    """cdr.csv of the events of each part in turn, a block of rows at a time.

    Only one part is converted at a time, so the parts can be made as
    they are written.  Coordinates, if any, are left out.
    """
    write_csv_blocks(path, CDR_HEADER, (text for events in parts for text in _text_blocks(events)))


def _text_blocks(events: EventColumns, coordinates: bool = False) -> Iterator[list[list[str]]]:
    """The rows of events as string columns, _BLOCK_EVENTS rows at a time.

    The columns are those of the event files: user_id, timestamp and
    cell_id, then lat and lon if `coordinates` is set.
    """
    users, cells = events.users, events.cells
    for start in range(0, len(events), _BLOCK_EVENTS):
        block = slice(start, start + _BLOCK_EVENTS)
        columns = [
            list(map(users.__getitem__, events.user[block].tolist())),
            to_iso_block(events.ts[block]),
            list(map(cells.__getitem__, events.cell[block].tolist())),
        ]
        if coordinates:
            columns.append(list(map(repr, events.lat[block].tolist())))
            columns.append(list(map(repr, events.lon[block].tolist())))
        yield columns


def _rings_to_coords(polygons: tuple) -> list:
    return [
        [[[pt.lon, pt.lat] for pt in ring] for ring in polygon]
        for polygon in polygons
    ]


def _coords_to_polygon(coords, where: str) -> tuple:
    def point(pt) -> GeoPoint:
        if not isinstance(pt, list) or len(pt) < 2:
            raise ValueError(f"{where}: position {pt!r} has fewer than 2 numbers")
        try:
            return GeoPoint(lat=float(pt[1]), lon=float(pt[0]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: position {pt!r}: {exc}") from None

    if not isinstance(coords, list) or not all(isinstance(ring, list) for ring in coords):
        raise ValueError(f"{where}: a polygon is not a list of rings")
    return tuple(tuple(point(pt) for pt in ring) for ring in coords)


def load_regions_geojson(path: str | Path) -> RegionIndex:
    """Regions of a FeatureCollection; other documents raise ValueError naming file and feature."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ValueError(f"regions file {path}: expected a GeoJSON FeatureCollection")
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise ValueError(f"regions file {path}: features is not a list")
    regions: dict[str, Region] = {}
    for k, feature in enumerate(features):
        where = f"regions file {path}: feature {k}"
        if not isinstance(feature, dict):
            raise ValueError(f"{where} is not an object")
        props = feature.get("properties") or {}
        geom = feature.get("geometry") or {}
        for key, holder in (("region_id", props), ("level", props), ("coordinates", geom)):
            if not isinstance(holder, dict) or key not in holder:
                raise ValueError(f"{where} has no {key}")
        gtype, coords = geom.get("type"), geom["coordinates"]
        if gtype == "Polygon":
            coords = [coords]
        elif gtype != "MultiPolygon":
            raise ValueError(f"{where}: unsupported geometry {gtype}")
        elif not isinstance(coords, list):
            raise ValueError(f"{where}: a MultiPolygon is not a list of polygons")
        region_id, parent_id = str(props["region_id"]), props.get("parent_id")
        if region_id in regions:
            raise ValueError(f"{where}: duplicate region_id {region_id!r}")
        name, level = str(props.get("name", props["region_id"])), str(props["level"])
        polygons = tuple(_coords_to_polygon(c, where) for c in coords)
        try:  # Region checks the level and the rings
            regions[region_id] = Region(
                region_id, name, level, None if parent_id is None else str(parent_id), polygons
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    orphan = _first_orphan(regions)
    if orphan is not None:  # as RegionIndex would raise, naming the file and feature
        where = f"regions file {path}: feature {list(regions).index(orphan)}"
        raise ValueError(f"{where}: parish {orphan} must reference an existing municipality parent")
    return RegionIndex(regions.values())


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
