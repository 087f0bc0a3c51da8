"""Seeded synthetic CDR scenarios with full ground truth.

The world is a rectangular tower grid with a two-level region grid on top
(parish cells, municipalities as 2x2 parish blocks).  Agents own two anchor
towers (home, work) whose separation fits their transport mode, alternate
dwells and trips between them, and emit pings at fixed rates.  Every
quantity derives from the scenario seed, so identical configurations yield
byte-identical artifacts.

Anchors sit exactly on tower centers and per-mode anchor distances are
chosen so that detection noise (ping quantization of dwell boundaries,
pseudo-location scatter inside sectors) cannot push a leg's observed speed
or length outside its mode's decision band.
"""

from __future__ import annotations

import bisect
import copy
import math
import random
from collections import Counter
from dataclasses import dataclass
from hashlib import blake2b
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from .config import _MAX_TRIPS_PER_DAY, ScenarioConfig, TowerGridSpec  # noqa: F401 (re-exported)
from .errors import InvalidConfig, ScenarioMismatch
from .files import read_json, write_json
from .geo import Region, RegionIndex, TowerSector
from .records import (
    EventColumns,
    GeoPoint,
    destination_point,
    group_by_user,
    haversine_distance,
    haversine_m_array,
    initial_bearing,
)

if TYPE_CHECKING:
    import numpy as np

    from .config import ModeThresholds
    from .stays import Staypoint
    from .trips import Trip

_DAY_S = 86400
_FIRST_DEPARTURE_S = 6 * 3600
_SCHEDULE_SPAN_S = 14 * 3600
_MIN_DWELL_S = 3600
_MAX_TRIP_S = 2200
@dataclass(frozen=True)
class AnchorTruth:
    name: str  # "home" | "work"
    cell_id: str
    point: GeoPoint
    parish: str
    municipality: str


@dataclass(frozen=True)
class AgentTruth:
    user_id: str
    mode: str
    home: AnchorTruth
    work: AnchorTruth

    def anchor(self, name: str) -> AnchorTruth:
        return self.home if name == "home" else self.work


@dataclass(frozen=True)
class TrueTrip:
    user_id: str
    origin_anchor: str
    dest_anchor: str
    mode: str
    departure: int
    arrival: int
    distance_m: float


@dataclass(frozen=True)
class TrueDwell:
    user_id: str
    anchor: str
    t_start: int
    t_end: int


@dataclass(frozen=True)
class GroundTruth:
    seed: int
    start_epoch: int
    horizon_s: int
    agents: tuple
    trips: tuple
    dwells: tuple


def _derive_seed(base: int, *parts) -> int:
    payload = repr((base,) + parts).encode()
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def _weighted_choice(rng: random.Random, weights: dict[str, float]) -> str:
    roll = rng.random()
    acc = 0.0
    items = sorted(weights.items())
    for name, w in items:
        acc += w
        if roll < acc:
            return name
    return items[-1][0]


def _poisson(rng: random.Random, lam: float) -> int:
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def _k_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """np.argsort(values, kind="stable")[:k] of values without NaN, by selection instead of a sort.

    The k-th smallest value bounds the answer: it holds every index with a
    smaller value and the lowest-indexed ones equal to it, which a stable
    sort of the candidates at most that value puts first.
    """
    import numpy as np

    if k >= len(values):
        return np.argsort(values, kind="stable")
    kth = np.partition(values, k - 1)[k - 1]
    candidates = np.flatnonzero(values <= kth)
    return candidates[np.argsort(values[candidates], kind="stable")[:k]]


def _hav(angle: float) -> float:
    return math.sin(angle / 2.0) ** 2


def _clearly_less(a: float, b: float) -> bool:
    """Whether haversine a < b by more than any rounding of either could make up.

    The margin, 1e-9 relative plus 1e-24 (a distance of about 1e-5 m),
    is far above the few ulps by which two computations of h differ.
    """
    return b - a > 1e-9 * b + 1e-24


class _World:
    """Tower and region geometry derived from the grid layout."""

    def __init__(self, config: ScenarioConfig):
        import numpy as np

        self.config = config
        spec = config.towers
        self.m_per_deg_lat = 111_320.0
        self.m_per_deg_lon = 111_320.0 * math.cos(math.radians(config.origin_lat))
        p = config.parish_size_m  # the parish grid covers the tower grid
        try:
            self.point_at(math.ceil(spec.cols * spec.spacing_m / p) * p,
                          math.ceil(spec.rows * spec.spacing_m / p) * p)
        except ValueError as exc:
            raise InvalidConfig(
                "origin_lat, origin_lon, tower_rows, tower_cols, tower_spacing_m and "
                f"parish_size_m put the far corner of the grid out of range: {exc}"
            ) from None
        self.towers: list[TowerSector] = []
        xs, ys = [], []
        for i in range(spec.rows):
            for j in range(spec.cols):
                x = (j + 0.5) * spec.spacing_m
                y = (i + 0.5) * spec.spacing_m
                azimuth = float(((i * 7 + j * 13) % 12) * 30)
                self.towers.append(
                    TowerSector(
                        cell_id=f"c{i:02d}_{j:02d}",
                        center=self.point_at(x, y),
                        azimuth_deg=azimuth,
                        beamwidth_deg=spec.beamwidth_deg,
                        radius_m=spec.sector_radius_m,
                    )
                )
                xs.append(x)
                ys.append(y)
        self.tower_x = np.array(xs)
        self.tower_y = np.array(ys)
        self.extent_x = spec.cols * spec.spacing_m
        self.extent_y = spec.rows * spec.spacing_m
        lats = np.radians(np.array([t.center.lat for t in self.towers]))
        lons = np.radians(np.array([t.center.lon for t in self.towers]))
        self._tower_lat = lats
        self._tower_lon = lons
        self._tower_cos = np.cos(lats)
        # The grid's rows share a latitude and its columns a longitude, both
        # increasing with the index; nearest_towers looks at a window of it.
        self._shape = (spec.rows, spec.cols)
        self._row_phi = lats[::spec.cols].tolist()
        self._row_cos = self._tower_cos[::spec.cols].tolist()
        self._col_lam = lons[:spec.cols].tolist()
        self._cos_min = min(self._row_cos)
        # Anchors live on a sparse subgrid (every third tower per axis) so
        # that stop medians of distinct anchors can never chain into one
        # destination cluster through intermediate towers.
        self.anchor_indices = [
            i * spec.cols + j
            for i in range(min(1, spec.rows - 1), spec.rows, 3)
            for j in range(min(1, spec.cols - 1), spec.cols, 3)
        ]

    def point_at(self, x_m: float, y_m: float) -> GeoPoint:
        return GeoPoint(
            lat=self.config.origin_lat + y_m / self.m_per_deg_lat,
            lon=self.config.origin_lon + x_m / self.m_per_deg_lon,
        )

    def tower_distances(self, idx: int) -> np.ndarray:
        return haversine_m_array(
            self._tower_lat[idx], self._tower_lon[idx], self._tower_cos[idx],
            self._tower_lat, self._tower_lon, self._tower_cos,
        )

    def nearest_towers(self, p: GeoPoint, k: int = 2) -> list[int]:
        """Indices of the k towers nearest to p; of equal distances, the lower index first."""
        phi, lam = math.radians(p.lat), math.radians(p.lon)
        cos_phi = math.cos(phi)
        found = self._nearest_in_window(phi, lam, cos_phi, k)
        if found is None:
            d = haversine_m_array(
                phi, lam, cos_phi, self._tower_lat, self._tower_lon, self._tower_cos
            )
            found = _k_smallest(d, k).tolist()
        return found

    def _nearest_in_window(self, phi: float, lam: float, cos_phi: float, k: int):
        """nearest_towers from the 4 x 4 towers around the point, or None if they do not decide it.

        Distance grows with h = hav(dphi) + cos(phi) cos(phi_t) hav(dlam),
        which for a tower splits into a term of its row and one of its
        column, so the window's h come from 8 sines.  The window decides
        when the k + 1 smallest h in it are clearly apart, so that no
        rounding (here or in haversine_m_array) can reorder them, and
        every tower outside is clearly farther than the k-th.  The window
        holds the two rows and the two columns on each side of the point
        (bisect), so a tower in the rows below it has h >= hav(phi - phi'),
        phi' being the latitude of the nearest such row, and one in the
        columns to its left has h >= cos(phi) * min cos(phi_t) * hav(lam - lam')
        while no column is more than pi from the point; likewise above and
        to the right.
        """
        rows, cols = self._shape
        row_phi, col_lam = self._row_phi, self._col_lam
        row, col = bisect.bisect(row_phi, phi), bisect.bisect(col_lam, lam)
        r0, r1 = max(0, row - 2), min(rows, row + 2)
        c0, c1 = max(0, col - 2), min(cols, col + 2)
        across = [_hav(col_lam[c] - lam) for c in range(c0, c1)]
        h: list[float] = []
        for r in range(r0, r1):
            along, scale = _hav(row_phi[r] - phi), cos_phi * self._row_cos[r]
            h.extend([along + scale * a for a in across])
        if len(h) <= k:
            return None
        order = sorted(range(len(h)), key=h.__getitem__)[:k + 1]
        nearest = [h[i] for i in order]
        if not all(map(_clearly_less, nearest, nearest[1:])):
            return None
        bounds = [math.inf]
        if r0 > 0:
            bounds.append(_hav(phi - row_phi[r0 - 1]))
        if r1 < rows:
            bounds.append(_hav(row_phi[r1] - phi))
        # (gap, spread): the longitude differences to the nearest and the farthest column
        sides = []
        if c0 > 0:
            sides.append((lam - col_lam[c0 - 1], lam - col_lam[0]))
        if c1 < cols:
            sides.append((col_lam[c1] - lam, col_lam[-1] - lam))
        for gap, spread in sides:
            if spread > math.pi:
                return None
            bounds.append(cos_phi * self._cos_min * _hav(gap))
        if not _clearly_less(nearest[k - 1], min(bounds)):
            return None
        width = c1 - c0
        return [(r0 + i // width) * cols + c0 + i % width for i in order[:k]]

    def parish_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        p = self.config.parish_size_m
        return int(y_m // p), int(x_m // p)

    def build_regions(self) -> RegionIndex:
        p = self.config.parish_size_m
        n_rows = math.ceil(self.extent_y / p)
        n_cols = math.ceil(self.extent_x / p)
        regions = []
        for r in range(0, n_rows, 2):
            for c in range(0, n_cols, 2):
                regions.append(
                    self._cell_region(
                        f"M{r // 2:02d}_{c // 2:02d}", "municipality", None,
                        c * p, r * p,
                        min((c + 2) * p, n_cols * p), min((r + 2) * p, n_rows * p),
                    )
                )
        for r in range(n_rows):
            for c in range(n_cols):
                regions.append(
                    self._cell_region(
                        f"P{r:02d}_{c:02d}", "parish", f"M{r // 2:02d}_{c // 2:02d}",
                        c * p, r * p, (c + 1) * p, (r + 1) * p,
                    )
                )
        return RegionIndex(regions)

    def _cell_region(
        self, region_id: str, level: str, parent: Optional[str],
        x0: float, y0: float, x1: float, y1: float,
    ) -> Region:
        ring = (
            self.point_at(x0, y0),
            self.point_at(x1, y0),
            self.point_at(x1, y1),
            self.point_at(x0, y1),
            self.point_at(x0, y0),
        )
        return Region(
            region_id=region_id, name=region_id, level=level,
            parent_id=parent, polygons=((ring,),),
        )


def generate_scenario(
    config: ScenarioConfig,
) -> tuple[EventColumns, dict[str, TowerSector], RegionIndex, GroundTruth]:
    """Synthesize events, the tower map, the region index and full ground truth.

    The events are the blocks of Scenario.agent_events() joined into one
    EventColumns, in (user_id, timestamp) order; they read as CdrEvents.
    """
    import numpy as np

    scenario = Scenario(config)
    blocks = list(scenario.agent_events())  # one user each, all with the towers' cell table
    events = EventColumns(
        [block.users[0] for block in blocks], blocks[0].cells,
        np.repeat(np.arange(len(blocks), dtype=np.int32), list(map(len, blocks))),
        np.concatenate([block.cell for block in blocks]),
        np.concatenate([block.ts for block in blocks]),
    )
    return events, scenario.towers, scenario.regions, scenario.truth


class _Plan(NamedTuple):
    """One agent's truth and the generator its pings draw from."""

    agent: AgentTruth
    trips: list[TrueTrip]
    dwells: list[TrueDwell]
    rng: random.Random


class Scenario:
    """A synthetic scenario whose events are generated one agent at a time.

    The towers, regions and ground truth are made up front; the events,
    which are most of the scenario, come from agent_events() as columns,
    so that a writer never holds them all.  Each planted speed band must
    classify as its mode under thresholds, the default table if None.
    """

    def __init__(self, config: ScenarioConfig, thresholds: Optional[ModeThresholds] = None):
        config.validate(thresholds)
        self.config = config
        self._world = _World(config)
        self.regions = self._world.build_regions()
        self.towers = {t.cell_id: t for t in self._world.towers}
        self._plans = [_plan_agent(self._world, config, idx) for idx in range(config.n_agents)]
        self.truth = GroundTruth(
            seed=config.seed,
            start_epoch=config.start_epoch,
            horizon_s=config.n_days * _DAY_S,
            agents=tuple(plan.agent for plan in self._plans),
            trips=tuple(trip for plan in self._plans for trip in plan.trips),
            dwells=tuple(dwell for plan in self._plans for dwell in plan.dwells),
        )

    def agent_events(self) -> Iterator[EventColumns]:
        """Each agent's pings as EventColumns in time order, agents in user_id order.

        Read one after another, the blocks are the scenario's events in
        (user_id, timestamp) order.  Each call gives the same blocks.
        """
        import numpy as np

        config = self.config
        dwell_gap = max(1, round(3600.0 / config.dwell_rate_per_h))
        moving_gap = (
            max(1, round(3600.0 / config.moving_rate_per_h)) if config.moving_rate_per_h > 0 else 0
        )
        cell_ids = list(self.towers)
        for idx in _user_order(len(self._plans)):
            agent, trips, dwells, rng = self._plans[idx]
            ts, cell = _agent_pings(
                self._world, config, copy.copy(rng), agent, trips, dwells, dwell_gap, moving_gap
            )
            yield EventColumns(
                [agent.user_id], cell_ids, np.zeros(len(ts), dtype=np.int32), cell, ts
            )


def _user_id(idx: int) -> str:
    return f"u{idx:04d}"


def _user_order(n_agents: int) -> list[int]:
    """Agent indices in the order of their user ids, which is the events' order.

    Ids have at least four digits, so from 10,000 agents on this is not the
    index order: u10000 sorts between u1000 and u1001.
    """
    return sorted(range(n_agents), key=_user_id)


def _plan_agent(world: _World, config: ScenarioConfig, idx: int) -> _Plan:
    """Agent idx's mode, anchors and timeline of dwells and trips."""
    epoch = config.start_epoch
    horizon = config.n_days * _DAY_S
    user_id = _user_id(idx)
    rng = random.Random(_derive_seed(config.seed, "agent", idx))
    mode = _weighted_choice(rng, config.mode_mix)
    d_lo, d_hi = config.mode_trip_distance_m[mode]

    home_idx = work_idx = -1
    for _ in range(1000):
        candidate = world.anchor_indices[rng.randrange(len(world.anchor_indices))]
        dists = world.tower_distances(candidate)
        partners = [
            k for k in world.anchor_indices
            if k != candidate and d_lo <= dists[k] <= d_hi
        ]
        if partners:
            home_idx = candidate
            work_idx = partners[rng.randrange(len(partners))]
            break
    if home_idx < 0:
        raise InvalidConfig(
            f"no anchor pair at {d_lo:.0f}..{d_hi:.0f} m exists for mode {mode!r}"
        )

    anchors = {
        "home": _anchor_truth("home", world, home_idx),
        "work": _anchor_truth("work", world, work_idx),
    }
    agent = AgentTruth(user_id=user_id, mode=mode, home=anchors["home"], work=anchors["work"])

    lo_kmh, hi_kmh = config.mode_speed_bands_kmh[mode]
    distance = haversine_distance(anchors["home"].point, anchors["work"].point)

    trips: list[TrueTrip] = []
    dwells: list[TrueDwell] = []
    current = "home"
    dwell_start = epoch
    for day in range(config.n_days):
        if config.trips_per_day_kind == "fixed":
            n_trips = int(config.trips_per_day_value)
        else:
            n_trips = min(_poisson(rng, config.trips_per_day_value), _MAX_TRIPS_PER_DAY)
        if n_trips == 0:
            continue
        window = _SCHEDULE_SPAN_S / n_trips
        jitter_cap = min(3600.0, window - (_MAX_TRIP_S + _MIN_DWELL_S))
        for k in range(n_trips):
            departure = epoch + int(
                day * _DAY_S + _FIRST_DEPARTURE_S + k * window + rng.random() * jitter_cap
            )
            speed_kmh = lo_kmh if lo_kmh == hi_kmh else rng.uniform(lo_kmh, hi_kmh)
            duration = max(1, round(distance / (speed_kmh / 3.6)))
            arrival = departure + duration
            dest = "work" if current == "home" else "home"
            dwells.append(
                TrueDwell(user_id=user_id, anchor=current, t_start=dwell_start, t_end=departure)
            )
            trips.append(
                TrueTrip(
                    user_id=user_id, origin_anchor=current, dest_anchor=dest,
                    mode=mode, departure=departure, arrival=arrival, distance_m=distance,
                )
            )
            dwell_start = arrival
            current = dest
    dwells.append(
        TrueDwell(user_id=user_id, anchor=current, t_start=dwell_start, t_end=epoch + horizon)
    )
    return _Plan(agent, trips, dwells, rng)


def _anchor_truth(name: str, world: _World, tower_idx: int) -> AnchorTruth:
    tower = world.towers[tower_idx]
    x = world.tower_x[tower_idx]
    y = world.tower_y[tower_idx]
    pr, pc = world.parish_of(x, y)
    return AnchorTruth(
        name=name,
        cell_id=tower.cell_id,
        point=tower.center,
        parish=f"P{pr:02d}_{pc:02d}",
        municipality=f"M{pr // 2:02d}_{pc // 2:02d}",
    )


def _agent_pings(
    world: _World,
    config: ScenarioConfig,
    rng: random.Random,
    agent: AgentTruth,
    trips: list[TrueTrip],
    dwells: list[TrueDwell],
    dwell_gap: int,
    moving_gap: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Timestamps (float64) and tower indices (int32) of one agent's pings, in time order.

    The pings are made dwell by dwell, then trip by trip; each of them, in
    that order, draws from rng whether it is served by its second-nearest
    tower when tower_noise_p > 0, and the stable time sort keeps that order
    among equal timestamps.
    """
    import numpy as np

    anchor_towers = {
        anchor.name: world.nearest_towers(anchor.point, k=2) for anchor in (agent.home, agent.work)
    }
    times, nearest = [], []  # nearest: (n, 2) blocks of the nearest and second-nearest tower
    for dwell in dwells:
        t = np.arange(dwell.t_start, dwell.t_end + 1, dwell_gap, dtype=np.int64)
        times.append(t)
        nearest.append(np.full((len(t), 2), anchor_towers[dwell.anchor], dtype=np.int32))

    if moving_gap:
        moving_t, moving_nearest = [], []
        for trip in trips:
            origin = agent.anchor(trip.origin_anchor).point
            dest = agent.anchor(trip.dest_anchor).point
            bearing = initial_bearing(origin, dest)
            duration = trip.arrival - trip.departure
            for t in range(trip.departure + moving_gap, trip.arrival, moving_gap):
                fraction = (t - trip.departure) / duration
                pos = destination_point(origin, bearing, fraction * trip.distance_m)
                moving_t.append(t)
                moving_nearest.append(world.nearest_towers(pos, k=2))
        times.append(np.array(moving_t, dtype=np.int64))
        nearest.append(np.array(moving_nearest, dtype=np.int32).reshape(-1, 2))

    ts = np.concatenate(times)
    towers = np.concatenate(nearest)
    cell = towers[:, 0]
    if config.tower_noise_p > 0:
        draw = rng.random
        noisy = np.fromiter((draw() for _ in range(len(ts))), np.float64, len(ts))
        cell = np.where(noisy < config.tower_noise_p, towers[:, 1], cell)
    order = np.argsort(ts, kind="stable")
    return ts[order].astype(np.float64), cell[order]


# --- recovery scoring --------------------------------------------------------

@dataclass(frozen=True)
class RecoveryReport:
    staypoint_precision: float
    staypoint_recall: float
    no_detections: bool
    n_true_dwells: int
    n_detected_staypoints: int
    n_matched_staypoints: int
    n_true_trips: int
    n_detected_trips: int
    trip_count_deviation: float
    od_cell_agreement: float
    mode_accuracy: float
    n_mode_matched: int
    mode_confusion: tuple  # tuple of ((true_mode, detected_mode), count)


def _greedy_match(truths, detections, span, id_of, admits=None) -> Iterator[tuple]:
    """The (truth, detection) pairs of a greedy matching, in truth order.

    Each truth takes its user's unused detection with the largest positive
    time overlap (the first of equals) that admits(truth, detection, overlap)
    allows; span(truth) is its (user_id, start, end), id_of names a detection.
    """
    by_user, used = group_by_user(detections), set()
    for truth in truths:
        user_id, start, end = span(truth)
        best, best_overlap = None, 0.0
        for det in by_user.get(user_id, ()):
            overlap = min(det.t_end, end) - max(det.t_start, start)
            if (overlap > best_overlap and id_of(det) not in used
                    and (admits is None or admits(truth, det, overlap))):
                best, best_overlap = det, overlap
        if best is not None:
            used.add(id_of(best))
            yield truth, best


def score_recovery(
    truth: GroundTruth,
    staypoints: Sequence[Staypoint],
    trips: Sequence[Trip],
    match_radius_m: float = 300.0,
) -> RecoveryReport:
    """Compare detected staypoints/trips against ground truth.

    A detected staypoint matches a true dwell when their temporal overlap
    covers at least half the dwell and its median lies within the match
    radius of the dwell's anchor; a detected trip matches the true trip it
    overlaps most.  Precision with zero detections is reported as 1.0 with
    the empty flag set.
    """
    from .validation import build_od_matrix

    agents = {a.user_id: a for a in truth.agents}
    for kind, records in (("staypoint", staypoints), ("trip", trips)):
        for record in records:
            if record.user_id not in agents:
                raise ScenarioMismatch(f"{kind} user {record.user_id!r} not in ground truth")

    def near_and_half_covered(dwell: TrueDwell, sp: Staypoint, overlap: float) -> bool:
        anchor = agents[dwell.user_id].anchor(dwell.anchor).point
        return (overlap >= 0.5 * (dwell.t_end - dwell.t_start)
                and haversine_distance(sp.median, anchor) <= match_radius_m)

    # a dwell of no length overlaps nothing by a positive time, so matches nothing
    matched = sum(1 for _ in _greedy_match(
        truth.dwells, staypoints, attrgetter("user_id", "t_start", "t_end"),
        attrgetter("staypoint_id"), near_and_half_covered,
    ))
    n_true_dwells = sum(1 for d in truth.dwells if d.t_end > d.t_start)
    no_detections = len(staypoints) == 0
    precision = 1.0 if no_detections else matched / len(staypoints)
    recall = matched / n_true_dwells if n_true_dwells else 1.0

    n_true_trips = len(truth.trips)
    n_detected = len(trips)
    deviation = (n_detected - n_true_trips) / n_true_trips if n_true_trips else 0.0

    detected_od = build_od_matrix(trips, staypoints, "municipality").count_dict()
    true_od = Counter(
        (agents[t.user_id].anchor(t.origin_anchor).municipality,
         agents[t.user_id].anchor(t.dest_anchor).municipality)
        for t in truth.trips
    )
    cells = set(detected_od) | set(true_od)
    agreement = (
        sum(1 for cell in cells if detected_od.get(cell, 0) == true_od[cell]) / len(cells)
        if cells
        else 1.0
    )

    confusion = Counter((t.mode, det.primary_mode) for t, det in _greedy_match(
        truth.trips, trips, attrgetter("user_id", "departure", "arrival"), attrgetter("trip_id")
    ))
    n_mode_matched = sum(confusion.values())
    n_mode_correct = sum(n for (true, detected), n in confusion.items() if true == detected)

    return RecoveryReport(
        staypoint_precision=precision,
        staypoint_recall=recall,
        no_detections=no_detections,
        n_true_dwells=n_true_dwells,
        n_detected_staypoints=len(staypoints),
        n_matched_staypoints=matched,
        n_true_trips=n_true_trips,
        n_detected_trips=n_detected,
        trip_count_deviation=deviation,
        od_cell_agreement=agreement,
        mode_accuracy=n_mode_correct / n_mode_matched if n_mode_matched else 0.0,
        n_mode_matched=n_mode_matched,
        mode_confusion=tuple(sorted(confusion.items())),
    )


# --- ground truth serialization ----------------------------------------------

def _anchor_dict(a: AnchorTruth) -> dict:
    return {
        "name": a.name, "cell_id": a.cell_id, "lat": a.point.lat, "lon": a.point.lon,
        "parish": a.parish, "municipality": a.municipality,
    }


def write_ground_truth_json(truth: GroundTruth, path: str | Path) -> None:
    doc = {
        "seed": truth.seed,
        "start_epoch": truth.start_epoch,
        "horizon_s": truth.horizon_s,
        "agents": [
            {
                "user_id": a.user_id, "mode": a.mode,
                "home": _anchor_dict(a.home), "work": _anchor_dict(a.work),
            }
            for a in truth.agents
        ],
        # flat dataclasses without slots: vars() holds their fields in order
        "trips": [dict(vars(t)) for t in truth.trips],
        "dwells": [dict(vars(d)) for d in truth.dwells],
    }
    write_json(doc, path)


def _anchor_from_dict(doc: dict) -> AnchorTruth:
    return AnchorTruth(
        name=doc["name"], cell_id=doc["cell_id"],
        point=GeoPoint(lat=doc["lat"], lon=doc["lon"]),
        parish=doc["parish"], municipality=doc["municipality"],
    )


def load_ground_truth_json(path: str | Path) -> GroundTruth:
    doc = read_json(path)
    return GroundTruth(
        seed=doc["seed"],
        start_epoch=doc["start_epoch"],
        horizon_s=doc["horizon_s"],
        agents=tuple(
            AgentTruth(
                user_id=a["user_id"], mode=a["mode"],
                home=_anchor_from_dict(a["home"]), work=_anchor_from_dict(a["work"]),
            )
            for a in doc["agents"]
        ),
        trips=tuple(TrueTrip(**t) for t in doc["trips"]),
        dwells=tuple(TrueDwell(**d) for d in doc["dwells"]),
    )
