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

import math
import random
from dataclasses import asdict, dataclass
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .config import _MAX_TRIPS_PER_DAY, ScenarioConfig, TowerGridSpec  # noqa: F401 (re-exported)
from .errors import InvalidConfig, ScenarioMismatch
from .files import read_json, write_json
from .geo import (
    CdrEvent,
    GeoPoint,
    Region,
    RegionIndex,
    TowerSector,
    destination_point,
    group_by_user,
    haversine_distance,
    haversine_m_array,
    initial_bearing,
)
from .stays import Staypoint
from .trips import Trip
from .validation import build_od_matrix

if TYPE_CHECKING:
    import numpy as np

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


class _World:
    """Tower and region geometry derived from the grid layout."""

    def __init__(self, config: ScenarioConfig):
        import numpy as np

        self.config = config
        spec = config.towers
        self.m_per_deg_lat = 111_320.0
        self.m_per_deg_lon = 111_320.0 * math.cos(math.radians(config.origin_lat))
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
        import numpy as np

        phi = math.radians(p.lat)
        d = haversine_m_array(
            phi, math.radians(p.lon), math.cos(phi),
            self._tower_lat, self._tower_lon, self._tower_cos,
        )
        order = np.argsort(d, kind="stable")
        return [int(i) for i in order[:k]]

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
) -> tuple[list[CdrEvent], dict[str, TowerSector], RegionIndex, GroundTruth]:
    """Synthesize events, the tower map, the region index and full ground truth."""
    config.validate()
    world = _World(config)
    regions = world.build_regions()
    horizon = config.n_days * _DAY_S
    epoch = config.start_epoch

    dwell_gap = max(1, round(3600.0 / config.dwell_rate_per_h))
    moving_gap = (
        max(1, round(3600.0 / config.moving_rate_per_h)) if config.moving_rate_per_h > 0 else 0
    )

    agents: list[AgentTruth] = []
    trips: list[TrueTrip] = []
    dwells: list[TrueDwell] = []
    events: list[CdrEvent] = []

    for idx in range(config.n_agents):
        first_trip, first_dwell = len(trips), len(dwells)
        user_id = f"u{idx:04d}"
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
        agents.append(agent)

        lo_kmh, hi_kmh = config.mode_speed_bands_kmh[mode]
        distance = haversine_distance(anchors["home"].point, anchors["work"].point)

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

        events.extend(
            _agent_events(
                world, config, rng, agent,
                trips[first_trip:], dwells[first_dwell:], dwell_gap, moving_gap,
            )
        )

    events.sort(key=lambda e: (e.user_id, e.timestamp))
    towers = {t.cell_id: t for t in world.towers}
    truth = GroundTruth(
        seed=config.seed,
        start_epoch=config.start_epoch,
        horizon_s=horizon,
        agents=tuple(agents),
        trips=tuple(trips),
        dwells=tuple(dwells),
    )
    return events, towers, regions, truth


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


def _agent_events(
    world: _World,
    config: ScenarioConfig,
    rng: random.Random,
    agent: AgentTruth,
    trips: list[TrueTrip],
    dwells: list[TrueDwell],
    dwell_gap: int,
    moving_gap: int,
) -> list[CdrEvent]:
    """Pings for one agent from its own trips and dwells, chronological."""
    noisy = config.tower_noise_p > 0
    anchor_cells = {}
    for anchor in (agent.home, agent.work):
        nearest = world.nearest_towers(anchor.point, k=2)
        anchor_cells[anchor.name] = (
            world.towers[nearest[0]].cell_id,
            world.towers[nearest[1]].cell_id,
        )

    out: list[CdrEvent] = []

    def emit(t: int, primary: str, secondary: str) -> None:
        cell = primary
        if noisy and rng.random() < config.tower_noise_p:
            cell = secondary
        out.append(CdrEvent(user_id=agent.user_id, timestamp=float(t), cell_id=cell))

    for dwell in dwells:
        primary, secondary = anchor_cells[dwell.anchor]
        t = dwell.t_start
        while t <= dwell.t_end:
            emit(t, primary, secondary)
            t += dwell_gap

    if moving_gap:
        for trip in trips:
            origin = agent.anchor(trip.origin_anchor).point
            dest = agent.anchor(trip.dest_anchor).point
            bearing = initial_bearing(origin, dest)
            duration = trip.arrival - trip.departure
            t = trip.departure + moving_gap
            while t < trip.arrival:
                fraction = (t - trip.departure) / duration
                pos = destination_point(origin, bearing, fraction * trip.distance_m)
                nearest = world.nearest_towers(pos, k=2)
                emit(
                    t,
                    world.towers[nearest[0]].cell_id,
                    world.towers[nearest[1]].cell_id,
                )
                t += moving_gap

    out.sort(key=lambda e: e.timestamp)
    return out


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


def score_recovery(
    truth: GroundTruth,
    staypoints: Sequence[Staypoint],
    trips: Sequence[Trip],
    match_radius_m: float = 300.0,
) -> RecoveryReport:
    """Compare detected staypoints/trips against ground truth.

    A detected staypoint matches a true dwell when their temporal overlap
    covers at least half the dwell and its median lies within the match
    radius of the dwell's anchor.  Precision with zero detections is
    reported as 1.0 with the empty flag set.
    """
    known_users = {a.user_id for a in truth.agents}
    for sp in staypoints:
        if sp.user_id not in known_users:
            raise ScenarioMismatch(f"staypoint user {sp.user_id!r} not in ground truth")
    for trip in trips:
        if trip.user_id not in known_users:
            raise ScenarioMismatch(f"trip user {trip.user_id!r} not in ground truth")

    agents = {a.user_id: a for a in truth.agents}
    sp_by_user = group_by_user(staypoints)

    matched = 0
    used: set[str] = set()
    for dwell in truth.dwells:
        anchor = agents[dwell.user_id].anchor(dwell.anchor)
        duration = dwell.t_end - dwell.t_start
        if duration <= 0:
            continue
        best_id = None
        best_overlap = 0.0
        for sp in sp_by_user.get(dwell.user_id, []):
            if sp.staypoint_id in used:
                continue
            overlap = min(sp.t_end, dwell.t_end) - max(sp.t_start, dwell.t_start)
            if overlap < 0.5 * duration:
                continue
            if haversine_distance(sp.median, anchor.point) > match_radius_m:
                continue
            if overlap > best_overlap:
                best_overlap = overlap
                best_id = sp.staypoint_id
        if best_id is not None:
            used.add(best_id)
            matched += 1

    n_true_dwells = sum(1 for d in truth.dwells if d.t_end > d.t_start)
    no_detections = len(staypoints) == 0
    precision = 1.0 if no_detections else matched / len(staypoints)
    recall = matched / n_true_dwells if n_true_dwells else 1.0

    n_true_trips = len(truth.trips)
    n_detected = len(trips)
    deviation = (n_detected - n_true_trips) / n_true_trips if n_true_trips else 0.0

    detected_od = build_od_matrix(trips, staypoints, "municipality").count_dict()
    true_od: dict[tuple[str, str], int] = {}
    for t in truth.trips:
        agent = agents[t.user_id]
        pair = (
            agent.anchor(t.origin_anchor).municipality,
            agent.anchor(t.dest_anchor).municipality,
        )
        true_od[pair] = true_od.get(pair, 0) + 1
    cells = set(detected_od) | set(true_od)
    agreement = (
        sum(1 for cell in cells if detected_od.get(cell, 0) == true_od.get(cell, 0)) / len(cells)
        if cells
        else 1.0
    )

    confusion: dict[tuple[str, str], int] = {}
    n_mode_matched = 0
    n_mode_correct = 0
    trips_by_user = group_by_user(trips)
    used_trips: set[str] = set()
    for t in truth.trips:
        best = None
        best_overlap = 0.0
        for det in trips_by_user.get(t.user_id, []):
            if det.trip_id in used_trips:
                continue
            overlap = min(det.t_end, t.arrival) - max(det.t_start, t.departure)
            if overlap > best_overlap:
                best_overlap = overlap
                best = det
        if best is None:
            continue
        used_trips.add(best.trip_id)
        n_mode_matched += 1
        pair = (t.mode, best.primary_mode)
        confusion[pair] = confusion.get(pair, 0) + 1
        if t.mode == best.primary_mode:
            n_mode_correct += 1

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
        "trips": [asdict(t) for t in truth.trips],
        "dwells": [asdict(d) for d in truth.dwells],
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
