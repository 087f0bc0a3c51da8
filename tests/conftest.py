import math
import random

import pytest

from cdrflow.eventlog import CaseLog, Ocel, OcelEvent, Trace
from cdrflow.geo import Region, RegionIndex
from cdrflow.records import (
    CdrEvent, GeoPoint, destination_point, group_by_user, haversine_distance, initial_bearing,
)


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


# --- the object-path staypoint reference ---------------------------------------
# stays.build_staypoints runs one stop scan over each user's columns; this is
# the record path it replaced: records grouped by user, detect_stops per user in
# sorted order and one clustering of all stops.  The moving events are found by
# brute force: the events in no [t_start, t_end] interval of their own user's
# staypoints.

def reference_staypoints(positioned, params, regions=None):
    """(staypoints, moving events in input order) of PositionedEvent records."""
    from cdrflow.stays import Staypoint, cluster_destinations, detect_stops

    by_user = group_by_user(positioned)
    stops = [stop for user_id in sorted(by_user) for stop in detect_stops(by_user[user_id], params)]
    staypoints = [
        Staypoint(
            f"sp{i:06d}", stop.user_id, label, stop.median, stop.t_start, stop.t_end,
            regions.assign(stop.median, "parish") if regions is not None else None,
            regions.assign(stop.median, "municipality") if regions is not None else None,
        )
        for i, (stop, label) in enumerate(zip(stops, cluster_destinations(stops, params.r2)))
    ]
    sp_by_user = group_by_user(staypoints)
    moving = [
        ev for ev in positioned
        if not any(sp.t_start <= ev.timestamp <= sp.t_end for sp in sp_by_user.get(ev.user_id, ()))
    ]
    return staypoints, moving


# --- the per-ping synth reference --------------------------------------------
# synth.generate_scenario plans every agent first and makes each agent's pings
# as columns, agents in user_id order; this is the generator it replaced, one
# CdrEvent per ping and one sort of them all, with a full stable argsort per
# nearest-tower query.  The tests compare the two event for event.

def reference_nearest_towers(world, p, k=2):
    import numpy as np

    from cdrflow.records import haversine_m_array

    phi = math.radians(p.lat)
    d = haversine_m_array(
        phi, math.radians(p.lon), math.cos(phi),
        world._tower_lat, world._tower_lon, world._tower_cos,
    )
    order = np.argsort(d, kind="stable")
    return [int(i) for i in order[:k]]


def reference_generate_scenario(config):
    """Events, towers, regions and truth as the per-ping generator made them."""
    from cdrflow import synth

    config.validate()
    world = synth._World(config)
    regions = world.build_regions()
    horizon = config.n_days * synth._DAY_S
    epoch = config.start_epoch

    dwell_gap = max(1, round(3600.0 / config.dwell_rate_per_h))
    moving_gap = (
        max(1, round(3600.0 / config.moving_rate_per_h)) if config.moving_rate_per_h > 0 else 0
    )

    agents, trips, dwells, events = [], [], [], []
    for idx in range(config.n_agents):
        first_trip, first_dwell = len(trips), len(dwells)
        user_id = f"u{idx:04d}"
        rng = random.Random(synth._derive_seed(config.seed, "agent", idx))
        mode = synth._weighted_choice(rng, config.mode_mix)
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
        assert home_idx >= 0

        anchors = {
            "home": synth._anchor_truth("home", world, home_idx),
            "work": synth._anchor_truth("work", world, work_idx),
        }
        agent = synth.AgentTruth(
            user_id=user_id, mode=mode, home=anchors["home"], work=anchors["work"]
        )
        agents.append(agent)

        lo_kmh, hi_kmh = config.mode_speed_bands_kmh[mode]
        distance = haversine_distance(anchors["home"].point, anchors["work"].point)

        current = "home"
        dwell_start = epoch
        for day in range(config.n_days):
            if config.trips_per_day_kind == "fixed":
                n_trips = int(config.trips_per_day_value)
            else:
                n_trips = min(synth._poisson(rng, config.trips_per_day_value),
                              synth._MAX_TRIPS_PER_DAY)
            if n_trips == 0:
                continue
            window = synth._SCHEDULE_SPAN_S / n_trips
            jitter_cap = min(3600.0, window - (synth._MAX_TRIP_S + synth._MIN_DWELL_S))
            for k in range(n_trips):
                departure = epoch + int(
                    day * synth._DAY_S + synth._FIRST_DEPARTURE_S + k * window
                    + rng.random() * jitter_cap
                )
                speed_kmh = lo_kmh if lo_kmh == hi_kmh else rng.uniform(lo_kmh, hi_kmh)
                duration = max(1, round(distance / (speed_kmh / 3.6)))
                arrival = departure + duration
                dest = "work" if current == "home" else "home"
                dwells.append(synth.TrueDwell(
                    user_id=user_id, anchor=current, t_start=dwell_start, t_end=departure
                ))
                trips.append(synth.TrueTrip(
                    user_id=user_id, origin_anchor=current, dest_anchor=dest,
                    mode=mode, departure=departure, arrival=arrival, distance_m=distance,
                ))
                dwell_start = arrival
                current = dest
        dwells.append(synth.TrueDwell(
            user_id=user_id, anchor=current, t_start=dwell_start, t_end=epoch + horizon
        ))
        events.extend(_reference_agent_events(
            world, config, rng, agent, trips[first_trip:], dwells[first_dwell:],
            dwell_gap, moving_gap,
        ))

    events.sort(key=lambda e: (e.user_id, e.timestamp))
    towers = {t.cell_id: t for t in world.towers}
    truth = synth.GroundTruth(
        seed=config.seed, start_epoch=config.start_epoch, horizon_s=horizon,
        agents=tuple(agents), trips=tuple(trips), dwells=tuple(dwells),
    )
    return events, towers, regions, truth


def _reference_agent_events(world, config, rng, agent, trips, dwells, dwell_gap, moving_gap):
    noisy = config.tower_noise_p > 0
    anchor_cells = {}
    for anchor in (agent.home, agent.work):
        nearest = reference_nearest_towers(world, anchor.point, k=2)
        anchor_cells[anchor.name] = (
            world.towers[nearest[0]].cell_id,
            world.towers[nearest[1]].cell_id,
        )

    out = []

    def emit(t, primary, secondary):
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
                nearest = reference_nearest_towers(world, pos, k=2)
                emit(t, world.towers[nearest[0]].cell_id, world.towers[nearest[1]].cell_id)
                t += moving_gap

    out.sort(key=lambda e: e.timestamp)
    return out
