"""Output checks, computed independently of cdrflow.

Each check returns a list of error messages; an empty list means it passed.
The checks read artifacts with `csv` and `json`, or read the fields of the
in-memory records, and redo the geometry and the counting here: they test
properties the method must have and results derived from the generated
inputs, never a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from harness import MIN_DURATION_S, R1_M, R2_M

EARTH_RADIUS_M = 6_371_000.0
DIST_TOL_M = 1e-6
ANGLE_TOL_DEG = 1e-7
TOP_K = 20

# The transport-mode decision table of the README, in km/h and metres.
MODE_TABLE = dict(walk=7.0, bicycle=15.0, bus=27.0, bus_extended=45.0,
                  bus_max_length=3000.0, car=60.0, train_long_min_length=8000.0,
                  min_duration=60.0)


# --- geometry and parsing ----------------------------------------------------

def haversine_m(lat1, lon1, lat2, lon2):
    """Great-circle metres between arrays (or scalars) of degrees."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    h = (np.sin((p2 - p1) / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.radians(np.subtract(lon2, lon1)) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def bearing_deg(lat1, lon1, lat2, lon2):
    """Initial bearing from point 1 to point 2, degrees clockwise from north."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlam = np.radians(np.subtract(lon2, lon1))
    y = np.sin(dlam) * np.cos(p2)
    x = np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dlam)
    return np.degrees(np.arctan2(y, x)) % 360.0


def read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def epoch_seconds(iso: list) -> np.ndarray:
    """ISO-8601 UTC strings ending in Z to epoch seconds."""
    stamps = np.array([s.rstrip("Z") for s in iso], dtype="datetime64[us]")
    return stamps.astype(np.int64) / 1e6


def iso(ts: float) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def _fail(errors: list, what: str, bad) -> None:
    """Report the offenders: a list of them, or a boolean mask over rows."""
    if isinstance(bad, np.ndarray):
        bad = np.nonzero(bad)[0].tolist()
    if bad:
        errors.append(f"{what}: {len(bad)} case(s), e.g. {', '.join(map(str, bad[:3]))}")


# --- positioning -------------------------------------------------------------

def check_sectors(cells, lats, lons, towers: dict) -> list:
    """Every point lies within its sector radius and wedge, or on its centre.

    towers maps cell_id to (lat, lon, azimuth_deg, beamwidth_deg, radius_m).
    """
    errors: list = []
    unknown = [c for c in set(cells) if c not in towers]
    _fail(errors, "positioned cell not in towers", unknown)
    if unknown:
        return errors
    t = np.array([towers[c] for c in cells], dtype=float).reshape(-1, 5)
    lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
    d = haversine_m(t[:, 0], t[:, 1], lats, lons)
    far = d > t[:, 4] + DIST_TOL_M
    _fail(errors, "point outside its sector radius", far)
    b = bearing_deg(t[:, 0], t[:, 1], lats, lons)
    off = (np.abs((b - t[:, 2] + 180.0) % 360.0 - 180.0) > t[:, 3] / 2.0 + ANGLE_TOL_DEG) & (d > 0)
    _fail(errors, "point outside its sector wedge", off)
    return errors


def check_same_rows(inputs: list, outputs: list, what: str) -> list:
    """The positioned rows carry the input rows' (user, time, cell), in order."""
    if len(inputs) != len(outputs):
        return [f"{what}: {len(outputs)} rows for {len(inputs)} input rows"]
    bad = [i for i, (a, b) in enumerate(zip(inputs, outputs)) if a != b]
    errors: list = []
    _fail(errors, what, bad)
    return errors


def check_on_land(lats, lons, centre_lats, centre_lons, land) -> list:
    """Every land-clipped point is on land (outside every river) or is its sector centre."""
    lats, lons = np.asarray(lats), np.asarray(lons)
    on_land = ((lons >= land.lon_min) & (lons <= land.lon_max)
               & (lats >= land.lat_min) & (lats <= land.lat_max))
    for lat_lo, lat_hi, lon_lo, lon_hi in land.bands:
        on_land &= ~((lats > lat_lo) & (lats < lat_hi) & (lons > lon_lo) & (lons < lon_hi))
    centre = (lats == np.asarray(centre_lats)) & (lons == np.asarray(centre_lons))
    bad = ~(on_land | centre)
    errors: list = []
    _fail(errors, "point neither on land nor at its sector centre", bad)
    return errors


# --- staypoints ----------------------------------------------------------------

def r2_components(lats, lons, r2: float) -> np.ndarray:
    """Connected components of the graph linking medians within r2 metres.

    Grid union-find: points are bucketed in square cells a little wider
    than r2 (local equirectangular metres), so every linked pair sits in
    the same or a neighbouring cell, and only those pairs are measured.
    """
    lats, lons = np.asarray(lats, dtype=float), np.asarray(lons, dtype=float)
    n = len(lats)
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    if n == 0:
        return np.array(parent)
    cell = 1.05 * r2
    scale = EARTH_RADIUS_M * math.cos(math.radians(float(np.min(np.abs(lats)))))
    kx = np.floor(scale * np.radians(lons) / cell).astype(np.int64)
    ky = np.floor(EARTH_RADIUS_M * np.radians(lats) / cell).astype(np.int64)
    buckets: dict = defaultdict(list)
    for i, key in enumerate(zip(kx.tolist(), ky.tolist())):
        buckets[key].append(i)
    buckets = {key: np.array(idx) for key, idx in buckets.items()}
    for (bx, by), idx in buckets.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                other_key = (bx + dx, by + dy)
                if other_key < (bx, by) or other_key not in buckets:
                    continue
                other = buckets[other_key]
                d = haversine_m(lats[idx][:, None], lons[idx][:, None],
                                lats[other][None, :], lons[other][None, :])
                for i, j in zip(*np.nonzero(d <= r2)):
                    ri, rj = find(int(idx[i])), find(int(other[j]))
                    if ri != rj:
                        parent[rj] = ri
    return np.array([find(i) for i in range(n)])


def check_staypoints(ev_user, ev_t, ev_lat, ev_lon, sps: list,
                     r1: float, r2: float, min_duration: float) -> list:
    """Stops keep every covered event within r1, last min_duration, share r2 components.

    ev_* are the positioned events of every user; sps holds one tuple
    (user, location_id, lat, lon, t_start, t_end) per staypoint.
    """
    errors: list = []
    if not sps:
        return ["no staypoints detected"]
    ev_user = np.asarray(ev_user)
    ev_t = np.asarray(ev_t, dtype=float)
    order = np.lexsort((ev_t, ev_user))
    ev_user, ev_t = ev_user[order], ev_t[order]
    ev_lat, ev_lon = np.asarray(ev_lat, dtype=float)[order], np.asarray(ev_lon, dtype=float)[order]
    users, first = np.unique(ev_user, return_index=True)
    bounds = dict(zip(users.tolist(), zip(first.tolist(), [*first[1:].tolist(), len(ev_user)])))

    not_events, too_far, too_short, overlaps = [], [], [], []
    last_end: dict = {}
    for k, (user, _, lat, lon, t_start, t_end) in enumerate(sorted(sps, key=lambda s: (s[0], s[4]))):
        lo, hi = bounds.get(user, (0, 0))
        a = lo + int(np.searchsorted(ev_t[lo:hi], t_start, "left"))
        b = lo + int(np.searchsorted(ev_t[lo:hi], t_end, "right"))
        if b <= a or ev_t[a] != t_start or ev_t[b - 1] != t_end:
            not_events.append(k)
            continue
        if np.max(haversine_m(lat, lon, ev_lat[a:b], ev_lon[a:b])) > r1 + DIST_TOL_M:
            too_far.append(k)
        if t_end - t_start < min_duration:
            too_short.append(k)
        if user in last_end and t_start <= last_end[user]:
            overlaps.append(k)
        last_end[user] = t_end
    _fail(errors, "staypoint does not start and end at events of its user", not_events)
    _fail(errors, f"staypoint event farther than r1={r1} m from the median", too_far)
    _fail(errors, f"staypoint shorter than {min_duration} s", too_short)
    _fail(errors, "staypoints of one user overlap", overlaps)

    labels = [s[1] for s in sps]
    comps = r2_components([s[2] for s in sps], [s[3] for s in sps], r2).tolist()
    pairs = set(zip(labels, comps))
    if not len(pairs) == len(set(labels)) == len(set(comps)):
        errors.append(
            f"location_id is not the r2={r2} m components: {len(set(labels))} labels, "
            f"{len(set(comps))} components, {len(pairs)} label/component pairs"
        )
    return errors


# --- trips ---------------------------------------------------------------------

def readme_mode(speed_kmh: float, length_m: float, duration_s: float) -> str:
    m = MODE_TABLE
    if duration_s < m["min_duration"]:
        return "unknown"
    if speed_kmh < m["walk"]:
        return "walk"
    if speed_kmh < m["bicycle"]:
        return "bicycle"
    if speed_kmh < m["bus"]:
        return "bus"
    if speed_kmh < m["bus_extended"]:
        return "bus" if length_m < m["bus_max_length"] else "car"
    if speed_kmh < m["car"]:
        return "train" if length_m >= m["train_long_min_length"] else "car"
    return "train"


def check_moving(positioned: list, staypoints: list, moving: list) -> list:
    """Moving events and events covered by stops partition all events."""
    spans = defaultdict(list)
    for sp in staypoints:
        spans[sp.user_id].append((sp.t_start, sp.t_end))
    times = defaultdict(list)
    for ev in positioned:
        times[ev.user_id].append(ev.timestamp)
    covered = 0
    for user, ts in times.items():
        ts = np.sort(np.array(ts))
        for t_start, t_end in spans.get(user, ()):
            covered += int(np.searchsorted(ts, t_end, "right") - np.searchsorted(ts, t_start, "left"))
    errors: list = []
    if covered + len(moving) != len(positioned):
        errors.append(f"{len(moving)} moving + {covered} stop events != {len(positioned)} events")
    inside = [ev for ev in moving
              if any(a <= ev.timestamp <= b for a, b in spans.get(ev.user_id, ()))]
    _fail(errors, "moving event inside a stop", inside)
    return errors


def check_triplegs(staypoints: list, moving: list, all_trips: list) -> list:
    """Legs join consecutive staypoints; path, speed and mode follow from them."""
    errors: list = []
    if not all_trips:
        return ["no trips built"]
    by_id = {sp.staypoint_id: sp for sp in staypoints}
    rank: dict = {}
    per_user = defaultdict(list)
    for sp in staypoints:
        per_user[sp.user_id].append(sp)
    for sps in per_user.values():
        for i, sp in enumerate(sorted(sps, key=lambda s: s.t_start)):
            rank[sp.staypoint_id] = i
    mv = defaultdict(list)
    for ev in moving:
        mv[ev.user_id].append(ev)
    mv_t = {}
    for user, evs in mv.items():
        evs.sort(key=lambda e: e.timestamp)
        mv_t[user] = np.array([e.timestamp for e in evs])

    broken, bad_path, bad_mode = [], [], []
    for trip in all_trips:
        for leg in trip.triplegs:
            a, b = by_id.get(leg.origin_staypoint), by_id.get(leg.dest_staypoint)
            if (a is None or b is None or not a.user_id == b.user_id == leg.user_id == trip.user_id
                    or rank[b.staypoint_id] != rank[a.staypoint_id] + 1
                    or leg.t_start != a.t_end or leg.t_end != b.t_start):
                broken.append(leg.tripleg_id)
                continue
            ts = mv_t.get(leg.user_id, np.array([]))
            lo = int(np.searchsorted(ts, a.t_end, "right"))
            hi = int(np.searchsorted(ts, b.t_start, "left"))
            between = mv[leg.user_id][lo:hi]
            lat = np.array([a.median.lat, *(e.location.lat for e in between), b.median.lat])
            lon = np.array([a.median.lon, *(e.location.lon for e in between), b.median.lon])
            path = float(np.sum(haversine_m(lat[:-1], lon[:-1], lat[1:], lon[1:])))
            duration = leg.t_end - leg.t_start
            if not (math.isclose(path, leg.path_length_m, rel_tol=1e-9, abs_tol=1e-6)
                    and math.isclose(path / duration * 3.6, leg.avg_speed_kmh, rel_tol=1e-9, abs_tol=1e-9)):
                bad_path.append(leg.tripleg_id)
            if leg.mode != readme_mode(leg.avg_speed_kmh, leg.path_length_m, duration):
                bad_mode.append(leg.tripleg_id)
    _fail(errors, "tripleg does not join consecutive staypoints of its user", broken)
    _fail(errors, "tripleg path length or speed differs from its staypoints and moving events", bad_path)
    _fail(errors, "tripleg mode differs from the README decision table", bad_mode)
    return errors


def check_truth(trip_rows: list, sp_rows: list, truth: dict) -> list:
    """Trip count within 2% of the truth; municipality OD cells agree in >= 98%."""
    errors: list = []
    n_true = len(truth["trips"])
    if abs(len(trip_rows) - n_true) > 0.02 * n_true:
        errors.append(f"{len(trip_rows)} trips detected for {n_true} true trips")
    muni = {sp["staypoint_id"]: sp["municipality"] for sp in sp_rows}
    detected = Counter()
    for t in trip_rows:
        o, d = muni.get(t["origin_sp"], ""), muni.get(t["dest_sp"], "")
        if o and d:
            detected[(o, d)] += 1
    agents = {a["user_id"]: a for a in truth["agents"]}
    true = Counter(
        (agents[t["user_id"]][t["origin_anchor"]]["municipality"],
         agents[t["user_id"]][t["dest_anchor"]]["municipality"])
        for t in truth["trips"]
    )
    cells = set(detected) | set(true)
    agreement = sum(detected[c] == true[c] for c in cells) / len(cells) if cells else 1.0
    if agreement < 0.98:
        errors.append(f"municipality OD cells agree in {agreement:.3f} < 0.98 of cells")
    return errors


# --- logs, models, conformance and validation ----------------------------------------

def check_fitness(report: dict) -> list:
    if (report["fitness"] == 1.0 and report["missing"] == 0 and report["remaining"] == 0
            and not report["vacuous"]):
        return []
    return [f"token replay on the own model is not perfect: {report}"]


def _traces(case_rows: list) -> dict:
    traces: dict = defaultdict(list)
    for row in case_rows:
        traces[row["case_id"]].append((row["activity"], row["timestamp"]))
    return traces


def variant_ranking(sequences: list, durations: list, top_k: int = TOP_K) -> list:
    """(sequence, count, mean duration) by count desc, then sequence."""
    count, total = Counter(), defaultdict(float)
    for seq, duration in zip(sequences, durations):
        count[seq] += 1
        total[seq] += duration
    ranked = sorted(count, key=lambda s: (-count[s], s))[:top_k]
    return [(list(s), count[s], total[s] / count[s]) for s in ranked]


def check_conservation(run_dir: Path) -> list:
    """Counts agree across the log, the models, the variants, replay and OD."""
    errors: list = []
    traces = _traces(read_csv(run_dir / "case_log.csv"))
    n_traces = len(traces)
    n_events = sum(len(t) for t in traces.values())
    n_trips = len(read_csv(run_dir / "trips.csv"))

    def same(what, got, want):
        if got != want:
            errors.append(f"{what}: {got} != {want}")

    dfg = read_json(run_dir / "dfg_model.json")
    same("DFG node frequencies vs events", sum(n["frequency"] for n in dfg["nodes"]), n_events)
    same("DFG arc frequencies vs events - traces", sum(a["freq"] for a in dfg["arcs"]), n_events - n_traces)
    same("DFG start counts vs traces", sum(s["count"] for s in dfg["startCounts"]), n_traces)
    same("DFG end counts vs traces", sum(s["count"] for s in dfg["endCounts"]), n_traces)

    sequences = [tuple(a for a, _ in t) for t in traces.values()]
    want = [(seq, n) for seq, n, _ in variant_ranking(sequences, [0.0] * n_traces)]
    got = [(v["sequence"], v["count"]) for v in read_json(run_dir / "variants.json")]
    same("variants (sequence, count) vs case log", got, want)

    ocel = read_json(run_dir / "ocel.json")
    same("OCEL events vs case log events", len(ocel["events"]), n_events)
    same("OCEL relations vs 2 x events", sum(len(e["relations"]) for e in ocel["events"]), 2 * n_events)
    same("OCEL trip objects vs traces", sum(o["id"] in traces for o in ocel["objects"]), n_traces)
    stats = read_json(run_dir / "log_stats.json")
    same("log_stats cases", stats["case_log"]["n_cases_or_objects"], n_traces)
    same("log_stats events", stats["case_log"]["n_events"], n_events)
    same("log_stats OCEL relations", stats["ocel"]["n_relations"], 2 * n_events)

    same("replayed traces", read_json(run_dir / "conformance_report.json")["n_traces"], n_traces)
    same("traces + dropped cases vs trips",
         n_traces + read_json(run_dir / "case_log_drops.json")["n_dropped"], n_trips)
    report = read_json(run_dir / "validation_report.json")
    same("OD trips + dropped vs trips", report["total_trips"] + report["n_dropped_trips"], n_trips)
    same("OD matrix sum vs total", sum(int(r["trips"]) for r in read_csv(run_dir / "od_matrix.csv")),
         report["total_trips"])
    return errors


# --- workloads -------------------------------------------------------------------

def check_dense(run_dir: Path) -> list:
    towers = {
        r["cell_id"]: tuple(float(r[k]) for k in ("lat", "lon", "azimuth_deg", "beamwidth_deg", "radius_m"))
        for r in read_csv(run_dir / "towers.csv")
    }
    pos = read_csv(run_dir / "positioned.csv")
    cdr = read_csv(run_dir / "cdr.csv")
    errors = check_same_rows(
        [(r["user_id"], r["timestamp"], r["cell_id"]) for r in cdr],
        [(r["user_id"], r["timestamp"], r["cell_id"]) for r in pos],
        "positioned row differs from its CDR row",
    )
    lats = [float(r["lat"]) for r in pos]
    lons = [float(r["lon"]) for r in pos]
    errors += check_sectors([r["cell_id"] for r in pos], lats, lons, towers)
    sp_rows = read_csv(run_dir / "staypoints.csv")
    sps = [
        (r["user_id"], r["location_id"], float(r["lat"]), float(r["lon"]), t0, t1)
        for r, t0, t1 in zip(sp_rows, epoch_seconds([r["t_start"] for r in sp_rows]),
                             epoch_seconds([r["t_end"] for r in sp_rows]))
    ]
    errors += check_staypoints(
        [r["user_id"] for r in pos], epoch_seconds([r["timestamp"] for r in pos]), lats, lons,
        sps, R1_M, R2_M, MIN_DURATION_S,
    )
    errors += check_truth(read_csv(run_dir / "trips.csv"), sp_rows, read_json(run_dir / "ground_truth.json"))
    errors += check_fitness(read_json(run_dir / "conformance_report.json"))
    errors += check_conservation(run_dir)
    return errors


def check_sparse(events, towers, land, positioned, staypoints, moving, all_trips) -> list:
    errors = check_same_rows(
        [(e.user_id, e.timestamp, e.cell_id) for e in events],
        [(e.user_id, e.timestamp, e.cell_id) for e in positioned],
        "positioned event differs from its CDR event",
    )
    sectors = {
        c: (t.center.lat, t.center.lon, t.azimuth_deg, t.beamwidth_deg, t.radius_m)
        for c, t in towers.items()
    }
    cells = [e.cell_id for e in positioned]
    lats = [e.location.lat for e in positioned]
    lons = [e.location.lon for e in positioned]
    errors += check_sectors(cells, lats, lons, sectors)
    errors += check_on_land(lats, lons, [sectors[c][0] for c in cells], [sectors[c][1] for c in cells], land)
    errors += check_staypoints(
        [e.user_id for e in positioned], [e.timestamp for e in positioned], lats, lons,
        [(s.user_id, s.location_id, s.median.lat, s.median.lon, s.t_start, s.t_end) for s in staypoints],
        R1_M, R2_M, MIN_DURATION_S,
    )
    errors += check_moving(positioned, staypoints, moving)
    errors += check_triplegs(staypoints, moving, all_trips)
    return errors


def expected_mining(world, aliases: dict) -> dict:
    """Everything the parish-level stages must produce, derived from the world."""
    region = {sp.staypoint_id: sp.region_parish for sp in world.staypoints}
    start = {sp.staypoint_id: sp.t_start for sp in world.staypoints}
    traces, modes, dropped = {}, {}, []
    for trip in sorted(world.trips, key=lambda t: t.trip_id):
        chain = [trip.triplegs[0].origin_staypoint] + [leg.dest_staypoint for leg in trip.triplegs]
        labels = [region[s] for s in chain]
        if None in labels:
            dropped.append(trip.trip_id)
            continue
        times = [trip.t_start] + [start[s] for s in chain[1:]]
        events = [(labels[0], times[0])]
        for label, t in zip(labels[1:-1], times[1:-1]):
            if label != events[-1][0]:
                events.append((label, t))
        events.append((labels[-1], times[-1]))
        traces[trip.trip_id] = events
        longest = max(trip.triplegs, key=lambda leg: (leg.path_length_m, -leg.t_start))
        modes[trip.trip_id] = longest.mode.capitalize()

    def dfg(event_lists):
        arcs, samples = Counter(), defaultdict(list)
        nodes, starts, ends = Counter(), Counter(), Counter()
        for ev in event_lists:
            nodes.update(a for a, _ in ev)
            starts[ev[0][0]] += 1
            ends[ev[-1][0]] += 1
            for (a, ta), (b, tb) in zip(ev, ev[1:]):
                arcs[(a, b)] += 1
                samples[(a, b)].append(tb - ta)
        return {
            "arcs": {k: (n, sum(samples[k]) / n) for k, n in arcs.items()},
            "nodes": dict(nodes), "starts": dict(starts), "ends": dict(ends),
        }

    od, od_dropped = Counter(), 0
    for trip in world.trips:
        o, d = region[trip.origin_staypoint], region[trip.dest_staypoint]
        if o is None or d is None:
            od_dropped += 1
            continue
        od[(aliases.get(o, o), aliases.get(d, d))] += 1
    total = sum(od.values())
    measured = Counter()
    for (_, d), n in od.items():
        measured[world.class_of[d]] += n
    deviations = {
        cls: (measured[cls] / total - share) * 100.0 for cls, share in world.survey_shares.items()
    }
    pairs = sorted(world.survey_pairs)
    x = [world.survey_pairs[p] for p in pairs]
    y = [float(od.get(p, 0)) for p in pairs]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    slope = (sum((a - mx) * (b - my) for a, b in zip(x, y))
             / sum((a - mx) ** 2 for a in x))
    # Flattening the OCEL on a mode type yields one trace per trip object of
    # that type plus one for the mode object itself, which relates to every
    # event of those trips, ordered by (timestamp, event id).
    by_mode = defaultdict(list)
    mode_events = defaultdict(list)
    for case_index, case in enumerate(sorted(traces)):
        by_mode[modes[case]].append(traces[case])
        for event_index, (activity, t) in enumerate(traces[case]):
            mode_events[modes[case]].append((t, f"e{case_index}_{event_index}", activity))
    ocdfg = {
        mode: dfg(trips_of_mode + [[(a, t) for t, _, a in sorted(mode_events[mode])]])["arcs"]
        for mode, trips_of_mode in by_mode.items()
    }
    return {
        "case_rows": [(case, a, iso(t)) for case in sorted(traces) for a, t in traces[case]],
        "dfg": dfg([traces[c] for c in sorted(traces)]),
        "ocdfg": ocdfg,
        "variants": variant_ranking(
            [tuple(a for a, _ in traces[c]) for c in sorted(traces)],
            [traces[c][-1][1] - traces[c][0][1] for c in sorted(traces)],
        ),
        "dropped": dropped,
        "od": dict(od),
        "od_dropped": od_dropped,
        "deviations_pp": deviations,
        "slope": slope,
        "n_pairs": len(pairs),
    }


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


def _same_stats(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        got[k][0] == want[k][0] and _close(got[k][1], want[k][1]) for k in want
    )


def check_mining(run_dir: Path, world, aliases: dict) -> list:
    want = expected_mining(world, aliases)
    errors: list = []

    def same(what, ok):
        if not ok:
            errors.append(f"{what} differs from the generated world")

    got_rows = [(r["case_id"], r["activity"], r["timestamp"]) for r in read_csv(run_dir / "case_log.csv")]
    same("case log", got_rows == want["case_rows"])
    same("dropped case ids", read_json(run_dir / "case_log_drops.json")["dropped_case_ids"] == want["dropped"])

    dfg = read_json(run_dir / "dfg_model.json")
    same("DFG arcs, frequencies or mean durations", _same_stats(
        {(a["src"], a["dst"]): (a["freq"], a["mean_s"]) for a in dfg["arcs"]}, want["dfg"]["arcs"]))
    same("DFG nodes", {n["activity"]: n["frequency"] for n in dfg["nodes"]} == want["dfg"]["nodes"])
    same("DFG start counts", {s["activity"]: s["count"] for s in dfg["startCounts"]} == want["dfg"]["starts"])
    same("DFG end counts", {s["activity"]: s["count"] for s in dfg["endCounts"]} == want["dfg"]["ends"])

    oc = read_json(run_dir / "ocdfg_model.json")
    got_oc = defaultdict(dict)
    for a in oc["arcs"]:
        got_oc[a["objectType"]][(a["src"], a["dst"])] = (a["freq"], a["mean_s"])
    same("OC-DFG object types", sorted(oc["objectTypes"]) == sorted(want["ocdfg"]))
    same("OC-DFG arcs, frequencies or mean durations",
         got_oc.keys() == want["ocdfg"].keys()
         and all(_same_stats(got_oc[m], want["ocdfg"][m]) for m in want["ocdfg"]))

    variants = read_json(run_dir / "variants.json")
    same("variants", len(variants) == len(want["variants"]) and all(
        v["sequence"] == seq and v["count"] == n and _close(v["mean_duration_s"], mean)
        for v, (seq, n, mean) in zip(variants, want["variants"])))

    od = {(r["origin"], r["destination"]): int(r["trips"]) for r in read_csv(run_dir / "od_matrix.csv")}
    same("OD matrix", od == want["od"])
    report = read_json(run_dir / "validation_report.json")
    same("OD dropped trips", report["n_dropped_trips"] == want["od_dropped"])
    comparison = report["comparison"] or {}
    got_dev = {d["class"]: d["pp"] for d in comparison.get("deviations_pp", [])}
    same("share deviations", got_dev.keys() == want["deviations_pp"].keys()
         and all(_close(got_dev[c], want["deviations_pp"][c]) for c in got_dev))
    regression = comparison.get("regression") or {}
    same("pairwise regression", regression.get("n") == want["n_pairs"]
         and math.isclose(regression.get("slope", math.nan), want["slope"], rel_tol=1e-9))

    errors += check_fitness(read_json(run_dir / "conformance_report.json"))
    errors += check_conservation(run_dir)
    return errors
