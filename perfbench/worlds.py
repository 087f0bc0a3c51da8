"""Seeded inputs for the three workloads.

Every function here is a pure function of its arguments: the same seed
gives the same inputs, byte for byte.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from cdrflow import geo, stays, synth, trips
from harness import MAX_GAP_S, MIN_DURATION_S, R1_M, R2_M

STOPS_INI = (
    f"[stops]\nr1_m = {R1_M}\nr2_m = {R2_M}\n"
    f"min_duration_s = {MIN_DURATION_S}\nmax_gap_s = {MAX_GAP_S}\n"
)

# dense_cli: few users, long horizon, one ping a minute, no noise, no land mask.
DENSE = dict(n_agents=5, n_days=7, dwell_rate_per_h=60.0)

# sparse_library: many users, ~6 pings an hour while dwelling, pings while
# moving, handover noise and Poisson trip counts on a 48 x 48 tower grid.
SPARSE = dict(
    n_agents=40, n_days=3, dwell_rate_per_h=6.0, moving_rate_per_h=12.0,
    tower_noise_p=0.05, trips_per_day_value=3.0, rows=48, cols=48,
)
# A river band sits between tower rows i and i + 1 whenever i % RIVER_EVERY
# == 1; it leaves RIVER_BANK_M of land on each side of the two rows, so every
# tower centre stays on land while sectors facing the river are cut.
RIVER_EVERY = 8
RIVER_BANK_M = 50.0

# mining_parish: a generated trip world on a PARISH_GRID x PARISH_GRID grid of
# parishes (municipalities are 2 x 2 parish blocks).
MINING = dict(n_users=300, days=3, parish_grid=12)
NO_REGION_SHARE = 0.03      # staypoints written with no parish or municipality
ALIASES = {"P00_00": "P00_01", "P05_05": "P05_06", "P11_11": "P11_10"}
SURVEY_PAIRS = 30           # OD pairs given survey counts for the regression
LEG_MODES = ("walk", "bicycle", "bus", "car", "train")


def dense_config_ini(path: Path, sizes: dict = DENSE) -> None:
    """INI for the staged CLI run; the synth stage makes the CDRs from --seed."""
    path.write_text(
        "[run]\n"
        "level = municipality\n"
        "threads = 1\n"
        "[synth]\n"
        f"n_agents = {sizes['n_agents']}\n"
        f"n_days = {sizes['n_days']}\n"
        f"dwell_rate_per_h = {sizes['dwell_rate_per_h']}\n"
        "moving_rate_per_h = 0\n"
        "tower_noise_p = 0\n"
        "trips_per_day_kind = fixed\n"
        "trips_per_day_value = 2\n"
        + STOPS_INI,
        encoding="utf-8",
    )


# --- sparse_library ----------------------------------------------------------

@dataclass(frozen=True)
class RiverLand:
    """Land mask: one polygon over the tower grid with river bands as holes."""

    region: geo.Region
    lon_min: float
    lon_max: float
    lat_min: float
    lat_max: float
    bands: tuple  # (lat_lo, lat_hi, lon_lo, lon_hi) of each river


def sparse_scenario(seed: int, sizes: dict = SPARSE) -> synth.ScenarioConfig:
    return synth.ScenarioConfig(
        n_agents=sizes["n_agents"],
        n_days=sizes["n_days"],
        towers=synth.TowerGridSpec(rows=sizes["rows"], cols=sizes["cols"]),
        trips_per_day_kind="poisson",
        trips_per_day_value=sizes["trips_per_day_value"],
        dwell_rate_per_h=sizes["dwell_rate_per_h"],
        moving_rate_per_h=sizes["moving_rate_per_h"],
        tower_noise_p=sizes["tower_noise_p"],
        seed=seed,
    )


def river_land(towers: dict[str, geo.TowerSector]) -> RiverLand:
    """River bands between tower rows, computed from the tower centres."""
    row_lats = sorted({t.center.lat for t in towers.values()})
    lons = [t.center.lon for t in towers.values()]
    margin = 0.01  # ~1 km of land around the grid
    lon_min, lon_max = min(lons) - margin, max(lons) + margin
    lat_min, lat_max = row_lats[0] - margin, row_lats[-1] + margin
    bank = RIVER_BANK_M / 111_320.0
    inset = margin / 10.0
    bands = tuple(
        (row_lats[i] + bank, row_lats[i + 1] - bank, lon_min + inset, lon_max - inset)
        for i in range(len(row_lats) - 1)
        if i % RIVER_EVERY == 1
    )

    def ring(lat_lo, lat_hi, lon_lo, lon_hi):
        return tuple(
            geo.GeoPoint(lat=la, lon=lo)
            for la, lo in ((lat_lo, lon_lo), (lat_lo, lon_hi), (lat_hi, lon_hi),
                           (lat_hi, lon_lo), (lat_lo, lon_lo))
        )

    polygon = (ring(lat_min, lat_max, lon_min, lon_max),) + tuple(ring(*b) for b in bands)
    region = geo.Region(
        region_id="land", name="land", level="municipality", parent_id=None,
        polygons=(polygon,),
    )
    return RiverLand(region, lon_min, lon_max, lat_min, lat_max, bands)


# --- mining_parish -----------------------------------------------------------

@dataclass(frozen=True)
class TripWorld:
    staypoints: list   # cdrflow Staypoint records, sorted by (user, t_start)
    trips: list        # cdrflow Trip records, ids in chronological order per user
    class_of: dict     # parish -> survey class, for every parish
    survey_shares: dict
    survey_pairs: dict


def _parish(r: int, c: int) -> str:
    return f"P{r:02d}_{c:02d}"


def _municipality(parish: str) -> str:
    r, c = int(parish[1:3]), int(parish[4:6])
    return f"M{r // 2:02d}_{c // 2:02d}"


def _class_of(parish: str, grid: int) -> str:
    r, c = int(parish[1:3]), int(parish[4:6])
    ring = max(abs(r - (grid - 1) / 2.0), abs(c - (grid - 1) / 2.0))
    return "core" if ring < 2 else ("inner" if ring < 4 else "outer")


def trip_world(seed: int, sizes: dict = MINING) -> TripWorld:
    """Users travelling between a few favourite parishes in multi-leg trips.

    Each trip has one to three legs; each intermediate staypoint is a short
    transfer stop, sometimes in the same parish as the stop before it, so that
    the case log has to collapse repeated labels.  A small share of staypoints
    has no region, which makes the log and OD stages drop trips.
    """
    rng = random.Random(seed)
    grid = sizes["parish_grid"]
    parishes = [_parish(r, c) for r in range(grid) for c in range(grid)]
    index = {p: i for i, p in enumerate(parishes)}
    core = [p for p in parishes if _class_of(p, grid) == "core"]
    staypoints: list = []
    all_trips: list = []
    t0 = 1706745600
    horizon = t0 + sizes["days"] * 86400

    def add_sp(user: str, parish: str, t_start: int, t_end: int) -> stays.Staypoint:
        unresolved = rng.random() < NO_REGION_SHARE
        sp = stays.Staypoint(
            staypoint_id=f"sp{len(staypoints):07d}",
            user_id=user,
            location_id=f"L{index[parish]}",
            median=geo.GeoPoint(lat=38.6 + index[parish] * 1e-3, lon=-9.4),
            t_start=float(t_start),
            t_end=float(t_end),
            region_parish=None if unresolved else parish,
            region_municipality=None if unresolved else _municipality(parish),
        )
        staypoints.append(sp)
        return sp

    for u in range(sizes["n_users"]):
        user = f"u{u:05d}"
        # home, work in the core, two other places
        places = [rng.choice(parishes), rng.choice(core), *rng.sample(parishes, 2)]
        n_legs_so_far = 0
        t = t0 + rng.randrange(3600)
        here = places[0]
        current = add_sp(user, here, t, t + 3600 + rng.randrange(7200))
        while current.t_end <= horizon:
            dest = rng.choice([p for p in places if p != here])
            n_legs = rng.choice((1, 1, 2, 2, 3))
            chain = [current]
            t = int(current.t_end)
            for k in range(n_legs):
                t += 300 + rng.randrange(1800)   # leg duration
                if k == n_legs - 1:
                    here, dwell = dest, 3600 + rng.randrange(4 * 3600)
                else:
                    here, dwell = rng.choice((here, rng.choice(parishes))), 120 + rng.randrange(900)
                chain.append(add_sp(user, here, t, t + dwell))
                t += dwell
            legs = []
            for a, b in zip(chain, chain[1:]):
                length = 200.0 + rng.random() * 12_000.0
                legs.append(
                    trips.Tripleg(
                        tripleg_id=f"{user}-leg{n_legs_so_far:04d}",
                        user_id=user,
                        origin_staypoint=a.staypoint_id,
                        dest_staypoint=b.staypoint_id,
                        t_start=a.t_end,
                        t_end=b.t_start,
                        path_length_m=length,
                        avg_speed_kmh=length / (b.t_start - a.t_end) * 3.6,
                        mode=rng.choice(LEG_MODES),
                    )
                )
                n_legs_so_far += 1
            all_trips.append(
                trips.Trip(
                    trip_id=f"trip{len(all_trips):07d}",
                    user_id=user,
                    triplegs=tuple(legs),
                    origin_staypoint=legs[0].origin_staypoint,
                    dest_staypoint=legs[-1].dest_staypoint,
                    t_start=legs[0].t_start,
                    t_end=legs[-1].t_end,
                )
            )
            current = chain[-1]

    class_of = {p: _class_of(p, grid) for p in parishes}
    shares, pairs = _survey(rng, all_trips, staypoints, class_of)
    return TripWorld(staypoints, all_trips, class_of, shares, pairs)


def _survey(rng, all_trips, staypoints, class_of):
    """Survey shares near the measured ones and counts for the busiest OD pairs."""
    region = {sp.staypoint_id: sp.region_parish for sp in staypoints}
    od: dict = {}
    for trip in all_trips:
        o, d = region[trip.origin_staypoint], region[trip.dest_staypoint]
        if o is None or d is None:
            continue
        pair = (ALIASES.get(o, o), ALIASES.get(d, d))
        od[pair] = od.get(pair, 0) + 1
    total = sum(od.values())
    measured: dict = {}
    for (_, d), n in od.items():
        measured[class_of[d]] = measured.get(class_of[d], 0) + n
    raw = {cls: n / total * (0.8 + 0.4 * rng.random()) for cls, n in sorted(measured.items())}
    norm = sum(raw.values())
    shares = {cls: round(v / norm, 4) for cls, v in raw.items()}
    busiest = sorted(od, key=lambda p: (-od[p], p))[:SURVEY_PAIRS]
    pairs = {p: float(round(od[p] * 1.5 + rng.gauss(0.0, 2.0), 1)) for p in busiest}
    return shares, pairs


def write_trip_world(world: TripWorld, run_dir: Path, inputs_dir: Path) -> None:
    """Stage artifacts through the program's writers, survey inputs as CSV."""
    stays.write_staypoints_csv(world.staypoints, run_dir / "staypoints.csv")
    trips.write_trips_csv(world.trips, run_dir / "trips.csv")
    trips.write_triplegs_csv(world.trips, run_dir / "triplegs.csv")
    _write_rows(inputs_dir / "survey_shares.csv", ["class", "share"],
                sorted(world.survey_shares.items()))
    _write_rows(inputs_dir / "survey_od.csv", ["origin", "destination", "trips"],
                [(o, d, repr(n)) for (o, d), n in sorted(world.survey_pairs.items())])
    _write_rows(inputs_dir / "classes.csv", ["destination", "class"],
                sorted(world.class_of.items()))
    _write_rows(inputs_dir / "aliases.csv", ["from", "to"], sorted(ALIASES.items()))


def mining_config_ini(path: Path, inputs_dir: Path) -> None:
    path.write_text(
        "[paths]\n"
        f"survey = {inputs_dir / 'survey_shares.csv'}\n"
        f"survey_pairs = {inputs_dir / 'survey_od.csv'}\n"
        f"class_map = {inputs_dir / 'classes.csv'}\n"
        f"region_aliases = {inputs_dir / 'aliases.csv'}\n"
        "[run]\n"
        "level = parish\n"
        "threads = 1\n",
        encoding="utf-8",
    )


def _write_rows(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)
