import json
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrflow import geo
from cdrflow.errors import ClippingExhausted
from cdrflow.eventfiles import load_cdr_csv, write_cdr_csv
from cdrflow.geo import (
    _BEARING_MARGIN_DEG,
    _RADIAL_FRACTION_MAX,
    _RADIAL_FRACTION_MIN,
    DEFAULT_CLIP_ATTEMPTS,
    Region,
    RegionIndex,
    TowerSector,
    _Land,
    bearing_within_wedge,
    event_seed,
    load_regions_geojson,
    load_towers_csv,
    position_events,
    region_contains,
    sample_sector_point,
    write_regions_geojson,
    write_towers_csv,
)
from cdrflow.records import (
    EARTH_RADIUS_M,
    CdrEvent,
    GeoPoint,
    PositionedEvent,
    destination_point,
    event_columns,
    haversine_distance,
    initial_bearing,
)

from conftest import square_region


class ScalarSampler:
    """One event at a time, in plain floats: the reference for the array kernel."""

    def __init__(self, sector: TowerSector):
        self.sector = sector
        self.radius = sector.radius_m
        half = sector.beamwidth_deg / 2.0
        margin = max(_BEARING_MARGIN_DEG * sector.beamwidth_deg, _BEARING_MARGIN_DEG)
        self.lo_bearing = sector.azimuth_deg - half + margin
        self.span = max(sector.beamwidth_deg - 2.0 * margin, 0.0)
        phi1 = math.radians(sector.center.lat)
        self.lam1 = math.radians(sector.center.lon)
        self.sin_phi1 = math.sin(phi1)
        self.cos_phi1 = math.cos(phi1)

    @staticmethod
    def splitmix64(state: int) -> tuple[int, int]:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return state, z ^ (z >> 31)

    def raw_draw(self, u: float, v: float) -> tuple[float, float]:
        sin, cos, asin, atan2 = math.sin, math.cos, math.asin, math.atan2
        fraction = min(max(math.sqrt(u), _RADIAL_FRACTION_MIN), _RADIAL_FRACTION_MAX)
        theta = math.radians((self.lo_bearing + v * self.span) % 360.0)
        delta = fraction * self.radius / EARTH_RADIUS_M
        sin_delta, cos_delta = sin(delta), cos(delta)
        sin_phi2 = self.sin_phi1 * cos_delta + self.cos_phi1 * sin_delta * cos(theta)
        sin_phi2 = max(-1.0, min(1.0, sin_phi2))
        lam2 = self.lam1 + atan2(
            sin(theta) * sin_delta * self.cos_phi1, cos_delta - self.sin_phi1 * sin_phi2
        )
        lat, lon = math.degrees(asin(sin_phi2)), (math.degrees(lam2) + 180.0) % 360.0 - 180.0
        if haversine_distance(self.sector.center, GeoPoint(lat, lon)) > self.radius:
            return self.sector.center.lat, self.sector.center.lon
        return lat, lon

    def point(self, seed: int, land=(), max_attempts: int = DEFAULT_CLIP_ATTEMPTS) -> GeoPoint:
        sector = self.sector
        if sector.radius_m == 0.0:
            return sector.center
        state = seed & 0xFFFFFFFFFFFFFFFF
        for _ in range(max(1, max_attempts) if land else 1):
            state, z1 = self.splitmix64(state)
            state, z2 = self.splitmix64(state)
            lat, lon = self.raw_draw((z1 >> 11) / float(1 << 53), (z2 >> 11) / float(1 << 53))
            point = GeoPoint(lat=lat, lon=lon)
            if not land or any(region_contains(r, point) for r in land):
                return point
        if any(region_contains(r, sector.center) for r in land):
            return sector.center
        raise ClippingExhausted(
            f"no land point found for sector {sector.cell_id} after {max_attempts} attempts"
        )


def scalar_positions(events, towers, land=()):
    return [
        PositionedEvent(
            ev.user_id, ev.timestamp, ev.cell_id,
            ScalarSampler(towers[ev.cell_id]).point(
                event_seed(ev.cell_id, ev.user_id, ev.timestamp), land
            ),
        )
        for ev in events
    ]


def ring(*lon_lat):
    return tuple(GeoPoint(lat, lon) for lon, lat in lon_lat + lon_lat[:1])


# Land around lon -9.40..-9.20, lat 38.60..38.80 with a river hole along
# lat 38.695..38.705 and an island inside the river, plus a separate
# two-polygon region to the east.
RIVER_LAND = (
    Region("main", "main", "municipality", None, ((
        ring((-9.40, 38.60), (-9.20, 38.60), (-9.20, 38.80), (-9.40, 38.80)),
        ring((-9.38, 38.695), (-9.22, 38.695), (-9.22, 38.705), (-9.38, 38.705)),
    ),)),
    Region("east", "east", "municipality", None, (
        (ring((-9.10, 38.60), (-9.00, 38.60), (-9.00, 38.70), (-9.10, 38.70)),),
        (ring((-9.30, 38.699), (-9.29, 38.699), (-9.29, 38.701), (-9.30, 38.701)),),
    )),
)


# A strip of land about 67 m wide along lat 38.7: sectors centred on it
# re-draw most events many times, and some exhaust their attempts.
THIN_STRIP = (
    Region("strip", "strip", "municipality", None, (
        (ring((-9.40, 38.6997), (-9.20, 38.6997), (-9.20, 38.7003), (-9.40, 38.7003)),),
    )),
)


def law_of_cosines_distance(a: GeoPoint, b: GeoPoint) -> float:
    # independent oracle: spherical law of cosines
    p1, l1 = math.radians(a.lat), math.radians(a.lon)
    p2, l2 = math.radians(b.lat), math.radians(b.lon)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(l2 - l1)
    return EARTH_RADIUS_M * math.acos(max(-1.0, min(1.0, c)))


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(38.70, -9.30)
        assert haversine_distance(p, p) == 0.0

    def test_symmetry_pair(self):
        a, b = GeoPoint(38.7, -9.3), GeoPoint(38.75, -9.2)
        assert haversine_distance(a, b) == haversine_distance(b, a)

    def test_against_law_of_cosines_oracle(self):
        a, b = GeoPoint(38.70, -9.30), GeoPoint(38.70, -9.20)
        oracle = law_of_cosines_distance(a, b)
        assert oracle == pytest.approx(8677.9897591392, abs=1e-6)
        assert haversine_distance(a, b) == pytest.approx(oracle, abs=1e-5)

    def test_symmetry_and_triangle_inequality_random(self):
        rng = random.Random(101)
        for _ in range(300):
            pts = [
                GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179)) for _ in range(3)
            ]
            d_ab = haversine_distance(pts[0], pts[1])
            d_ba = haversine_distance(pts[1], pts[0])
            assert abs(d_ab - d_ba) <= 1e-6
            d_bc = haversine_distance(pts[1], pts[2])
            d_ac = haversine_distance(pts[0], pts[2])
            assert d_ac <= d_ab + d_bc + 1e-6


class TestSectorSampling:
    def test_zero_radius_returns_center(self):
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 90.0, 60.0, 0.0)
        assert sample_sector_point(sector, 5) == sector.center

    def test_determinism(self):
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 10.0, 120.0, 800.0)
        assert sample_sector_point(sector, 42) == sample_sector_point(sector, 42)

    def test_seed7_wedge_example(self):
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 90.0, 60.0, 500.0)
        p = sample_sector_point(sector, 7)
        assert haversine_distance(sector.center, p) <= 500.0
        assert 60.0 <= initial_bearing(sector.center, p) <= 120.0

    def test_distance_and_wedge_predicates_random(self):
        rng = random.Random(7)
        for _ in range(500):
            sector = TowerSector(
                cell_id="c",
                center=GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179)),
                azimuth_deg=rng.uniform(0, 360),
                beamwidth_deg=rng.uniform(5, 360),
                radius_m=rng.uniform(10, 5000),
            )
            p = sample_sector_point(sector, rng.getrandbits(64))
            assert haversine_distance(sector.center, p) <= sector.radius_m
            bearing = initial_bearing(sector.center, p)
            assert bearing_within_wedge(bearing, sector.azimuth_deg, sector.beamwidth_deg)

    def test_wedge_wraps_north(self):
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 350.0, 40.0, 300.0)
        for seed in range(50):
            p = sample_sector_point(sector, seed)
            bearing = initial_bearing(sector.center, p)
            assert bearing_within_wedge(bearing, 350.0, 40.0)
            assert bearing >= 330.0 or bearing <= 10.0

    def test_azimuth_normalized(self):
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 370.0, 40.0, 300.0)
        assert sector.azimuth_deg == 10.0

    def test_land_clipping_accepts_inside(self):
        land = (square_region("L", "municipality", -9.31, 38.69, 0.05),)
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 90.0, 120.0, 200.0)
        p = sample_sector_point(sector, 11, land=land)
        assert region_contains(land[0], p)

    def test_land_clipping_center_fallback(self):
        # land mask barely covers the center: rejection nearly always fails
        land = (square_region("L", "municipality", -9.3000001, 38.6999999, 3e-7),)
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 90.0, 120.0, 5000.0)
        p = sample_sector_point(sector, 1, land=land, max_attempts=8)
        assert p == sector.center

    def test_land_clipping_exhausted(self):
        land = (square_region("L", "municipality", 10.0, 10.0, 0.5),)  # far away
        sector = TowerSector("c0", GeoPoint(38.7, -9.3), 90.0, 120.0, 500.0)
        with pytest.raises(ClippingExhausted):
            sample_sector_point(sector, 1, land=land, max_attempts=8)


class TestDestinationBearing:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(200):
            start = GeoPoint(rng.uniform(-60, 60), rng.uniform(-170, 170))
            bearing = rng.uniform(0, 360)
            distance = rng.uniform(1, 20000)
            p = destination_point(start, bearing, distance)
            assert haversine_distance(start, p) == pytest.approx(distance, abs=1e-6)
            assert initial_bearing(start, p) == pytest.approx(bearing, abs=1e-6)


class TestAssignRegion:
    def test_interior_point(self, two_municipalities):
        assert two_municipalities.assign(GeoPoint(0.5, 0.5), "municipality") == "A"

    def test_miss(self, two_municipalities):
        assert two_municipalities.assign(GeoPoint(5.0, 5.0), "municipality") is None

    def test_shared_edge_tiebreak(self, two_municipalities):
        p = GeoPoint(0.5, 1.0)  # on the shared edge of A and B
        regions = two_municipalities.regions("municipality")
        contained = [r.region_id for r in regions if region_contains(r, p)]
        assert contained == ["A", "B"]  # double containment confirmed by brute force
        assert two_municipalities.assign(p, "municipality") == "A"

    def test_boundary_counts_inside(self, two_municipalities):
        for p in (GeoPoint(0.0, 0.0), GeoPoint(1.0, 0.5), GeoPoint(0.5, 0.0)):
            assert two_municipalities.assign(p, "municipality") == "A"

    def test_brute_force_oracle_equivalence(self):
        rng = random.Random(31)
        regions = []
        for i in range(12):
            lon0, lat0 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            regions.append(
                square_region(f"R{i:02d}", "municipality", lon0, lat0, rng.uniform(0.5, 2.5))
            )
        index = RegionIndex(regions)
        for _ in range(2000):
            p = GeoPoint(rng.uniform(-6, 7), rng.uniform(-6, 7))
            oracle = min(
                (r.region_id for r in regions if region_contains(r, p)), default=None
            )
            assert index.assign(p, "municipality") == oracle

    def test_parish_requires_parent(self):
        with pytest.raises(ValueError):
            RegionIndex([square_region("P1", "parish", 0, 0, 1)])

    def test_polygon_hole(self):
        outer = (
            GeoPoint(0, 0), GeoPoint(0, 4), GeoPoint(4, 4), GeoPoint(4, 0), GeoPoint(0, 0),
        )
        hole = (
            GeoPoint(1, 1), GeoPoint(1, 2), GeoPoint(2, 2), GeoPoint(2, 1), GeoPoint(1, 1),
        )
        from cdrflow.geo import Region

        region = Region("H", "H", "municipality", None, (((outer, hole)),))
        assert region_contains(region, GeoPoint(0.5, 0.5))
        assert not region_contains(region, GeoPoint(1.5, 1.5))
        assert region_contains(region, GeoPoint(1.0, 1.5))  # hole boundary is inside


# integral, fractional, signed-zero and year-9999 timestamps, as float and int
STAMPS = (1706745600.0, 1706745600, 1706745600.25, -0.0, 0.0, 0, -86400.5,
          253402300799.0, 253402300798.75)


class TestEventSeedAndPositioning:
    def test_event_seed_stable(self):
        assert event_seed("c1", "u1", 100.0) == event_seed("c1", "u1", 100)
        assert event_seed("c1", "u1", -0.0) == event_seed("c1", "u1", 0.0)
        assert event_seed("c1", "u1", 0.0) == event_seed("c1", "u1", 0)
        assert event_seed("c1", "u1", 100.0) != event_seed("c1", "u2", 100.0)
        assert event_seed("c1", "u1", 100.0) != event_seed("c2", "u1", 100.0)
        assert 0 <= event_seed("c1", "u1", 100.0) < 1 << 64

    @pytest.mark.parametrize("t", STAMPS)
    def test_event_seed_separates_time_and_the_two_ids(self, t):
        assert event_seed("c1", "u1", t) != event_seed("c1", "u1", t + 0.25)
        assert event_seed("a", "b", t) != event_seed("b", "a", t)
        assert event_seed("x", "x", t) != event_seed("x", "y", t) != event_seed("y", "x", t)

    @pytest.mark.parametrize("block_events", [1, 7, 1024])
    def test_position_events_places_each_event_with_its_event_seed(self, monkeypatch, block_events):
        ids = ("c1", "u1", "")
        events = [CdrEvent(u, t, c) for u in ids for c in ids for t in STAMPS]
        towers = {c: TowerSector(c, GeoPoint(38.7, -9.3), 0.0, 120.0, 300.0) for c in ids}
        seeds, place = [], geo._place

        def spy(blocks, *args):
            def seen():
                for given, rows in blocks:
                    assert given.dtype == np.uint64
                    seeds.extend(given.tolist())
                    yield given, rows

            return place(seen(), *args)

        monkeypatch.setattr(geo, "_place", spy)
        monkeypatch.setattr(geo, "_BLOCK_EVENTS", block_events)
        for given in (events, event_columns(events)):
            seeds.clear()
            assert position_events(given, towers) == scalar_positions(events, towers)
            assert seeds == [event_seed(ev.cell_id, ev.user_id, ev.timestamp) for ev in events]

    def test_position_events_deterministic(self):
        towers = {
            "c1": TowerSector("c1", GeoPoint(38.7, -9.3), 0.0, 120.0, 300.0),
        }
        events = [CdrEvent("u1", float(t), "c1") for t in range(0, 600, 60)]
        a = position_events(events, towers)
        b = position_events(events, towers)
        assert a == b
        for ev in a:
            assert haversine_distance(towers["c1"].center, ev.location) <= 300.0

    def test_unknown_cell_raises(self):
        events = [CdrEvent("u1", 0.0, "nope")]
        for given in (events, event_columns(events)):
            with pytest.raises(ValueError, match="unknown cell_id"):
                position_events(given, {})


class TestFileFormats:
    def test_towers_round_trip(self, tmp_path):
        towers = {
            "c1": TowerSector("c1", GeoPoint(38.7, -9.3), 45.0, 120.0, 300.0),
            "c2": TowerSector("c2", GeoPoint(38.8, -9.1), 200.0, 90.0, 500.0),
        }
        path = tmp_path / "towers.csv"
        write_towers_csv(towers.values(), path)
        assert load_towers_csv(path) == towers

    def test_towers_bad_header(self, tmp_path):
        path = tmp_path / "towers.csv"
        path.write_text("cell,latitude\nx,1\n")
        with pytest.raises(ValueError, match="expected header"):
            load_towers_csv(path)

    def test_regions_round_trip(self, tmp_path, two_municipalities):
        path = tmp_path / "regions.geojson"
        write_regions_geojson(two_municipalities.regions(), path)
        loaded = load_regions_geojson(path)
        assert loaded.regions() == two_municipalities.regions()

    def test_multipolygon_round_trip(self, tmp_path):
        # two squares, the first with a square hole
        outer, hole, far = (
            square_region("r", "municipality", lon, 38.0 + inset, 1.0 - 2 * inset).polygons[0][0]
            for lon, inset in ((-10.0, 0.0), (-9.75, 0.25), (-8.0, 0.0))
        )
        region = Region("two", "two", "municipality", None, ((outer, hole), (far,)))
        path = tmp_path / "regions.geojson"
        write_regions_geojson([region], path)
        assert json.loads(path.read_text())["features"][0]["geometry"]["type"] == "MultiPolygon"
        loaded = load_regions_geojson(path)
        assert loaded.regions() == [region]
        assert loaded.assign(GeoPoint(38.5, -7.5), "municipality") == "two"  # second polygon
        assert loaded.assign(GeoPoint(38.5, -9.5), "municipality") is None  # in the hole
        assert loaded.assign(GeoPoint(38.1, -9.9), "municipality") == "two"

    def test_region_ids_are_read_as_text(self, tmp_path):
        # a numeric parent_id names the municipality whose numeric region_id it equals
        doc = {"type": "FeatureCollection", "features": [
            {"properties": {"region_id": region_id, "level": level, "parent_id": parent},
             "geometry": {"type": "Polygon", "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 0]]]}}
            for region_id, level, parent in ((7, "municipality", None), (8, "parish", 7))
        ]}
        path = tmp_path / "regions.geojson"
        path.write_text(json.dumps(doc))
        regions = load_regions_geojson(path).regions()
        assert [(r.region_id, r.parent_id) for r in regions] == [("7", None), ("8", "7")]
        doc["features"][1]["properties"]["parent_id"] = [7]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="parish 8 must reference an existing municipality"):
            load_regions_geojson(path)

    def test_cdr_round_trip(self, tmp_path):
        events = [CdrEvent("u1", 1706745600.0, "c1"), CdrEvent("u2", 1706745660.0, "c2")]
        path = tmp_path / "cdr.csv"
        write_cdr_csv([event_columns(events)], path)
        assert load_cdr_csv(path) == events


class TestLandPositioning:
    def sectors(self):
        rng = random.Random(23)
        towers = {}
        for i in range(40):
            lat = 38.62 + 0.16 * rng.random()
            lon = -9.39 + 0.18 * rng.random()
            if i % 4 == 0:  # on the river banks, facing the water
                lat = rng.choice((38.6935, 38.7065))
            towers[f"t{i:02d}"] = TowerSector(
                f"t{i:02d}", GeoPoint(lat, lon), rng.uniform(0, 360),
                rng.choice((60.0, 120.0, 360.0)), rng.uniform(100, 2500),
            )
        towers["zero"] = TowerSector("zero", GeoPoint(38.65, -9.30), 0.0, 120.0, 0.0)
        # centre on the hole's edge, wedge wholly in the river: centre fallback
        towers["wet"] = TowerSector("wet", GeoPoint(38.695, -9.35), 0.0, 30.0, 500.0)
        towers["island"] = TowerSector("island", GeoPoint(38.700, -9.295), 90.0, 360.0, 200.0)
        return towers

    def events(self, towers, n=2600):
        rng = random.Random(5)
        cells = sorted(towers)
        return [
            CdrEvent(
                f"u{rng.randrange(30)}", 1706745600.0 + rng.randrange(10**6) / 4,
                cells[k % len(cells)],
            )
            for k in range(n)
        ]

    def test_matches_scalar_reference_event_for_event(self):
        towers = self.sectors()
        events = self.events(towers)  # more than two blocks
        got = position_events(events, towers, land=RIVER_LAND)
        assert got == scalar_positions(events, towers, RIVER_LAND)
        assert position_events(event_columns(events), towers, land=RIVER_LAND) == got
        for ev in got:
            assert any(region_contains(r, ev.location) for r in RIVER_LAND)
        centre = towers["wet"].center
        assert all(ev.location == centre for ev in got if ev.cell_id == "wet")
        assert all(ev.location == towers["zero"].center for ev in got if ev.cell_id == "zero")

    def test_output_does_not_depend_on_block_size(self, monkeypatch):
        towers = self.sectors()
        events = self.events(towers, n=1500)
        expected = position_events(events, towers, land=RIVER_LAND)
        for size in (1, 7, 5000):
            monkeypatch.setattr(geo, "_BLOCK_EVENTS", size)
            assert position_events(events, towers, land=RIVER_LAND) == expected

    @pytest.mark.parametrize("block_events", [1, 7, 5000])
    def test_output_does_not_depend_on_row_order(self, monkeypatch, block_events):
        # the seed is a pure function of (cell, user, timestamp), not of an
        # event's place in its block or of the order of the id tables
        towers = self.sectors()
        events = self.events(towers, n=600)
        expected = scalar_positions(events, towers, RIVER_LAND)
        order = list(range(len(events)))
        random.Random(block_events).shuffle(order)
        shuffled = [events[k] for k in order]
        monkeypatch.setattr(geo, "_BLOCK_EVENTS", block_events)
        for given in (shuffled, event_columns(shuffled),
                      event_columns(events).take(np.array(order))):
            assert position_events(given, towers, land=RIVER_LAND) == [expected[k] for k in order]

    def test_overshoot_goes_to_the_centre_like_reference(self):
        # at sub-micrometre radii a few draws overshoot their radius by
        # haversine_distance, and those go to the centre
        for radius in (1e-7, 3e-8):
            sector = TowerSector("c", GeoPoint(38.7, -9.3), 45.0, 120.0, radius)
            towers = {"c": sector}
            events = [CdrEvent("u", float(t), "c") for t in range(3000)]
            got = position_events(events, towers)
            assert got == scalar_positions(events, towers)
            assert max(haversine_distance(sector.center, ev.location) for ev in got) <= radius
            assert 0 < sum(ev.location == sector.center for ev in got) < 100

    def test_ordinary_radii_never_fall_back_to_the_centre(self):
        # criterion 9's sectors, and some of 1,000 km and more
        rng = random.Random(1009)
        towers = {
            f"c{i}": TowerSector(
                f"c{i}", GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179)),
                rng.uniform(0, 360), rng.uniform(1, 360),
                rng.uniform(1, 10000) if i % 50 else rng.uniform(1e6, 2e7),
            )
            for i in range(2000)
        }
        sectors = geo._Sectors(towers)
        rows = np.arange(10000) % len(towers)
        seeds = np.array([rng.getrandbits(64) for _ in rows], dtype=np.uint64)
        blocks = [(seeds, rows)]
        lat, lon, at_centre = geo._place(blocks, len(rows), sectors, None, DEFAULT_CLIP_ATTEMPTS)
        assert not at_centre.any()
        for k, row in enumerate(rows.tolist()):
            sector = sectors.sectors[row]
            assert haversine_distance(sector.center, GeoPoint(lat[k], lon[k])) <= sector.radius_m

    def strip_sectors(self):
        rng = random.Random(29)
        return {
            f"s{i:02d}": TowerSector(
                f"s{i:02d}", GeoPoint(38.7 + rng.uniform(-2e-4, 2e-4), -9.39 + 0.18 * rng.random()),
                rng.uniform(0, 360), rng.choice((30.0, 120.0, 360.0)), rng.uniform(200, 2500),
            )
            for i in range(12)
        }

    @pytest.mark.parametrize("strip", [False, True], ids=["river", "thin_strip"])
    def test_pooled_redraws_do_not_depend_on_block_size(self, monkeypatch, strip):
        # first draws go by block, later attempts by blocks of the pooled
        # events still off land; neither may move a point
        land = THIN_STRIP if strip else RIVER_LAND
        towers = self.strip_sectors() if strip else self.sectors()
        events = self.events(towers, n=400)
        expected = scalar_positions(events, towers, land)
        if strip:  # some events exhaust their attempts and fall back to the centre
            assert any(ev.location == towers[ev.cell_id].center for ev in expected)
        for size in (1, 7, 1024, len(events) + 1):
            monkeypatch.setattr(geo, "_BLOCK_EVENTS", size)
            assert position_events(events, towers, land=land) == expected

    def test_nanometre_radii_finish_within_the_radius(self, monkeypatch):
        # each draw is measured once, so a nanometre sector costs the libm
        # calls of a 100 m one
        for radius in (1e-9, 1e-10):
            sector = TowerSector("c", GeoPoint(38.7, -9.3), 45.0, 120.0, radius)
            events = [CdrEvent("u", float(t), "c") for t in range(100)]
            start = time.perf_counter()
            got = position_events(events, {"c": sector})
            assert time.perf_counter() - start < 1.0
            assert all(haversine_distance(sector.center, ev.location) <= radius for ev in got)
        libm, calls = geo._libm, []

        def counted(f, *arrays):
            calls.append(len(arrays[0]))
            return libm(f, *arrays)

        monkeypatch.setattr(geo, "_libm", counted)
        work = {}
        for radius in (1e-10, 100.0):
            sector = TowerSector("c", GeoPoint(38.7, -9.3), 45.0, 120.0, radius)
            calls.clear()
            position_events([CdrEvent("u", float(t), "c") for t in range(4096)], {"c": sector})
            work[radius] = (len(calls), sum(calls))
        assert work[1e-10] == work[100.0]
        assert work[100.0][0] > 0

    def test_land_free_matches_scalar_reference(self):
        towers = self.sectors()
        events = self.events(towers, n=1500)
        expected = scalar_positions(events, towers)
        assert position_events(events, towers) == expected
        assert position_events(event_columns(events), towers) == expected

    def test_clipping_exhausted_names_the_first_failing_sector(self):
        towers = self.sectors()
        towers["sea"] = TowerSector("sea", GeoPoint(10.0, 10.0), 0.0, 120.0, 500.0)
        events = self.events(towers, n=1500)
        first = next(ev for ev in events if ev.cell_id == "sea")
        with pytest.raises(ClippingExhausted, match="sector sea after 64 attempts"):
            scalar_positions(events, towers, RIVER_LAND)
        with pytest.raises(ClippingExhausted, match="sector sea after 64 attempts"):
            position_events(events, towers, land=RIVER_LAND)
        with pytest.raises(ClippingExhausted):
            position_events([first], towers, land=RIVER_LAND)

    def test_errors_come_in_event_order(self, monkeypatch):
        # events before an unknown cell are placed first, as one at a time would
        towers = self.sectors()
        towers["sea"] = TowerSector("sea", GeoPoint(10.0, 10.0), 0.0, 120.0, 500.0)
        monkeypatch.setattr(geo, "_BLOCK_EVENTS", 4)
        land = [CdrEvent("u", float(t), "t01") for t in range(4)]
        sea, ghost = CdrEvent("u", 10.0, "sea"), CdrEvent("u", 11.0, "ghost")
        with pytest.raises(ClippingExhausted, match="sector sea"):
            position_events([sea, ghost], towers, land=RIVER_LAND)
        for events in ([ghost, sea], land + [ghost, sea]):
            with pytest.raises(ValueError, match="unknown cell_id 'ghost'"):
                position_events(events, towers, land=RIVER_LAND)

    def test_clipping_exhausted_names_the_first_failing_event_across_blocks(self, monkeypatch):
        towers = self.sectors()
        for name, lat in (("sea_a", 10.0), ("sea_b", 11.0)):
            towers[name] = TowerSector(name, GeoPoint(lat, 10.0), 0.0, 120.0, 500.0)
        ghost = CdrEvent("u", 99.0, "ghost")
        ok = [CdrEvent("u", float(t), "t01") for t in range(8)]
        monkeypatch.setattr(geo, "_BLOCK_EVENTS", 4)
        for first, second in (("sea_a", "sea_b"), ("sea_b", "sea_a")):
            # blocks of 4: the first failing event in block 0, the other in block 2
            events = ok[:2] + [CdrEvent("u", 20.0, first)] + ok[2:7] + [CdrEvent("u", 21.0, second)]
            for case in (events, events + [ghost], events[:5] + [ghost] + events[5:]):
                with pytest.raises(ClippingExhausted, match=f"sector {first} after 64 attempts"):
                    position_events(case, towers, land=RIVER_LAND)
            with pytest.raises(ValueError, match="unknown cell_id 'ghost'"):
                position_events(events[:2] + [ghost] + events[2:], towers, land=RIVER_LAND)

    def test_output_does_not_depend_on_tower_order(self):
        towers = self.sectors()
        events = self.events(towers, n=1500)
        reverse = dict(reversed(towers.items()))
        assert position_events(events, reverse, land=RIVER_LAND) == position_events(
            events, towers, land=RIVER_LAND
        )

    def test_sample_sector_point_matches_reference(self):
        rng = random.Random(41)
        towers = self.sectors()
        for _ in range(200):
            sector = towers[rng.choice(sorted(towers))]
            seed = rng.getrandbits(64)
            expected = ScalarSampler(sector).point(seed, RIVER_LAND, 8)
            assert sample_sector_point(sector, seed, RIVER_LAND, 8) == expected


coordinate = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def ring_coords(draw):
    return draw(st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=40))


@st.composite
def land_and_points(draw):
    regions = []
    for i in range(draw(st.integers(1, 3))):
        polygons = []
        for _ in range(draw(st.integers(1, 2))):
            rings = [ring(*draw(ring_coords())) for _ in range(draw(st.integers(1, 3)))]
            polygons.append(tuple(rings))
        regions.append(Region(f"R{i}", f"R{i}", "municipality", None, tuple(polygons)))
    segments = [
        (a, b)
        for region in regions for polygon in region.polygons for r in polygon
        for a, b in zip(r, r[1:])
    ]
    points = draw(st.lists(st.tuples(coordinate, coordinate), max_size=30))
    for _ in range(draw(st.integers(0, 30))):  # vertices and points along edges
        a, b = draw(st.sampled_from(segments))
        t = draw(st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 1.0)))
        points.append((a.lon + t * (b.lon - a.lon), a.lat + t * (b.lat - a.lat)))
    return regions, points


def linear_assign(index, p, level):
    """The first region in region_id order whose bounding box and polygon hold p."""
    for region in index.regions(level):
        minx, miny, maxx, maxy = RegionIndex._bbox(region)
        if minx <= p.lon <= maxx and miny <= p.lat <= maxy and region_contains(region, p):
            return region.region_id
    return None


@st.composite
def regions_and_points(draw):
    """Overlapping and edge-sharing regions on a quarter-degree lattice, and points
    at their vertices, along their edges, on bucket edges and outside them all."""
    regions, points = draw(land_and_points())
    regions = [Region(f"R{k}", f"R{k}", "municipality", None, r.polygons)
               for k, r in zip(draw(st.permutations(range(len(regions)))), regions)]
    for k in range(draw(st.integers(0, 4))):  # squares that share edges with each other
        x, y = draw(coordinate), draw(coordinate)
        size = draw(st.sampled_from([0.25, 0.5, 1.0]))
        regions.append(Region(f"S{k}", f"S{k}", "municipality", None, (
            (ring((x, y), (x + size, y), (x + size, y + size), (x, y + size)),),
        )))
        points += [(x + size, y + size / 2), (x + size, y)]
    grid = RegionIndex(regions)._grids["municipality"]
    for _ in range(draw(st.integers(0, 10))):
        cx, cy = draw(st.integers(-1, 12)), draw(st.integers(-1, 12))
        points.append((grid._x0 + cx * grid._w, grid._y0 + cy * grid._h))
    points += [(draw(st.floats(-170, 170)), draw(st.sampled_from([-80.0, 80.0])))]
    return regions, points


class TestBucketedAssign:
    @settings(max_examples=200, deadline=None)
    @given(regions_and_points())
    def test_equals_linear_scan(self, case):
        regions, points = case
        index = RegionIndex(regions)
        for x, y in points:
            p = GeoPoint(y, x)
            assert index.assign(p, "municipality") == linear_assign(index, p, "municipality")

    def test_shared_edge_smallest_id_wins_in_every_bucket(self):
        # a 12 x 12 tiling, ids in reverse order of position
        tiles = [square_region(f"T{999 - (i * 12 + j):03d}", "municipality", i * 0.5, j * 0.5, 0.5)
                 for i in range(12) for j in range(12)]
        index = RegionIndex(tiles)
        for i in range(13):
            for j in range(13):
                for dx, dy in ((0, 0), (0.25, 0), (0, 0.25)):  # vertices and edge midpoints
                    p = GeoPoint(j * 0.5 + dy, i * 0.5 + dx)
                    assert index.assign(p, "municipality") == linear_assign(index, p, "municipality")

    def test_unknown_level_and_outside_points(self, two_municipalities):
        assert two_municipalities.assign(GeoPoint(0.5, 0.5), "parish") is None
        for level in ("parsh", "Municipality", ""):
            with pytest.raises(ValueError, match=f"^unknown region level: {level}$"):
                two_municipalities.assign(GeoPoint(0.5, 0.5), level)
        for p in (GeoPoint(-0.5, 0.5), GeoPoint(0.5, 2.5), GeoPoint(89.0, 179.0)):
            assert two_municipalities.assign(p, "municipality") is None


class TestArrayLandTest:
    @settings(max_examples=200, deadline=None)
    @given(land_and_points())
    def test_equals_region_contains(self, case):
        regions, points = case
        lon = np.array([x for x, _ in points], dtype=np.float64)
        lat = np.array([y for _, y in points], dtype=np.float64)
        got = _Land(regions).contains(lon, lat).tolist()
        expected = [
            any(region_contains(r, GeoPoint(y, x)) for r in regions) for x, y in points
        ]
        assert got == expected

    def test_box_cut_equals_region_contains_on_adversarial_points(self):
        # a square with an L-shaped hole, a region of two polygons, one of
        # them not convex, and a ring nearly as wide as the globe
        regions = [
            Region("L", "L", "municipality", None, ((
                ring((0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)),
                ring((1.0, 1.0), (3.0, 1.0), (3.0, 2.0), (2.0, 2.0), (2.0, 3.0), (1.0, 3.0)),
            ),)),
            Region("M", "M", "municipality", None, (
                (ring((5.0, 0.0), (6.0, 0.0), (6.0, 1.0), (5.0, 1.0)),),
                (ring((5.0, 2.0), (7.0, 2.5), (6.0, 3.0), (6.5, 2.5)),),
            )),
            Region("W", "W", "municipality", None, (
                (ring((-179.5, -60.0), (179.5, -59.0), (179.25, -50.0), (-179.0, -50.5)),),
            )),
        ]
        points = []
        for region in regions:
            for polygon in region.polygons:
                for r in polygon:
                    lats = sorted({v.lat for v in r})
                    lats += [(a + b) / 2 for a, b in zip(lats, lats[1:])]
                    for a, b in zip(r, r[1:]):  # vertices and points along edges
                        points += [(a.lon + t * (b.lon - a.lon), a.lat + t * (b.lat - a.lat))
                                   for t in (0.0, 0.25, 0.5)]
                    (lo_x, hi_x, lo_y, hi_y), _ = geo._ring_segments(r)
                    for x in (lo_x, hi_x):  # within 1 ulp of each box edge
                        for x in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
                            points += [(x, y) for y in lats]
                    for y in (lo_y, hi_y):
                        for y in (np.nextafter(y, -np.inf), y, np.nextafter(y, np.inf)):
                            points += [(v.lon, y) for v in r]
                    # left of the ring at its latitudes: every edge the ray meets is crossed
                    points += [(x, y) for x in (lo_x - 0.5, lo_x - 1e-9) for y in lats]
        points = [(float(x), float(y)) for x, y in points if -180.0 <= x <= 180.0]
        lon = np.array([x for x, _ in points], dtype=np.float64)
        lat = np.array([y for _, y in points], dtype=np.float64)
        got = _Land(regions).contains(lon, lat).tolist()
        expected = [
            any(region_contains(r, GeoPoint(y, x)) for r in regions) for x, y in points
        ]
        assert got == expected
        assert 0 < sum(expected) < len(expected)

    def test_hole_rules(self):
        # land, river, river bank, island, island corner, east region, gap, hole edge
        points = [(-9.30, 38.65), (-9.33, 38.700), (-9.30, 38.695), (-9.295, 38.700),
                  (-9.29, 38.701), (-9.05, 38.65), (-9.15, 38.65), (-9.38, 38.700)]
        got = _Land(RIVER_LAND).contains(
            np.array([p[0] for p in points]), np.array([p[1] for p in points])
        ).tolist()
        assert got == [True, False, True, True, True, True, False, True]
