import math
import random

import pytest

from cdrflow.errors import ClippingExhausted
from cdrflow.geo import (
    EARTH_RADIUS_M,
    CdrEvent,
    GeoPoint,
    RegionIndex,
    TowerSector,
    bearing_within_wedge,
    destination_point,
    event_seed,
    haversine_distance,
    initial_bearing,
    load_cdr_csv,
    load_regions_geojson,
    load_towers_csv,
    position_events,
    region_contains,
    sample_sector_point,
    write_cdr_csv,
    write_regions_geojson,
    write_towers_csv,
)

from conftest import square_region


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


class TestEventSeedAndPositioning:
    def test_event_seed_stable(self):
        assert event_seed("c1", "u1", 100.0) == event_seed("c1", "u1", 100)
        assert event_seed("c1", "u1", 100.0) != event_seed("c1", "u2", 100.0)

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
        with pytest.raises(ValueError, match="unknown cell_id"):
            position_events([CdrEvent("u1", 0.0, "nope")], {})


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

    def test_cdr_round_trip(self, tmp_path):
        events = [CdrEvent("u1", 1706745600.0, "c1"), CdrEvent("u2", 1706745660.0, "c2")]
        path = tmp_path / "cdr.csv"
        write_cdr_csv(events, path)
        assert load_cdr_csv(path) == events
