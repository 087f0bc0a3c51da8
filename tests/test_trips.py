import math
import random

import pytest

from cdrflow.records import GeoPoint, PositionedEvent, destination_point, haversine_distance
from cdrflow.stays import Staypoint
from cdrflow.trips import (
    ModeThresholds,
    Trip,
    Tripleg,
    assemble_trips,
    build_trips,
    derive_triplegs,
    label_mode,
    load_trips_csv,
    write_triplegs_csv,
    write_trips_csv,
)

BASE = GeoPoint(38.70, -9.30)


def sp(sp_id, user, loc, point, t_start, t_end, muni=None):
    return Staypoint(
        staypoint_id=sp_id, user_id=user, location_id=loc, median=point,
        t_start=float(t_start), t_end=float(t_end), region_municipality=muni,
    )


def east(m):
    return destination_point(BASE, 90.0, m)


def leg(leg_id, user, o, d, t0, t1, length, speed, mode="car"):
    return Tripleg(
        tripleg_id=leg_id, user_id=user, origin_staypoint=o, dest_staypoint=d,
        t_start=float(t0), t_end=float(t1), path_length_m=length,
        avg_speed_kmh=speed, mode=mode,
    )


class TestModeThresholds:
    @pytest.mark.parametrize(
        "speed,length,expected",
        [
            (4.0, 500.0, "walk"),
            (70.0, 12000.0, "train"),
            (22.0, 6000.0, "bus"),
            (6.99, 100.0, "walk"),
            (7.0, 100.0, "bicycle"),
            (15.0, 1000.0, "bus"),
            (27.0, 2000.0, "bus"),      # 27-45 band, short leg
            (27.0, 3000.0, "car"),      # 27-45 band, long leg
            (45.0, 7999.0, "car"),      # 45-60 band, short leg
            (45.0, 8000.0, "train"),    # 45-60 band, long leg
            (60.0, 500.0, "train"),
        ],
    )
    def test_decision_table(self, speed, length, expected):
        table = ModeThresholds()
        assert table.classify(speed, length, duration_s=600.0) == expected

    def test_short_duration_unknown(self):
        assert ModeThresholds().classify(30.0, 400.0, duration_s=59.0) == "unknown"

    def test_every_pair_maps_to_exactly_one_mode(self):
        table = ModeThresholds()
        rng = random.Random(2)
        for _ in range(2000):
            mode = table.classify(rng.uniform(0, 120), rng.uniform(1, 20000), 600.0)
            assert mode in ("walk", "bicycle", "bus", "car", "train")

    def test_bands_must_increase(self):
        with pytest.raises(ValueError):
            ModeThresholds(walk_max_kmh=20.0, bicycle_max_kmh=10.0)

    def test_thresholds_may_be_infinite_but_not_nan(self):
        assert ModeThresholds(car_max_kmh=math.inf).classify(500.0, 100.0, 600.0) == "car"
        with pytest.raises(ValueError, match="ModeThresholds.bus_max_length_m must be a number"):
            ModeThresholds(bus_max_length_m=math.nan)

    def test_label_mode_lookup(self):
        the_leg = leg("l0", "u", "a", "b", 0, 600, 700.0, 4.2, mode="unknown")
        assert label_mode(the_leg, ModeThresholds()) == "walk"


class TestDeriveTriplegs:
    def test_pair_with_moving_points_chains_path(self):
        a = sp("sp0", "u", "L0", BASE, 0, 1000)
        b = sp("sp1", "u", "L1", east(4000.0), 2000, 3000)
        moving = [
            PositionedEvent("u", 1200.0, "c", east(1000.0)),
            PositionedEvent("u", 1400.0, "c", east(2000.0)),
            PositionedEvent("u", 1600.0, "c", east(3000.0)),
        ]
        legs = derive_triplegs([a, b], moving)
        assert len(legs) == 1
        chain = [a.median] + [m.location for m in moving] + [b.median]
        expected = sum(haversine_distance(p, q) for p, q in zip(chain, chain[1:]))
        assert legs[0].path_length_m == pytest.approx(expected, abs=1e-9)
        assert legs[0].t_start == 1000.0 and legs[0].t_end == 2000.0
        assert legs[0].avg_speed_kmh == pytest.approx(expected / 1000.0 * 3.6)

    def test_same_location_no_moving_no_leg(self):
        a = sp("sp0", "u", "L0", BASE, 0, 1000)
        b = sp("sp1", "u", "L0", east(10.0), 2000, 3000)
        assert derive_triplegs([a, b], []) == []

    def test_same_location_with_moving_yields_leg(self):
        a = sp("sp0", "u", "L0", BASE, 0, 1000)
        b = sp("sp1", "u", "L0", east(10.0), 2000, 3000)
        moving = [PositionedEvent("u", 1500.0, "c", east(2000.0))]
        assert len(derive_triplegs([a, b], moving)) == 1

    def test_three_staypoints_chain(self):
        sps = [
            sp("sp0", "u", "L0", BASE, 0, 1000),
            sp("sp1", "u", "L1", east(3000.0), 1400, 2400),
            sp("sp2", "u", "L2", east(6000.0), 2800, 3800),
        ]
        legs = derive_triplegs(sps, [])
        assert len(legs) == 2
        assert legs[0].dest_staypoint == legs[1].origin_staypoint == "sp1"


    def test_matches_full_scan_on_random_traces(self):
        def scan(staypoints, moving):
            # every moving event tested against every staypoint pair
            moving = sorted(moving, key=lambda e: e.timestamp)
            out = []
            for a, b in zip(staypoints, staypoints[1:]):
                between = [e for e in moving if a.t_end < e.timestamp < b.t_start]
                if (a.location_id == b.location_id and not between) or b.t_start <= a.t_end:
                    continue
                chain = [a.median] + [e.location for e in between] + [b.median]
                path = sum(haversine_distance(p, q) for p, q in zip(chain, chain[1:]))
                out.append((a.staypoint_id, b.staypoint_id, path))
            return out

        rng = random.Random(17)
        for _ in range(200):
            sps, t = [], 0
            for i in range(rng.randint(0, 8)):
                t += rng.choice((0, 0, 60, 300))  # abutting pairs included
                start, t = t, t + rng.choice((0, 60, 600))
                sps.append(sp(f"sp{i}", "u", f"L{rng.randrange(3)}", east(rng.uniform(0, 5000)),
                              start, t))
            edges = [s.t_start for s in sps] + [s.t_end for s in sps]
            moving = [
                PositionedEvent("u", float(rng.choice(edges) if edges and rng.random() < 0.4
                                           else rng.randint(0, t + 60)),
                                "c", east(rng.uniform(0, 5000)))
                for _ in range(rng.randint(0, 30))
            ]
            legs = derive_triplegs(sps, moving)
            got = [(leg.origin_staypoint, leg.dest_staypoint, leg.path_length_m) for leg in legs]
            assert got == scan(sps, moving)


class TestAssembleTrips:
    def test_short_gap_merges(self):
        legs = [
            leg("l0", "u", "sp0", "sp1", 0, 600, 3000.0, 18.0),
            leg("l1", "u", "sp1", "sp2", 900, 1500, 3000.0, 18.0),  # 5-min gap
        ]
        trips = assemble_trips(legs, gap_threshold=15 * 60)
        assert len(trips) == 1
        assert len(trips[0].triplegs) == 2
        assert trips[0].origin_staypoint == "sp0"
        assert trips[0].dest_staypoint == "sp2"

    def test_long_gap_splits(self):
        legs = [
            leg("l0", "u", "sp0", "sp1", 0, 600, 3000.0, 18.0),
            leg("l1", "u", "sp1", "sp2", 7800, 8400, 3000.0, 18.0),  # 2-h gap
        ]
        assert len(assemble_trips(legs, gap_threshold=15 * 60)) == 2

    def test_single_leg_identity(self):
        only = leg("l0", "u", "sp0", "sp1", 0, 600, 3000.0, 18.0)
        trips = assemble_trips([only])
        assert len(trips) == 1
        t = trips[0]
        assert (t.origin_staypoint, t.dest_staypoint) == ("sp0", "sp1")
        assert (t.t_start, t.t_end) == (0.0, 600.0)

    def test_broken_chain_splits_despite_short_gap(self):
        legs = [
            leg("l0", "u", "sp0", "sp1", 0, 600, 3000.0, 18.0),
            leg("l1", "u", "sp9", "sp2", 700, 1300, 3000.0, 18.0),
        ]
        assert len(assemble_trips(legs, gap_threshold=15 * 60)) == 2

    def test_partition_property(self):
        rng = random.Random(4)
        legs = []
        t = 0
        prev_dest = "sp0"
        for i in range(40):
            t += rng.randint(60, 4000)
            t1 = t + rng.randint(120, 900)
            legs.append(leg(f"l{i}", "u", prev_dest, f"sp{i + 1}", t, t1, 2000.0, 15.0))
            prev_dest = f"sp{i + 1}"
            t = t1
        trips = assemble_trips(legs, gap_threshold=1500)
        assert sum(len(t.triplegs) for t in trips) == len(legs)
        seen = [l.tripleg_id for t in trips for l in t.triplegs]
        assert seen == [l.tripleg_id for l in legs]
        assert assemble_trips(legs, gap_threshold=1500) == trips  # idempotent

    def test_primary_mode_longest_leg(self):
        t = Trip(
            trip_id="t0", user_id="u",
            triplegs=(
                leg("l0", "u", "sp0", "sp1", 0, 600, 1000.0, 6.0, mode="walk"),
                leg("l1", "u", "sp1", "sp2", 700, 1300, 9000.0, 54.0, mode="car"),
            ),
            origin_staypoint="sp0", dest_staypoint="sp2", t_start=0.0, t_end=1300.0,
        )
        assert t.primary_mode == "car"


class TestInvariants:
    def test_tripleg_needs_a_positive_duration_and_a_known_mode(self):
        with pytest.raises(ValueError, match="tripleg l0: t_end must exceed t_start"):
            leg("l0", "u", "a", "b", 10, 10, 100.0, 36.0)
        with pytest.raises(ValueError, match="tripleg l0: unknown mode 'jetpack'"):
            leg("l0", "u", "a", "b", 0, 10, 100.0, 36.0, mode="jetpack")
        assert leg("l0", "u", "a", "b", 0, 10, 0.0, 0.0).path_length_m == 0.0
        for length, speed in [(math.nan, 36.0), (-1.0, 36.0), (math.inf, 36.0), (100.0, math.nan),
                              (100.0, -0.5), (100.0, math.inf)]:
            with pytest.raises(ValueError, match="tripleg l0: path_length_m and avg_speed_kmh"):
                leg("l0", "u", "a", "b", 0, 10, length, speed)

    def test_trip_needs_legs_in_time_order_and_unbroken(self):
        first = leg("l0", "u", "a", "b", 0, 10, 100.0, 36.0)
        assert Trip("t", "u", (first, leg("l1", "u", "b", "c", 10, 20, 100.0, 36.0)),
                    "a", "c", 0.0, 20.0).primary_mode == "car"  # abutting legs are fine
        for legs, message in [
            ((), "needs at least one tripleg"),
            ((first, leg("l1", "u", "b", "c", 9, 20, 100.0, 36.0)), "triplegs overlap in time"),
            ((first, leg("l1", "u", "x", "c", 10, 20, 100.0, 36.0)), "tripleg chain is broken"),
            ((first, leg("l1", "v", "b", "c", 10, 20, 100.0, 36.0)),
             "tripleg l1 is of user 'v', not 'u'"),
        ]:
            with pytest.raises(ValueError, match=f"trip t: {message}"):
                Trip("t", "u", legs, "a", "c", 0.0, 20.0)

    def test_derive_triplegs_takes_one_user(self):
        sps = [sp("sp0", "u1", "L0", BASE, 0, 1000), sp("sp1", "u2", "L1", east(3000.0), 1500, 2500)]
        with pytest.raises(ValueError, match="single user"):
            derive_triplegs(sps, [])


class TestBuildTrips:
    def test_multi_user_numbering(self):
        sps = []
        for u in ("u1", "u2"):
            sps += [
                sp(f"{u}a", u, "L0", BASE, 0, 1000),
                sp(f"{u}b", u, "L1", east(3000.0), 1500, 2500),
            ]
        trips = build_trips(sps, [])
        assert [t.trip_id for t in trips] == ["trip000000", "trip000001"]
        assert [t.user_id for t in trips] == ["u1", "u2"]

    def test_csv_round_trip(self, tmp_path):
        sps = [
            sp("sp0", "u", "L0", BASE, 0, 1000, muni="A"),
            sp("sp1", "u", "L1", east(3000.0), 1500, 2500, muni="B"),
            sp("sp2", "u", "L2", east(6000.0), 2700, 3700, muni="A"),
        ]
        trips = build_trips(sps, [])
        write_trips_csv(trips, tmp_path / "trips.csv")
        write_triplegs_csv(trips, tmp_path / "triplegs.csv")
        loaded = load_trips_csv(tmp_path / "trips.csv", tmp_path / "triplegs.csv")
        assert loaded == trips

    def test_heuristic_flag_in_export(self, tmp_path):
        sps = [
            sp("sp0", "u", "L0", BASE, 0, 1000),
            sp("sp1", "u", "L1", east(3000.0), 1500, 2500),
        ]
        trips = build_trips(sps, [])
        write_trips_csv(trips, tmp_path / "trips.csv")
        body = (tmp_path / "trips.csv").read_text()
        assert body.splitlines()[0].endswith("heuristic")
        assert all(line.endswith("true") for line in body.splitlines()[1:])
