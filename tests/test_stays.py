import logging
import random

import pytest

from cdrflow.errors import UnsortedInput
from cdrflow.geo import GeoPoint, PositionedEvent, destination_point, haversine_distance
from cdrflow.stays import (
    Stop,
    StopParams,
    build_staypoints,
    cluster_destinations,
    detect_stops,
    load_staypoints_csv,
    moving_events,
    write_staypoints_csv,
)

from conftest import square_region
from cdrflow.geo import RegionIndex

BASE = GeoPoint(38.70, -9.30)


def ev(user, t, point):
    return PositionedEvent(user_id=user, timestamp=float(t), cell_id="c", location=point)


def offset(point, east_m=0.0, north_m=0.0):
    p = destination_point(point, 90.0, east_m) if east_m else point
    return destination_point(p, 0.0, north_m) if north_m else p


class TestStopParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            StopParams(r1=0)

    def test_r2_below_r1_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="cdrflow.stays"):
            StopParams(r1=500, r2=100)
        assert any("r2" in rec.message for rec in caplog.records)


class TestDetectStops:
    def test_pure_dwell(self):
        params = StopParams(min_duration=600)
        events = [ev("u", t * 200, BASE) for t in range(10)]  # 30 min span
        stops = detect_stops(events, params)
        assert len(stops) == 1
        assert stops[0].n_events == 10
        assert stops[0].median == BASE
        assert stops[0].t_start == 0.0 and stops[0].t_end == 1800.0

    def test_pure_motion(self):
        params = StopParams(r1=50)
        events = [ev("u", i * 60, offset(BASE, east_m=1000.0 * i)) for i in range(10)]
        assert detect_stops(events, params) == []

    def test_two_planted_dwells_match_grouping_oracle(self):
        params = StopParams(r1=300, min_duration=600, max_gap=3600)
        cluster_a = BASE
        cluster_b = offset(BASE, east_m=5000.0)
        events = []
        t = 0
        for _ in range(10):  # 20-min dwell at A (jitter well below r1)
            events.append(ev("u", t, offset(cluster_a, east_m=(t % 3) * 20.0)))
            t += 133
        for k in range(3):  # moving points between
            events.append(ev("u", t, offset(cluster_a, east_m=1200.0 + 1300.0 * k)))
            t += 120
        for _ in range(10):  # 20-min dwell at B
            events.append(ev("u", t, offset(cluster_b, east_m=(t % 3) * 20.0)))
            t += 133
        stops = detect_stops(events, params)

        # independent brute-force grouping oracle for the planted fixture:
        # maximal runs of consecutive events within r1 of the run's first
        # event with gaps <= max_gap, kept when spanning >= min_duration
        oracle = []
        i = 0
        while i < len(events):
            j = i + 1
            while j < len(events):
                close = haversine_distance(events[i].location, events[j].location) <= params.r1
                if not close or events[j].timestamp - events[j - 1].timestamp > params.max_gap:
                    break
                j += 1
            if events[j - 1].timestamp - events[i].timestamp >= params.min_duration:
                oracle.append((i, j))
                i = j
            else:
                i += 1
        assert len(stops) == len(oracle) == 2
        for stop, (i, j), center in zip(stops, oracle, (cluster_a, cluster_b)):
            assert stop.n_events == j - i
            assert haversine_distance(stop.median, center) <= params.r1

    def test_max_gap_splits(self):
        params = StopParams(min_duration=600, max_gap=600)
        events = [ev("u", t, BASE) for t in (0, 300, 700, 5000, 5300, 5700)]
        stops = detect_stops(events, params)
        assert len(stops) == 2
        assert stops[0].t_end == 700.0
        assert stops[1].t_start == 5000.0

    def test_unsorted_raises(self):
        events = [ev("u", 100, BASE), ev("u", 50, BASE)]
        with pytest.raises(UnsortedInput):
            detect_stops(events, StopParams())

    def test_mixed_users_raise(self):
        events = [ev("u1", 0, BASE), ev("u2", 10, BASE)]
        with pytest.raises(ValueError, match="single user"):
            detect_stops(events, StopParams())

    def test_disjoint_and_member_containment(self):
        rng = random.Random(9)
        params = StopParams(r1=200, min_duration=300, max_gap=900)
        events = []
        t = 0
        anchor = BASE
        for phase in range(8):
            if phase % 2 == 0:
                for _ in range(rng.randint(3, 20)):
                    events.append(
                        ev("u", t, offset(anchor, east_m=rng.uniform(-80, 80),
                                          north_m=rng.uniform(-80, 80)))
                    )
                    t += rng.randint(30, 400)
            else:
                anchor = offset(anchor, east_m=rng.uniform(2000, 4000))
                t += rng.randint(30, 600)
        stops = detect_stops(events, params)
        for a, b in zip(stops, stops[1:]):
            assert a.t_end < b.t_start  # disjoint, ordered
        for stop in stops:
            members = [e for e in events if stop.t_start <= e.timestamp <= stop.t_end]
            for m in members:
                assert haversine_distance(stop.median, m.location) <= params.r1 + 1e-6


class TestMovingEvents:
    def test_complement_of_stops(self):
        params = StopParams(r1=100, min_duration=600, max_gap=3600)
        dwell = [ev("u", t * 200, BASE) for t in range(10)]
        far = offset(BASE, east_m=3000.0)
        motion = [ev("u", 2000 + k, offset(far, east_m=900.0 * k)) for k in range(3)]
        events = dwell + motion
        stops = detect_stops(events, params)
        mv = moving_events(events, stops)
        assert mv == motion


class TestClusterDestinations:
    def make_stop(self, user, t, point):
        return Stop(user_id=user, median=point, t_start=float(t), t_end=float(t) + 600.0,
                    n_events=3)

    def test_close_pair_single_cluster(self):
        stops = [
            self.make_stop("u", 0, BASE),
            self.make_stop("u", 1000, offset(BASE, east_m=10.0)),
        ]
        assert cluster_destinations(stops, 100.0) == ["L0", "L0"]

    def test_far_pair_distinct(self):
        stops = [
            self.make_stop("u", 0, BASE),
            self.make_stop("u", 1000, offset(BASE, east_m=1000.0)),
        ]
        assert cluster_destinations(stops, 100.0) == ["L0", "L1"]

    def test_chain_transitivity(self):
        stops = [
            self.make_stop("u", 0, BASE),
            self.make_stop("u", 1000, offset(BASE, east_m=80.0)),
            self.make_stop("u", 2000, offset(BASE, east_m=160.0)),
        ]
        assert cluster_destinations(stops, 100.0) == ["L0", "L0", "L0"]

    def test_label_order_by_earliest_start(self):
        stops = [
            self.make_stop("u", 5000, offset(BASE, east_m=5000.0)),  # later but first in list
            self.make_stop("u", 0, BASE),
        ]
        assert cluster_destinations(stops, 100.0) == ["L1", "L0"]

    def test_brute_force_oracle_equivalence(self):
        rng = random.Random(77)
        for trial in range(5):
            n = 1000 if trial == 4 else rng.randint(2, 300)
            stops = [
                self.make_stop(
                    f"u{rng.randint(0, 5)}",
                    rng.randint(0, 100000),
                    offset(BASE, east_m=rng.uniform(0, 3000), north_m=rng.uniform(0, 3000)),
                )
                for _ in range(n)
            ]
            r2 = rng.uniform(50, 600)
            got = cluster_destinations(stops, r2)

            # oracle: quadratic union-find over haversine pairs, then label
            # components by earliest start with the same tie-break
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for i in range(n):
                for j in range(i + 1, n):
                    if haversine_distance(stops[i].median, stops[j].median) <= r2:
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[rj] = ri
            order = sorted(
                range(n),
                key=lambda k: (stops[k].t_start, stops[k].user_id, stops[k].t_end,
                               stops[k].median.lat, stops[k].median.lon),
            )
            labels = {}
            for k in order:
                root = find(k)
                if root not in labels:
                    labels[root] = f"L{len(labels)}"
            expected = [labels[find(i)] for i in range(n)]
            assert got == expected, f"trial {trial}"

    def test_empty(self):
        assert cluster_destinations([], 100.0) == []


class TestBuildStaypoints:
    def region_index(self):
        # "Oeiras" municipality around BASE
        return RegionIndex(
            [square_region("Oeiras", "municipality", -9.35, 38.65, 0.1)]
        )

    def test_empty_input(self):
        assert build_staypoints([], StopParams()) == []

    def test_single_dwell_with_region(self):
        events = [ev("u1", t * 200, BASE) for t in range(10)]
        sps = build_staypoints(events, StopParams(), regions=self.region_index())
        assert len(sps) == 1
        sp = sps[0]
        assert sp.user_id == "u1"
        assert sp.region_municipality == "Oeiras"
        assert sp.region_parish is None
        assert sp.staypoint_id == "sp000000"

    def test_idempotent_on_event_count(self):
        for n in (5, 20, 100):  # same 20-min span regardless of event count
            step = 1200 / (n - 1)
            events = [ev("u1", round(k * step), BASE) for k in range(n)]
            sps = build_staypoints(events, StopParams())
            assert len(sps) == 1
            assert sps[0].t_end - sps[0].t_start == 1200.0

    def test_deterministic_ids_and_labels(self):
        rng = random.Random(3)
        events = []
        for u in range(4):
            t = 0
            for _ in range(30):
                events.append(
                    ev(f"u{u}", t, offset(BASE, east_m=(u % 2) * 2000.0 + rng.uniform(0, 50)))
                )
                t += 120
        a = build_staypoints(list(events), StopParams())
        b = build_staypoints(list(events), StopParams())
        assert a == b
        ids = [sp.staypoint_id for sp in a]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)

    def test_csv_round_trip(self, tmp_path):
        events = [ev("u1", t * 200, BASE) for t in range(10)]
        sps = build_staypoints(events, StopParams(), regions=self.region_index())
        path = tmp_path / "staypoints.csv"
        write_staypoints_csv(sps, path)
        assert load_staypoints_csv(path) == sps
