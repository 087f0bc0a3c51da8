import logging
import math
import random
import re
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrflow.errors import UnsortedInput
from cdrflow.records import (
    EventColumns,
    GeoPoint,
    PositionedEvent,
    destination_point,
    event_columns,
    haversine_distance,
    haversine_m,
    haversine_m_array,
)
from cdrflow import stays as stays_module
from cdrflow.stays import (
    Stop,
    StopParams,
    _grid_pairs,
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


def forms(events):
    """The records and their positioned EventColumns: detect_stops takes either."""
    return events, event_columns(events)


def mid(sorted_vals):
    n = len(sorted_vals)
    m = n // 2
    return sorted_vals[m] if n % 2 else (sorted_vals[m - 1] + sorted_vals[m]) / 2.0


class ReferenceCandidate:
    """The plain greedy scan, haversine for every test: the reference for detect_stops.

    A candidate grows while each new event is within r1 of the running
    median and every member stays within r1 of the new median.
    """

    def __init__(self, first, r1):
        self.lats = [first.location.lat]
        self.lons = [first.location.lon]
        self.events = [first]
        self.r1 = r1
        self.med_lat = first.location.lat
        self.med_lon = first.location.lon

    def try_add(self, ev):
        lat, lon = ev.location.lat, ev.location.lon
        if haversine_m(self.med_lat, self.med_lon, lat, lon) > self.r1:
            return False
        insort(self.lats, lat)
        insort(self.lons, lon)
        self.events.append(ev)
        new_lat, new_lon = mid(self.lats), mid(self.lons)
        if self.contained(new_lat, new_lon):
            self.med_lat, self.med_lon = new_lat, new_lon
            return True
        self.lats.remove(lat)
        self.lons.remove(lon)
        self.events.pop()
        return False

    def contained(self, med_lat, med_lon):
        lo_lat, hi_lat = self.lats[0], self.lats[-1]
        lo_lon, hi_lon = self.lons[0], self.lons[-1]
        corner_max = max(
            haversine_m(med_lat, med_lon, lo_lat, lo_lon),
            haversine_m(med_lat, med_lon, lo_lat, hi_lon),
            haversine_m(med_lat, med_lon, hi_lat, lo_lon),
            haversine_m(med_lat, med_lon, hi_lat, hi_lon),
        )
        if corner_max <= self.r1:
            return True
        return all(
            haversine_m(med_lat, med_lon, e.location.lat, e.location.lon) <= self.r1
            for e in self.events
        )

    def to_stop(self):
        return Stop(
            user_id=self.events[0].user_id,
            median=GeoPoint(lat=self.med_lat, lon=self.med_lon),
            t_start=self.events[0].timestamp,
            t_end=self.events[-1].timestamp,
            n_events=len(self.events),
        )


def reference_detect_stops(events, params):
    stops = []
    i, n = 0, len(events)
    while i < n:
        cand = ReferenceCandidate(events[i], params.r1)
        j = i + 1
        while j < n:
            if events[j].timestamp - events[j - 1].timestamp > params.max_gap:
                break
            if not cand.try_add(events[j]):
                break
            j += 1
        if cand.events[-1].timestamp - cand.events[0].timestamp >= params.min_duration:
            stops.append(cand.to_stop())
            i = j
        else:
            i += 1
    return stops


def reference_components(stops, r2):
    """Labels from a union-find over every pair of stops within r2 by haversine_distance."""
    n = len(stops)
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
    return [labels[find(i)] for i in range(n)]


# Anchors at the equator, the antimeridian, high latitudes and ordinary places.
anchors = st.one_of(
    st.sampled_from([
        GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0), GeoPoint(0.0, -180.0), GeoPoint(1e-4, 179.999),
        GeoPoint(89.0, 10.0), GeoPoint(-89.0, -179.99), GeoPoint(85.0, 180.0),
        GeoPoint(38.7, -9.3), GeoPoint(-33.9, 151.2),
    ]),
    st.builds(GeoPoint, st.floats(-89.0, 89.0), st.floats(-180.0, 180.0)),
)
bearings = st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0.0, 360.0))
nudges = st.sampled_from([-1e-6, 0.0, 1e-6])


@st.composite
def traces(draw):
    """(r1, events): dwells, points at r1 and r1/2 +- 1e-6 m, repeats and jumps.

    Time steps include exactly max_gap (900 s) and sums that span exactly
    min_duration (600 s).
    """
    r1 = draw(st.sampled_from([5.0, 100.0, 300.0, 2000.0, 200_000.0]))
    anchor = draw(anchors)
    point = anchor
    events = []
    t = 0
    for _ in range(draw(st.integers(1, 40))):
        move = draw(st.sampled_from(["repeat", "edge", "inside", "jump"]))
        if move == "edge":
            distance = draw(st.sampled_from([r1, r1 / 2.0])) + draw(nudges)
            point = destination_point(anchor, draw(bearings), distance)
        elif move == "inside":
            point = destination_point(anchor, draw(bearings), draw(st.floats(0.0, r1)))
        elif move == "jump":
            anchor = destination_point(anchor, draw(bearings), draw(st.floats(r1, 10.0 * r1)))
            point = anchor
        t += draw(st.sampled_from([0, 60, 150, 300, 600, 899, 900, 901]))
        events.append(ev("u", t, point))
    return r1, events


def make_stop(user, t, point):
    return Stop(user_id=user, median=point, t_start=float(t), t_end=float(t) + 600.0, n_events=3)


@st.composite
def stop_sets(draw):
    """(r2, stops): groups of stops around anchors, with pairs at r2 +- 1e-6 m,
    groups packed into one grid cell, latitudes to 85 degrees and the antimeridian."""
    r2 = draw(st.sampled_from([1.0, 50.0, 500.0, 5000.0, 3e6, 2.5e7, 3.5e7]))
    stops = []
    for _ in range(draw(st.integers(1, 6))):
        anchor = point = draw(anchors)
        for _ in range(draw(st.integers(1, 10))):
            move = draw(st.sampled_from(["edge", "cell", "near"]))
            if move == "edge":
                point = destination_point(point, draw(bearings), r2 + draw(nudges))
            elif move == "cell":
                point = destination_point(anchor, draw(bearings), draw(st.floats(0.0, r2 / 100.0)))
            else:
                point = destination_point(anchor, draw(bearings), draw(st.floats(0.0, 3.0 * r2)))
            stops.append(make_stop(f"u{draw(st.integers(0, 3))}", draw(st.integers(0, 50)), point))
    return r2, stops


class TestStopParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            StopParams(r1=0)

    @pytest.mark.parametrize("name", ["r1", "r2", "min_duration", "max_gap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finite_required(self, name, value):
        with pytest.raises(ValueError, match=f"StopParams.{name} must be finite"):
            StopParams(**{name: value})

    def test_r2_below_r1_warns(self, caplog):
        with caplog.at_level(logging.WARNING, logger="cdrflow.stays"):
            StopParams(r1=500, r2=100)
        assert any("r2" in rec.message for rec in caplog.records)


class TestDetectStops:
    def test_pure_dwell(self):
        params = StopParams(min_duration=600)
        events = [ev("u", t * 200, BASE) for t in range(10)]  # 30 min span
        for given in forms(events):
            stops = detect_stops(given, params)
            assert len(stops) == 1
            assert stops[0].n_events == 10
            assert stops[0].median == BASE
            assert stops[0].t_start == 0.0 and stops[0].t_end == 1800.0

    def test_pure_motion(self):
        params = StopParams(r1=50)
        events = [ev("u", i * 60, offset(BASE, east_m=1000.0 * i)) for i in range(10)]
        for given in forms(events):
            assert detect_stops(given, params) == []

    def test_empty_trace(self):
        for given in forms([]):
            assert detect_stops(given, StopParams()) == []

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
        assert detect_stops(event_columns(events), params) == stops

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
        for given in forms(events):
            stops = detect_stops(given, params)
            assert len(stops) == 2
            assert stops[0].t_end == 700.0
            assert stops[1].t_start == 5000.0

    def test_unsorted_raises(self):
        events = [ev("u", 100, BASE), ev("u", 50, BASE)]
        for given in forms(events):
            with pytest.raises(UnsortedInput, match=r"for user 'u' at t=50\.0$"):
                detect_stops(given, StopParams())

    def test_mixed_users_raise(self):
        events = [ev("u1", 0, BASE), ev("u2", 10, BASE)]
        for given in forms(events):
            with pytest.raises(ValueError, match="single user"):
                detect_stops(given, StopParams())

    @pytest.mark.parametrize("times, error, message", [
        # a user change first, a step back in time later
        ((0, 10, 5), ValueError, "single user"),
        # both in one pair: the step back in time is named
        ((10, 5, 20), UnsortedInput, "for user 'u2' at t=5.0"),
    ])
    def test_first_bad_pair_decides_the_error(self, times, error, message):
        events = [ev(user, t, BASE) for user, t in zip(("u1", "u2", "u2"), times)]
        for given in forms(events):
            with pytest.raises(error, match=re.escape(message)) as raised:
                detect_stops(given, StopParams())
            assert type(raised.value) is error

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
        assert detect_stops(event_columns(events), params) == stops
        for a, b in zip(stops, stops[1:]):
            assert a.t_end < b.t_start  # disjoint, ordered
        for stop in stops:
            members = [e for e in events if stop.t_start <= e.timestamp <= stop.t_end]
            for m in members:
                assert haversine_distance(stop.median, m.location) <= params.r1 + 1e-6


class TestDetectStopsReference:
    @settings(max_examples=400, deadline=None)
    @given(traces())
    def test_equals_reference_scan(self, case):
        r1, events = case
        params = StopParams(r1=r1, min_duration=600.0, max_gap=900.0)
        expected = reference_detect_stops(events, params)
        for given in forms(events):
            assert detect_stops(given, params) == expected

    def test_long_dwells_equal_reference_scan(self):
        # long candidates that grow on the box bound, then leave it by a few metres
        rng = random.Random(12)
        for anchor in (BASE, GeoPoint(0.0, 180.0), GeoPoint(-88.5, 45.0)):
            events = []
            t = 0
            for _ in range(6):
                anchor = offset(anchor, east_m=rng.uniform(400, 2000))
                for _ in range(rng.randint(20, 120)):
                    spread = rng.choice((50.0, 140.0, 149.0, 160.0))
                    events.append(ev("u", t, offset(anchor, east_m=rng.uniform(-spread, spread),
                                                     north_m=rng.uniform(-spread, spread))))
                    t += rng.choice((30, 60, 120))
            params = StopParams(r1=300.0)
            expected = reference_detect_stops(events, params)
            for given in forms(events):
                stops = detect_stops(given, params)
                assert stops and stops == expected

    @pytest.mark.parametrize("anchor", [GeoPoint(0.05, 30.0), GeoPoint(-0.05, 179.5),
                                        GeoPoint(60.0, 10.0), GeoPoint(-89.0, 0.0)])
    def test_edge_of_a_wide_radius_equals_reference_scan(self, anchor):
        # r1 = 200 km: the box bound is loose by ~1e-4 here, so events at
        # r1 +- 1e-6 m from a repeated point fall to the exact test
        for bearing in range(0, 360, 15):
            for nudge in (-1e-6, 1e-6):
                far = destination_point(anchor, float(bearing), 200_000.0 + nudge)
                events = [ev("u", 60 * k, anchor) for k in range(5)]
                events += [ev("u", 300, far), ev("u", 360, anchor), ev("u", 1000, anchor)]
                params = StopParams(r1=200_000.0)
                expected = reference_detect_stops(events, params)
                for given in forms(events):
                    assert detect_stops(given, params) == expected


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

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 40), st.integers(0, 15)), max_size=6),
        st.lists(st.integers(-2, 60), max_size=30),
    )
    def test_outside_every_interval_even_when_they_overlap(self, spans, times):
        stops = [Stop("u", BASE, float(start), float(start + length), 2) for start, length in spans]
        events = [ev("u", t, BASE) for t in sorted(times)]
        expected = [e for e in events
                    if not any(s.t_start <= e.timestamp <= s.t_end for s in stops)]
        assert moving_events(events, stops) == expected

    def test_a_stop_covers_only_its_own_users_events(self):
        stops = [Stop("a", BASE, 100.0, 500.0, 5), Stop("b", BASE, 600.0, 700.0, 2)]
        events = [ev(user, t, BASE) for t in range(0, 900, 50) for user in ("a", "b")]
        expected = [e for e in events if not (
            e.user_id == "a" and 100 <= e.timestamp <= 500
            or e.user_id == "b" and 600 <= e.timestamp <= 700
        )]
        for given in forms(events):
            assert moving_events(given, stops) == expected
        only_b = moving_events(events, stops[1:])
        assert [e for e in only_b if e.user_id == "a"] == events[::2]

    def test_records_come_back_as_themselves_and_columns_as_columns(self):
        params = StopParams(r1=100, min_duration=600, max_gap=3600)
        far = offset(BASE, east_m=3000.0)
        events = [ev(user, t * 200, BASE if t < 8 else offset(far, east_m=900.0 * t))
                  for t in range(12) for user in ("b", "a")]
        stops = detect_stops([e for e in events if e.user_id == "a"], params)
        expected = [e for e in events if e.user_id == "b" or e.location != BASE]
        records, columns = forms(events)
        kept = moving_events(records, stops)
        assert len(kept) == len(expected) and all(a is b for a, b in zip(kept, expected))
        got = moving_events(columns, stops)
        assert isinstance(got, EventColumns) and got == kept
        assert isinstance(moving_events(columns, []), EventColumns)
        assert moving_events(columns, []) == events and moving_events([], stops) == []

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 40), st.integers(0, 15)),
                 max_size=8),
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(-2, 60)), max_size=30),
    )
    def test_brute_force_over_users_and_overlapping_intervals(self, spans, times):
        stops = [Stop(user, BASE, float(start), float(start + length), 2)
                 for user, start, length in spans]
        events = [ev(user, t, BASE) for user, t in times]
        expected = [e for e in events if not any(
            s.user_id == e.user_id and s.t_start <= e.timestamp <= s.t_end for s in stops
        )]
        kept = moving_events(events, stops)
        assert len(kept) == len(expected) and all(a is b for a, b in zip(kept, expected))
        assert moving_events(event_columns(events), stops) == expected


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

    def test_pair_a_hair_inside_r2_shares_a_label(self):
        a = GeoPoint(-77.89312135122015, 120.81393139053267)
        b = GeoPoint(-77.89338465851033, 120.83533420827303)
        assert haversine_distance(a, b) <= 500.0  # numpy's rounding put it just beyond
        stops = [self.make_stop("u", 0, a), self.make_stop("u", 1000, b)]
        assert cluster_destinations(stops, 500.0) == ["L0", "L0"]

    @settings(max_examples=300, deadline=None)
    @given(anchors, bearings, st.sampled_from([1.0, 50.0, 500.0, 5000.0, 3e6]))
    def test_agrees_with_haversine_distance_at_r2_plus_minus_one_ulp(self, a, bearing, r2):
        b = destination_point(a, bearing, r2)
        d = haversine_distance(a, b)
        stops = [self.make_stop("u", 0, a), self.make_stop("u", 1000, b)]
        for r in (math.nextafter(d, -math.inf), d, math.nextafter(d, math.inf)):
            labels = cluster_destinations(stops, r)
            assert (labels[0] == labels[1]) == (d <= r), r

    @settings(max_examples=300, deadline=None)
    @given(stop_sets())
    def test_equals_brute_force_components(self, case):
        r2, stops = case
        assert cluster_destinations(stops, r2) == reference_components(stops, r2)

    @settings(max_examples=300, deadline=None)
    @given(stop_sets())
    def test_grid_pairs_hold_every_pair_within_r2(self, case):
        r2, stops = case
        lat = np.array([s.median.lat for s in stops])
        lon = np.array([s.median.lon for s in stops])
        phi, lam = np.radians(lat), np.radians(lon)
        cos_phi = np.cos(phi)
        pairs = []
        for first, second in _grid_pairs(lat, lon, float(cos_phi.min()), r2):
            pairs.extend(zip(first.tolist(), second.tolist()))
        assert all(a < b for a, b in pairs)
        assert len(set(pairs)) == len(pairs)
        for i in range(len(stops)):
            d = haversine_m_array(phi[i], lam[i], cos_phi[i], phi[i + 1:], lam[i + 1:], cos_phi[i + 1:])
            for j in np.flatnonzero(d <= r2):
                assert (i, i + 1 + int(j)) in set(pairs)

    @pytest.mark.parametrize("r2", [1.5e7, 2.5e7, 3.5e7])
    def test_grid_pairs_on_the_equator_at_continental_radii(self, r2):
        # lon cells of 120-180 degrees, or r2 beyond a quarter circumference
        lon = np.linspace(-180.0, 179.0, 37)
        lat = np.zeros_like(lon)
        pairs = []
        for first, second in _grid_pairs(lat, lon, 1.0, r2):
            pairs.extend(zip(first.tolist(), second.tolist()))
        assert len(set(pairs)) == len(pairs)
        stops = [make_stop("u", 0, GeoPoint(0.0, x)) for x in lon]
        assert cluster_destinations(stops, r2) == reference_components(stops, r2)
        d = np.array([[haversine_m(0.0, a, 0.0, b) for b in lon] for a in lon])
        within = {(i, j) for i in range(len(lon)) for j in range(i + 1, len(lon)) if d[i, j] <= r2}
        assert within <= set(pairs)

    def test_labels_do_not_depend_on_pass_size(self, monkeypatch):
        rng = random.Random(5)
        stops = [make_stop("u", rng.randint(0, 1000),
                           offset(BASE, east_m=rng.uniform(0, 1500), north_m=rng.uniform(0, 1500)))
                 for _ in range(400)]
        expected = cluster_destinations(stops, 120.0)
        for size in (1, 7, 1000):
            monkeypatch.setattr(stays_module, "_PAIRS_PER_PASS", size)
            assert cluster_destinations(stops, 120.0) == expected


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
