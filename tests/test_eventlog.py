import random

import pytest

from cdrflow.eventlog import (
    CaseLog,
    Ocel,
    OcelEvent,
    OcelObject,
    Trace,
    build_case_log,
    build_ocel,
    compute_stats,
    load_case_log_csv,
    load_ocel_json,
    write_case_log_csv,
    write_ocel_json,
)
from cdrflow.records import GeoPoint
from cdrflow.stays import Staypoint
from cdrflow.trips import Trip, Tripleg

from conftest import flattened_traces, iter_flattened_traces

BASE = GeoPoint(38.70, -9.30)


def sp(sp_id, muni, parish, t_start, t_end, user="u"):
    return Staypoint(
        staypoint_id=sp_id, user_id=user, location_id=sp_id,
        median=BASE, t_start=float(t_start), t_end=float(t_end),
        region_parish=parish, region_municipality=muni,
    )


def make_trip(trip_id, chain, times, user="u", mode="bus"):
    """Trip through staypoint ids `chain`; times[i] = arrival at chain[i],
    times[0] = departure from the origin."""
    legs = []
    for k in range(len(chain) - 1):
        legs.append(
            Tripleg(
                tripleg_id=f"{trip_id}-l{k}", user_id=user,
                origin_staypoint=chain[k], dest_staypoint=chain[k + 1],
                t_start=float(times[k]), t_end=float(times[k + 1]),
                path_length_m=5000.0, avg_speed_kmh=21.0, mode=mode,
            )
        )
    return Trip(
        trip_id=trip_id, user_id=user, triplegs=tuple(legs),
        origin_staypoint=chain[0], dest_staypoint=chain[-1],
        t_start=float(times[0]), t_end=float(times[-1]),
    )


class TestTrace:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Trace(case_id="c", events=())

    def test_decreasing_timestamps_rejected(self):
        with pytest.raises(ValueError):
            Trace(case_id="c", events=(("A", 10.0), ("B", 5.0)))


class TestBuildCaseLog:
    def staypoints(self):
        return [
            sp("sp0", "Oeiras", "P_O", 0, 1000),
            sp("sp1", "Lisbon", "P_L", 2000, 3000),
            sp("sp2", "Oeiras", "P_O2", 4000, 5000),
        ]

    def test_two_region_trip_matches_trace_definition(self):
        trip = make_trip("trip_1", ["sp0", "sp1"], [1000, 2000])
        log = build_case_log([trip], self.staypoints(), "municipality")
        assert len(log.traces) == 1
        trace = log.traces[0]
        assert trace.case_id == "trip_1"
        assert trace.events == (("Oeiras", 1000.0), ("Lisbon", 2000.0))

    def test_empty_trip_list(self):
        log = build_case_log([], self.staypoints(), "municipality")
        assert log.traces == ()
        stats = compute_stats(log)
        assert (stats.n_cases_or_objects, stats.n_events,
                stats.n_variants_or_object_types) == (0, 0, 0)

    def test_consecutive_duplicate_collapse(self):
        # parish chain P1 -> P1 -> P2 -> P3 collapses to three events
        sps = [
            sp("a", "M", "P1", 0, 100),
            sp("b", "M", "P1", 200, 300),
            sp("c", "M", "P2", 400, 500),
            sp("d", "M", "P3", 600, 700),
        ]
        trip = make_trip("t0", ["a", "b", "c", "d"], [100, 200, 400, 600])
        log = build_case_log([trip], sps, "parish")
        assert log.traces[0].events == (("P1", 100.0), ("P2", 400.0), ("P3", 600.0))

    def test_self_loop_trip_keeps_both_events(self):
        sps = [sp("a", "Oeiras", "P1", 0, 100), sp("b", "Oeiras", "P2", 500, 600)]
        trip = make_trip("t0", ["a", "b"], [100, 500])
        log = build_case_log([trip], sps, "municipality")
        assert log.traces[0].events == (("Oeiras", 100.0), ("Oeiras", 500.0))

    def test_unresolved_region_drops_and_counts(self):
        sps = [sp("a", "Oeiras", None, 0, 100), sp("b", None, None, 500, 600)]
        trip = make_trip("t0", ["a", "b"], [100, 500])
        log = build_case_log([trip], sps, "municipality")
        assert log.traces == ()
        assert log.dropped_case_ids == ("t0",)
        parish_log = build_case_log([trip], sps, "parish")
        assert parish_log.dropped_case_ids == ("t0",)

    def test_trace_monotonicity_enforced(self):
        log = build_case_log(
            [make_trip("t0", ["sp0", "sp1"], [1000, 2000])], self.staypoints(), "municipality"
        )
        for trace in log.traces:
            times = [t for _, t in trace.events]
            assert times == sorted(times)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            build_case_log([], [], "country")


class TestBuildOcel:
    def staypoints(self):
        return [sp("sp0", "OEIRAS", "P1", 0, 1000), sp("sp1", "LISBON", "P2", 2000, 3000)]

    def test_relations_and_typing(self):
        trip = make_trip("trip_1", ["sp0", "sp1"], [1000, 2000], mode="bus")
        ocel = build_ocel(build_case_log([trip], self.staypoints(), "municipality"), [trip])
        e1 = ocel.events[0]
        assert e1.activity == "OEIRAS"
        related = {obj for obj, _ in e1.relations}
        assert related == {"trip_1", "Bus"}
        types = {o.object_id: o.object_type for o in ocel.objects}
        assert types["trip_1"] == "Bus"
        assert types["Bus"] == "Bus"
        assert ocel.object_types == ("Bus",)

    def test_case_without_trip_rejected(self):
        trip = make_trip("trip_1", ["sp0", "sp1"], [1000, 2000])
        log = build_case_log([trip], self.staypoints(), "municipality")
        with pytest.raises(ValueError, match="'trip_1' names no trip"):
            build_ocel(log, [])

    def test_level_and_drops_come_from_the_case_log(self):
        sps = self.staypoints() + [sp("sp2", None, None, 4000, 5000)]
        kept = make_trip("trip_1", ["sp0", "sp1"], [1000, 2000])
        lost = make_trip("trip_2", ["sp1", "sp2"], [3000, 4000])
        ocel = build_ocel(build_case_log([kept, lost], sps, "parish"), [kept, lost])
        assert (ocel.level, ocel.dropped_case_ids) == ("parish", ("trip_2",))
        assert {o.object_id for o in ocel.objects} == {"trip_1", "Bus"}

    def test_relation_count_is_twice_events(self):
        rng = random.Random(12)
        sps, trips = _random_trip_world(rng, n_trips=40)
        ocel = build_ocel(build_case_log(trips, sps, "municipality"), trips)
        assert ocel.n_relations == 2 * len(ocel.events)

    def test_same_event_multiset_as_case_log(self):
        rng = random.Random(13)
        sps, trips = _random_trip_world(rng, n_trips=25)
        log = build_case_log(trips, sps, "municipality")
        ocel = build_ocel(log, trips)
        case_events = sorted((a, t) for trace in log.traces for a, t in trace.events)
        ocel_events = sorted((e.activity, e.timestamp) for e in ocel.events)
        assert case_events == ocel_events

    def test_round_trip_identity_and_stable_bytes(self, tmp_path):
        rng = random.Random(14)
        sps, trips = _random_trip_world(rng, n_trips=10)
        ocel = build_ocel(build_case_log(trips, sps, "municipality"), trips)
        path = tmp_path / "ocel.json"
        write_ocel_json(ocel, path)
        first = path.read_bytes()
        loaded = load_ocel_json(path, level="municipality")
        assert loaded.events == ocel.events
        assert loaded.objects == ocel.objects
        assert loaded.object_types == ocel.object_types
        write_ocel_json(loaded, path)
        assert path.read_bytes() == first

    def test_load_shares_one_relations_tuple_per_relation_set(self, tmp_path):
        sps, trips = _random_trip_world(random.Random(17), n_trips=10)
        ocel = build_ocel(build_case_log(trips, sps, "municipality"), trips)
        path = tmp_path / "ocel.json"
        write_ocel_json(ocel, path)
        loaded = load_ocel_json(path)
        distinct = {e.relations for e in loaded.events}
        assert len({id(e.relations) for e in loaded.events}) == len(distinct) == len(trips)

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["events"][1].pop("timestamp"), "event 'e0_1' has no 'timestamp'"),
        (lambda doc: doc["events"][1].update(timestamp=5), "'timestamp' is 5, not a string"),
        (lambda doc: doc["events"][1].update(timestamp="noon"), "event 'e0_1': Invalid isoformat"),
        (lambda doc: doc["events"][0]["relations"][0].pop("qualifier"), "has no 'qualifier'"),
        (lambda doc: doc["events"][0]["relations"][0].update(qualifier="bus"),
         "unknown relation qualifier 'bus'"),
        (lambda doc: doc["events"][0]["relations"].append(3), "event 'e0_0': relations is not"),
        (lambda doc: doc.update(events={"e0_0": {}}), "events is not a list"),
        (lambda doc: doc["events"].append(7), "events[5] is not an event"),
        (lambda doc: doc["objects"][0].update(type=None), "'type' is None, not a string"),
        (lambda doc: doc["objects"][0].pop("type"), "objects[0] is not an object"),
        (lambda doc: doc["objectTypes"].append({}), "an object type has no name"),
        (lambda doc: doc["events"].append(doc["events"][0]), "event ids must be unique"),
        (lambda doc: doc["objects"].append(dict(doc["objects"][0], type="mode")),
         "object ids must be unique"),
    ], ids=["no-timestamp", "numeric-timestamp", "bad-timestamp", "no-qualifier",
            "unknown-qualifier", "bad-relation", "events-object", "bad-event", "bad-type",
            "no-type", "unnamed-type", "duplicate-event", "duplicate-object"])
    def test_malformed_entry_raises_naming_file_and_entry(self, tmp_path, mutate, message):
        import json

        sps, trips = _random_trip_world(random.Random(18), n_trips=2)
        ocel = build_ocel(build_case_log(trips, sps, "municipality"), trips)
        path = tmp_path / "ocel.json"
        write_ocel_json(ocel, path)
        doc = json.loads(path.read_text())
        assert [e["id"] for e in doc["events"]][:2] == ["e0_0", "e0_1"]
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_ocel_json(path)
        assert str(info.value).startswith(f"JSON file {path}: ")
        assert message in str(info.value)

    def test_schema_top_level_keys(self, tmp_path):
        import json

        sps, trips = _random_trip_world(random.Random(15), n_trips=3)
        ocel = build_ocel(build_case_log(trips, sps, "municipality"), trips)
        path = tmp_path / "ocel.json"
        write_ocel_json(ocel, path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["objectTypes", "objects", "events"]
        assert all(list(t) == ["name"] for t in doc["objectTypes"])
        assert all(list(o) == ["id", "type"] for o in doc["objects"])
        for e in doc["events"]:
            assert list(e) == ["id", "activity", "timestamp", "relations"]
            assert all(list(r) == ["objectId", "qualifier"] for r in e["relations"])
            assert all(r["qualifier"] in ("trip", "mode") for r in e["relations"])

    def test_event_ids_unique_and_patterned(self):
        sps, trips = _random_trip_world(random.Random(16), n_trips=12)
        ocel = build_ocel(build_case_log(trips, sps, "municipality"), trips)
        ids = [e.event_id for e in ocel.events]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith("e") and "_" in i for i in ids)

    def test_unknown_object_rejected(self):
        with pytest.raises(ValueError, match="unknown object"):
            Ocel(
                events=(OcelEvent("e0", "A", 0.0, (("ghost", "trip"),)),),
                objects=(),
                object_types=(),
            )


class TestComputeStats:
    def test_small_example(self):
        log = CaseLog(
            traces=(
                Trace("c1", (("A", 0.0), ("B", 10.0))),
                Trace("c2", (("A", 0.0), ("B", 10.0))),
                Trace("c3", (("A", 0.0), ("C", 10.0))),
            )
        )
        stats = compute_stats(log)
        assert (stats.n_cases_or_objects, stats.n_events,
                stats.n_variants_or_object_types, stats.n_relations) == (3, 6, 2, None)

    def test_streaming_recount_oracle(self):
        rng = random.Random(17)
        sps, trips = _random_trip_world(rng, n_trips=120)
        log = build_case_log(trips, sps, "municipality")
        ocel = build_ocel(log, trips)
        n_events = 0
        for trace in log.traces:  # independent streaming pass
            for _ in trace.events:
                n_events += 1
        assert compute_stats(log).n_events == n_events
        assert compute_stats(ocel).n_events == n_events
        assert compute_stats(ocel).n_relations == 2 * n_events


class TestCaseLogCsv:
    def test_round_trip_sorted_and_stable(self, tmp_path):
        sps, trips = _random_trip_world(random.Random(18), n_trips=15)
        log = build_case_log(trips, sps, "municipality")
        path = tmp_path / "case_log.csv"
        write_case_log_csv(log, path)
        first = path.read_bytes()
        loaded = load_case_log_csv(path, level="municipality")
        assert sorted(t.case_id for t in loaded.traces) == sorted(
            t.case_id for t in log.traces
        )
        assert {t.case_id: t.events for t in loaded.traces} == {
            t.case_id: t.events for t in log.traces
        }
        write_case_log_csv(loaded, path)
        assert path.read_bytes() == first

    def test_rows_sorted_by_case_then_time(self, tmp_path):
        sps, trips = _random_trip_world(random.Random(19), n_trips=8)
        log = build_case_log(trips, sps, "municipality")
        path = tmp_path / "case_log.csv"
        write_case_log_csv(log, path)
        rows = path.read_text().splitlines()[1:]
        keys = [(r.split(",")[0], r.split(",")[2]) for r in rows]
        assert keys == sorted(keys)


class TestFlattening:
    def test_per_object_traces_ordered(self):
        ocel = Ocel(
            events=(
                OcelEvent("e0", "X", 100.0, (("o1", "trip"), ("Bus", "mode"))),
                OcelEvent("e1", "Y", 200.0, (("o1", "trip"), ("Bus", "mode"))),
            ),
            objects=(OcelObject("Bus", "Bus"), OcelObject("o1", "Bus")),
            object_types=("Bus",),
        )
        traces = iter_flattened_traces(ocel, "Bus")
        by_case = {t.case_id: t.activities for t in traces}
        assert by_case == {"o1": ("X", "Y"), "Bus": ("X", "Y")}

    @pytest.mark.parametrize("seed", range(40))
    def test_one_pass_equals_per_type_flattening(self, seed):
        rng = random.Random(seed)
        types = ["Bus", "Car", "Walk", "Idle"][: rng.randint(1, 4)]
        # an id may carry two types; a type may have no objects or no events
        objects = {(f"o{k}", rng.choice(types)) for k in range(rng.randint(1, 12))}
        ids = sorted({object_id for object_id, _ in objects})
        events = tuple(
            OcelEvent(
                f"e{k:03d}", rng.choice("ABCD"), float(rng.randint(0, 20)),
                tuple((rng.choice(ids), rng.choice(("trip", "mode")))
                      for _ in range(rng.randint(0, 3))),
            )
            for k in range(rng.randint(0, 60))
        )
        ocel = Ocel(
            events=events,
            objects=tuple(OcelObject(i, t) for i, t in sorted(objects)),
            object_types=tuple(sorted(set(types) | {"Unused"})),
        )
        expected = {t: iter_flattened_traces(ocel, t) for t in ocel.object_types}
        got = flattened_traces(ocel)
        assert got == {t: traces for t, traces in expected.items() if traces}


class TestSlottedRecords:
    def test_records_pickle_and_compare_equal(self):
        import pickle

        from cdrflow.discovery import ArcStats

        sps, trips = _random_trip_world(random.Random(19), n_trips=3)
        log = build_case_log(trips, sps, "municipality")
        ocel = build_ocel(log, trips)
        records = [
            log.traces[0], ocel.events[0], ocel.objects[0], trips[0], trips[0].triplegs[0],
            sps[0], BASE, ArcStats(3, 60.0, 30.0), ArcStats(1),
        ]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
            copy = pickle.loads(pickle.dumps(record))
            assert copy == record and copy is not record


def _random_trip_world(rng, n_trips):
    """Random single-leg and multi-leg trips over a small region alphabet."""
    munis = ["M_A", "M_B", "M_C"]
    sps = []
    trips = []
    t = 0
    for i in range(n_trips):
        n_sp = rng.randint(2, 4)
        chain = []
        times = []
        dep = t + rng.randint(500, 2000)
        for k in range(n_sp):
            sp_id = f"t{i}sp{k}"
            arr = dep if k == 0 else times[-1] + rng.randint(300, 1200)
            sps.append(
                sp(sp_id, rng.choice(munis), f"P{rng.randint(0, 5)}",
                   arr - 200, arr + 200, user=f"u{i % 5}")
            )
            chain.append(sp_id)
            times.append(arr)
        trips.append(
            make_trip(
                f"trip{i:04d}", chain, times, user=f"u{i % 5}",
                mode=rng.choice(["bus", "car", "walk"]),
            )
        )
        t = times[-1]
    return sps, trips
