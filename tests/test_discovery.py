import random

import pytest

from cdrflow.discovery import (
    ArcStats,
    Dfg,
    annotate_durations,
    discover_dfg,
    discover_ocdfg,
    export_dot,
    extract_variants,
    filter_log_by_variants,
    load_dfg_json,
    model_to_dict,
    write_model_json,
)
from cdrflow.errors import EmptyLog, EmptySelection, MismatchedLog
from cdrflow.eventlog import CaseLog, Ocel, OcelEvent, OcelObject, Trace

from conftest import flattened_traces, iter_flattened_traces, random_case_log


def log_of(*sequences):
    traces = []
    for i, seq in enumerate(sequences):
        events = tuple((a, float(10 * k)) for k, a in enumerate(seq))
        traces.append(Trace(case_id=f"c{i}", events=events))
    return CaseLog(traces=tuple(traces))


class TestDiscoverDfg:
    def test_basic_counts(self):
        dfg = discover_dfg(log_of("AB", "AB", "AC"))
        assert dfg.arc_dict() == {
            ("A", "B"): ArcStats(frequency=2),
            ("A", "C"): ArcStats(frequency=1),
        }
        assert dfg.start_dict() == {"A": 3}
        assert dfg.end_dict() == {"B": 2, "C": 1}
        assert dfg.node_dict() == {"A": 3, "B": 2, "C": 1}

    def test_single_event_traces(self):
        dfg = discover_dfg(log_of("A", "B", "A"))
        assert dfg.arcs == ()
        assert dfg.start_dict() == dfg.end_dict() == {"A": 2, "B": 1}

    def test_self_loop(self):
        dfg = discover_dfg(log_of("AA"))
        assert dfg.arc_dict() == {("A", "A"): ArcStats(frequency=1)}

    def test_empty_raises(self):
        with pytest.raises(EmptyLog):
            discover_dfg(CaseLog(traces=()))

    def test_conservation_on_random_logs(self):
        rng = random.Random(55)
        for _ in range(20):
            log = random_case_log(rng)
            dfg = discover_dfg(log)
            assert sum(s.frequency for _, s in dfg.arcs) == sum(
                len(t.events) - 1 for t in log.traces
            )
            assert sum(n for _, n in dfg.start_counts) == len(log.traces)
            assert sum(n for _, n in dfg.end_counts) == len(log.traces)


class TestAnnotateDurations:
    def test_mean_of_two_samples(self):
        log = log_of()  # build explicit timestamps
        log = CaseLog(
            traces=(
                Trace("c0", (("A", 0.0), ("B", 600.0))),     # 10 min
                Trace("c1", (("A", 0.0), ("B", 1800.0))),    # 30 min
            )
        )
        dfg = annotate_durations(discover_dfg(log), log)
        stats = dfg.arc_dict()[("A", "B")]
        assert stats.mean_s == pytest.approx(1200.0)
        assert stats.frequency == 2

    def test_median_order_statistic(self):
        log = CaseLog(
            traces=(
                Trace("c0", (("A", 0.0), ("B", 600.0))),
                Trace("c1", (("A", 0.0), ("B", 1200.0))),
                Trace("c2", (("A", 0.0), ("B", 6000.0))),
            )
        )
        dfg = annotate_durations(discover_dfg(log), log)
        assert dfg.arc_dict()[("A", "B")].median_s == pytest.approx(1200.0)

    def test_zero_frequency_arc_left_unannotated(self):
        log = CaseLog(traces=(Trace("c0", (("A", 0.0), ("B", 60.0))),))
        dfg = discover_dfg(log)
        widened = Dfg(
            nodes=dfg.nodes,
            arcs=dfg.arcs + ((("B", "Z"), ArcStats(frequency=0)),),
            start_counts=dfg.start_counts,
            end_counts=dfg.end_counts,
        )
        annotated = annotate_durations(widened, log)
        assert annotated.arc_dict()[("B", "Z")].mean_s is None

    def test_mismatched_log_raises(self):
        dfg = discover_dfg(log_of("AB"))
        other = log_of("AC")
        with pytest.raises(MismatchedLog):
            annotate_durations(dfg, other)

    def test_durations_nonnegative(self):
        rng = random.Random(56)
        log = random_case_log(rng)
        dfg = annotate_durations(discover_dfg(log), log)
        for _, stats in dfg.arcs:
            if stats.mean_s is not None:
                assert stats.mean_s >= 0.0
                assert stats.median_s >= 0.0


class TestVariants:
    def test_order_and_counts(self):
        variants = extract_variants(log_of("AB", "AB", "AC"))
        assert [(v.sequence, v.count) for v in variants] == [
            (("A", "B"), 2),
            (("A", "C"), 1),
        ]

    def test_top_k(self):
        variants = extract_variants(log_of("AB", "AB", "AC"), top_k=1)
        assert [(v.sequence, v.count) for v in variants] == [(("A", "B"), 2)]

    def test_identical_traces(self):
        variants = extract_variants(log_of(*["AB"] * 100))
        assert len(variants) == 1
        assert variants[0].count == 100

    def test_counts_sum_to_traces(self):
        rng = random.Random(57)
        log = random_case_log(rng)
        assert sum(v.count for v in extract_variants(log)) == len(log.traces)

    def test_tie_breaks_lexicographic(self):
        variants = extract_variants(log_of("BA", "AB"))
        assert [v.sequence for v in variants] == [("A", "B"), ("B", "A")]

    def test_empty_raises(self):
        with pytest.raises(EmptyLog):
            extract_variants(CaseLog(traces=()))


class TestFilterByVariants:
    def test_select_top_variant(self):
        log = log_of("AB", "AB", "AC")
        kept = filter_log_by_variants(log, [("A", "B")])
        assert len(kept.traces) == 2

    def test_select_all_is_identity(self):
        log = log_of("AB", "AB", "AC")
        kept = filter_log_by_variants(log, [v.sequence for v in extract_variants(log)])
        assert kept.traces == log.traces

    def test_empty_selection_raises(self):
        with pytest.raises(EmptySelection):
            filter_log_by_variants(log_of("AB"), [])

    def test_no_match_raises_unless_allowed(self):
        log = log_of("AB")
        with pytest.raises(EmptySelection):
            filter_log_by_variants(log, [("Z", "Z")])
        kept = filter_log_by_variants(log, [("Z", "Z")], allow_empty_result=True)
        assert kept.traces == ()


class TestDiscoverOcdfg:
    def simple_ocel(self):
        return Ocel(
            events=(
                OcelEvent("e0_0", "X", 100.0, (("t0", "trip"), ("Bus", "mode"))),
                OcelEvent("e0_1", "Y", 200.0, (("t0", "trip"), ("Bus", "mode"))),
                OcelEvent("e1_0", "X", 300.0, (("t1", "trip"), ("Car", "mode"))),
            ),
            objects=(
                OcelObject("Bus", "Bus"), OcelObject("Car", "Car"),
                OcelObject("t0", "Bus"), OcelObject("t1", "Car"),
            ),
            object_types=("Bus", "Car"),
        )

    def test_one_graph_per_type(self):
        ocdfg = discover_ocdfg(self.simple_ocel())
        assert [t for t, _ in ocdfg.per_type] == ["Bus", "Car"]

    def test_single_event_object_contributes_counts_only(self):
        ocdfg = discover_ocdfg(self.simple_ocel())
        car = ocdfg.type_dict()["Car"]
        assert car.arcs == ()
        assert car.node_dict() == {"X": 2}  # t1 and the Car singleton
        assert car.start_dict() == {"X": 2}

    def test_object_event_sequence_creates_arc(self):
        ocdfg = discover_ocdfg(self.simple_ocel())
        bus = ocdfg.type_dict()["Bus"]
        assert ("X", "Y") in bus.arc_dict()

    def test_brute_force_flattening_oracle(self):
        rng = random.Random(58)
        ocel = _random_ocel(rng, n_events=400)
        ocdfg = discover_ocdfg(ocel)
        for object_type, got in ocdfg.per_type:
            # oracle: flatten by scanning relations per object, then discover
            flat = CaseLog(traces=tuple(iter_flattened_traces(ocel, object_type)))
            expected = annotate_durations(discover_dfg(flat), flat)
            assert got == expected

    @pytest.mark.parametrize("seed", range(30))
    def test_one_pass_fold_equals_flattened_log_discovery(self, seed):
        rng = random.Random(seed)
        types = ["Bus", "Car", "Walk"][: rng.randint(1, 3)]
        # each id has one type; a type may have no events, an object no listed type
        objects = {(f"o{k}", rng.choice(types)) for k in range(rng.randint(1, 10))}
        ids = sorted({object_id for object_id, _ in objects}) + ["untyped"]
        n_events = rng.randint(1, 80)
        events = tuple(  # not in event id order, and with tied timestamps
            OcelEvent(
                f"e{k:03d}", rng.choice("ABCD"), float(rng.randint(0, 30)),
                tuple((rng.choice(ids), rng.choice(("trip", "mode")))
                      for _ in range(rng.randint(0, 3))),
            )
            for k in rng.sample(range(n_events), n_events)
        )
        ocel = Ocel(
            events=events,
            objects=tuple(OcelObject(i, t) for i, t in sorted(objects | {("untyped", "Idle")})),
            object_types=tuple(sorted(types)),
        )
        by_type = flattened_traces(ocel)
        expected = []
        for object_type in ocel.object_types:
            if by_type.get(object_type):
                flat = CaseLog(traces=tuple(by_type[object_type]))
                expected.append((object_type, annotate_durations(discover_dfg(flat), flat)))
        assert discover_ocdfg(ocel).per_type == tuple(expected)

    def test_empty_raises(self):
        with pytest.raises(EmptyLog):
            discover_ocdfg(Ocel(events=(), objects=(), object_types=()))


class TestExportDot:
    def test_frequency_label_line(self):
        dot = export_dot(discover_dfg(log_of("AB", "AB")), show_frequency=True)
        assert '"A" -> "B" [label="2"]' in dot

    def test_byte_stable(self):
        dfg = discover_dfg(log_of("AB", "AC", "BC"))
        assert export_dot(dfg) == export_dot(dfg)

    def test_min_arc_frequency_keeps_nodes(self):
        dfg = discover_dfg(log_of("AB", "AB"))
        dot = export_dot(dfg, min_arc_frequency=3)
        assert "->" not in dot
        assert '"A"' in dot and '"B"' in dot

    def test_duration_label(self):
        log = CaseLog(
            traces=(Trace("c0", (("A", 0.0), ("B", 1200.0))),)
        )
        dfg = annotate_durations(discover_dfg(log), log)
        dot = export_dot(dfg, show_frequency=False, show_duration=True)
        assert '[label="μ=20m"]' in dot

    def test_ocdfg_arcs_colored_per_type(self):
        ocdfg = discover_ocdfg(
            Ocel(
                events=(
                    OcelEvent("e0", "X", 0.0, (("t0", "trip"),)),
                    OcelEvent("e1", "Y", 10.0, (("t0", "trip"),)),
                    OcelEvent("e2", "X", 20.0, (("t1", "trip"),)),
                    OcelEvent("e3", "Y", 30.0, (("t1", "trip"),)),
                ),
                objects=(OcelObject("t0", "Bus"), OcelObject("t1", "Car")),
                object_types=("Bus", "Car"),
            )
        )
        dot = export_dot(ocdfg)
        colored = [l for l in dot.splitlines() if "color=" in l]
        assert len(colored) == 2
        assert len({l.split("color=")[1] for l in colored}) == 2  # distinct palette entries


class TestModelJson:
    def test_round_trip(self, tmp_path):
        rng = random.Random(59)
        log = random_case_log(rng)
        dfg = annotate_durations(discover_dfg(log), log)
        path = tmp_path / "dfg.json"
        write_model_json(dfg, path)
        assert load_dfg_json(path) == dfg
        first = path.read_bytes()
        write_model_json(load_dfg_json(path), path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["nodes"][0].pop("activity"), "nodes[0] has no 'activity'"),
        (lambda doc: doc["arcs"][1].update(freq="3"), "arcs[1]: 'freq' is '3'"),
        (lambda doc: doc["arcs"][0].update(mean_s=True), "arcs[0]: 'mean_s' is True"),
        (lambda doc: doc["endCounts"].append(["A", 1]), "endCounts[2] is not an object"),
        (lambda doc: doc.update(arcs={}), "arcs is not a list"),
        (lambda doc: doc.pop("startCounts"), "not a case-centric model dump"),
        (lambda doc: doc["nodes"].append(doc["nodes"][1]), "nodes[2]: duplicate activity 'B'"),
        (lambda doc: doc["arcs"].append(dict(doc["arcs"][0], freq=1)),
         "arcs[2]: duplicate src/dst ('A', 'B')"),
        (lambda doc: doc["startCounts"].append(doc["startCounts"][0]),
         "startCounts[2]: duplicate activity 'A'"),
        (lambda doc: doc["endCounts"].insert(0, doc["endCounts"][1]),
         "endCounts[2]: duplicate activity"),
    ], ids=["no-activity", "text-freq", "bool-mean", "list-entry", "arcs-object", "ocdfg",
            "repeated-node", "repeated-arc", "repeated-start", "repeated-end"])
    def test_malformed_model_raises_naming_file_and_entry(self, tmp_path, mutate, message):
        import json

        log = log_of("AB", "AB", "BA")
        path = tmp_path / "dfg.json"
        write_model_json(annotate_durations(discover_dfg(log), log), path)
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_dfg_json(path)
        assert str(info.value).startswith(f"model file {path}: ")
        assert message in str(info.value)

    def test_case_dump_sorts_nodes_and_arcs(self):
        stats = ArcStats(frequency=1, mean_s=60.0, median_s=60.0)
        dfg = Dfg(
            nodes=(("B", 1), ("A", 1)),
            arcs=((("B", "A"), stats), (("A", "B"), stats)),
            start_counts=(("A", 1),),
            end_counts=(("A", 1),),
        )
        doc = model_to_dict(dfg)
        assert [n["activity"] for n in doc["nodes"]] == ["A", "B"]
        assert [(a["src"], a["dst"]) for a in doc["arcs"]] == [("A", "B"), ("B", "A")]
        assert list(doc) == ["nodes", "arcs", "startCounts", "endCounts"]

    def test_ocdfg_dump_arcs_sorted_and_typed(self):
        ocel = _random_ocel(random.Random(60), n_events=100)
        doc = model_to_dict(discover_ocdfg(ocel))
        keys = [(a["src"], a["dst"], a.get("objectType", "")) for a in doc["arcs"]]
        assert keys == sorted(keys)
        assert all("objectType" in a for a in doc["arcs"])


def _random_ocel(rng, n_events):
    """Random OCEL with a handful of types and objects and 1-2 relations per event."""
    types = ["Bus", "Car", "Walk"][: rng.randint(2, 3)]
    objects = [OcelObject(m, m) for m in types]
    for k in range(rng.randint(3, 12)):
        objects.append(OcelObject(f"obj{k:03d}", rng.choice(types)))
    activities = ["N", "S", "E", "W"]
    events = []
    t = 0
    for i in range(n_events):
        t += rng.randint(1, 300)
        n_rel = rng.randint(1, 2)
        related = rng.sample([o.object_id for o in objects], n_rel)
        events.append(
            OcelEvent(
                event_id=f"e{i}_{rng.randint(0, 3)}x",
                activity=rng.choice(activities),
                timestamp=float(t),
                relations=tuple((oid, "trip") for oid in related),
            )
        )
    return Ocel(
        events=tuple(sorted(events, key=lambda e: e.event_id)),
        objects=tuple(sorted(objects, key=lambda o: o.object_id)),
        object_types=tuple(sorted(types)),
    )
