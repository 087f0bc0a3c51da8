import json
import random

import pytest

from cdrflow.conformance import (
    SINK,
    SOURCE,
    PetriNet,
    dfg_to_workflow_net,
    report_to_dict,
    token_replay,
    write_report_json,
)
from cdrflow.discovery import discover_dfg
from cdrflow.errors import EmptyModel
from cdrflow.eventlog import CaseLog, Trace

from conftest import random_case_log


def log_of(*sequences):
    traces = []
    for i, seq in enumerate(sequences):
        events = tuple((a, float(10 * k)) for k, a in enumerate(seq))
        traces.append(Trace(case_id=f"c{i}", events=events))
    return CaseLog(traces=tuple(traces))


class TestWorkflowNet:
    def test_single_arc_structure(self):
        # independent construction: expected node and arc sets written out by hand
        net = dfg_to_workflow_net(discover_dfg(log_of("AB")))
        arc_place = "arc:" + json.dumps(["A", "B"])
        assert set(net.places) == {SOURCE, SINK, arc_place}
        assert set(net.transitions) == {"A", "B"}
        assert net.n_nodes == 5
        assert set(net.place_to_transition) == {(SOURCE, "A"), (arc_place, "B")}
        assert set(net.transition_to_place) == {("A", arc_place), ("B", SINK)}
        assert net.n_arcs == 4
        assert net.initial_marking == ((SOURCE, 1),)
        assert net.final_marking == ((SINK, 1),)

    def test_self_loop_place_is_input_and_output(self):
        net = dfg_to_workflow_net(discover_dfg(log_of("AA")))
        loop_place = "arc:" + json.dumps(["A", "A"])
        assert (loop_place, "A") in net.place_to_transition
        assert ("A", loop_place) in net.transition_to_place

    def test_one_source_one_sink(self):
        net = dfg_to_workflow_net(discover_dfg(log_of("ABC", "ACB", "AB")))
        targets = {p for p, _ in net.place_to_transition}
        sources = {p for _, p in net.transition_to_place}
        assert SOURCE in targets and SOURCE not in sources
        assert SINK in sources and SINK not in targets

    def test_empty_model_raises(self):
        from cdrflow.discovery import Dfg

        with pytest.raises(EmptyModel):
            dfg_to_workflow_net(Dfg(nodes=(), arcs=(), start_counts=(), end_counts=()))


class TestTokenReplay:
    def test_hand_oracle_partial_trace(self):
        # net src -> A -> p_AB -> B -> sink, replay of <A> counted by hand:
        # produce src (p=1), fire A consuming src (c=1), produce p_AB (p=2),
        # final sink consume missing (c=2, m=1), p_AB left over (r=1)
        net = dfg_to_workflow_net(discover_dfg(log_of("AB")))
        report = token_replay(net, log_of("A"))
        assert (report.produced, report.consumed, report.missing, report.remaining) == (
            2, 2, 1, 1,
        )
        assert report.fitness == 0.5

    def test_perfect_fitness_on_own_log(self):
        rng = random.Random(71)
        for _ in range(15):
            log = random_case_log(rng)
            net = dfg_to_workflow_net(discover_dfg(log))
            report = token_replay(net, log)
            assert report.fitness == 1.0
            assert report.missing == 0 and report.remaining == 0

    def test_empty_log_vacuous(self):
        net = dfg_to_workflow_net(discover_dfg(log_of("AB")))
        report = token_replay(net, CaseLog(traces=()))
        assert report.vacuous is True
        assert report.fitness == 1.0
        assert (report.produced, report.consumed, report.missing, report.remaining) == (
            0, 0, 0, 0,
        )

    def test_unknown_activity_counts_missing_and_skips(self):
        net = dfg_to_workflow_net(discover_dfg(log_of("AB")))
        clean = token_replay(net, log_of("AB"))
        with_unknown = token_replay(net, log_of("AZB"))  # Z has no transition
        assert with_unknown.missing == clean.missing + 1
        assert with_unknown.consumed == clean.consumed + 1
        assert 0.0 <= with_unknown.fitness < 1.0

    def test_only_unknown_activities_stay_in_bounds(self):
        net = dfg_to_workflow_net(discover_dfg(log_of("AB")))
        report = token_replay(net, log_of("ZZZ"))
        assert 0.0 <= report.fitness <= 1.0
        assert report.missing <= report.consumed
        assert report.remaining <= report.produced

    def test_foreign_pair_penalized(self):
        net = dfg_to_workflow_net(discover_dfg(log_of("AB", "BC")))
        report = token_replay(net, log_of("AC"))  # pair (A, C) never observed
        assert report.missing > 0
        assert report.fitness < 1.0

    def test_monotone_in_perfect_traces(self):
        rng = random.Random(72)
        for _ in range(10):
            log = random_case_log(rng, n_traces=rng.randint(2, 30))
            net = dfg_to_workflow_net(discover_dfg(log))
            foreign = log_of("".join(rng.choice("QRS") for _ in range(4)))
            mixed = CaseLog(traces=foreign.traces + log.traces[:1])
            base = token_replay(net, mixed)
            grown = token_replay(net, CaseLog(traces=mixed.traces + log.traces[1:2]))
            assert grown.fitness >= base.fitness - 1e-12

    def test_per_trace_sums_match_totals(self):
        rng = random.Random(73)
        log = random_case_log(rng, n_traces=40)
        net = dfg_to_workflow_net(discover_dfg(log))
        report = token_replay(net, log)
        assert sum(t.produced for t in report.per_trace) == report.produced
        assert sum(t.consumed for t in report.per_trace) == report.consumed
        assert sum(t.missing for t in report.per_trace) == report.missing
        assert sum(t.remaining for t in report.per_trace) == report.remaining
        assert len(report.per_trace) == report.n_traces

    def test_fitness_in_unit_interval_under_stress(self):
        rng = random.Random(74)
        model_log = random_case_log(rng, n_traces=25, alphabet=list("ABCD"))
        net = dfg_to_workflow_net(discover_dfg(model_log))
        for _ in range(30):
            probe = random_case_log(rng, n_traces=10, alphabet=list("ABXY"))
            report = token_replay(net, probe)
            assert 0.0 <= report.fitness <= 1.0
            assert report.missing <= report.consumed
            assert report.remaining <= report.produced


    def test_activities_needing_json_escapes(self):
        names = ['say "hi"', "back\\slash", "a,b", "Évora", "東京", "arc:[]"]
        log = CaseLog(traces=tuple(
            Trace(case_id=f"c{i}", events=((a, 0.0), (b, 60.0)))
            for i, (a, b) in enumerate(zip(names, names[1:]))
        ))
        net = dfg_to_workflow_net(discover_dfg(log))
        report = token_replay(net, log)
        assert (report.fitness, report.missing, report.remaining) == (1.0, 0, 0)
        # (names[0], names[2]) is no arc: its token is missing, and the one
        # names[0] puts toward names[1] remains
        foreign = token_replay(net, CaseLog(traces=(
            Trace(case_id="x", events=((names[0], 0.0), (names[2], 60.0))),
        )))
        assert (foreign.missing, foreign.remaining) == (1, 1)

    def test_arc_places_are_read_from_the_net(self):
        # a hand-made net whose place ids say nothing of the pair they join
        net = PetriNet(
            places=(SOURCE, SINK, "p", "q"),
            transitions=("A", "B"),
            place_to_transition=(("p", "B"), ("q", "B"), (SOURCE, "A")),
            transition_to_place=(("A", "p"), ("B", "q"), ("B", SINK)),
        )
        report = token_replay(net, log_of("AB", "ABB", "ABBB"))
        assert (report.fitness, report.missing, report.remaining) == (1.0, 0, 0)


class TestReportJson:
    def test_keys_and_write(self, tmp_path):
        net = dfg_to_workflow_net(discover_dfg(log_of("AB")))
        report = token_replay(net, log_of("AB"))
        doc = report_to_dict(report)
        assert list(doc) == [
            "fitness", "produced", "consumed", "missing", "remaining", "n_traces", "vacuous",
        ]
        path = tmp_path / "report.json"
        write_report_json(report, path)
        assert json.loads(path.read_text())["fitness"] == 1.0
