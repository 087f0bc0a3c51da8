"""Workflow-net construction from a directly-follows model and token replay.

Net shape: one transition per activity, one dedicated place per observed
directly-follows arc (source transition -> place -> target transition), a
source place feeding every start activity and a sink place fed by every end
activity.  Self-loop arcs get a place that is both output and input of its
transition.

Replay routes a single token through the places along each trace:

* every trace starts by producing one token in the source place;
* firing the transition for an event consumes one token from the place that
  connects it to the previous event (the source place for the first event);
  a missing place or token counts one missing token, consumed anyway;
* firing produces one token into the place toward the next event when the
  net models that pair, otherwise into the transition's first output place;
  the last event produces into the sink when it is an end activity, so
  unfinished business shows up as remaining tokens;
* events whose activity has no transition count one missing token (consumed
  as a phantom) and are skipped;
* the trace ends by consuming one token from the sink, missing if absent,
  and every leftover token counts as remaining.

Because every observed adjacent pair has its dedicated place, replaying a
log on the net discovered from itself is always perfectly fitting.  Such
nets generalize poorly — they admit little behavior beyond the observed
pairs — which is accepted here: the point is faithful replay accounting,
not model quality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from .errors import EmptyModel
from .files import write_csv, write_json

if TYPE_CHECKING:
    from .discovery import Dfg
    from .eventlog import CaseLog

SOURCE = "source"
SINK = "sink"


def _arc_place_id(a: str, b: str) -> str:
    return "arc:" + json.dumps([a, b])


@dataclass(frozen=True)
class PetriNet:
    places: tuple
    transitions: tuple  # activity labels, each exactly once
    place_to_transition: tuple  # tuple of (place_id, label)
    transition_to_place: tuple  # tuple of (label, place_id)
    initial_marking: tuple = ((SOURCE, 1),)
    final_marking: tuple = ((SINK, 1),)

    def __post_init__(self) -> None:
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("transition labels must be unique")

    @property
    def n_nodes(self) -> int:
        return len(self.places) + len(self.transitions)

    @property
    def n_arcs(self) -> int:
        return len(self.place_to_transition) + len(self.transition_to_place)


@dataclass(frozen=True)
class TraceReplay:
    case_id: str
    produced: int
    consumed: int
    missing: int
    remaining: int

    @property
    def fitness(self) -> float:
        return _fitness(self.produced, self.consumed, self.missing, self.remaining)


@dataclass(frozen=True)
class FitnessReport:
    produced: int
    consumed: int
    missing: int
    remaining: int
    fitness: float
    n_traces: int
    vacuous: bool
    per_trace: tuple = ()


def _fitness(p: int, c: int, m: int, r: int) -> float:
    return 0.5 * (1.0 - m / c) + 0.5 * (1.0 - r / p)


def dfg_to_workflow_net(dfg: Dfg) -> PetriNet:
    """Dedicated-place-per-arc workflow net for a directly-follows model."""
    transitions = tuple(a for a, _ in dfg.nodes)
    if not transitions:
        raise EmptyModel("model has no activities")
    places = [SOURCE, SINK]
    p2t = []
    t2p = []
    for (a, b), _ in dfg.arcs:
        place = _arc_place_id(a, b)
        places.append(place)
        t2p.append((a, place))
        p2t.append((place, b))
    for a, _ in dfg.start_counts:
        p2t.append((SOURCE, a))
    for a, _ in dfg.end_counts:
        t2p.append((a, SINK))
    return PetriNet(
        places=tuple(places),
        transitions=transitions,
        place_to_transition=tuple(sorted(p2t)),
        transition_to_place=tuple(sorted(t2p)),
    )


def token_replay(net: PetriNet, log: CaseLog) -> FitnessReport:
    """Replay every trace and aggregate produced/consumed/missing/remaining."""
    if not log.traces:
        return FitnessReport(
            produced=0, consumed=0, missing=0, remaining=0,
            fitness=1.0, n_traces=0, vacuous=True,
        )

    transitions = set(net.transitions)
    outputs: dict[str, list[str]] = {}
    fed_by: dict[str, list[str]] = {}
    for label, place in net.transition_to_place:
        outputs.setdefault(label, []).append(place)
        fed_by.setdefault(place, []).append(label)
    # an arc place is fed by a transition and feeds one: (a, b) for a -> place -> b
    arc_place = {
        (a, b): place for place, b in net.place_to_transition for a in fed_by.get(place, ())
    }
    start_labels = {label for place, label in net.place_to_transition if place == SOURCE}
    end_labels = {label for label, place in net.transition_to_place if place == SINK}
    first_output = {label: min(places) for label, places in outputs.items()}

    per_trace = []
    total_p = total_c = total_m = total_r = 0
    for trace in log.traces:
        p, c, m = 1, 0, 0  # the source token counts as produced
        marking: dict[str, int] = {SOURCE: 1}
        known = []
        for activity in trace.activities:
            if activity in transitions:
                known.append(activity)
            else:
                c += 1
                m += 1  # phantom token consumed for an unmodeled activity
        for i, activity in enumerate(known):
            if i == 0:
                required = SOURCE if activity in start_labels else None
            else:
                required = arc_place.get((known[i - 1], activity))
            c += 1
            if required is not None and marking.get(required, 0) > 0:
                marking[required] -= 1
            else:
                m += 1
            target: Optional[str] = None
            if i + 1 < len(known):
                target = arc_place.get((activity, known[i + 1]))
                if target is None:
                    target = first_output.get(activity)
            else:
                target = SINK if activity in end_labels else first_output.get(activity)
            if target is not None:
                marking[target] = marking.get(target, 0) + 1
                p += 1
        c += 1
        if marking.get(SINK, 0) > 0:
            marking[SINK] -= 1
        else:
            m += 1
        r = sum(marking.values())
        per_trace.append(
            TraceReplay(case_id=trace.case_id, produced=p, consumed=c, missing=m, remaining=r)
        )
        total_p += p
        total_c += c
        total_m += m
        total_r += r

    return FitnessReport(
        produced=total_p,
        consumed=total_c,
        missing=total_m,
        remaining=total_r,
        fitness=_fitness(total_p, total_c, total_m, total_r),
        n_traces=len(log.traces),
        vacuous=False,
        per_trace=tuple(per_trace),
    )


def report_to_dict(report: FitnessReport) -> dict:
    return {
        "fitness": report.fitness,
        "produced": report.produced,
        "consumed": report.consumed,
        "missing": report.missing,
        "remaining": report.remaining,
        "n_traces": report.n_traces,
        "vacuous": report.vacuous,
    }


def write_report_json(report: FitnessReport, path: str | Path) -> None:
    write_json(report_to_dict(report), path)


def write_per_trace_csv(report: FitnessReport, path: str | Path) -> None:
    write_csv(path, ["case_id", "produced", "consumed", "missing", "remaining", "fitness"], (
        [tr.case_id, tr.produced, tr.consumed, tr.missing, tr.remaining, repr(tr.fitness)]
        for tr in report.per_trace
    ))
