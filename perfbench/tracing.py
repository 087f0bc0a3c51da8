"""Layer tracing from outside the program.

`install` replaces the public functions of each cdrflow module with timing or
counting wrappers, at the names through which their callers reach them: a
module attribute when the caller writes `geo.position_events(...)`, the
caller's own global when it imported the name (`cli.build_staypoints`), the
class attribute for a method, and the default argument of
`build_staypoints` for the cluster strategy.  Nothing in the program changes.

Functions that run once per row or per draw (`from_iso`, `to_iso`,
`sample_sector_point`, `region_contains`) are only counted: timing them
would cost more than the work they do.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Every per-layer metric a traced run reports, with its unit.  A layer that a
# workload does not reach reads 0 there; perfbench/README.md maps each metric
# to the workload and end-to-end metric it should move.
PER_LAYER = {
    "cli.position_s": "s", "cli.stays_s": "s", "cli.trips_s": "s", "cli.log_s": "s",
    "cli.discover_s": "s", "cli.conform_s": "s", "cli.validate_s": "s",
    "cli.artifact_bytes": "bytes",
    "geo.cdr_read_s": "s", "geo.positioned_write_s": "s", "geo.positioned_read_s": "s",
    "geo.positioned_reads": "count", "geo.position_s": "s", "geo.positioned_events": "count",
    "geo.sample_calls": "count", "geo.region_contains_calls": "count",
    "geo.land_draws_per_event": "calls/event", "geo.region_assign_s": "s",
    "geo.region_assign_calls": "count",
    "timefmt.from_iso_calls": "count", "timefmt.to_iso_calls": "count",
    "stays.build_s": "s", "stays.detect_s": "s", "stays.detect_calls": "count",
    "stays.stops": "count", "stays.cluster_s": "s", "stays.moving_s": "s",
    "stays.moving_events": "count", "stays.staypoints_write_s": "s",
    "stays.staypoints_read_s": "s",
    "trips.build_s": "s", "trips.derive_s": "s", "trips.triplegs": "count",
    "trips.trips": "count", "trips.write_s": "s", "trips.read_s": "s",
    "eventlog.case_log_s": "s", "eventlog.ocel_s": "s", "eventlog.case_log_write_s": "s",
    "eventlog.case_log_read_s": "s", "eventlog.ocel_write_s": "s", "eventlog.ocel_read_s": "s",
    "eventlog.ocel_bytes": "bytes", "eventlog.events": "count", "eventlog.relations": "count",
    "eventlog.dropped_cases": "count",
    "discovery.dfg_s": "s", "discovery.durations_s": "s", "discovery.ocdfg_s": "s",
    "discovery.variants_s": "s", "discovery.dot_s": "s", "discovery.model_write_s": "s",
    "discovery.arcs": "count",
    "conformance.net_s": "s", "conformance.replay_s": "s", "conformance.traces": "count",
    "validation.od_s": "s", "validation.compare_s": "s", "validation.od_cells": "count",
    "synth.generate_s": "s", "synth.events": "count",
}


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list = []            # [name, start, end, parent span index or -1]
        self.counts: defaultdict = defaultdict(float)
        self._open: list = []
        self._active: defaultdict = defaultdict(int)
        self._taken = 0

    def timed(self, name, fn, count=None):
        """Wrap fn in a span; count(result, *args) may return counter increments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
                self._active[name] -= 1
            if count is not None:
                for metric, value in count(result, *args).items():
                    self.counts[metric] += value
            return result

        return wrapper

    def counted(self, name, fn, within=None):
        """Count calls of fn, only those made inside a `within` span if given."""
        counts, active = self.counts, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if within is None or active[within]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def take(self) -> dict:
        """Span seconds and counts since the previous take, by metric name."""
        out: dict = defaultdict(float)
        for name, start, end, _ in self.spans[self._taken:]:
            out[name] += end - start
        self._taken = len(self.spans)
        for name, value in self.counts.items():
            out[name] += value
        self.counts.clear()
        return dict(out)

    def dump(self, path, metrics: dict) -> None:
        doc = {"pid": os.getpid(), "metrics": metrics, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)


def install(tracer: Tracer) -> None:
    """Wrap every traced cdrflow function in this process."""
    from cdrflow import cli, conformance, discovery, eventlog, geo, stays, synth, timefmt, trips, validation

    T, C = tracer.timed, tracer.counted

    def n(key):
        return lambda result, *args: {key: len(result)}

    geo.load_cdr_csv = T("geo.cdr_read_s", geo.load_cdr_csv)
    geo.write_positioned_csv = T("geo.positioned_write_s", geo.write_positioned_csv)
    geo.load_positioned_csv = T(
        "geo.positioned_read_s", geo.load_positioned_csv,
        lambda result, *args: {"geo.positioned_reads": 1},
    )
    geo.position_events = T("geo.position_s", geo.position_events, n("geo.positioned_events"))
    geo.sample_sector_point = C("geo.sample_calls", geo.sample_sector_point)
    # region_contains also answers region lookups for staypoints; only the
    # calls made while positioning are land draws.
    geo.region_contains = C("geo.region_contains_calls", geo.region_contains, within="geo.position_s")
    geo.RegionIndex.assign = T(
        "geo.region_assign_s", geo.RegionIndex.assign,
        lambda result, *args: {"geo.region_assign_calls": 1},
    )
    for module in (geo, stays, trips, eventlog):
        module.from_iso = C("timefmt.from_iso_calls", timefmt.from_iso)
        module.to_iso = C("timefmt.to_iso_calls", timefmt.to_iso)

    cluster = T("stays.cluster_s", stays.cluster_destinations)
    build = stays.build_staypoints
    build.__defaults__ = tuple(
        cluster if d is stays.cluster_destinations else d for d in build.__defaults__
    )
    stays.cluster_destinations = cluster
    stays.detect_stops = T(
        "stays.detect_s", stays.detect_stops,
        lambda result, *args: {"stays.detect_calls": 1, "stays.stops": len(result)},
    )
    stays.build_staypoints = cli.build_staypoints = T("stays.build_s", build)
    stays.moving_events = cli.moving_events = T(
        "stays.moving_s", stays.moving_events, n("stays.moving_events")
    )
    stays.write_staypoints_csv = cli.write_staypoints_csv = T(
        "stays.staypoints_write_s", stays.write_staypoints_csv
    )
    stays.load_staypoints_csv = cli.load_staypoints_csv = T(
        "stays.staypoints_read_s", stays.load_staypoints_csv
    )

    trips.build_trips = T("trips.build_s", trips.build_trips, n("trips.trips"))
    trips.derive_triplegs = T("trips.derive_s", trips.derive_triplegs, n("trips.triplegs"))
    trips.write_trips_csv = T("trips.write_s", trips.write_trips_csv)
    trips.write_triplegs_csv = T("trips.write_s", trips.write_triplegs_csv)
    trips.load_trips_csv = T("trips.read_s", trips.load_trips_csv)

    eventlog.build_case_log = T(
        "eventlog.case_log_s", eventlog.build_case_log,
        lambda log, *args: {
            "eventlog.events": sum(len(t.events) for t in log.traces),
            "eventlog.dropped_cases": len(log.dropped_case_ids),
        },
    )
    eventlog.build_ocel = T(
        "eventlog.ocel_s", eventlog.build_ocel,
        lambda ocel, *args: {"eventlog.relations": ocel.n_relations},
    )
    eventlog.write_case_log_csv = T("eventlog.case_log_write_s", eventlog.write_case_log_csv)
    eventlog.load_case_log_csv = T("eventlog.case_log_read_s", eventlog.load_case_log_csv)
    eventlog.write_ocel_json = T(
        "eventlog.ocel_write_s", eventlog.write_ocel_json,
        lambda result, ocel, path: {"eventlog.ocel_bytes": os.path.getsize(path)},
    )
    eventlog.load_ocel_json = T("eventlog.ocel_read_s", eventlog.load_ocel_json)

    # discover_ocdfg runs discover_dfg once per object type; only the
    # case-centric model's arcs are counted.
    discovery.discover_dfg = T(
        "discovery.dfg_s", discovery.discover_dfg,
        lambda dfg, *args: {} if tracer.active("discovery.ocdfg_s") else {"discovery.arcs": len(dfg.arcs)},
    )
    discovery.annotate_durations = T("discovery.durations_s", discovery.annotate_durations)
    discovery.discover_ocdfg = T("discovery.ocdfg_s", discovery.discover_ocdfg)
    discovery.extract_variants = T("discovery.variants_s", discovery.extract_variants)
    discovery.export_dot = T("discovery.dot_s", discovery.export_dot)
    discovery.write_model_json = T("discovery.model_write_s", discovery.write_model_json)
    discovery.write_variants_json = T("discovery.model_write_s", discovery.write_variants_json)

    conformance.dfg_to_workflow_net = T("conformance.net_s", conformance.dfg_to_workflow_net)
    conformance.token_replay = T(
        "conformance.replay_s", conformance.token_replay,
        lambda report, *args: {"conformance.traces": report.n_traces},
    )

    validation.build_od_matrix = T(
        "validation.od_s", validation.build_od_matrix,
        lambda od, *args: {"validation.od_cells": len(od.counts)},
    )
    validation.compare_shares = T("validation.compare_s", validation.compare_shares)

    synth.generate_scenario = T(
        "synth.generate_s", synth.generate_scenario,
        lambda result, *args: {"synth.events": len(result[0])},
    )
