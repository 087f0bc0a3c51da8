"""Acceptance gate: every shipping criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest
import scipy.stats

from cdrflow.cli import ART, main as cli_main
from cdrflow.conformance import dfg_to_workflow_net, token_replay
from cdrflow.discovery import annotate_durations, discover_dfg, discover_ocdfg, extract_variants
from cdrflow.eventlog import CaseLog, Trace, build_case_log, build_ocel
from cdrflow.geo import (
    GeoPoint,
    RegionIndex,
    TowerSector,
    bearing_within_wedge,
    haversine_distance,
    initial_bearing,
    position_events,
    region_contains,
    sample_sector_point,
)
from cdrflow.stays import Staypoint, StopParams, build_staypoints
from cdrflow.synth import ScenarioConfig, generate_scenario, score_recovery
from cdrflow.trips import Trip, Tripleg, build_trips
from cdrflow.validation import linear_regression

from conftest import random_case_log, square_region


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {summary}", flush=True)
        raise
    print(f"ACCEPTANCE {number} PASS: {summary}", flush=True)


@pytest.fixture(scope="module")
def recovered_pipeline():
    """Default noiseless scenario (100 agents, 14 days) through the pipeline."""
    t0 = time.monotonic()
    config = ScenarioConfig(seed=2024)
    events, towers, regions, truth = generate_scenario(config)
    positioned = position_events(events, towers)
    staypoints = build_staypoints(positioned, StopParams(), regions=regions)
    trips = build_trips(staypoints, [])
    report = score_recovery(truth, staypoints, trips)
    elapsed = time.monotonic() - t0
    return {
        "truth": truth,
        "staypoints": staypoints,
        "trips": trips,
        "report": report,
        "elapsed_s": elapsed,
    }


def test_criterion_1_perfect_fitness_on_own_model():
    rng = random.Random(1001)
    sizes = [rng.randint(50, 1500) for _ in range(45)] + [3000, 5000, 7500, 9000, 10000]
    assert len(sizes) == 50
    worst = 0.0
    with criterion(1, "50 random logs replay on their own model at fitness exactly 1.0"):
        for size in sizes:
            log = random_case_log(rng, n_traces=size)
            start = time.monotonic()
            net = dfg_to_workflow_net(discover_dfg(log))
            report = token_replay(net, log)
            elapsed = time.monotonic() - start
            worst = max(worst, elapsed)
            assert report.fitness == 1.0
            assert report.missing == 0
            assert report.remaining == 0
            assert elapsed < 10.0
    print(f"    slowest log replayed in {worst:.2f}s (limit 10s)")


def test_criterion_2_hand_oracle_replay():
    with criterion(2, "trace <A> on src->A->p_AB->B->sink counts p=2,c=2,m=1,r=1"):
        model_log = CaseLog(traces=(Trace("m", (("A", 0.0), ("B", 60.0))),))
        net = dfg_to_workflow_net(discover_dfg(model_log))
        probe = CaseLog(traces=(Trace("p", (("A", 0.0),)),))
        report = token_replay(net, probe)
        assert report.produced == 2
        assert report.consumed == 2
        assert report.missing == 1
        assert report.remaining == 1
        assert report.fitness == 0.5


def test_criterion_3_conservation_suite():
    rng = random.Random(1003)
    with criterion(3, "arc/start/end/variant/relation conservation exact on every log"):
        for _ in range(30):
            log = random_case_log(rng)
            dfg = discover_dfg(log)
            assert sum(s.frequency for _, s in dfg.arcs) == sum(
                len(t.events) - 1 for t in log.traces
            )
            assert sum(n for _, n in dfg.start_counts) == len(log.traces)
            assert sum(n for _, n in dfg.end_counts) == len(log.traces)
            assert sum(v.count for v in extract_variants(log)) == len(log.traces)
        for _ in range(10):
            staypoints, trips = _random_trip_world(rng, n_trips=rng.randint(5, 150))
            ocel = build_ocel(build_case_log(trips, staypoints, "municipality"), trips)
            assert ocel.n_relations == 2 * len(ocel.events)


def test_criterion_4_pipeline_recovery(recovered_pipeline):
    report = recovered_pipeline["report"]
    with criterion(4, "noiseless 100x14 scenario: staypoints, trips, OD, modes recovered"):
        assert report.staypoint_precision >= 0.95
        assert report.staypoint_recall >= 0.95
        assert abs(report.trip_count_deviation) <= 0.02
        assert report.od_cell_agreement >= 0.98
        assert report.mode_accuracy == 1.0
        assert recovered_pipeline["elapsed_s"] < 60.0
    print(
        f"    P={report.staypoint_precision:.4f} R={report.staypoint_recall:.4f} "
        f"tripdev={report.trip_count_deviation:+.4%} od={report.od_cell_agreement:.4f} "
        f"modes={report.mode_accuracy:.4f} in {recovered_pipeline['elapsed_s']:.1f}s"
    )


def test_criterion_5_duration_annotation_fidelity():
    with criterion(5, "planted 20-minute inter-region legs yield arc mean 1200s +/- 1s"):
        staypoints = []
        trips = []
        t = 0
        for i in range(40):
            dep = t + 4000
            arr = dep + 1200  # exactly 20 minutes
            a = Staypoint(
                staypoint_id=f"a{i}", user_id="u", location_id=f"a{i}",
                median=GeoPoint(38.7, -9.3), t_start=float(t), t_end=float(dep),
                region_municipality="R1",
            )
            b = Staypoint(
                staypoint_id=f"b{i}", user_id="u", location_id=f"b{i}",
                median=GeoPoint(38.75, -9.2), t_start=float(arr), t_end=float(arr + 4000),
                region_municipality="R2",
            )
            staypoints += [a, b]
            leg = Tripleg(
                tripleg_id=f"l{i}", user_id="u", origin_staypoint=a.staypoint_id,
                dest_staypoint=b.staypoint_id, t_start=float(dep), t_end=float(arr),
                path_length_m=9000.0, avg_speed_kmh=27.0, mode="car",
            )
            trips.append(
                Trip(
                    trip_id=f"trip{i:04d}", user_id="u", triplegs=(leg,),
                    origin_staypoint=a.staypoint_id, dest_staypoint=b.staypoint_id,
                    t_start=float(dep), t_end=float(arr),
                )
            )
            t = arr + 4000
        log = build_case_log(trips, staypoints, "municipality")
        dfg = annotate_durations(discover_dfg(log), log)
        mean = dfg.arc_dict()[("R1", "R2")].mean_s
        assert mean == pytest.approx(1200.0, abs=1.0)


def test_criterion_6_ocdfg_oracle_equivalence():
    rng = random.Random(1006)
    sizes = [rng.randint(50, 800) for _ in range(17)] + [4000, 8000, 10000]
    with criterion(6, "per-type OC-DFGs equal case-centric DFGs of flattened logs, exact"):
        for size in sizes:
            staypoints, trips = _random_trip_world(rng, n_trips=max(2, size // 3))
            ocel = build_ocel(build_case_log(trips, staypoints, "municipality"), trips)
            assert len(ocel.events) <= 10000
            ocdfg = discover_ocdfg(ocel)
            for object_type, got in ocdfg.per_type:
                typed = {o.object_id for o in ocel.objects if o.object_type == object_type}
                per_object = {}
                for event in ocel.events:
                    for oid in sorted({o for o, _ in event.relations if o in typed}):
                        per_object.setdefault(oid, []).append(event)
                traces = tuple(
                    Trace(
                        case_id=oid,
                        events=tuple(
                            (e.activity, e.timestamp)
                            for e in sorted(
                                per_object[oid], key=lambda e: (e.timestamp, e.event_id)
                            )
                        ),
                    )
                    for oid in sorted(per_object)
                )
                flat = CaseLog(traces=traces, level=ocel.level)
                expected = annotate_durations(discover_dfg(flat), flat)
                assert got == expected


def test_criterion_7_regression_correctness():
    rng = random.Random(1007)
    with criterion(7, "OLS matches the closed-form oracle to 1e-9 on 100 random datasets"):
        for _ in range(100):
            n = rng.randint(3, 80)
            x = [rng.uniform(-100, 100) for _ in range(n)]
            y = [rng.uniform(-3, 3) * v + rng.gauss(0, 10) for v in x]
            got = linear_regression(x, y)
            mx, my = sum(x) / n, sum(y) / n
            sxx = sum((v - mx) ** 2 for v in x)
            syy = sum((v - my) ** 2 for v in y)
            sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
            slope = sxy / sxx
            r = sxy / math.sqrt(sxx * syy)
            assert got.slope == pytest.approx(slope, abs=1e-9)
            assert got.intercept == pytest.approx(my - slope * mx, abs=1e-9)
            assert got.r == pytest.approx(r, abs=1e-9)
            assert got.p_value == pytest.approx(scipy.stats.linregress(x, y).pvalue, abs=1e-9)
        perfect = linear_regression([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])
        assert perfect.r_squared == 1.0
        x = [rng.uniform(0, 10) for _ in range(25)]
        y = [1.7 * v + rng.gauss(0, 1) for v in x]
        base = linear_regression(x, y)
        scaled = linear_regression(x, [v * 13.0 for v in y])
        assert scaled.r == pytest.approx(base.r, abs=1e-9)


def test_criterion_8_byte_identical_runs(tmp_path):
    config = tmp_path / "pipeline.ini"
    config.write_text("[synth]\nn_agents = 4\nn_days = 2\n")
    with criterion(8, "repeated `all` runs and varied --threads give byte-identical files"):
        outs = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / name
            code = cli_main(
                ["all", "--config", str(config), "--out", str(out),
                 "--seed", "31", "--threads", threads]
            )
            assert code == 0
            outs.append(out)
        for filename in (
            ART["ocel"], ART["dfg_dot"], ART["ocdfg_dot"], ART["dfg_model"],
            ART["conformance"], ART["validation"], ART["variants"], ART["log_stats"],
        ):
            blobs = {(out / filename).read_bytes() for out in outs}
            assert len(blobs) == 1, filename


def test_criterion_9_geometry_contracts():
    rng = random.Random(1009)
    with criterion(9, "10k sector samples hit distance/wedge exactly; region oracle agrees"):
        for _ in range(10000):
            sector = TowerSector(
                cell_id="c",
                center=GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179)),
                azimuth_deg=rng.uniform(0, 360),
                beamwidth_deg=rng.uniform(1, 360),
                radius_m=rng.uniform(1, 10000),
            )
            p = sample_sector_point(sector, rng.getrandbits(64))
            assert haversine_distance(sector.center, p) <= sector.radius_m
            assert bearing_within_wedge(
                initial_bearing(sector.center, p), sector.azimuth_deg, sector.beamwidth_deg
            )
        regions = [
            square_region(
                f"R{i:02d}", "municipality",
                rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(0.3, 2.0),
            )
            for i in range(15)
        ]
        index = RegionIndex(regions)
        for _ in range(10000):
            p = GeoPoint(rng.uniform(-5, 6), rng.uniform(-5, 6))
            oracle = min(
                (r.region_id for r in regions if region_contains(r, p)), default=None
            )
            assert index.assign(p, "municipality") == oracle


def _random_trip_world(rng, n_trips):
    munis = ["M_A", "M_B", "M_C", "M_D"]
    modes = ["bus", "car", "walk", "train", "bicycle"]
    staypoints = []
    trips = []
    t = 0
    for i in range(n_trips):
        user = f"u{i % 7}"
        n_sp = rng.randint(2, 4)
        chain, times = [], []
        dep = t + rng.randint(500, 2000)
        for k in range(n_sp):
            sp_id = f"t{i}s{k}"
            arr = dep if k == 0 else times[-1] + rng.randint(300, 1200)
            staypoints.append(
                Staypoint(
                    staypoint_id=sp_id, user_id=user, location_id=sp_id,
                    median=GeoPoint(38.7, -9.3), t_start=float(arr - 150),
                    t_end=float(arr + 150), region_municipality=rng.choice(munis),
                )
            )
            chain.append(sp_id)
            times.append(arr)
        legs = tuple(
            Tripleg(
                tripleg_id=f"t{i}l{k}", user_id=user, origin_staypoint=chain[k],
                dest_staypoint=chain[k + 1], t_start=float(times[k]),
                t_end=float(times[k + 1]), path_length_m=4000.0,
                avg_speed_kmh=20.0, mode=rng.choice(modes),
            )
            for k in range(n_sp - 1)
        )
        trips.append(
            Trip(
                trip_id=f"trip{i:05d}", user_id=user, triplegs=legs,
                origin_staypoint=chain[0], dest_staypoint=chain[-1],
                t_start=float(times[0]), t_end=float(times[-1]),
            )
        )
        t = times[-1]
    return staypoints, trips
