import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrflow import cli, records, synth
from cdrflow.config import load_config
from cdrflow.errors import InvalidConfig, ScenarioMismatch
from cdrflow.eventfiles import write_cdr_csv
from cdrflow.geo import position_events
from cdrflow.records import GeoPoint, destination_point, haversine_distance, haversine_m_array
from cdrflow.stays import Staypoint, StopParams, build_staypoints
from cdrflow.synth import (
    ScenarioConfig,
    TowerGridSpec,
    generate_scenario,
    load_ground_truth_json,
    score_recovery,
    write_ground_truth_json,
)
from cdrflow.trips import Trip, Tripleg, build_trips
from conftest import reference_generate_scenario, reference_nearest_towers


def small_config(**overrides):
    params = dict(n_agents=4, n_days=2, seed=5)
    params.update(overrides)
    return ScenarioConfig(**params)


class TestGenerateScenario:
    def test_deterministic_byte_identical_files(self, tmp_path):
        for name in ("a", "b"):
            events, *_ = generate_scenario(small_config(seed=1))
            write_cdr_csv([events], tmp_path / f"{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fixed_trip_arithmetic(self):
        cfg = ScenarioConfig(n_agents=1, n_days=30, trips_per_day_kind="fixed",
                             trips_per_day_value=2, seed=3)
        *_, truth = generate_scenario(cfg)
        assert len(truth.trips) == 60

    def test_per_user_timestamps_strictly_increasing(self):
        events, *_ = generate_scenario(small_config())
        by_user = {}
        for ev in events:
            by_user.setdefault(ev.user_id, []).append(ev.timestamp)
        for times in by_user.values():
            assert all(a < b for a, b in zip(times, times[1:]))

    def test_timeline_partition_no_overlap(self):
        *_, truth = generate_scenario(small_config())
        by_user = {}
        for dwell in truth.dwells:
            by_user.setdefault(dwell.user_id, []).append(("d", dwell.t_start, dwell.t_end))
        for trip in truth.trips:
            by_user.setdefault(trip.user_id, []).append(("t", trip.departure, trip.arrival))
        for user, phases in by_user.items():
            phases.sort(key=lambda p: p[1])
            for (_, _, end1), (_, start2, _) in zip(phases, phases[1:]):
                assert end1 == start2, user  # exact partition of the timeline

    def test_events_inside_a_phase(self):
        events, *_, truth = generate_scenario(small_config())
        spans = {}
        for dwell in truth.dwells:
            spans.setdefault(dwell.user_id, []).append((dwell.t_start, dwell.t_end))
        for trip in truth.trips:
            spans.setdefault(trip.user_id, []).append((trip.departure, trip.arrival))
        for ev in events:
            assert any(a <= ev.timestamp <= b for a, b in spans[ev.user_id])

    def test_nearest_tower_oracle(self):
        cfg = small_config(moving_rate_per_h=12.0,
                           mode_mix={"car": 1.0},
                           mode_speed_bands_kmh={"car": (43.5, 43.5)},
                           mode_trip_distance_m={"car": (4200.0, 7000.0)})
        events, towers, _, truth = generate_scenario(cfg)
        positioned_anchor = {(a.user_id, name): agent_anchor
                             for a in truth.agents
                             for name, agent_anchor in (("home", a.home), ("work", a.work))}
        rng = random.Random(0)
        sample = rng.sample(events, min(300, len(events)))
        tower_list = list(towers.values())
        dwell_spans = []
        for d in truth.dwells:
            anchor = positioned_anchor[(d.user_id, d.anchor)]
            dwell_spans.append((d.user_id, d.t_start, d.t_end, anchor.point))
        for ev in sample:
            inside = [p for (u, a, b, p) in dwell_spans
                      if u == ev.user_id and a <= ev.timestamp <= b]
            if not inside:
                continue  # moving ping; position changes continuously
            origin = inside[0]
            best = min(tower_list, key=lambda t: (haversine_distance(t.center, origin),
                                                  t.cell_id))
            assert ev.cell_id == best.cell_id

    def test_anchor_regions_agree_with_region_index(self):
        events, towers, regions, truth = generate_scenario(small_config())
        for agent in truth.agents:
            for anchor in (agent.home, agent.work):
                assert regions.assign(anchor.point, "parish") == anchor.parish
                assert regions.assign(anchor.point, "municipality") == anchor.municipality

    def test_anchor_distance_in_mode_band(self):
        cfg = small_config(n_agents=12)
        *_, truth = generate_scenario(cfg)
        for agent in truth.agents:
            lo, hi = cfg.mode_trip_distance_m[agent.mode]
            d = haversine_distance(agent.home.point, agent.work.point)
            assert lo <= d <= hi

    def test_poisson_kind_runs(self):
        cfg = small_config(trips_per_day_kind="poisson", trips_per_day_value=1.5)
        *_, truth = generate_scenario(cfg)
        horizon = cfg.n_days * 86400
        for trip in truth.trips:
            assert cfg.start_epoch <= trip.departure < cfg.start_epoch + horizon


class TestConfigValidation:
    def test_mix_must_sum_to_one(self):
        with pytest.raises(InvalidConfig, match="mode_mix sums to 0.7"):
            generate_scenario(small_config(mode_mix={"car": 0.5, "bus": 0.2}))

    def test_band_must_classify_to_its_mode(self):
        cfg = small_config(
            mode_mix={"car": 1.0},
            mode_speed_bands_kmh={"car": (2.0, 2.0)},  # walking speed
            mode_trip_distance_m={"car": (4200.0, 7000.0)},
        )
        with pytest.raises(InvalidConfig, match="classifies as"):
            generate_scenario(cfg)

    def test_rates_validated(self):
        with pytest.raises(InvalidConfig):
            generate_scenario(small_config(dwell_rate_per_h=0.0))
        with pytest.raises(InvalidConfig):
            generate_scenario(small_config(tower_noise_p=1.5))

    def test_unreachable_distance_band(self):
        cfg = small_config(
            towers=TowerGridSpec(rows=3, cols=3, spacing_m=400.0),
            mode_mix={"train": 1.0},
            mode_speed_bands_kmh={"train": (90.0, 90.0)},
            mode_trip_distance_m={"train": (8000.0, 9500.0)},  # grid only 1.2 km wide
        )
        with pytest.raises(InvalidConfig, match="no anchor pair"):
            generate_scenario(cfg)


class TestScoreRecovery:
    def run_pipeline(self, cfg):
        events, towers, regions, truth = generate_scenario(cfg)
        positioned = position_events(events, towers)
        staypoints = build_staypoints(positioned, StopParams(), regions=regions)
        trips = build_trips(staypoints, [])
        return truth, staypoints, trips

    def test_perfect_recovery_small_scenario(self):
        truth, staypoints, trips = self.run_pipeline(small_config(n_agents=6, n_days=3))
        report = score_recovery(truth, staypoints, trips)
        assert report.staypoint_precision == 1.0
        assert report.staypoint_recall == 1.0
        assert report.trip_count_deviation == 0.0
        assert report.od_cell_agreement == 1.0
        assert report.mode_accuracy == 1.0
        assert all(true == det for (true, det), _ in report.mode_confusion)

    def test_no_detections_convention(self):
        *_, truth = generate_scenario(small_config())
        report = score_recovery(truth, [], [])
        assert report.no_detections is True
        assert report.staypoint_precision == 1.0
        assert report.staypoint_recall == 0.0

    def test_merged_dwell_counts_as_miss(self):
        *_, truth = generate_scenario(small_config(n_agents=1, n_days=1))
        agent = truth.agents[0]
        lo = min(d.t_start for d in truth.dwells)
        hi = max(d.t_end for d in truth.dwells)
        merged = Staypoint(
            staypoint_id="sp0", user_id=agent.user_id, location_id="L0",
            median=agent.home.point, t_start=float(lo), t_end=float(hi),
        )
        report = score_recovery(truth, [merged], [])
        # one merged detection can match at most one of the true dwells
        assert report.n_matched_staypoints <= 1
        assert report.staypoint_recall < 1.0

    def test_unknown_user_rejected(self):
        *_, truth = generate_scenario(small_config())
        alien = Staypoint(
            staypoint_id="sp0", user_id="ghost", location_id="L0",
            median=GeoPoint(0.0, 0.0), t_start=0.0, t_end=10.0,
        )
        with pytest.raises(ScenarioMismatch, match="staypoint user 'ghost' not in ground truth"):
            score_recovery(truth, [alien], [])
        with pytest.raises(ScenarioMismatch, match="trip user 'ghost' not in ground truth"):
            score_recovery(truth, [], [_trip("tr0", 0.0, 10.0, "car", user_id="ghost")])


HOME = GeoPoint(38.6, -9.4)
WORK = destination_point(HOME, 90.0, 2000.0)


def _trip(trip_id, t_start, t_end, mode, user_id="u0", origin="sp_x", dest="sp_far"):
    leg = Tripleg(f"{trip_id}.0", user_id, origin, dest, t_start, t_end, 2000.0, 20.0, mode)
    return Trip(trip_id, user_id, (leg,), origin, dest, t_start, t_end)


class TestRecoveryMatching:
    """score_recovery's greedy matching rules on a hand-built truth for one user."""

    @staticmethod
    def truth(dwells, trips=()):
        anchors = [
            synth.AnchorTruth(name, f"c{k}", point, f"P{k}", f"M{k}")
            for k, (name, point) in enumerate([("home", HOME), ("work", WORK)])
        ]
        agent = synth.AgentTruth("u0", "bus", *anchors)
        return synth.GroundTruth(
            seed=0, start_epoch=0, horizon_s=86400, agents=(agent,), trips=tuple(trips),
            dwells=tuple(synth.TrueDwell("u0", anchor, lo, hi) for anchor, lo, hi in dwells),
        )

    @staticmethod
    def staypoint(sp_id, median, t_start, t_end):
        return Staypoint(sp_id, "u0", sp_id, median, float(t_start), float(t_end), "P", "M")

    def test_dwells(self):
        truth = self.truth([
            ("home", 0, 600),
            ("home", 600, 1600),
            ("work", 3000, 4000),
            ("home", 5000, 6000),
            ("home", 8000, 8000),  # zero length: neither matched nor counted
        ])
        staypoints = [
            # overlaps the first two dwells by 500 s each and goes to the first,
            # although the first could have taken sp_y and left it to the second
            self.staypoint("sp_x", HOME, 100, 1100),
            self.staypoint("sp_y", HOME, 0, 400),
            self.staypoint("sp_far", destination_point(WORK, 0.0, 400.0), 3000, 4000),
            self.staypoint("sp_short", WORK, 3000, 3499),  # 499 s of a 1000 s dwell
            self.staypoint("sp_half", HOME, 5500, 7000),  # exactly half: a match
            self.staypoint("sp_zero", HOME, 7900, 8100),
        ]
        report = score_recovery(truth, staypoints, [])
        assert report.n_true_dwells == 4
        assert report.n_detected_staypoints == 6
        assert report.n_matched_staypoints == 2
        assert report.staypoint_precision == 2 / 6
        assert report.staypoint_recall == 0.5
        assert score_recovery(truth, staypoints, [], match_radius_m=401.0).n_matched_staypoints == 3

    def test_trips(self):
        truth = self.truth([], trips=[
            synth.TrueTrip("u0", "home", "work", "bus", 1000, 2000, 2000.0),
            synth.TrueTrip("u0", "work", "home", "train", 2000, 3000, 2000.0),
            synth.TrueTrip("u0", "home", "work", "car", 4000, 5000, 2000.0),
        ])
        detected = [
            _trip("tr1", 1500.0, 2500.0, "walk"),  # 500 s of the bus trip, and of the train trip
            _trip("tr0", 500.0, 1500.0, "car"),  # 500 s of the bus trip: comes second, loses
            _trip("tr2", 5000.0, 6000.0, "car"),  # touches the car trip: no positive overlap
        ]
        report = score_recovery(truth, [], detected)
        assert report.n_true_trips == 3
        assert report.n_detected_trips == 3
        assert report.n_mode_matched == 1  # tr1 is not reused for the train trip
        assert report.mode_confusion == ((("bus", "walk"), 1),)
        assert report.mode_accuracy == 0.0
        report = score_recovery(truth, [], detected[1:2] + detected[:1] + detected[2:])
        assert report.n_mode_matched == 2
        assert report.mode_confusion == ((("bus", "car"), 1), (("train", "walk"), 1))
        assert report.mode_accuracy == 0.0


class TestGroundTruthJson:
    def test_round_trip(self, tmp_path):
        *_, truth = generate_scenario(small_config())
        path = tmp_path / "truth.json"
        write_ground_truth_json(truth, path)
        assert load_ground_truth_json(path) == truth


# --- the columnar generator against the per-ping reference -------------------

# Towers in two rows, anchors all on the upper one (the anchor subgrid starts
# at row 1): trips run along a row of towers and exact distance ties occur.
ONE_ROW = dict(
    towers=TowerGridSpec(rows=2, cols=40), origin_lat=0.0, origin_lon=0.0,
    moving_rate_per_h=120.0, tower_noise_p=0.2,
    mode_mix={"walk": 0.5, "bicycle": 0.5},
)

REFERENCE_CONFIGS = {
    "small_default": small_config(),
    "moving_noise_poisson": small_config(
        n_agents=6, n_days=3, seed=9, moving_rate_per_h=30.0, tower_noise_p=0.1,
        trips_per_day_kind="poisson", trips_per_day_value=2.5,
    ),
    "grid_48x48": small_config(
        n_agents=10, n_days=2, seed=13, towers=TowerGridSpec(rows=48, cols=48),
        dwell_rate_per_h=6.0, moving_rate_per_h=12.0, tower_noise_p=0.05,
        trips_per_day_kind="poisson", trips_per_day_value=3.0,
    ),
    "one_row_ties": small_config(n_agents=6, seed=21, **ONE_ROW),
}


class TestAgainstPerPingReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
    def test_events_and_truth_equal_the_reference(self, name):
        events, towers, regions, truth = generate_scenario(REFERENCE_CONFIGS[name])
        ref_events, ref_towers, ref_regions, ref_truth = reference_generate_scenario(
            REFERENCE_CONFIGS[name]
        )
        assert len(events) == len(ref_events)
        for k, (got, want) in enumerate(zip(events, ref_events)):
            assert got == want, k
        assert truth == ref_truth
        assert towers == ref_towers
        assert regions.regions() == ref_regions.regions()

    def test_one_row_config_has_exact_ties(self):
        # ties between the second and third nearest tower, so the order
        # among equal distances decides which cell is the noisy one
        world = synth._World(REFERENCE_CONFIGS["one_row_ties"])
        *_, truth = generate_scenario(REFERENCE_CONFIGS["one_row_ties"])
        ties = 0
        for agent in truth.agents:
            for anchor in (agent.home, agent.work):
                phi = math.radians(anchor.point.lat)
                d = np.sort(haversine_m_array(
                    phi, math.radians(anchor.point.lon), math.cos(phi),
                    world._tower_lat, world._tower_lon, world._tower_cos,
                ))
                ties += d[1] == d[2]
        assert ties > 0

    @pytest.mark.parametrize("rows, cols", [(2, 40), (5, 3), (48, 48)])
    def test_nearest_towers_equal_the_full_sort(self, rows, cols):
        config = small_config(towers=TowerGridSpec(rows=rows, cols=cols), origin_lat=0.0,
                              origin_lon=0.0)
        world = synth._World(config)
        rng = random.Random(rows * cols)
        lats = sorted({t.center.lat for t in world.towers})
        lons = sorted({t.center.lon for t in world.towers})
        pad = 0.02
        points = [t.center for t in world.towers[:: max(1, len(world.towers) // 50)]]
        points += [  # midway between towers, where distances tie
            GeoPoint((la + lb) / 2, lo) for la, lb in zip(lats, lats[1:]) for lo in lons[:5]
        ] + [GeoPoint(la, (la_ + lb_) / 2) for la in lats[:3] for la_, lb_ in zip(lons, lons[1:])]
        points += [  # inside the grid and well outside it
            GeoPoint(rng.uniform(lats[0] - pad, lats[-1] + pad),
                     rng.uniform(lons[0] - pad, lons[-1] + pad))
            for _ in range(400)
        ]
        for p in points:
            for k in (1, 2, 3, 10):  # 10: the window rarely decides it
                assert world.nearest_towers(p, k) == reference_nearest_towers(world, p, k), (p, k)


@settings(max_examples=300, deadline=None)
@given(
    # few distinct values, so most entries tie
    st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.0 + 1e-12, 3.5, float("inf")]),
             min_size=1, max_size=60).map(np.array),
    st.sampled_from(["1", "2", "all"]),
)
def test_k_smallest_is_the_stable_argsort_prefix(values, which):
    k = len(values) if which == "all" else int(which)
    want = np.argsort(values, kind="stable")[:k]
    assert synth._k_smallest(values, k).tolist() == want.tolist()


class TestUserOrder:
    def test_order_beyond_ten_thousand_agents_is_string_order(self):
        order = synth._user_order(10_001)
        ids = [synth._user_id(idx) for idx in order]
        assert ids == sorted(synth._user_id(idx) for idx in range(10_001))
        at = ids.index("u1000")
        assert ids[at:at + 3] == ["u1000", "u10000", "u1001"]

    def test_blocks_in_user_order_equal_the_global_sort(self):
        # each agent's block in time order, blocks concatenated in user order,
        # is the (user_id, timestamp) sort of every event
        rng = random.Random(4)
        n = 10_003
        blocks = {idx: sorted(rng.randrange(50) for _ in range(rng.randrange(3))) for idx in range(n)}
        concatenated = [
            (synth._user_id(idx), t) for idx in synth._user_order(n) for t in blocks[idx]
        ]
        everything = [(synth._user_id(idx), t) for idx in range(n) for t in blocks[idx]]
        assert concatenated == sorted(everything)


class TestStreamingSynth:
    def test_agent_events_are_the_events_and_repeat(self):
        config = REFERENCE_CONFIGS["moving_noise_poisson"]
        scenario = synth.Scenario(config)
        events, *_, truth = generate_scenario(config)
        for _ in range(2):
            flat = [
                (block.users[u], t, block.cells[c])
                for block in scenario.agent_events()
                for u, t, c in zip(block.user.tolist(), block.ts.tolist(), block.cell.tolist())
            ]
            assert flat == [(e.user_id, e.timestamp, e.cell_id) for e in events]
        assert scenario.truth == truth

    def test_cli_synth_writes_cdr_without_event_records(self, tmp_path, monkeypatch):
        config = tmp_path / "run.ini"
        config.write_text(
            "[synth]\nn_agents = 5\nn_days = 2\nmoving_rate_per_h = 30\n"
            "tower_noise_p = 0.1\ntrips_per_day_kind = poisson\ntrips_per_day_value = 2.5\n",
            encoding="utf-8",
        )

        def no_records(*args, **kwargs):
            raise AssertionError("cdrflow synth built a CdrEvent")

        with monkeypatch.context() as patch:
            patch.setattr(records, "CdrEvent", no_records)  # where EventColumns makes records
            code = cli.main(["synth", "--config", str(config), "--seed", "17",
                             "--out", str(tmp_path / "run")])
        assert code == 0
        events, *_ = generate_scenario(replace(load_config(config).scenario, seed=17))
        write_cdr_csv([events], tmp_path / "expected.csv")
        assert (tmp_path / "run" / "cdr.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
