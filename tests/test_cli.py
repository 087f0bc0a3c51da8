import csv
import gc
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cdrflow
from cdrflow.cli import ART, main
from cdrflow.config import PipelineConfig, config_hash, load_config
from cdrflow.geo import (
    Region, load_cdr_csv, load_positioned_csv, load_towers_csv, region_contains,
    write_regions_geojson,
)
from cdrflow.records import GeoPoint

from test_geo import scalar_positions


def run(*argv):
    return main(list(argv))


TINY = """
[synth]
n_agents = 3
n_days = 1
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "pipeline.ini"
    path.write_text(TINY)
    return path


@pytest.fixture
def inputs(tmp_path, tiny_config):
    """Synth outputs to feed later runs as external inputs."""
    path = tmp_path / "inputs"
    assert run("synth", "--config", str(tiny_config), "--out", str(path), "--seed", "4") == 0
    return path


def external_config(tmp_path, name, inputs, cdr):
    """INI whose events, towers and regions come from outside the run directory."""
    path = tmp_path / f"{name}.ini"
    path.write_text(
        f"[paths]\ncdr = {cdr}\ntowers = {inputs / ART['towers']}\n"
        f"regions = {inputs / ART['regions']}\n"
    )
    return path


# Every artifact from the position stage on.
DERIVED = [name for name in ART if name not in ("cdr", "towers", "regions", "ground_truth")]


class TestRunAll:
    def test_all_produces_artifacts_and_exits_zero(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        assert run("all", "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 0
        for name in (
            "cdr", "towers", "regions", "ground_truth", "positioned", "staypoints",
            "triplegs", "trips", "case_log", "ocel", "log_stats", "dfg_model",
            "dfg_dot", "ocdfg_model", "ocdfg_dot", "variants", "conformance",
            "od", "validation",
        ):
            assert (out / ART[name]).exists(), name
        report = json.loads((out / ART["conformance"]).read_text())
        assert report["fitness"] == 1.0

    def test_all_matches_individual_stages(self, tmp_path, tiny_config):
        out_all = tmp_path / "all"
        out_staged = tmp_path / "staged"
        assert run("all", "--config", str(tiny_config), "--out", str(out_all), "--seed", "4") == 0
        for stage in ("synth", "position", "stays", "trips", "log", "discover",
                      "conform", "validate"):
            assert run(stage, "--config", str(tiny_config), "--out", str(out_staged),
                       "--seed", "4") == 0, stage
        for name, filename in ART.items():
            a, b = out_all / filename, out_staged / filename
            assert a.exists() == b.exists(), name
            if a.exists():
                assert a.read_bytes() == b.read_bytes(), name

    def test_library_calls_write_the_cli_artifacts(self, tmp_path):
        from cdrflow import (
            build_staypoints, build_trips, generate_scenario, moving_events, position_events,
        )
        from cdrflow.geo import write_positioned_csv
        from cdrflow.stays import write_staypoints_csv
        from cdrflow.trips import write_triplegs_csv, write_trips_csv

        ini = tmp_path / "noisy.ini"
        ini.write_text(
            "[synth]\nn_agents = 6\nn_days = 2\nmoving_rate_per_h = 30\ntower_noise_p = 0.1\n"
            "trips_per_day_kind = poisson\ntrips_per_day_value = 2.5\n"
        )
        out = tmp_path / "cli"
        assert run("all", "--config", str(ini), "--out", str(out), "--seed", "17") == 0
        cfg = replace(load_config(ini), seed=17)
        events, towers, regions, _ = generate_scenario(replace(cfg.scenario, seed=cfg.seed))
        positioned = position_events(events, towers)
        staypoints = build_staypoints(positioned, cfg.stop_params, regions=regions)
        moving = moving_events(positioned, staypoints)
        trips = build_trips(
            staypoints, moving, thresholds=cfg.thresholds, gap_threshold=cfg.gap_threshold_s
        )
        assert 0 < len(moving) < len(positioned) and trips
        lib = tmp_path / "lib"
        lib.mkdir()
        write_positioned_csv(positioned, lib / ART["positioned"])
        write_staypoints_csv(staypoints, lib / ART["staypoints"])
        write_positioned_csv(moving, lib / ART["moving"])
        write_trips_csv(trips, lib / ART["trips"])
        write_triplegs_csv(trips, lib / ART["triplegs"])
        for name in ("positioned", "staypoints", "moving", "trips", "triplegs"):
            assert (lib / ART[name]).read_bytes() == (out / ART[name]).read_bytes(), name

    def test_command_line_overrides_reach_the_stages(self, tmp_path, tiny_config):
        cfg = load_config(tiny_config)
        assert (cfg.level, cfg.min_arc_frequency) == ("municipality", 0) and cfg.top_k > 1
        plain, flagged = tmp_path / "plain", tmp_path / "flagged"
        assert run("all", "--config", str(tiny_config), "--out", str(plain)) == 0
        assert run("all", "--config", str(tiny_config), "--out", str(flagged), "--level", "parish",
                   "--top-k", "1", "--min-arc-freq", "1000000") == 0
        features = json.loads((plain / ART["regions"]).read_text())["features"]
        for run_dir, level in ((plain, "municipality"), (flagged, "parish")):
            ids = {f["properties"]["region_id"] for f in features
                   if f["properties"]["level"] == level}
            rows = (run_dir / ART["case_log"]).read_text().splitlines()[1:]
            assert rows and {row.split(",")[1] for row in rows} <= ids
        assert len(json.loads((plain / ART["variants"]).read_text())) > 1
        assert len(json.loads((flagged / ART["variants"]).read_text())) == 1
        for name in ("dfg_dot", "ocdfg_dot"):  # every arc is below the frequency floor
            assert "->" in (plain / ART[name]).read_text()
            assert "->" not in (flagged / ART[name]).read_text()

    def test_deterministic_across_runs_and_threads(self, tmp_path, tiny_config):
        outs = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / name
            assert run("all", "--config", str(tiny_config), "--out", str(out),
                       "--seed", "11", "--threads", threads) == 0
            outs.append(out)
        for filename in (ART["ocel"], ART["dfg_dot"], ART["ocdfg_dot"],
                         ART["conformance"], ART["validation"], ART["variants"]):
            blobs = {(out / filename).read_bytes() for out in outs}
            assert len(blobs) == 1, filename

    def test_synth_plants_modes_by_the_modes_table(self, tmp_path):
        # a 28 km/h bus is a bus under bus_max_kmh = 30, a car under the default 27
        ini = tmp_path / "bus30.ini"
        ini.write_text(
            "[modes]\nbus_max_kmh = 30\n[synth]\nn_agents = 12\nn_days = 2\n"
            "mode_speed_bands_kmh = "
            "walk:3.5:3.5,bicycle:11:11,bus:28:28,car:43.5:43.5,train:90:90\n"
        )
        out = tmp_path / "run"
        assert run("all", "--config", str(ini), "--out", str(out), "--seed", "17") == 0
        planted = [t["mode"] for t in json.loads((out / ART["ground_truth"]).read_text())["trips"]]
        with open(out / ART["trips"], newline="") as f:
            assert [row["primary_mode"] for row in csv.DictReader(f)] == planted
        assert planted.count("bus") == 8

    def test_all_with_external_inputs_skips_synth(self, tmp_path, inputs):
        ini = external_config(tmp_path, "external", inputs, inputs / ART["cdr"])
        out = tmp_path / "run"
        assert run("all", "--config", str(ini), "--out", str(out), "--seed", "4") == 0
        assert not (out / ART["cdr"]).exists()
        assert not (out / ART["ground_truth"]).exists()
        assert (out / ART["validation"]).exists()

    def test_shuffled_cdr_rows_give_identical_artifacts(self, tmp_path, inputs):
        header, *rows = (inputs / ART["cdr"]).read_text().splitlines(keepends=True)
        random.Random(9).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows))
        outs = []
        for name, cdr in (("sorted", inputs / ART["cdr"]), ("shuffled", shuffled)):
            out = tmp_path / name
            ini = external_config(tmp_path, name, inputs, cdr)
            assert run("all", "--config", str(ini), "--out", str(out), "--seed", "4") == 0
            outs.append(out)
        for name in DERIVED:
            a, b = (out / ART[name] for out in outs)
            assert a.exists() == b.exists(), name
            if a.exists():
                assert a.read_bytes() == b.read_bytes(), name


    def test_position_places_each_event_with_its_own_seed(self, tmp_path, inputs):
        # positions of a shuffled cdr.csv are the scalar oracle's, event for event
        header, *rows = (inputs / ART["cdr"]).read_text().splitlines(keepends=True)
        random.Random(5).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text(header + "".join(rows))
        ini = external_config(tmp_path, "shuffled", inputs, shuffled)
        assert run("position", "--config", str(ini), "--out", str(tmp_path / "run")) == 0
        expected = scalar_positions(load_cdr_csv(shuffled), load_towers_csv(inputs / ART["towers"]))

        def fields(ev):
            return ev.user_id, ev.timestamp, ev.cell_id, ev.location.lat, ev.location.lon

        got = load_positioned_csv(tmp_path / "run" / ART["positioned"])
        assert sorted(map(fields, got)) == sorted(map(fields, expected))


class TestExitCodes:
    def test_missing_towers_file_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            f"[paths]\ncdr = {tmp_path}/cdr.csv\ntowers = {tmp_path}/nope.csv\n"
        )
        (tmp_path / "cdr.csv").write_text("user_id,timestamp,cell_id\n")
        out = tmp_path / "run"
        assert run("position", "--config", str(ini), "--out", str(out)) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_conform_before_discover_exits_1(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "run"
        for stage in ("synth", "position", "stays", "trips", "log"):
            assert run(stage, "--config", str(tiny_config), "--out", str(out),
                       "--seed", "4") == 0
        assert run("conform", "--config", str(tiny_config), "--out", str(out),
                   "--seed", "4") == 1
        err = capsys.readouterr().err
        assert "discover" in err

    def test_trips_without_moving_events_exits_1(self, tmp_path, tiny_config, capsys):
        # a run directory whose stays stage predates moving.csv
        out = tmp_path / "run"
        for stage in ("synth", "position", "stays"):
            assert run(stage, "--config", str(tiny_config), "--out", str(out),
                       "--seed", "4") == 0
        (out / ART["moving"]).unlink()
        assert run("trips", "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 1
        err = capsys.readouterr().err
        assert "moving.csv" in err and "run the 'stays' stage first" in err

    def test_synth_rejects_modes_the_modes_table_mislabels(self, tmp_path, capsys):
        # under bus_max_kmh = 20 the default 21 km/h bus band is labelled car
        ini = tmp_path / "bus20.ini"
        ini.write_text("[modes]\nbus_max_kmh = 20\n[synth]\nn_agents = 12\nn_days = 2\n")
        out = tmp_path / "run"
        assert run("all", "--config", str(ini), "--out", str(out), "--seed", "17") == 1
        err = capsys.readouterr().err
        assert "cdrflow synth: mode 'bus' band 21.0 km/h at 5250 m classifies as 'car'" in err
        assert not (out / ART["cdr"]).exists()

    def test_discover_without_ocel_exits_1(self, tmp_path, capsys):
        ini = tmp_path / "pipeline.ini"
        ini.write_text("[run]\nocel = true\n[synth]\nn_agents = 3\nn_days = 2\n")
        out = tmp_path / "run"
        for stage in ("synth", "position", "stays", "trips", "log"):
            assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "17") == 0
        (out / ART["ocel"]).unlink()
        assert run("discover", "--config", str(ini), "--out", str(out), "--seed", "17") == 1
        err = capsys.readouterr().err
        missing = out / ART["ocel"]
        assert f"cdrflow discover: missing artifact {missing}; run the 'log' stage first" in err
        for name in ("dfg_model", "dfg_dot", "variants", "ocdfg_model", "ocdfg_dot"):
            assert not (out / ART[name]).exists(), name

    @pytest.mark.parametrize("name, stage, before", [
        ("regions", "stays", ("synth", "position")),
        ("ocel", "discover", ("synth", "position", "stays", "trips", "log")),
        ("dfg_model", "conform", ("synth", "position", "stays", "trips", "log", "discover")),
    ])
    def test_empty_json_exits_1_naming_the_file(self, tmp_path, tiny_config, capsys,
                                                name, stage, before):
        out = tmp_path / "run"
        for done in before:
            assert run(done, "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 0
        (out / ART[name]).write_text("")
        assert run(stage, "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 1
        err = capsys.readouterr().err
        assert str(out / ART[name]) in err and "Expecting value" in err

    @pytest.mark.parametrize("name, stage", [
        ("cdr", "position"), ("towers", "position"), ("positioned", "stays"),
        ("staypoints", "trips"), ("moving", "trips"), ("trips", "log"), ("triplegs", "log"),
        ("trips", "validate"), ("case_log", "discover"),
    ])
    def test_empty_csv_exits_1_naming_the_file(self, survey_run, capsys, name, stage):
        ini, out, paths = survey_run
        path = paths.get(name, out / ART[name])
        original = path.read_bytes()
        path.write_bytes(b"")
        try:
            assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: ")
        assert f"{path}: line 1: expected header" in err

    @pytest.mark.parametrize("name, stage, before, mutate, message", [
        ("ocel", "discover", ("synth", "position", "stays", "trips", "log"),
         lambda doc: doc["events"][0].pop("timestamp"), "has no 'timestamp'"),
        ("ocel", "discover", ("synth", "position", "stays", "trips", "log"),
         lambda doc: doc["events"][0].update(timestamp=1706745600), "'timestamp' is 1706745600"),
        ("ocel", "discover", ("synth", "position", "stays", "trips", "log"),
         lambda doc: doc.update(events={"e0_0": doc["events"][0]}), "events is not a list"),
        ("dfg_model", "conform", ("synth", "position", "stays", "trips", "log", "discover"),
         lambda doc: doc["nodes"][0].pop("activity"), "nodes[0] has no 'activity'"),
        ("ocel", "discover", ("synth", "position", "stays", "trips", "log"),
         lambda doc: doc["objects"].append({"id": doc["objects"][0]["id"], "type": "mode"}),
         "object ids must be unique"),
        ("dfg_model", "conform", ("synth", "position", "stays", "trips", "log", "discover"),
         lambda doc: doc["nodes"].insert(1, doc["nodes"][0]),
         "nodes[1]: duplicate activity"),
        ("dfg_model", "conform", ("synth", "position", "stays", "trips", "log", "discover"),
         lambda doc: doc["arcs"].insert(1, doc["arcs"][0]),
         "arcs[1]: duplicate src/dst"),
        ("dfg_model", "conform", ("synth", "position", "stays", "trips", "log", "discover"),
         lambda doc: doc["startCounts"].insert(1, doc["startCounts"][0]),
         "startCounts[1]: duplicate activity"),
        ("dfg_model", "conform", ("synth", "position", "stays", "trips", "log", "discover"),
         lambda doc: doc["endCounts"].insert(1, doc["endCounts"][0]),
         "endCounts[1]: duplicate activity"),
    ], ids=["event-without-timestamp", "numeric-timestamp", "events-object",
            "node-without-activity", "repeated-object", "repeated-node", "repeated-arc",
            "repeated-start", "repeated-end"])
    def test_malformed_json_entry_exits_1_naming_file_and_entry(
        self, tmp_path, tiny_config, capsys, name, stage, before, mutate, message
    ):
        out = tmp_path / "run"
        for done in before:
            assert run(done, "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 0
        doc = json.loads((out / ART[name]).read_text())
        mutate(doc)
        (out / ART[name]).write_text(json.dumps(doc))
        assert run(stage, "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: ") and str(out / ART[name]) in err
        assert message in err

    def test_config_mismatch_exits_1(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "run"
        assert run("synth", "--config", str(tiny_config), "--out", str(out),
                   "--seed", "4") == 0
        assert run("synth", "--config", str(tiny_config), "--out", str(out),
                   "--seed", "5") == 1
        assert "different" in capsys.readouterr().err

    def test_rerun_by_absolute_path_exits_0(self, tmp_path, tiny_config, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("synth", "--config", str(tiny_config), "--out", "run", "--seed", "4") == 0
        assert run("position", "--config", str(tiny_config), "--out", str(tmp_path / "run"),
                   "--seed", "4") == 0

    def test_inputs_named_by_another_path_exit_0(self, tmp_path, inputs, monkeypatch):
        monkeypatch.chdir(tmp_path)
        relative = external_config(tmp_path, "relative", inputs.relative_to(tmp_path),
                                   inputs.relative_to(tmp_path) / ART["cdr"])
        absolute = external_config(tmp_path, "absolute", inputs, inputs / ART["cdr"])
        assert run("position", "--config", str(relative), "--out", "run") == 0
        assert run("stays", "--config", str(absolute), "--out", "run") == 0

    @pytest.mark.parametrize("setting", ["r1_m = nan", "r2_m = inf"])
    def test_non_finite_stop_threshold_exits_1(self, tmp_path, tiny_config, inputs, setting, capsys):
        assert run("position", "--config", str(tiny_config), "--out", str(inputs),
                   "--seed", "4") == 0
        out = tmp_path / "run"
        out.mkdir()
        for name in ("positioned", "regions"):
            shutil.copy(inputs / ART[name], out / ART[name])
        ini = tmp_path / "stops.ini"
        ini.write_text(TINY + f"[stops]\n{setting}\n")
        assert run("stays", "--config", str(ini), "--out", str(out)) == 1
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("[stops]\nr1 = 50\n", "'r1' in [stops]"),
        ("[stop]\nr1_m = 50\n", "[stop]"),
        ("[modes]\nwalk_max_kph = 9\n", "'walk_max_kph' in [modes]"),
    ], ids=["key", "section", "misspelt-key"])
    def test_unknown_section_or_key_exits_1(self, tmp_path, text, where, capsys):
        ini = tmp_path / "typo.ini"
        ini.write_text(TINY + text)
        assert run("synth", "--config", str(ini), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert str(ini) in err and where in err

    @pytest.mark.parametrize("text, where", [
        (TINY + "[run]\nseed = abc\n", "'seed' in [run]"),
        (TINY + "mode_mix = car\n", "'mode_mix' in [synth]"),
        (TINY + "[synth]\nn_days = 2\n", "section 'synth' already exists"),
    ], ids=["int", "named-floats", "duplicate-section"])
    def test_unreadable_setting_exits_1_naming_its_place(self, tmp_path, text, where, capsys):
        ini = tmp_path / "bad_value.ini"
        ini.write_text(text)
        assert run("synth", "--config", str(ini), "--out", str(tmp_path / "run")) == 1
        err = capsys.readouterr().err
        assert str(ini) in err and where in err

    @pytest.mark.parametrize("out, where", [
        (None, "'out' in [paths]"), ("", "--out"), (" ", "--out"),
    ], ids=["config", "flag", "flag-blank"])
    def test_empty_run_directory_exits_1(self, tmp_path, monkeypatch, out, where, capsys):
        # an empty path is the working directory, which must not fill with artifacts
        ini = tmp_path / "empty_out.ini"
        ini.write_text(TINY + ("[paths]\nout =\n" if out is None else ""))
        monkeypatch.chdir(tmp_path)
        argv = ["synth", "--config", str(ini)] + ([] if out is None else ["--out", out])
        assert run(*argv) == 1
        assert where in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == [ini.name]

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("synth", "--config", str(tmp_path / "ghost.ini"),
                   "--out", str(tmp_path / "run")) == 2

    def test_invalid_level_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            run("all", "--level", "country")


class TestConfigFile:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.level == "municipality"
        assert cfg.stop_params.r1 == 300.0
        assert cfg.thresholds.walk_max_kmh == 7.0
        assert cfg.scenario.n_agents == 100

    def test_sections_override(self, tmp_path):
        path = tmp_path / "cfg.ini"
        path.write_text(
            """
[run]
level = parish
seed = 77
top_k = 5
threads = 2

[stops]
r1_m = 150
max_gap_s = 1800

[modes]
walk_max_kmh = 6

[trips]
gap_threshold_s = 900

[synth]
n_agents = 7
mode_mix = car:0.5,bus:0.5
mode_speed_bands_kmh = car:43.5:43.5,bus:21:21
mode_trip_distance_m = car:4200:7000,bus:3500:7000
"""
        )
        cfg = load_config(path)
        assert cfg.level == "parish"
        assert cfg.seed == 77
        assert cfg.top_k == 5
        assert cfg.stop_params.r1 == 150.0
        assert cfg.stop_params.max_gap == 1800.0
        assert cfg.thresholds.walk_max_kmh == 6.0
        assert cfg.gap_threshold_s == 900.0
        assert cfg.scenario.n_agents == 7
        assert cfg.scenario.mode_mix == {"car": 0.5, "bus": 0.5}

    def test_hash_stable_and_sensitive(self):
        a = PipelineConfig()
        b = PipelineConfig()
        assert config_hash(a) == config_hash(b)
        c = PipelineConfig(seed=1)
        assert config_hash(a) != config_hash(c)


def python_output(code, *args, env=None):
    """Standard output of `python -c code args` run against this cdrflow, `env` added."""
    src = str(Path(cdrflow.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True, text=True, check=True, env=env,
    )
    return done.stdout.strip()


def test_cli_import_leaves_scipy_out():
    assert python_output("import sys, cdrflow.cli; print('scipy' in sys.modules)") == "False"


@pytest.fixture
def survey_config(tmp_path, inputs):
    """TINY with survey shares, a survey count for every pair of towns, and a class map."""
    regions = json.loads((inputs / ART["regions"]).read_text())["features"]
    towns = [f["properties"]["region_id"] for f in regions
             if f["properties"]["level"] == "municipality"]
    pairs = [(a, b) for a in towns for b in towns]
    texts = {
        "survey": "class,share\nall,1.0\n",
        "survey_pairs": "origin,destination,trips\n"
                        + "".join(f"{a},{b},{k + 1}\n" for k, (a, b) in enumerate(pairs)),
        "class_map": "destination,class\n" + "".join(f"{t},all\n" for t in towns),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.csv").write_text(text)
    path = tmp_path / "survey.ini"
    path.write_text(TINY + "[paths]\n" + "".join(f"{n} = {tmp_path / n}.csv\n" for n in texts))
    return path


def regression_p_value(run_dir):
    return json.loads((run_dir / ART["validation"]).read_text())["comparison"]["regression"]["p_value"]


def test_stages_that_compute_nothing_leave_numpy_out(tmp_path, survey_config):
    out = tmp_path / "run"
    for stage in ("synth", "position", "stays"):
        assert run(stage, "--config", str(survey_config), "--out", str(out), "--seed", "4") == 0
    code = (
        "import sys, cdrflow.cli\n"
        "def loaded(): return [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
        "seen = [loaded()]\n"
        "for stage in ('trips', 'log', 'discover', 'conform', 'validate'):\n"
        "    argv = [stage, '--config', sys.argv[1], '--out', sys.argv[2], '--seed', '4']\n"
        "    assert cdrflow.cli.main(argv) == 0, stage\n"
        "    seen.append(loaded())\n"
        "print(seen)\n"
    )
    assert python_output(code, survey_config, out) == str([[]] * 6)
    assert 0.0 < regression_p_value(out) < 1.0  # validate ran the regression


def test_all_runs_without_scipy(tmp_path, survey_config):
    out = tmp_path / "run"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now fails\n"
        "import cdrflow.cli\n"
        "sys.exit(cdrflow.cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2],"
        " '--seed', '4']))\n"
    )
    python_output(code, survey_config, out)
    assert 0.0 < regression_p_value(out) < 1.0


def test_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    """String hashing, and so set and dict order over ids, varies with PYTHONHASHSEED."""
    ini = tmp_path / "parish.ini"
    ini.write_text(
        "[run]\nlevel = parish\nper_trace = true\n"
        "[synth]\nn_agents = 4\nn_days = 2\nmoving_rate_per_h = 30\ntower_noise_p = 0.1\n"
        "trips_per_day_kind = poisson\n"
    )
    code = (
        "import sys, cdrflow.cli\n"
        "sys.exit(cdrflow.cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2],"
        " '--seed', '17']))\n"
    )
    outs = [tmp_path / "hash_seed_0", tmp_path / "hash_seed_4242"]
    for out in outs:
        python_output(code, ini, out, env={"PYTHONHASHSEED": out.name.rsplit("_", 1)[1]})
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == sorted(path.name for path in outs[1].iterdir())
    assert {ART["ocdfg_model"], ART["per_trace"], ART["moving"]} <= set(names)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_each_stage_leaves_later_stages_modules_out(tmp_path, tiny_config):
    out = tmp_path / "run"
    assert run("synth", "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 0
    code = (
        "import json, sys, cdrflow.cli\n"
        "argv = [sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3], '--seed', '4']\n"
        "assert cdrflow.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('cdrflow.', 'numpy')))))\n"
    )
    mining = {"cdrflow.eventlog", "cdrflow.discovery", "cdrflow.conformance"}
    trip_making = {"cdrflow.geo", "cdrflow.records", "cdrflow.stays", "cdrflow.trips"}
    for stage in ("synth", "position", "stays", "trips", "log", "discover", "conform", "validate"):
        loaded = set(json.loads(python_output(code, stage, tiny_config, out)))
        if stage == "synth":  # recovery scoring's modules stay out of the generator's process
            assert not loaded & (mining | {"cdrflow.stays", "cdrflow.trips", "cdrflow.validation"})
            continue
        assert "cdrflow.synth" not in loaded, stage
        if stage in ("position", "stays", "trips", "validate"):
            assert not loaded & mining, stage
        if stage == "position":
            assert not loaded & {"cdrflow.stays", "cdrflow.trips"}
        if stage in ("log", "validate"):  # staypoints and trips need no positioning code
            assert not loaded & {"cdrflow.geo", "numpy"}, stage
        if stage in ("discover", "conform"):
            assert not loaded & trip_making, stage
    code = (
        "import sys, cdrflow.records\n"
        "print(sorted(m for m in sys.modules if m.startswith(('cdrflow', 'numpy'))))\n"
    )
    assert python_output(code) == "['cdrflow', 'cdrflow.records']"



def test_importtime_lists_each_stage_module(tmp_path, tiny_config):
    """A stage's own imports take the normal import path, which -X importtime logs."""
    out = tmp_path / "run"
    for stage in ("synth", "position", "stays", "trips"):
        assert run(stage, "--config", str(tiny_config), "--out", str(out), "--seed", "4") == 0
    src = str(Path(cdrflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    stage_modules = {
        "log": {"cdrflow.eventlog", "cdrflow.stays", "cdrflow.trips"},
        "validate": {"cdrflow.stays", "cdrflow.trips", "cdrflow.validation"},
    }
    for stage, modules in stage_modules.items():
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cdrflow.cli", stage,
             "--config", str(tiny_config), "--out", str(out), "--seed", "4"],
            capture_output=True, text=True, check=True, env=env,
        )
        logged = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
        assert modules <= logged, stage

@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("stage, code", [("synth", 0), ("conform", 1)])  # conform: no model
def test_main_restores_the_collector_state(tmp_path, tiny_config, enabled, stage, code):
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(stage, "--config", str(tiny_config), "--out", str(tmp_path / "run")) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path):
    """The stages leave a fixed count of cyclic garbage, so they need no collector."""
    code = (
        "import gc, sys, cdrflow.cli\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "assert cdrflow.cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "print(gc.collect())\n"
    )
    found = []
    for n_agents in (3, 9):
        ini = tmp_path / f"agents_{n_agents}.ini"
        ini.write_text(f"[synth]\nn_agents = {n_agents}\nn_days = 1\n")
        found.append(int(python_output(code, ini, tmp_path / f"run_{n_agents}")))
    assert abs(found[1] - found[0]) <= 20, found


@pytest.fixture(scope="module")
def survey_run(tmp_path_factory):
    """A finished `all` run over external inputs, survey files included."""
    root = tmp_path_factory.mktemp("survey_run")
    inputs = root / "inputs"
    ini = root / "tiny.ini"
    ini.write_text(TINY)
    assert run("synth", "--config", str(ini), "--out", str(inputs), "--seed", "4") == 0
    regions = json.loads((inputs / ART["regions"]).read_text())["features"]
    towns = [f["properties"]["region_id"] for f in regions
             if f["properties"]["level"] == "municipality"]
    files = {
        "survey": "class,share\nall,1.0\n",
        "survey_pairs": f"origin,destination,trips\n{towns[0]},{towns[1]},3\n"
                        f"{towns[1]},{towns[0]},5\n",
        "class_map": "destination,class\n" + "".join(f"{t},all\n" for t in towns),
        "region_aliases": f"from,to\n{towns[0]},{towns[0]}\n",
    }
    for name, text in files.items():
        (root / f"{name}.csv").write_text(text)
    paths = {"cdr": inputs / ART["cdr"], "towers": inputs / ART["towers"],
             "regions": inputs / ART["regions"], **{n: root / f"{n}.csv" for n in files}}
    ini.write_text(TINY + "[paths]\n" + "".join(f"{n} = {p}\n" for n, p in paths.items()))
    out = root / "run"
    assert run("all", "--config", str(ini), "--out", str(out), "--seed", "4") == 0
    assert json.loads((out / ART["validation"]).read_text())["comparison"] is not None
    return ini, out, paths


# The stages that read each artifact or input, where it is not `validate` alone.
READERS = {
    "towers": ["position"], "staypoints": ["trips", "log", "validate"],
    "trips": ["log", "validate"], "triplegs": ["log"],
}


class TestMalformedInput:
    @pytest.mark.parametrize("name, stage", [
        ("cdr", "position"), ("towers", "position"), ("positioned", "stays"),
        ("staypoints", "trips"), ("trips", "log"), ("triplegs", "log"),
        ("case_log", "discover"), ("survey", "validate"), ("survey_pairs", "validate"),
        ("class_map", "validate"), ("region_aliases", "validate"),
    ])
    def test_short_row_exits_1_naming_the_line(self, survey_run, name, stage, capsys):
        ini, out, paths = survey_run
        path = paths[name] if name in paths else out / ART[name]
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        lines[-1] = lines[-1].rstrip("\n").rsplit(",", 1)[0] + "\n"
        path.write_text("".join(lines))
        try:
            assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_text(original)
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: ")
        assert f"line {len(lines)}:" in err

    @pytest.mark.parametrize("long", [True, False])
    @pytest.mark.parametrize("name, stage", [("positioned", "stays"), ("staypoints", "validate")])
    def test_unbalanced_quote_exits_1_naming_the_line(self, survey_run, name, stage, long, capsys):
        # the quote opens a field that runs on to the end of the file, or,
        # in a long file, past csv's field size limit
        ini, out, _ = survey_run
        path = out / ART[name]
        original = path.read_bytes()
        lines = original.splitlines(keepends=True)
        rest = b"".join(lines[2:12])
        if long:
            rest *= csv.field_size_limit() // len(rest) + 1
        path.write_bytes(b"".join(lines[:2]) + b'"' + rest)
        try:
            assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: ") and "Traceback" not in err
        assert f"{path}: line 3: " in err and err.count("\n") == 1

    @pytest.mark.parametrize("name, stage, column", [
        ("towers", "position", "lat"), ("positioned", "stays", "lon"),
        ("staypoints", "trips", "lat"), ("triplegs", "log", "path_length_m"),
    ])
    def test_non_numeric_field_exits_1_naming_the_line(
        self, survey_run, name, stage, column, capsys
    ):
        ini, out, paths = survey_run
        path = paths[name] if name in paths else out / ART[name]
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[lines[0].rstrip("\n").split(",").index(column)] = "abc"
        lines[1] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        try:
            assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_text(original)
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: ")
        assert f"{path}: line 2: " in err and "'abc'" in err

    @pytest.mark.parametrize("name, stage, column, value", [
        ("towers", "position", "lat", "3_8.7"), ("towers", "position", "lon", " -9.3 "),
        ("towers", "position", "radius_m", "\u0661\u0660\u0660"),
        ("positioned", "stays", "lat", "1_0"), ("positioned", "stays", "lon", "-9.3\t"),
        ("staypoints", "trips", "lat", "3_8.7"), ("staypoints", "trips", "lon", " -9.3 "),
        ("triplegs", "log", "path_length_m", "1_0"),
        ("triplegs", "log", "avg_speed_kmh", "\u0661\u0660"),
        ("survey", "validate", "share", "1_0"), ("survey_pairs", "validate", "trips", " 3"),
    ])
    def test_lax_number_exits_1_naming_the_line(
        self, survey_run, name, stage, column, value, capsys
    ):
        ini, out, paths = survey_run
        path = paths[name] if name in paths else out / ART[name]
        original = path.read_bytes()
        lines = original.decode("utf-8").splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        fields = lines[1].rstrip("\r\n").split(",")
        fields[header.index(column)] = value
        lines[1] = ",".join(fields) + lines[1][len(lines[1].rstrip("\r\n")):]
        path.write_text("".join(lines), encoding="utf-8", newline="")
        try:
            assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_bytes(original)
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: ")
        assert f"{path}: line 2: " in err and repr(value) in err

    @pytest.mark.parametrize("name, key", [
        ("survey", "class"), ("survey_pairs", "(origin, destination)"),
        ("class_map", "destination"), ("region_aliases", "alias source"),
        ("towers", "cell_id"), ("staypoints", "staypoint_id"), ("trips", "trip_id"),
        ("triplegs", "tripleg_id"),
    ])
    def test_duplicate_key_exits_1_naming_file_line_and_key(self, survey_run, name, key, capsys):
        ini, out, paths = survey_run
        path = paths[name] if name in paths else out / ART[name]
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        value = tuple(fields[:2]) if name == "survey_pairs" else fields[0]
        path.write_text(original + lines[1])
        try:
            for stage in READERS.get(name, ["validate"]):
                assert run(stage, "--config", str(ini), "--out", str(out), "--seed", "4") == 1
                err = capsys.readouterr().err
                assert err.startswith(f"cdrflow {stage}: "), err
                assert f"{path}: line {len(lines) + 1}: duplicate {key} {value!r}\n" in err
        finally:
            path.write_text(original)

    @pytest.mark.parametrize("column", ["radius_m", "azimuth_deg"])
    def test_non_finite_sector_exits_1(self, survey_run, column, capsys):
        ini, out, paths = survey_run
        path = paths["towers"]
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[lines[0].rstrip("\n").split(",").index(column)] = "nan"
        lines[1] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        try:
            assert run("position", "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_text(original)
        assert f"{path}: line 2: " in capsys.readouterr().err

    def test_short_geojson_position_exits_1(self, tmp_path, inputs, capsys):
        bad = tmp_path / "bad_inputs"
        shutil.copytree(inputs, bad)
        doc = json.loads((bad / ART["regions"]).read_text())
        doc["features"][3]["geometry"]["coordinates"][0][1] = [1.0]
        (bad / ART["regions"]).write_text(json.dumps(doc))
        ini = external_config(tmp_path, "bad_regions", bad, bad / ART["cdr"])
        out = tmp_path / "run"
        assert run("position", "--config", str(ini), "--out", str(out)) == 0
        assert run("stays", "--config", str(ini), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("cdrflow stays: ") and "Traceback" not in err
        assert "feature 3: position [1.0] has fewer than 2 numbers" in err

    def test_broken_leg_chain_exits_1_naming_file_and_line(self, survey_run, capsys):
        ini, out, _ = survey_run
        path = out / ART["triplegs"]
        original = path.read_text()
        header, first, *_ = original.splitlines()
        fields = first.split(",")
        trip_id, t_end = fields[1], fields[6]
        # a second leg of the first trip that starts where no leg ended
        fields[0], fields[3], fields[5] = "extra", "nowhere", t_end
        fields[6] = t_end.replace("Z", ".5Z")
        path.write_text(original + ",".join(fields) + "\n")
        try:
            assert run("log", "--config", str(ini), "--out", str(out), "--seed", "4") == 1
        finally:
            path.write_text(original)
        line = next(k for k, row in enumerate((out / ART["trips"]).read_text().splitlines(), 1)
                    if row.startswith(trip_id + ","))
        assert capsys.readouterr().err == (
            f"cdrflow log: trips file {out / ART['trips']}: line {line}: "
            f"trip {trip_id}: tripleg chain is broken\n"
        )

    @pytest.mark.parametrize("key", ["region_id", "level", "coordinates"])
    def test_region_without_required_key_exits_1(self, tmp_path, inputs, key, capsys):
        bad = tmp_path / "bad_inputs"
        shutil.copytree(inputs, bad)
        doc = json.loads((bad / ART["regions"]).read_text())
        feature = doc["features"][3]
        del (feature["geometry"] if key == "coordinates" else feature["properties"])[key]
        (bad / ART["regions"]).write_text(json.dumps(doc))
        ini = external_config(tmp_path, "bad_regions", bad, bad / ART["cdr"])
        out = tmp_path / "run"
        assert run("position", "--config", str(ini), "--out", str(out)) == 0
        assert run("stays", "--config", str(ini), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("cdrflow stays: ")
        assert f"feature 3 has no {key}" in err


    @pytest.mark.parametrize("stage", ["stays", "position"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [], ": expected a GeoJSON FeatureCollection"),
        (lambda doc: {"features": doc["features"]}, ": expected a GeoJSON FeatureCollection"),
        (lambda doc: {**doc, "features": [1]}, ": feature 0 is not an object"),
        (lambda doc: {**doc, "features": {"a": 1}}, ": features is not a list"),
        (lambda doc: with_geometry(doc, "Polygon", 5), ": feature 3: a polygon is not a list of rings"),
        (lambda doc: with_geometry(doc, "MultiPolygon", 5),
         ": feature 3: a MultiPolygon is not a list of polygons"),
        (lambda doc: with_geometry(doc, "MultiPolygon", [[[[1.0, None]]]]),
         ": feature 3: position [1.0, None]: float() argument must be"),
        (lambda doc: with_geometry(doc, "Point", [1.0, 2.0]), ": feature 3: unsupported geometry Point"),
        (lambda doc: {**doc, "features": doc["features"][:4] + doc["features"][3:]},
         ": feature 4: duplicate region_id 'M00_03'\n"),
        (lambda doc: with_property(doc, 3, "level", "x"), ": feature 3: unknown region level: x\n"),
        (lambda doc: with_geometry(doc, "Polygon", [[[0, 0], [1, 0], [1, 1], [0, 1]]]),
         ": feature 3: region M00_03: ring must be closed (first == last)\n"),
        (lambda doc: with_geometry(doc, "Polygon", [[[0, 0], [1, 0], [0, 0]]]),
         ": feature 3: region M00_03: ring must be closed (first == last)\n"),
        (lambda doc: with_property(doc, 179, "parent_id", "M99_99"),
         ": feature 179: parish P11_11 must reference an existing municipality parent\n"),
    ], ids=["list", "untyped", "int-feature", "feature-object", "int-polygon", "int-multipolygon",
            "null-number", "point", "repeated-id", "unknown-level", "open-ring", "short-ring",
            "missing-parent"])
    def test_malformed_regions_file_exits_1_naming_file_and_feature(
        self, tmp_path, inputs, stage, edit, message, capsys
    ):
        # the stays stage reads it as the regions, the position stage as the land mask
        bad = tmp_path / "bad.geojson"
        bad.write_text(json.dumps(edit(json.loads((inputs / ART["regions"]).read_text()))))
        ini = external_config(tmp_path, "bad_regions", inputs, inputs / ART["cdr"])
        out = tmp_path / "run"
        if stage == "stays":
            ini.write_text(ini.read_text().replace(str(inputs / ART["regions"]), str(bad)))
            assert run("position", "--config", str(ini), "--out", str(out)) == 0
        else:
            ini.write_text(ini.read_text() + f"land_mask = {bad}\n")
        capsys.readouterr()
        assert run(stage, "--config", str(ini), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cdrflow {stage}: regions file {bad}{message}") and err.count("\n") == 1


def with_geometry(doc, kind, coordinates):
    doc["features"][3]["geometry"] = {"type": kind, "coordinates": coordinates}
    return doc


def with_property(doc, k, key, value):
    doc["features"][k]["properties"][key] = value
    return doc


def river_land(towers):
    """Land around the towers with a river between every two tower rows, and the rivers."""
    lats = sorted({t.center.lat for t in towers.values()})
    lons = [t.center.lon for t in towers.values()]
    # a river between every two tower rows, 5% of the spacing from each row
    box = (min(lons) - 0.01, lats[0] - 0.01, max(lons) + 0.01, lats[-1] + 0.01)
    rivers = [(a + 0.05 * (b - a), b - 0.05 * (b - a)) for a, b in zip(lats, lats[1:])]

    def ring(x0, y0, x1, y1):
        return tuple(GeoPoint(y, x) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)))

    land = Region("land", "land", "municipality", None, ((
        ring(*box), *(ring(box[0] + 0.001, lo, box[2] - 0.001, hi) for lo, hi in rivers),
    ),))
    return land, rivers


def test_position_with_land_mask_puts_every_point_on_land(tmp_path, inputs):
    land, rivers = river_land(load_towers_csv(inputs / ART["towers"]))
    write_regions_geojson([land], tmp_path / "land.geojson")
    ini = external_config(tmp_path, "land", inputs, inputs / ART["cdr"])
    ini.write_text(ini.read_text() + f"land_mask = {tmp_path / 'land.geojson'}\n")
    clipped, free = tmp_path / "clipped", tmp_path / "free"
    assert run("position", "--config", str(ini), "--out", str(clipped)) == 0
    free_ini = external_config(tmp_path, "free", inputs, inputs / ART["cdr"])
    assert run("position", "--config", str(free_ini), "--out", str(free)) == 0

    def in_river(ev):
        return any(lo < ev.location.lat < hi for lo, hi in rivers)

    assert any(in_river(ev) for ev in load_positioned_csv(free / ART["positioned"]))
    positioned = load_positioned_csv(clipped / ART["positioned"])
    assert positioned and all(region_contains(land, ev.location) for ev in positioned)


# Enabled AVX-512 features of this CPU, as numpy names them; numpy 2.4 and
# later dispatch AVX-512 kernels under the X86_V4 group.
ENABLED_AVX512 = """
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_features__
print(" ".join(k for k, on in __cpu_features__.items() if on and (k.startswith("AVX512") or k == "X86_V4")))
"""


@pytest.mark.skipif(not python_output(ENABLED_AVX512, env={"NPY_DISABLE_CPU_FEATURES": ""}),
                    reason="the CPU has no AVX-512")
def test_artifacts_do_not_depend_on_avx512_dispatch(tmp_path):
    """numpy's SIMD kernels (np.arcsin among them) differ in the last bit with and
    without AVX-512 dispatch; no artifact may."""
    ini = tmp_path / "land.ini"
    ini.write_text(TINY + "moving_rate_per_h = 30\n")
    assert run("synth", "--config", str(ini), "--out", str(tmp_path / "inputs"), "--seed", "4") == 0
    land, _ = river_land(load_towers_csv(tmp_path / "inputs" / ART["towers"]))
    write_regions_geojson([land], tmp_path / "land.geojson")
    ini.write_text(ini.read_text() + f"[paths]\nland_mask = {tmp_path / 'land.geojson'}\n")
    code = (
        "import sys, cdrflow.cli\n"
        "sys.exit(cdrflow.cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2],"
        " '--seed', '4']))\n"
    )
    avx512 = python_output(ENABLED_AVX512, env={"NPY_DISABLE_CPU_FEATURES": ""})
    outs = {tmp_path / "with_avx512": "", tmp_path / "without_avx512": avx512}
    for out, disabled in outs.items():
        python_output(code, ini, out, env={"NPY_DISABLE_CPU_FEATURES": disabled})
    # the variable took effect: numpy dispatches to fewer AVX-512 targets
    assert set(python_output(ENABLED_AVX512, env={"NPY_DISABLE_CPU_FEATURES": avx512}).split()) \
        < set(avx512.split())
    a, b = outs
    names = sorted(path.name for path in a.iterdir())
    assert names == sorted(path.name for path in b.iterdir())
    assert {ART["positioned"], ART["moving"], ART["trips"]} <= set(names)
    positioned = load_positioned_csv(a / ART["positioned"])
    assert positioned and all(region_contains(land, ev.location) for ev in positioned)
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
