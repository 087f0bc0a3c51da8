import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cdrflow
from cdrflow.cli import ART, main
from cdrflow.config import PipelineConfig, config_hash, load_config
from cdrflow.geo import (
    GeoPoint, Region, load_positioned_csv, load_towers_csv, region_contains, write_regions_geojson,
)


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


def test_cli_import_leaves_scipy_out():
    code = "import sys, cdrflow.cli; print('scipy' in sys.modules)"
    src = str(Path(cdrflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "False"


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


def test_position_with_land_mask_puts_every_point_on_land(tmp_path, inputs):
    towers = load_towers_csv(inputs / ART["towers"])
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
