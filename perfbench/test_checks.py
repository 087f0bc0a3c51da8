"""Each output check passes on real outputs and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py

The outputs come from small versions of the three workloads, run in this
process; every corruption test changes one artifact and expects the check
that reads it to name the fault.
"""

import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import harness  # noqa: E402
import library_child  # noqa: E402
import tracing  # noqa: E402
import worlds  # noqa: E402
from cdrflow import cli, synth  # noqa: E402
from workloads import END_TO_END_UNITS  # noqa: E402


def _cli(stages, config: Path, run_dir: Path) -> None:
    for stage in stages:
        argv = [stage, "--config", str(config), "--out", str(run_dir),
                "--seed", "3", "--threads", "1", "--top-k", "20"]
        assert cli.main(argv) == 0, stage


@pytest.fixture(scope="module")
def dense_dir(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("dense")
    worlds.dense_config_ini(work / "config.ini", dict(n_agents=2, n_days=2, dwell_rate_per_h=60.0))
    _cli(("synth", "position", "stays", "trips", "log", "discover", "conform", "validate"),
         work / "config.ini", work / "run")
    return work / "run"


@pytest.fixture(scope="module")
def mining(tmp_path_factory):
    work = tmp_path_factory.mktemp("mining")
    world = worlds.trip_world(5, dict(n_users=25, days=2, parish_grid=12))
    (work / "run").mkdir()
    (work / "inputs").mkdir()
    worlds.write_trip_world(world, work / "run", work / "inputs")
    worlds.mining_config_ini(work / "config.ini", work / "inputs")
    _cli(("log", "discover", "conform", "validate"), work / "config.ini", work / "run")
    return work / "run", world


@pytest.fixture(scope="module")
def sparse():
    sizes = {**worlds.SPARSE, "n_agents": 8, "n_days": 2}
    events, towers, regions, _ = synth.generate_scenario(worlds.sparse_scenario(4, sizes))
    land = worlds.river_land(towers)
    out, steps = library_child.pipeline_steps(events, towers, regions, land)
    for step in steps:
        step()
    return events, towers, land, out


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "run"
    shutil.copytree(src, dst)
    return dst


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        header, rows = reader.fieldnames, list(reader)
    rows = edit(rows)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _set(rows, i, **values):
    rows[i].update({k: str(v) for k, v in values.items()})
    return rows


def _far_from_first(rows):
    """Index of a staypoint more than 2 km from the first one."""
    first = rows[0]
    for j, row in enumerate(rows):
        d = checks.haversine_m(float(first["lat"]), float(first["lon"]), float(row["lat"]), float(row["lon"]))
        if d > 2000:
            return j
    raise AssertionError("no distant staypoints")


def _mirror(rows, towers_rows, i=5):
    """Reflect point i through its sector centre: same distance, opposite bearing."""
    tower = next(t for t in towers_rows if t["cell_id"] == rows[i]["cell_id"])
    lat = 2 * float(tower["lat"]) - float(rows[i]["lat"])
    lon = 2 * float(tower["lon"]) - float(rows[i]["lon"])
    return _set(rows, i, lat=repr(lat), lon=repr(lon))


# --- dense_cli -------------------------------------------------------------------------

def test_dense_outputs_pass(dense_dir):
    assert checks.check_dense(dense_dir) == []


DENSE_CORRUPTIONS = {
    "radius": ("positioned.csv", lambda rows, d: _set(rows, 5, lat=float(rows[5]["lat"]) + 0.01),
               "outside its sector radius"),
    "wedge": ("positioned.csv", lambda rows, d: _mirror(rows, checks.read_csv(d / "towers.csv")),
              "outside its sector wedge"),
    "cdr_row": ("positioned.csv",
                lambda rows, d: _set(rows, 7, cell_id=next(r["cell_id"] for r in rows if r["cell_id"] != rows[7]["cell_id"])),
                "differs from its CDR row"),
    "r1": ("staypoints.csv", lambda rows, d: _set(rows, 1, lat=float(rows[1]["lat"]) + 0.004),
           "farther than r1"),
    "duration": ("staypoints.csv", lambda rows, d: _set(rows, 1, t_end=rows[1]["t_start"]),
                 "shorter than"),
    "boundaries": ("staypoints.csv", lambda rows, d: _set(rows, 1, t_start=rows[1]["t_start"][:-3] + "30Z"),
                   "does not start and end at events"),
    "location": ("staypoints.csv",
                 lambda rows, d: _set(rows, _far_from_first(rows), location_id=rows[0]["location_id"]),
                 "is not the r2="),
    "trip_count": ("trips.csv", lambda rows, d: rows[:-1], "true trips"),
    "od_cells": ("staypoints.csv",
                 lambda rows, d: [dict(r, municipality="M99_99") if i % 3 == 0 else r for i, r in enumerate(rows)],
                 "OD cells agree"),
}


@pytest.mark.parametrize("name", sorted(DENSE_CORRUPTIONS))
def test_dense_csv_corruption_rejected(dense_dir, tmp_path, name):
    file, edit, message = DENSE_CORRUPTIONS[name]
    run = _copy(dense_dir, tmp_path)
    _edit_csv(run / file, lambda rows: edit(rows, run))
    errors = checks.check_dense(run)
    assert any(message in e for e in errors), errors


JSON_CORRUPTIONS = {
    "fitness": ("conformance_report.json", lambda d: d.update(missing=1), "not perfect"),
    "arc_freq": ("dfg_model.json", lambda d: d["arcs"][0].update(freq=d["arcs"][0]["freq"] + 1),
                 "DFG arc frequencies"),
    "start": ("dfg_model.json", lambda d: d["startCounts"].pop(), "DFG start counts"),
    "end": ("dfg_model.json", lambda d: d["endCounts"][0].update(count=0), "DFG end counts"),
    "variant": ("variants.json", lambda d: d[0].update(count=d[0]["count"] + 1), "variants"),
    "relation": ("ocel.json", lambda d: d["events"][0]["relations"].pop(), "OCEL relations"),
    "od_drop": ("validation_report.json", lambda d: d.update(n_dropped_trips=d["n_dropped_trips"] + 1),
                "OD trips + dropped"),
}


@pytest.mark.parametrize("name", sorted(JSON_CORRUPTIONS))
def test_dense_json_corruption_rejected(dense_dir, tmp_path, name):
    file, edit, message = JSON_CORRUPTIONS[name]
    run = _copy(dense_dir, tmp_path)
    _edit_json(run / file, edit)
    errors = checks.check_dense(run)
    assert any(message in e for e in errors), errors


# --- mining_parish ---------------------------------------------------------------------

def test_mining_outputs_pass(mining):
    run, world = mining
    assert checks.check_mining(run, world, worlds.ALIASES) == []


MINING_CORRUPTIONS = {
    "case_log": ("case_log.csv", lambda rows: _set(rows, 0, activity="P99_99"), "case log"),
    "od": ("od_matrix.csv", lambda rows: _set(rows, 0, trips=int(rows[0]["trips"]) + 1), "OD matrix"),
    "drops": ("case_log_drops.json", lambda d: d["dropped_case_ids"].append("trip9999999"), "dropped case ids"),
    "mean": ("dfg_model.json", lambda d: d["arcs"][0].update(mean_s=d["arcs"][0]["mean_s"] + 1.0),
             "DFG arcs, frequencies or mean durations"),
    "ocdfg": ("ocdfg_model.json", lambda d: d["arcs"][-1].update(freq=d["arcs"][-1]["freq"] + 1),
              "OC-DFG arcs"),
    "variant_mean": ("variants.json", lambda d: d[0].update(mean_duration_s=d[0]["mean_duration_s"] + 1),
                     "variants differs"),
    "deviation": ("validation_report.json",
                  lambda d: d["comparison"]["deviations_pp"][0].update(pp=d["comparison"]["deviations_pp"][0]["pp"] + 0.1),
                  "share deviations"),
    "regression": ("validation_report.json",
                   lambda d: d["comparison"]["regression"].update(slope=d["comparison"]["regression"]["slope"] * 1.01),
                   "pairwise regression"),
}


@pytest.mark.parametrize("name", sorted(MINING_CORRUPTIONS))
def test_mining_corruption_rejected(mining, tmp_path, name):
    source, world = mining
    file, edit, message = MINING_CORRUPTIONS[name]
    run = _copy(source, tmp_path)
    if file.endswith(".csv"):
        _edit_csv(run / file, edit)
    else:
        _edit_json(run / file, edit)
    errors = checks.check_mining(run, world, worlds.ALIASES)
    assert any(message in e for e in errors), errors


# --- sparse_library --------------------------------------------------------------------

def _sparse_errors(sparse, **replace):
    events, towers, land, out = sparse
    out = {**out, **replace}
    return checks.check_sparse(events, towers, land, out["positioned"], out["staypoints"],
                               out["moving"], out["trips"])


def test_sparse_outputs_pass(sparse):
    assert _sparse_errors(sparse) == []


def _replace_at(items, i, **changes):
    items = list(items)
    items[i] = dataclasses.replace(items[i], **changes)
    return items


def test_sparse_point_in_river_rejected(sparse):
    events, towers, land, out = sparse
    lat_lo, lat_hi, lon_lo, lon_hi = land.bands[0]
    i = next(i for i, ev in enumerate(out["positioned"]) if lon_lo < ev.location.lon < lon_hi)
    wet = dataclasses.replace(out["positioned"][i].location, lat=(lat_lo + lat_hi) / 2)
    errors = _sparse_errors(sparse, positioned=_replace_at(out["positioned"], i, location=wet))
    assert any("neither on land" in e for e in errors), errors


def test_sparse_lost_moving_event_rejected(sparse):
    errors = _sparse_errors(sparse, moving=sparse[3]["moving"][1:])
    assert any("moving +" in e for e in errors), errors


def test_sparse_staypoint_median_rejected(sparse):
    sps = sparse[3]["staypoints"]
    moved = dataclasses.replace(sps[0].median, lat=sps[0].median.lat + 0.004)
    errors = _sparse_errors(sparse, staypoints=_replace_at(sps, 0, median=moved))
    assert any("farther than r1" in e for e in errors), errors


def _replace_leg(sparse, **changes):
    all_trips = list(sparse[3]["trips"])
    leg = all_trips[0].triplegs[0]
    all_trips[0] = dataclasses.replace(all_trips[0], triplegs=(dataclasses.replace(leg, **changes),)
                                       + all_trips[0].triplegs[1:])
    return all_trips


@pytest.mark.parametrize("changes, message", [
    (dict(mode="train"), "mode differs from the README"),
    (dict(path_length_m=123456.0), "path length or speed"),
    (dict(t_start=0.0), "does not join consecutive staypoints"),
])
def test_sparse_tripleg_corruption_rejected(sparse, changes, message):
    leg = sparse[3]["trips"][0].triplegs[0]
    if changes.get("mode") == leg.mode:
        changes["mode"] = "walk"
    errors = _sparse_errors(sparse, trips=_replace_leg(sparse, **changes))
    assert any(message in e for e in errors), errors


def test_components_match_scipy():
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(1)
    lats = 38.6 + rng.random(400) * 0.05
    lons = -9.4 + rng.random(400) * 0.05
    linked = checks.haversine_m(lats[:, None], lons[:, None], lats[None, :], lons[None, :]) <= 150.0
    _, want = connected_components(csr_matrix(linked), directed=False)
    got = checks.r2_components(lats, lons, 150.0)
    pairs = set(zip(want.tolist(), got.tolist()))
    assert len(pairs) == len(set(want.tolist())) == len(set(got.tolist())) > 1


def test_benchmark_json_names_every_metric():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.PER_LAYER
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
