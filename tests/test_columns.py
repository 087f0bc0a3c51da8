"""The staged CLI's columnar event path against the library's object path."""

import csv
import io
import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrflow import geo, stays, synth
from cdrflow.errors import UnsortedInput
from cdrflow.files import read_csv
from cdrflow.geo import (
    CDR_HEADER,
    POSITIONED_HEADER,
    CdrEvent,
    GeoPoint,
    PositionedEvent,
    position_events,
)
from cdrflow.timefmt import from_iso

from test_geo import RIVER_LAND, TestLandPositioning as LandWorld


def reference_cdr(path):
    """One CdrEvent per row, built as the object reader always built it."""
    return list(read_csv(
        path, CDR_HEADER, "cdr file",
        lambda user_id, ts, cell_id: CdrEvent(user_id, from_iso(ts), cell_id),
    ))


def reference_positioned(path):
    """One PositionedEvent per row, its checks run by the dataclasses themselves."""
    return list(read_csv(
        path, POSITIONED_HEADER, "positioned file",
        lambda user_id, ts, cell_id, lat, lon: PositionedEvent(
            user_id=user_id, timestamp=from_iso(ts), cell_id=cell_id,
            location=GeoPoint(lat=float(lat), lon=float(lon)),
        ),
    ))


def outcome(read, path):
    try:
        return "ok", read(path)
    except ValueError as exc:
        return "error", str(exc)


def column_rows(events):
    """(user_id, ts, cell_id[, lat, lon]) per event of EventColumns."""
    coordinates = [] if events.lat is None else [events.lat.tolist(), events.lon.tolist()]
    return list(zip(
        [events.users[u] for u in events.user.tolist()], events.ts.tolist(),
        [events.cells[c] for c in events.cell.tolist()], *coordinates,
    ))


def object_rows(events):
    return [
        (ev.user_id, ev.timestamp, ev.cell_id)
        + ((ev.location.lat, ev.location.lon) if isinstance(ev, PositionedEvent) else ())
        for ev in events
    ]


def cdr_columns(events):
    users = list(dict.fromkeys(ev.user_id for ev in events))
    cells = list(dict.fromkeys(ev.cell_id for ev in events))
    return geo.EventColumns(
        users, cells,
        np.array([users.index(ev.user_id) for ev in events], dtype=np.int32),
        np.array([cells.index(ev.cell_id) for ev in events], dtype=np.int32),
        np.array([ev.timestamp for ev in events], dtype=np.float64),
    )


# --- readers ------------------------------------------------------------------

IDS = ["u1", "u2", "a,b", 'q"t', "", "ü"]
CELLS = ["c1", "c2", "c,3"]
TIMESTAMPS = [
    "2024-02-01T00:00:00Z", "2024-02-01T00:00:00.250000Z", "2024-01-31T23:59:59.999999Z",
    "2024-02-01T01:00:00+01:00", "2024-02-01T00:00:00", "0100-05-13T15:06:40Z",
    "2024-02-01", "1706745600", "2024-13-01T00:00:00Z", "abc", "",
]
COORDINATES = [
    "38.7", "-9.3", "0", "90", "-180", "90.0000001", "-180.5", "nan", "NaN", "inf", "-inf",
    "1e400", " 12.5 ", "1_0", "abc", "",
]


@st.composite
def csv_files(draw, header):
    """A CSV text: a right or wrong header, then rows good and bad in any order."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header if draw(st.integers(0, 9)) else ["user", "time", "cell"])
    width = len(header)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 4 + ["blank", "short", "long"]))
        if kind == "blank":
            out.write("\r\n")
            continue
        row = [draw(st.sampled_from(IDS)), draw(st.sampled_from(TIMESTAMPS)),
               draw(st.sampled_from(CELLS))]
        row += [draw(st.sampled_from(COORDINATES)) for _ in range(width - 3)]
        if kind == "short":
            row = row[:draw(st.integers(1, width - 1))]
        elif kind == "long":
            row.append("x")
        writer.writerow(row)
    return out.getvalue()


def readers_agree(text, reference, load, read_columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(reference, path)
        assert outcome(load, path) == expected
        got = outcome(read_columns, path)
    if expected[0] == "error":
        assert got == expected
    else:
        assert got[0] == "ok" and column_rows(got[1]) == object_rows(expected[1])


@settings(max_examples=400, deadline=None)
@given(csv_files(CDR_HEADER))
def test_cdr_readers_accept_and_reject_alike(text):
    readers_agree(text, reference_cdr, geo.load_cdr_csv, geo.read_cdr_columns)


@settings(max_examples=400, deadline=None)
@given(csv_files(POSITIONED_HEADER))
def test_positioned_readers_accept_and_reject_alike(text):
    readers_agree(text, reference_positioned, geo.load_positioned_csv, geo.read_positioned_columns)


def test_empty_files_give_empty_columns(tmp_path):
    path = tmp_path / "positioned.csv"
    path.write_text(",".join(POSITIONED_HEADER) + "\n")
    events = geo.read_positioned_columns(path)
    assert len(events) == 0 and events.users == [] and events.lat.dtype == np.float64
    assert len(geo.sort_by_user_time(events)) == 0


# --- sort, position, write ------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["u2", "u10", "u1", "b", "ü"]), st.integers(-2, 3).map(float)),
    max_size=40,
))
def test_sort_by_user_time_is_the_stable_sort(pairs):
    # a unique cell per event shows where every tie went
    events = [CdrEvent(user_id, ts, f"c{k}") for k, (user_id, ts) in enumerate(pairs)]
    got = geo.sort_by_user_time(cdr_columns(events))
    assert got.user.dtype == np.int32 and got.ts.dtype == np.float64
    expected = sorted(events, key=lambda ev: (ev.user_id, ev.timestamp))
    assert column_rows(got) == object_rows(expected)


@pytest.fixture(scope="module")
def land_world():
    world = LandWorld()
    towers = world.sectors()  # with a zero-radius sector and a wholly wet one
    events = sorted(world.events(towers, n=2600), key=lambda ev: (ev.user_id, ev.timestamp))
    return towers, events


def test_position_columns_equal_position_events(land_world, tmp_path, monkeypatch):
    towers, events = land_world
    expected = position_events(events, towers, land=RIVER_LAND)
    for size in (1000, 7):
        monkeypatch.setattr(geo, "_BLOCK_EVENTS", size)
        got = geo.position_columns(cdr_columns(events), towers, land=RIVER_LAND)
        assert column_rows(got) == object_rows(expected)
        geo.write_positioned_columns(got, tmp_path / "columns.csv")
        geo.write_positioned_csv(expected, tmp_path / "objects.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "objects.csv").read_bytes()


def test_position_columns_raise_as_position_events(land_world, monkeypatch):
    towers, events = land_world
    monkeypatch.setattr(geo, "_BLOCK_EVENTS", 4)
    towers = {**towers, "sea": geo.TowerSector("sea", GeoPoint(10.0, 10.0), 0.0, 120.0, 500.0)}
    sea, ghost = CdrEvent("u", 10.0, "sea"), CdrEvent("u", 11.0, "ghost")
    for case in ([sea, ghost], [ghost, sea], events[:5] + [ghost]):
        with pytest.raises(Exception) as expected:
            position_events(case, towers, land=RIVER_LAND)
        with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
            geo.position_columns(cdr_columns(case), towers, land=RIVER_LAND)


# --- stays ----------------------------------------------------------------------

def moving_by_user(positioned, staypoints):
    """The object path's moving events: moving_events per user."""
    sp_by_user = geo.group_by_user(staypoints)
    return [
        ev
        for user_id, trace in geo.group_by_user(positioned).items()
        for ev in stays.moving_events(trace, sp_by_user.get(user_id, []))
    ]


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("interleave", [False, True], ids=["by-user", "by-time"])
def test_staypoints_from_columns_equal_build_staypoints(tmp_path, seed, interleave):
    events, towers, regions, _ = synth.generate_scenario(synth.ScenarioConfig(
        n_agents=5, n_days=2, moving_rate_per_h=30.0, tower_noise_p=0.1, seed=seed,
    ))
    order = (lambda ev: (ev.timestamp, ev.user_id)) if interleave else (
        lambda ev: (ev.user_id, ev.timestamp))
    path = tmp_path / "positioned.csv"
    geo.write_positioned_csv(position_events(sorted(events, key=order), towers), path)
    positioned = geo.load_positioned_csv(path)
    params = stays.StopParams()
    expected = stays.build_staypoints(positioned, params, regions=regions)
    got, moving = stays.staypoints_from_columns(geo.read_positioned_columns(path), params, regions)
    assert got == expected and len(expected) > 5
    kept = {id(ev) for ev in moving_by_user(positioned, expected)}
    assert moving.tolist() == [id(ev) in kept for ev in positioned]
    assert 0 < moving.sum() < len(positioned)


def test_staypoints_from_columns_reject_unsorted_users_alike(tmp_path):
    rng = random.Random(4)
    rows = [PositionedEvent(u, float(t), "c", GeoPoint(38.7 + rng.random() / 1e3, -9.3))
            for u in ("b", "a") for t in range(0, 3600, 60)]
    rows[60], rows[61] = rows[61], rows[60]  # user "a" goes back in time at once
    rows[5], rows[9] = rows[9], rows[5]  # and so does "b", later in sorted order
    path = tmp_path / "positioned.csv"
    geo.write_positioned_csv(rows, path)
    params = stays.StopParams()
    with pytest.raises(UnsortedInput) as expected:
        stays.build_staypoints(geo.load_positioned_csv(path), params)
    with pytest.raises(UnsortedInput, match=re.escape(str(expected.value))) as got:
        stays.staypoints_from_columns(geo.read_positioned_columns(path), params)
    assert "'a'" in str(got.value)
