"""The columnar event path against independent oracles.

EventColumns is the library's one event type: the readers, writers,
positioning and stop scan run on it, and as a sequence it reads as
CdrEvent or PositionedEvent records.  The oracles here are a csv.writer,
the row-wise reader, the one-event-at-a-time sampler of test_geo and the
object-path staypoint reference of conftest.
"""

import csv
import io
import math
import pickle
import random
import re
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrflow import eventfiles, files, geo, records, stays, synth
from cdrflow.errors import UnsortedInput
from cdrflow.files import read_csv
from cdrflow.eventfiles import CDR_HEADER, POSITIONED_HEADER
from cdrflow.geo import position_events
from cdrflow.records import CdrEvent, GeoPoint, PositionedEvent, event_columns
from cdrflow.timefmt import from_iso, to_iso

from conftest import reference_staypoints
from test_geo import RIVER_LAND, TestLandPositioning as LandWorld, scalar_positions


def reference_cdr(path):
    """One CdrEvent per row, built as the object reader always built it."""
    return list(read_csv(
        path, CDR_HEADER, "cdr file",
        lambda user_id, ts, cell_id: CdrEvent(user_id, from_iso(ts), cell_id),
    ))


def strict_float(text):
    """float() of a number field, which must be ASCII with no '_' and no padding."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


def reference_positioned(path):
    """One PositionedEvent per row, its checks run by the dataclasses themselves."""
    return list(read_csv(
        path, POSITIONED_HEADER, "positioned file",
        lambda user_id, ts, cell_id, lat, lon: PositionedEvent(
            user_id=user_id, timestamp=from_iso(ts), cell_id=cell_id,
            location=GeoPoint(lat=strict_float(lat), lon=strict_float(lon)),
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
    return records.EventColumns(
        users, cells,
        np.array([users.index(ev.user_id) for ev in events], dtype=np.int32),
        np.array([cells.index(ev.cell_id) for ev in events], dtype=np.int32),
        np.array([ev.timestamp for ev in events], dtype=np.float64),
    )


# --- readers ------------------------------------------------------------------

IDS = ["u1", "u2", "a,b", 'q"t', "", "ü", " u3 ", "x\ry", "x\ny"]
PLAIN_IDS = ["u1", "u2", "", "ü", " u3 ", "\x00"]
CELLS = ["c1", "c2", "c,3"]
TIMESTAMPS = [
    "2024-02-01T00:00:00Z", "2024-02-01T00:00:00.250000Z", "2024-01-31T23:59:59.999999Z",
    "2024-02-01T01:00:00+01:00", "2024-02-01T00:00:00", "0100-05-13T15:06:40Z",
    "2024-02-01", "1706745600", "2024-13-01T00:00:00Z", "abc", "",
    # near misses of the canonical form, valid or not for from_iso
    "2023-02-29T00:00:00Z", "2024-02-29T00:00:00Z", "2024-02-30T00:00:00Z",
    "2024-02-01T24:00:00Z", "2024-02-01T00:60:00Z", "2024-02-01T00:00:60Z",
    "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z",
    "2024-02-01t00:00:00Z", "2024-02-01 00:00:00Z", "2024-02-01T00:00:00z",
    "\uff12\uff10\uff12\uff14-02-01T00:00:00Z", "2024-02-01T00:00:00ZZ", " 2024-02-01T00:00:00Z",
    "1900-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "2024-04-31T00:00:00Z", "2024-00-10T00:00:00Z",
]
COORDINATES = [
    "38.7", "-9.3", "0", "90", "-180", "90.0000001", "-180.5", "nan", "NaN", "inf", "-inf",
    "1e400", " 12.5 ", "1_0", "abc", "", "-0.0",
    "3_8.7", " -9.3", "-9.3 ", "\t1", "1\x0c", "\u0661\u0660", "\uff11.5", "1\xa0", "1e_5",
]
FIRST_S = int(from_iso("0001-01-01T00:00:00Z"))
LAST_S = int(from_iso("9999-12-31T23:59:59Z"))

canonical_stamps = st.integers(FIRST_S, LAST_S).map(lambda s: to_iso(float(s)))
canonical_coordinates = (st.floats(-90.0, 90.0).map(repr), st.floats(-180.0, 180.0).map(repr))


@st.composite
def csv_files(draw, header):
    """A CSV text: a right or wrong header, then rows good and bad in any order,
    with \\r\\n, \\n or mixed line ends and maybe no final line end.

    A third of the files are canonical, as the writers write them, and a
    third are canonical but for one flaw: one field, row or line end.
    """
    mode = draw(st.sampled_from(["canonical", "one flaw", "any"]))
    n_rows = draw(st.integers(0, 8))
    # the flawed row; n_rows stands for the final line end
    flaw_row = draw(st.integers(0, n_rows)) if mode == "one flaw" else None
    flaw = draw(st.sampled_from(["id", "stamp", "cell", "lat", "lon", "kind", "end"]))
    out = io.StringIO()

    def wild(what, i):
        return mode == "any" or (i == flaw_row and what == flaw)

    def write(row, i):
        end = draw(st.sampled_from(["\r\n", "\n"])) if wild("end", i) else "\r\n"
        csv.writer(out, lineterminator=end).writerow(row)

    write(header if mode != "any" or draw(st.integers(0, 9)) else ["user", "time", "cell"], -1)
    width = len(header)
    pools = [("id", PLAIN_IDS, IDS), ("stamp", canonical_stamps, TIMESTAMPS),
             ("cell", CELLS[:2], CELLS), ("lat", canonical_coordinates[0], COORDINATES),
             ("lon", canonical_coordinates[1], COORDINATES)][:width]
    for i in range(n_rows):
        kind = "row"
        if wild("kind", i):
            kind = draw(st.sampled_from(["row"] * 8 + ["blank", "short", "long"]))
        if kind == "blank":
            out.write("\r\n")
            continue
        row = []
        for what, tame, others in pools:
            tame = st.sampled_from(tame) if isinstance(tame, list) else tame
            if wild(what, i):
                row.append(draw(st.one_of(tame, st.sampled_from(others)) if mode == "any"
                                else st.sampled_from(others)))
            else:
                row.append(draw(tame))
        if kind == "short":
            row = row[:draw(st.integers(1, width - 1))]
        elif kind == "long":
            row.append("x")
        write(row, i)
    text = out.getvalue()
    cut = wild("end", n_rows) and not draw(st.integers(0, 2 if mode == "any" else 0))
    return text.rstrip("\r\n") if cut else text


def readers_agree(text, reference, load, read_columns, block_bytes):
    """load (None for none) and read_columns, at block_bytes, read text as reference does."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(reference, path)
        if load is not None:
            assert outcome(load, path) == expected
        with patch.object(files, "_PLAIN_BLOCK_BYTES", block_bytes):
            got = outcome(read_columns, path)
    if expected[0] == "error":
        assert got == expected
    else:
        assert got[0] == "ok" and column_rows(got[1]) == object_rows(expected[1])


block_sizes = st.sampled_from([1, 7, 64, 1 << 16])


@settings(max_examples=400, deadline=None)
@given(csv_files(CDR_HEADER), block_sizes)
def test_cdr_readers_accept_and_reject_alike(text, block_bytes):
    readers_agree(text, reference_cdr, None, eventfiles.load_cdr_csv, block_bytes)


@settings(max_examples=400, deadline=None)
@given(csv_files(POSITIONED_HEADER), block_sizes)
def test_positioned_readers_accept_and_reject_alike(text, block_bytes):
    readers_agree(
        text, reference_positioned, eventfiles.load_positioned_csv,
        eventfiles.read_positioned_columns,
        block_bytes,
    )


NEAR_MISSES = [("cdr", 1, stamp) for stamp in TIMESTAMPS] + [
    ("positioned", column, value)
    for column, values in ((1, TIMESTAMPS), (3, COORDINATES), (4, COORDINATES)) for value in values
]


@pytest.mark.parametrize("kind, column, value", NEAR_MISSES)
def test_one_near_miss_in_a_canonical_file(kind, column, value):
    header, reference, load, read_columns = {
        "cdr": (CDR_HEADER, reference_cdr, None, eventfiles.load_cdr_csv),
        "positioned": (POSITIONED_HEADER, reference_positioned, eventfiles.load_positioned_csv,
                       eventfiles.read_positioned_columns),
    }[kind]
    rows = [["u1", "2024-02-01T00:00:00Z", "c1", "38.7", "-9.3"][:len(header)] for _ in range(3)]
    rows[1][column] = value
    text = "".join(",".join(row) + "\r\n" for row in [header] + rows)
    readers_agree(text, reference, load, read_columns, 1 << 16)


@pytest.mark.parametrize("rows", [
    # split at every comma, the fields would line up into two canonical rows
    "u,2024-02-01T00:00:00Z,c,u\r\n2024-02-01T00:00:00Z,c\r\n",
    # as many \r as \n, and as many commas on each line as in a canonical file
    "u,2024-02-01T00:00:00Z,c\r\r\nu,2024-02-01T00:00:00Z,c\n",
])
def test_lines_that_only_add_up_to_canonical_are_read_row_by_row(rows):
    text = "user_id,timestamp,cell_id\r\n" + rows
    readers_agree(text, reference_cdr, None, eventfiles.load_cdr_csv, 1 << 16)


def test_canonical_files_skip_the_row_wise_reader(tmp_path, monkeypatch):
    rows = [PositionedEvent(u, float(t), "c", GeoPoint(38.7, -0.0))
            for u in ("b", "a", "") for t in (-59000000000, 0, 1706745600, LAST_S)]
    eventfiles.write_positioned_csv([event_columns(rows)], tmp_path / "positioned.csv")
    eventfiles.write_cdr_csv([event_columns(rows)], tmp_path / "cdr.csv")
    expected = (eventfiles.read_positioned_columns(tmp_path / "positioned.csv"),
                eventfiles.load_cdr_csv(tmp_path / "cdr.csv"))
    monkeypatch.setattr(eventfiles, "_read_rows", None)
    got = (eventfiles.read_positioned_columns(tmp_path / "positioned.csv"),
           eventfiles.load_cdr_csv(tmp_path / "cdr.csv"))
    for a, b in zip(got, expected):
        assert column_rows(a) == column_rows(b)
    assert column_rows(got[0]) == object_rows(rows)


def test_empty_files_give_empty_columns(tmp_path):
    path = tmp_path / "positioned.csv"
    path.write_text(",".join(POSITIONED_HEADER) + "\n")
    events = eventfiles.read_positioned_columns(path)
    assert len(events) == 0 and events.users == [] and events.lat.dtype == np.float64
    assert len(records.sort_by_user_time(events)) == 0


# --- sort, position, write ------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["u2", "u10", "u1", "b", "ü"]), st.integers(-2, 3).map(float)),
    max_size=40,
))
def test_sort_by_user_time_is_the_stable_sort(pairs):
    # a unique cell per event shows where every tie went
    events = [CdrEvent(user_id, ts, f"c{k}") for k, (user_id, ts) in enumerate(pairs)]
    got = records.sort_by_user_time(cdr_columns(events))
    assert got.user.dtype == np.int32 and got.ts.dtype == np.float64
    expected = sorted(events, key=lambda ev: (ev.user_id, ev.timestamp))
    assert column_rows(got) == object_rows(expected)


@pytest.fixture(scope="module")
def land_world():
    world = LandWorld()
    towers = world.sectors()  # with a zero-radius sector and a wholly wet one
    events = sorted(world.events(towers, n=2600), key=lambda ev: (ev.user_id, ev.timestamp))
    return towers, events


def write_reference(path, header, rows):
    """The file that csv.writer writes for the rows, as the writers always wrote it."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def positioned_rows(events):
    return [
        [ev.user_id, to_iso(ev.timestamp), ev.cell_id, repr(ev.location.lat), repr(ev.location.lon)]
        for ev in events
    ]


def test_position_columns_equal_position_events(land_world, tmp_path, monkeypatch):
    """position_events of columns and of records, and both writer inputs, against the oracles."""
    towers, events = land_world
    expected = scalar_positions(events, towers, RIVER_LAND)
    write_reference(tmp_path / "reference.csv", POSITIONED_HEADER, positioned_rows(expected))
    for size in (1000, 7):
        monkeypatch.setattr(geo, "_BLOCK_EVENTS", size)
        monkeypatch.setattr(eventfiles, "_BLOCK_EVENTS", size)
        got = position_events(cdr_columns(events), towers, land=RIVER_LAND)
        assert column_rows(got) == object_rows(expected)
        assert position_events(events, towers, land=RIVER_LAND) == expected
        eventfiles.write_positioned_csv([got], tmp_path / "columns.csv")
        eventfiles.write_positioned_csv([event_columns(expected)], tmp_path / "objects.csv")
        for name in ("columns.csv", "objects.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "reference.csv").read_bytes()


def scalar_one_at_a_time(events, towers, land):
    """scalar_positions of each event in turn, an unknown cell raising as positioning does."""
    for ev in events:
        if ev.cell_id not in towers:
            raise ValueError(f"event references unknown cell_id {ev.cell_id!r}")
        scalar_positions([ev], towers, land)


def test_position_columns_raise_as_position_events(land_world, monkeypatch):
    """position_events of columns and of records raises as one event at a time does."""
    towers, events = land_world
    monkeypatch.setattr(geo, "_BLOCK_EVENTS", 4)
    towers = {**towers, "sea": geo.TowerSector("sea", GeoPoint(10.0, 10.0), 0.0, 120.0, 500.0)}
    sea, ghost = CdrEvent("u", 10.0, "sea"), CdrEvent("u", 11.0, "ghost")
    for case in ([sea, ghost], [ghost, sea], events[:5] + [ghost], events[:6] + [sea]):
        with pytest.raises(Exception) as expected:
            scalar_one_at_a_time(case, towers, RIVER_LAND)
        for given in (cdr_columns(case), case):
            with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
                position_events(given, towers, land=RIVER_LAND)


# --- writers ------------------------------------------------------------------

# whole seconds from year 1 to 9999, fractional seconds, pre-1970 and year < 1000
stamp_values = st.one_of(
    st.integers(FIRST_S, LAST_S).map(float),
    st.integers(-86400 * 800, 86400 * 800).map(float),
    st.floats(-6e10, 3e10).filter(lambda t: not t.is_integer()),
    st.sampled_from([-0.0, float(FIRST_S), float(LAST_S), -59000000000.0, 1706745600.5]),
)


def positioned_events(ids, cells):
    return st.builds(
        PositionedEvent, st.sampled_from(ids), stamp_values, st.sampled_from(cells),
        st.builds(GeoPoint, st.one_of(st.floats(-90.0, 90.0), st.just(-0.0)),
                  st.one_of(st.floats(-180.0, 180.0), st.just(-0.0))),
    )


def columns_of(events):
    """EventColumns of PositionedEvents."""
    columns = cdr_columns(events)
    return replace(
        columns, lat=np.array([ev.location.lat for ev in events], dtype=np.float64),
        lon=np.array([ev.location.lon for ev in events], dtype=np.float64),
    )


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.lists(positioned_events(PLAIN_IDS, CELLS[:2]), max_size=30),
              st.lists(positioned_events(IDS, CELLS), max_size=30)),
    st.sampled_from([1, 3, 1024]),
)
def test_writers_write_what_csv_writer_writes(events, block_events):
    with tempfile.TemporaryDirectory() as tmp, \
            patch.object(eventfiles, "_BLOCK_EVENTS", block_events):
        tmp = Path(tmp)
        write_reference(tmp / "positioned.csv", POSITIONED_HEADER, positioned_rows(events))
        eventfiles.write_positioned_csv([event_columns(events)], tmp / "objects.csv")
        eventfiles.write_positioned_csv([columns_of(events)], tmp / "columns.csv")
        for name in ("objects.csv", "columns.csv"):
            assert (tmp / name).read_bytes() == (tmp / "positioned.csv").read_bytes()
        # positioned columns give cdr.csv their three CDR columns only
        eventfiles.write_cdr_csv([event_columns(events)], tmp / "cdr.csv")
        write_reference(tmp / "reference.csv", CDR_HEADER,
                        ([ev.user_id, to_iso(ev.timestamp), ev.cell_id] for ev in events))
        assert (tmp / "cdr.csv").read_bytes() == (tmp / "reference.csv").read_bytes()
        cdr, cut = cdr_columns(events), len(events) // 3
        parts = [cdr.take(slice(0, cut)), cdr.take(slice(cut, cut)), cdr.take(slice(cut, None))]
        eventfiles.write_cdr_csv(iter(parts), tmp / "parts.csv")
        assert (tmp / "parts.csv").read_bytes() == (tmp / "reference.csv").read_bytes()


@pytest.mark.parametrize("ts", [float(LAST_S + 1), float(FIRST_S - 1), math.nan, math.inf])
def test_cdr_writer_raises_as_to_iso(tmp_path, ts):
    with pytest.raises(Exception) as expected:
        to_iso(ts)
    events = [CdrEvent("u", 0.0, "c"), CdrEvent("u", ts, "c")]
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))):
        eventfiles.write_cdr_csv([event_columns(events)], tmp_path / "cdr.csv")


def test_codec_output_does_not_depend_on_block_size(land_world, tmp_path, monkeypatch):
    towers, events = land_world
    events = events[:600] + [replace(ev, timestamp=ev.timestamp + 0.25) for ev in events[600:700]]
    positioned = position_events(cdr_columns(events), towers, land=RIVER_LAND)
    expected_bytes = expected_rows = None
    for block_events, block_bytes in ((1024, 1 << 16), (1, 1), (7, 100), (333, 4096)):
        monkeypatch.setattr(eventfiles, "_BLOCK_EVENTS", block_events)
        monkeypatch.setattr(files, "_PLAIN_BLOCK_BYTES", block_bytes)
        eventfiles.write_positioned_csv([positioned], tmp_path / "positioned.csv")
        canonical = positioned.take(slice(0, 600))
        eventfiles.write_positioned_csv([canonical], tmp_path / "canonical.csv")
        eventfiles.write_cdr_csv([event_columns(events)], tmp_path / "cdr.csv")
        written = [(tmp_path / name).read_bytes()
                   for name in ("positioned.csv", "canonical.csv", "cdr.csv")]
        rows = [column_rows(eventfiles.read_positioned_columns(tmp_path / "positioned.csv")),
                column_rows(eventfiles.read_positioned_columns(tmp_path / "canonical.csv")),
                column_rows(eventfiles.load_cdr_csv(tmp_path / "cdr.csv"))]
        expected_bytes = expected_bytes or written
        expected_rows = expected_rows or rows
        assert written == expected_bytes and rows == expected_rows
    assert expected_rows[0] == column_rows(positioned)


# --- stays ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("interleave", [False, True], ids=["by-user", "by-time"])
def test_build_staypoints_and_moving_events_equal_reference(tmp_path, seed, interleave):
    events, towers, regions, _ = synth.generate_scenario(synth.ScenarioConfig(
        n_agents=5, n_days=2, moving_rate_per_h=30.0, tower_noise_p=0.1, seed=seed,
    ))
    order = (lambda ev: (ev.timestamp, ev.user_id)) if interleave else (
        lambda ev: (ev.user_id, ev.timestamp))
    path = tmp_path / "positioned.csv"
    eventfiles.write_positioned_csv([position_events(sorted(events, key=order), towers)], path)
    positioned = eventfiles.load_positioned_csv(path)
    columns = eventfiles.read_positioned_columns(path)
    params = stays.StopParams()
    expected, expected_moving = reference_staypoints(positioned, params, regions)
    got = stays.build_staypoints(columns, params, regions)
    assert got == expected and len(expected) > 5
    assert stays.build_staypoints(positioned, params, regions=regions) == expected
    moving = stays.moving_events(columns, got)
    assert isinstance(moving, records.EventColumns) and moving == expected_moving
    kept = stays.moving_events(positioned, got)
    assert len(kept) == len(expected_moving)
    assert all(a is b for a, b in zip(kept, expected_moving))
    assert 0 < len(kept) < len(positioned)


def test_build_staypoints_rejects_unsorted_users_alike(tmp_path):
    rng = random.Random(4)
    rows = [PositionedEvent(u, float(t), "c", GeoPoint(38.7 + rng.random() / 1e3, -9.3))
            for u in ("b", "a") for t in range(0, 3600, 60)]
    rows[60], rows[61] = rows[61], rows[60]  # user "a" goes back in time at once
    rows[5], rows[9] = rows[9], rows[5]  # and so does "b", later in sorted order
    path = tmp_path / "positioned.csv"
    eventfiles.write_positioned_csv([event_columns(rows)], path)
    params = stays.StopParams()
    with pytest.raises(UnsortedInput) as expected:
        reference_staypoints(eventfiles.load_positioned_csv(path), params)
    for given in (eventfiles.read_positioned_columns(path), eventfiles.load_positioned_csv(path)):
        with pytest.raises(UnsortedInput, match=re.escape(str(expected.value))) as got:
            stays.build_staypoints(given, params)
    assert "'a'" in str(got.value)


# --- EventColumns as a sequence of records -------------------------------------

@pytest.fixture(scope="module")
def sequence_world(land_world):
    towers, events = land_world
    return events[:50], list(position_events(events[:50], towers, land=RIVER_LAND))


@pytest.mark.parametrize("block_events", [1, 7, 1024])
@pytest.mark.parametrize("kind", ["cdr", "positioned"])
def test_event_columns_are_a_sequence_of_records(sequence_world, kind, block_events, monkeypatch):
    records = dict(zip(("cdr", "positioned"), sequence_world))[kind]
    columns = event_columns(records)
    assert event_columns(columns) is columns and (columns.lat is None) == (kind == "cdr")
    monkeypatch.setattr("cdrflow.records._BLOCK_EVENTS", block_events)

    assert list(columns) == records and len(columns) == len(records) == 50
    for other in (records, tuple(records), event_columns(list(records))):
        assert columns == other and other == columns
        assert not (columns != other) and not (other != columns)
    changed = records[:-1] + [CdrEvent("u", 0.0, "c")]
    for other in (records[:-1], tuple(changed), changed, [], records + records[:1], "abc", None):
        assert columns != other and other != columns
        assert not (columns == other) and not (other == columns)

    assert columns[0] == records[0] and columns[-1] == records[-1] == columns[49]
    assert columns[-50] == records[0] and columns[np.int64(3)] == records[3]
    for index in (50, -51, 10**9):
        with pytest.raises(IndexError):
            columns[index]
    for index in (slice(3, 9), slice(None), slice(40, 60), slice(None, None, -3), slice(5, 5)):
        got = columns[index]
        assert type(got) is list and got == records[index]

    copy = pickle.loads(pickle.dumps(columns, protocol=pickle.HIGHEST_PROTOCOL))
    assert copy == records and column_rows(copy) == column_rows(columns)
    with pytest.raises(TypeError):
        hash(columns)


def test_cdr_writer_leaves_positioned_columns_coordinates_out(sequence_world, tmp_path):
    events, positioned = sequence_world
    columns = event_columns(positioned)
    assert columns.lat is not None
    eventfiles.write_cdr_csv([columns], tmp_path / "cdr.csv")
    write_reference(tmp_path / "reference.csv", CDR_HEADER,
                    ([ev.user_id, to_iso(ev.timestamp), ev.cell_id] for ev in events))
    assert (tmp_path / "cdr.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
