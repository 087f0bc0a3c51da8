"""Event files (cdr.csv, positioned.csv, moving.csv) read and written as EventColumns.

load_positioned_csv gives records, parsed without numpy: numpy costs the trips stage ~100 ms.
It checks each row once, as the records would, and then makes the records
without running their checks again.
"""

from __future__ import annotations

import math
from array import array
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .files import is_strict, plain_csv_blocks, read_csv, strict_float, write_csv_blocks
from .records import (
    _BLOCK_EVENTS, EventColumns, GeoPoint, PositionedEvent, _check_coordinates, _made,
    _valid_events, id_codes,
)
from .timefmt import from_iso, from_iso_block, to_iso_block


CDR_HEADER = ["user_id", "timestamp", "cell_id"]
POSITIONED_HEADER = ["user_id", "timestamp", "cell_id", "lat", "lon"]


def _cdr_fields(user_id, ts, cell_id) -> tuple:
    return user_id, from_iso(ts), cell_id


def _positioned_fields(user_id, ts, cell_id, lat, lon) -> tuple:
    # the checks and their order are those of PositionedEvent(..., GeoPoint(lat, lon))
    timestamp, lat, lon = from_iso(ts), strict_float(lat), strict_float(lon)
    _check_coordinates(lat, lon)
    if not math.isfinite(timestamp):
        raise ValueError("timestamp must be finite")
    return user_id, timestamp, cell_id, lat, lon


class _ColumnBuilder:
    """EventColumns grown a value or a block of values at a time."""

    def __init__(self, n_floats: int):
        self.user_codes: dict[str, int] = {}
        self.cell_codes: dict[str, int] = {}
        self.user, self.cell = array("i"), array("i")
        self.floats = [array("d") for _ in range(n_floats)]  # ts, then lat and lon if any

    def build(self) -> EventColumns:
        import numpy as np

        return EventColumns(
            list(self.user_codes), list(self.cell_codes),
            np.frombuffer(self.user, dtype=np.int32), np.frombuffer(self.cell, dtype=np.int32),
            *(np.frombuffer(column, dtype=np.float64) for column in self.floats),
        )


def _read_canonical_columns(path: str | Path, header: list[str]) -> Optional[EventColumns]:
    """EventColumns of a plain event file in canonical form, or None for any other file.

    Canonical is what the writers below give: plain CSV (files.plain_csv_blocks),
    timestamps in from_iso_block's form, and coordinates that strict_float reads
    within range.  For such a file this gives what _read_rows gives, with
    whole-array passes over each block instead of a check per row.
    """
    import numpy as np

    out = _ColumnBuilder(len(header) - 2)
    for columns in plain_csv_blocks(path, header):
        if columns is None:
            return None
        users, stamps, cells, *coordinates = columns
        ts = from_iso_block(stamps)
        if ts is None:
            return None
        if not all(map(is_strict, map("".join, coordinates))):
            return None
        try:
            floats = [np.fromiter(map(float, c), np.float64, len(c)) for c in coordinates]
        except ValueError:
            return None
        if floats and not _valid_events(ts, *floats).all():
            return None
        values = (id_codes(out.user_codes, users), id_codes(out.cell_codes, cells), ts, *floats)
        for column, block in zip((out.user, out.cell, *out.floats), values):
            column.frombytes(block.tobytes())
    return out.build()


def _read_rows(path: str | Path, header: list[str], what: str, fields) -> EventColumns:
    """EventColumns of a CSV whose rows fields(*row) turns into (user, ts, cell, *coordinates)."""
    out = _ColumnBuilder(len(header) - 2)
    for user_id, ts, cell_id, *coordinates in read_csv(path, header, what, fields):
        out.user.append(out.user_codes.setdefault(user_id, len(out.user_codes)))
        out.cell.append(out.cell_codes.setdefault(cell_id, len(out.cell_codes)))
        for column, value in zip(out.floats, (ts, *coordinates)):
            column.append(value)
    return out.build()


def _read_columns(path: str | Path, header: list[str], what: str, fields) -> EventColumns:
    """The canonical reader's columns, or the row-wise reader's for any other file.

    Both accept the same files with the same values; only the row-wise
    reader raises, naming the file and line.
    """
    columns = _read_canonical_columns(path, header)
    return _read_rows(path, header, what, fields) if columns is None else columns


def load_cdr_csv(path: str | Path) -> EventColumns:
    return _read_columns(path, CDR_HEADER, "cdr file", _cdr_fields)


def write_cdr_csv(parts: Iterable[EventColumns], path: str | Path) -> None:
    """cdr.csv of the events of each part in turn; coordinates, if any, are left out."""
    _write_events(parts, path, CDR_HEADER)


def read_positioned_columns(path: str | Path) -> EventColumns:
    return _read_columns(path, POSITIONED_HEADER, "positioned file", _positioned_fields)


def load_positioned_csv(path: str | Path) -> list[PositionedEvent]:
    """PositionedEvents of the file, parsed row by row without numpy, for the trips stage.

    _positioned_fields checks each row; the records of each block of rows
    are then made unchecked.
    """
    rows = read_csv(path, POSITIONED_HEADER, "positioned file", _positioned_fields)
    events = []
    while block := list(islice(rows, _BLOCK_EVENTS)):
        users, ts, cells, lats, lons = zip(*block)
        events += _made(PositionedEvent, len(block), users, ts, cells,
                        _made(GeoPoint, len(block), lats, lons))
    return events


def write_positioned_csv(parts: Iterable[EventColumns], path: str | Path) -> None:
    """positioned.csv of the events of each part, positioned EventColumns, in turn."""
    _write_events(parts, path, POSITIONED_HEADER)


def _write_events(parts: Iterable[EventColumns], path: str | Path, header: list[str]) -> None:
    """The rows of each part in turn, so that the parts can be made as they are written."""
    blocks = (text for part in parts for text in _text_blocks(part, header == POSITIONED_HEADER))
    write_csv_blocks(path, header, blocks)


def _text_blocks(events: EventColumns, coordinates: bool = False) -> Iterator[list[list[str]]]:
    """The rows of events as string columns, _BLOCK_EVENTS rows at a time.

    The columns are those of the event files: user_id, timestamp and
    cell_id, then lat and lon if `coordinates` is set.
    """
    users, cells = events.users, events.cells
    for start in range(0, len(events), _BLOCK_EVENTS):
        block = slice(start, start + _BLOCK_EVENTS)
        columns = [
            list(map(users.__getitem__, events.user[block].tolist())),
            to_iso_block(events.ts[block]),
            list(map(cells.__getitem__, events.cell[block].tolist())),
        ]
        if coordinates:
            columns.append(list(map(repr, events.lat[block].tolist())))
            columns.append(list(map(repr, events.lon[block].tolist())))
        yield columns
