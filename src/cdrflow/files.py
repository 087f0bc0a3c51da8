"""Artifact file format: UTF-8 CSV under a fixed header, and indented JSON.

Every CSV and JSON file the pipeline reads or writes goes through these
functions, so the encoding, the header check and the row-width check live
in one place.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


class HeaderMismatch(ValueError):
    """The first line of a CSV file is not the header its reader expects."""


def read_csv(
    path: str | Path, header: Sequence[str], what: str, make: Callable[..., T]
) -> Iterator[T]:
    """make(*fields) for each data row of a CSV file whose first line is `header`.

    Blank lines are skipped.  `what` names the kind of file in errors: a
    wrong header raises HeaderMismatch, and a row with another number of
    fields than the header, or one whose fields make rejects with
    ValueError, raises ValueError; each names the file and line.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, None) != list(header):
            raise HeaderMismatch(f"{what} {path}: line 1: expected header {','.join(header)}")
        width = len(header)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ValueError(
                    f"{what} {path}: line {reader.line_num}: "
                    f"{len(row)} fields, expected {width}"
                )
            try:
                record = make(*row)
            except ValueError as exc:
                raise ValueError(f"{what} {path}: line {reader.line_num}: {exc}") from exc
            yield record


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_json(doc, path: str | Path) -> None:
    """Two-space indented JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
