"""Artifact file format: UTF-8 CSV under a fixed header, and indented JSON.

Every CSV and JSON file the pipeline reads or writes goes through these
functions, so the encoding, the header check, the row-width check and the
repeated-key check live in one place.  The event files also have a
block-wise form: columns of strings in and out, for files in the plain
form that csv.writer gives rows needing no quotes.
"""

from __future__ import annotations

import csv
import json
import re
from itertools import islice
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")

# Bytes read per block by plain_csv_blocks: enough that its array passes
# outweigh their call overhead, few enough to add little to peak memory.
_PLAIN_BLOCK_BYTES = 1 << 16

# Elements of a top-level JSON array encoded at a time by write_json: enough
# to amortise each encoder call, few enough that a slice and its split text
# add little to peak memory.
_JSON_SLICE = 256

# Distinct runs of text between strings laid out once and remembered per
# depth by write_json: the runs of the pipeline's artifacts repeat, and the
# bound keeps a document of all-distinct runs from filling memory.
_JSON_MEMO = 1024

_COMPACT = json.JSONEncoder(separators=(",", ":"))
_BRACKET = re.compile(r"([\[\]{}])")


# Digit separator and ASCII whitespace, which float() forgives in a number field.
_LAX_CHARACTERS = "_ \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"
_LAX_SET = frozenset(_LAX_CHARACTERS)


class HeaderMismatch(ValueError):
    """The first line of a CSV file is not the header its reader expects."""


def is_strict(text: str) -> bool:
    """Whether text, a number field or fields joined, is ASCII with no '_' and no whitespace.

    It scans text once per lax character, which is fastest on long text.
    """
    return text.isascii() and not any(c in text for c in _LAX_CHARACTERS)


def strict_float(field: str) -> float:
    """float(field) for a strict field (see is_strict); any other field raises ValueError."""
    if not (field.isascii() and _LAX_SET.isdisjoint(field)):  # is_strict, faster on a field
        raise ValueError(f"could not convert string to float: {field!r}")
    return float(field)


def read_csv(
    path: str | Path, header: Sequence[str], what: str, make: Callable[..., T]
) -> Iterator[T]:
    """make(*fields) for each data row of a CSV file whose first line is `header`.

    Blank lines are skipped.  `what` names the kind of file in errors: a
    wrong header raises HeaderMismatch, and a row with another number of
    fields than the header, one whose fields make rejects with ValueError,
    or one csv cannot read, such as one opening a quote that never closes,
    raises ValueError; each names the file and the line the row starts on.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        end = 0  # the last line of the last row read
        try:
            if next(reader, None) != list(header):
                raise HeaderMismatch(f"{what} {path}: line 1: expected header {','.join(header)}")
            end, width = reader.line_num, len(header)
            for row in reader:
                start, end = end + 1, reader.line_num
                if len(row) != width:
                    if not row:
                        continue
                    raise ValueError(
                        f"{what} {path}: line {start}: {len(row)} fields, expected {width}"
                    )
                try:
                    record = make(*row)
                except ValueError as exc:
                    raise ValueError(f"{what} {path}: line {start}: {exc}") from exc
                yield record
        except csv.Error as exc:
            raise ValueError(f"{what} {path}: line {end + 1}: {exc}") from exc


def read_keyed_csv(
    path: str | Path, header: Sequence[str], what: str, key: str,
    make: Callable[..., tuple[Hashable, T]],
) -> dict[Hashable, T]:
    """{k: v} for the pair (k, v) that make(*fields) gives for each data row, in file order.

    The file is read as by read_csv.  A k that repeats then raises ValueError
    naming the file, the line of its second row, `key` and k; the rows are
    checked once all have parsed, so a malformed row is named first.
    """
    pairs = list(read_csv(path, header, what, make))
    table = dict(pairs)
    if len(table) == len(pairs):
        return table
    seen = set()
    for index, (k, _) in enumerate(pairs):
        if k in seen:
            break
        seen.add(k)
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        ends = (reader.line_num for row in reader if row)  # the header's, then each row's
        line = next(islice(ends, index + 1, None))
    raise ValueError(f"{what} {path}: line {line}: duplicate {key} {k!r}")


def _plain_columns(block: bytes, width: int) -> Optional[list[list[str]]]:
    """The fields of whole lines, column by column, or None unless every line is plain."""
    import numpy as np

    raw = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    if b'"' in block or np.count_nonzero(raw == ord("\r")) != len(ends):
        return None
    if (raw[ends - 1] != ord("\r")).any():  # else some \r or \n is not part of a \r\n
        return None
    commas = np.searchsorted(np.flatnonzero(raw == ord(",")), ends)
    if (np.diff(commas, prepend=0) != width - 1).any():
        return None
    # a field longer than csv's limit is an error there; no line here holds one
    if np.diff(ends, prepend=-1).max() - 2 > csv.field_size_limit():
        return None
    try:
        fields = block.decode("utf-8").replace("\r\n", ",").split(",")
    except UnicodeDecodeError:
        return None
    return [fields[k:-1:width] for k in range(width)]


def plain_csv_blocks(path: str | Path, header: Sequence[str]) -> Iterator[Optional[list]]:
    """The data rows of a plain CSV file as columns of strings, one block of lines at a time.

    A file is plain when its first line is `header` ending in \\r\\n and
    each later line ends in \\r\\n and holds len(header) fields with no
    quote and no other line break; csv.reader reads such a file into the
    same fields.  At the first block that is not plain, and at an
    unterminated last line, this yields None and stops.
    """
    width = len(header)
    first = (",".join(header) + "\r\n").encode("utf-8")
    with open(path, "rb") as f:
        if f.read(len(first)) != first:
            yield None
            return
        rest = b""
        while chunk := f.read(_PLAIN_BLOCK_BYTES):
            block = rest + chunk
            cut = block.rfind(b"\n") + 1
            block, rest = block[:cut], block[cut:]
            if len(rest) > csv.field_size_limit():  # a line too long to be plain
                yield None
                return
            if block:
                columns = _plain_columns(block, width)
                yield columns
                if columns is None:
                    return
        if rest:
            yield None


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Header line, then one line per row."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv_blocks(
    path: str | Path, header: Sequence[str], blocks: Iterable[Sequence[list[str]]]
) -> None:
    """write_csv for rows given as blocks of string columns, with the same bytes.

    A block none of whose fields needs quoting is joined in one pass; any
    other block goes through csv.writer.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for columns in blocks:
            width, n = len(columns), len(columns[0])
            parts = ([None, ","] * (width - 1) + [None, "\r\n"]) * n
            for k, column in enumerate(columns):
                parts[2 * k::2 * width] = column
            text = "".join(parts)
            # the separators hold all the commas and line breaks of a plain block
            if '"' in text or text.count(",") != n * (width - 1) or not (
                text.count("\r") == text.count("\n") == n
            ):
                writer.writerows(zip(*columns))
            else:
                f.write(text)


def read_json(path: str | Path, object_hook: Optional[Callable[[dict], object]] = None):
    """The document in a JSON file; a file that is not JSON raises ValueError naming it.

    object_hook, as in json.load, replaces each decoded object; a ValueError
    it raises is reported like a decoding error.
    """
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f, object_hook=object_hook)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"JSON file {path}: {exc}") from exc


def write_json(doc, path: str | Path) -> None:
    """Two-space indented JSON ending in a newline: json.dump(indent=2)'s bytes.

    The document is encoded compactly by the C encoder, a slice of each
    top-level array at a time, and the compact text is then laid out.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(_indented(_compact_chunks(doc, 0)))
        f.write("\n")


def _compact_chunks(value, depth: int) -> Iterator[str]:
    """Compact JSON text of value in pieces that split no string.

    The members of a top-level object, and the elements of an array that is
    the document or one of those members, are encoded a slice at a time.
    """
    if depth == 0 and isinstance(value, dict) and value:
        yield "{"
        for k, (key, member) in enumerate(value.items()):
            # the encoder's text for the key, which it may convert to a string
            yield ("," if k else "") + _COMPACT.encode({key: 0})[1:-2]
            yield from _compact_chunks(member, 1)
        yield "}"
    elif depth <= 1 and isinstance(value, (list, tuple)) and value:
        yield "["
        for start in range(0, len(value), _JSON_SLICE):
            text = _COMPACT.encode(value[start:start + _JSON_SLICE])
            yield ("," if start else "") + text[1:-1]
        yield "]"
    else:
        yield _COMPACT.encode(value)


def _indented(chunks: Iterable[str]) -> Iterator[str]:
    """Compact JSON pieces laid out with json.dumps(indent=2)'s line breaks and spaces.

    The compact text is ASCII with no raw control character, and every quote
    inside a string is escaped, so once each escaped backslash and escaped
    quote is masked, splitting at quotes alternates text outside strings
    (even places) and string contents (odd places).  Only the former is
    laid out.  It takes few distinct values, so the first _JSON_MEMO of
    them at each depth are laid out once and remembered.
    """
    depth = 0
    memos: dict[int, dict] = {0: {}}
    memo = memos[0]
    for chunk in chunks:
        parts = chunk.replace("\\\\", "\0").replace('\\"', "\1").split('"')
        runs = parts[0::2]
        for i, run in enumerate(runs):
            laid = memo.get(run)
            if laid is None:
                if _BRACKET.search(run):
                    laid = _layout(run, depth)
                else:
                    laid = _layout_between(run, depth), depth
                if len(memo) < _JSON_MEMO:
                    memo[run] = laid
            runs[i], after = laid
            if after != depth:
                depth = after
                memo = memos.setdefault(depth, {})
        parts[0::2] = runs
        yield '"'.join(parts).replace("\1", '\\"').replace("\0", "\\\\")


def _layout_between(text: str, depth: int) -> str:
    """Text outside strings and brackets at a depth, laid out."""
    return text.replace(",", ",\n" + "  " * depth).replace(":", ": ")


def _layout(run: str, depth: int) -> tuple[str, int]:
    """Text outside strings at a depth, laid out, and the depth after it."""
    pieces = _BRACKET.split(run.replace("[]", "\2").replace("{}", "\3"))
    for k in range(len(pieces)):
        piece = pieces[k]
        if k % 2 == 0:
            pieces[k] = _layout_between(piece, depth)
        elif piece in "[{":
            depth += 1
            pieces[k] = piece + "\n" + "  " * depth
        else:
            depth -= 1
            pieces[k] = "\n" + "  " * depth + piece
    return "".join(pieces).replace("\2", "[]").replace("\3", "{}"), depth
