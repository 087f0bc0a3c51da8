import json
import tempfile
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdrflow import files

# characters that the encoder escapes or that look like JSON structure
TRICKY = ['"', "\\", '\\"', "\n", "\x00", "\x1f", "\x7f", " ", "\U0001f600", "é",
          "[", "]", "{", "}", "[]", "{}", ",", ":", " ", "a", "1"]
texts = st.lists(st.sampled_from(TRICKY)).map("".join) | st.text(max_size=8)
scalars = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**30, -(10**30)])
    | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]) | texts
)
keys = texts | st.integers() | st.floats() | st.booleans() | st.none()
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6) | st.lists(inner, max_size=6).map(tuple)
    | st.dictionaries(keys, inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(documents, st.sampled_from([1, 2, 3, 1024]), st.sampled_from([1, 2, 1024]))
def test_write_json_matches_indented_json_dumps(doc, slice_size, memo_size):
    with (
        tempfile.TemporaryDirectory() as tmp,
        patch.object(files, "_JSON_SLICE", slice_size),
        patch.object(files, "_JSON_MEMO", memo_size),
    ):
        path = Path(tmp) / "doc.json"
        files.write_json(doc, path)
        assert path.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def test_read_keyed_csv_names_the_line_of_a_repeated_key(tmp_path):
    path = tmp_path / "table.csv"
    # a blank line and a quoted line break put the rows' ends apart from their indices
    path.write_text('k,v\na,1\n\nb,"x\ny"\nc,2\nb,3\na,4\n', encoding="utf-8")
    with pytest.raises(ValueError) as info:
        files.read_keyed_csv(path, ["k", "v"], "table", "key", lambda k, v: (k, v))
    assert str(info.value) == f"table {path}: line 7: duplicate key 'b'"
    path.write_text("k,v\nb,1\na,2\n\n", encoding="utf-8")
    table = files.read_keyed_csv(path, ["k", "v"], "table", "key", lambda k, v: (k, int(v)))
    assert list(table.items()) == [("b", 1), ("a", 2)]


def test_read_keyed_csv_names_a_malformed_row_before_a_repeated_key(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("k,v\na,1\na,2\nb,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r": line 4: invalid literal"):
        files.read_keyed_csv(path, ["k", "v"], "table", "key", lambda k, v: (k, int(v)))
