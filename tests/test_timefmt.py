import time

import pytest

from cdrflow.timefmt import from_iso, to_iso


@pytest.fixture
def new_york(monkeypatch):
    """Local zone set to America/New_York for one test, restored afterwards."""
    monkeypatch.setenv("TZ", "America/New_York")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_naive_timestamp_reads_as_utc_in_any_local_zone(new_york):
    assert time.localtime(0).tm_hour == 19  # the zone really is in effect
    assert from_iso("2024-02-01T00:00:00") == 1706745600.0
    assert from_iso("2024-02-01T00:00:00Z") == 1706745600.0
    assert from_iso("2024-02-01T01:00:00+01:00") == 1706745600.0
    assert to_iso(1706745600.0) == "2024-02-01T00:00:00Z"
