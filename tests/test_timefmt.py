import time
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def datetime_form(ts):
    """to_iso as datetime's own ISO-8601 formatting writes it, the year in four digits."""
    if float(ts).is_integer():
        moment = datetime.fromtimestamp(int(ts), tz=timezone.utc)
        return moment.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"
    moment = datetime.fromtimestamp(float(ts), tz=timezone.utc)
    return moment.replace(tzinfo=None).isoformat(timespec="microseconds") + "Z"


FIRST_S = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
LAST_S = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


@st.composite
def boundary_seconds(draw):
    """Seconds next to the start of a UTC day or year, from 0001 to 9999."""
    year = draw(st.integers(1, 9999))
    start = datetime(year, 1, 1, tzinfo=timezone.utc)
    if draw(st.booleans()):
        start += timedelta(days=draw(st.integers(0, 364)))
    return int(start.timestamp()) + draw(st.sampled_from([-1, 0, 1, 86399]))


whole_seconds = st.one_of(
    st.integers(FIRST_S, LAST_S),
    st.integers(-86400 * 800, 86400 * 800),  # around the epoch, negative included
    boundary_seconds(),
).filter(lambda s: FIRST_S <= s <= LAST_S)


@settings(max_examples=1000, deadline=None)
@given(whole_seconds, st.booleans())
def test_whole_seconds_match_datetime_form(seconds, as_float):
    ts = float(seconds) if as_float else seconds
    assert to_iso(ts) == datetime_form(ts)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e10, 1e10).filter(lambda t: not t.is_integer()))
def test_fractional_seconds_keep_datetime_form(ts):
    assert to_iso(ts) == datetime_form(ts)


@settings(max_examples=500, deadline=None)
@given(whole_seconds)
def test_whole_seconds_round_trip(seconds):
    assert from_iso(to_iso(float(seconds))) == seconds


def test_year_before_1000_is_zero_padded_and_reads_back():
    assert to_iso(-59000000000.0) == "0100-05-13T15:06:40Z"
    assert to_iso(-59000000000.5) == "0100-05-13T15:06:39.500000Z"
    assert from_iso(to_iso(-59000000000.0)) == -59000000000.0


@pytest.mark.parametrize("seconds", [FIRST_S - 1, LAST_S + 1])
def test_out_of_range_raises_like_datetime(seconds):
    with pytest.raises(ValueError) as expected:
        datetime_form(seconds)
    with pytest.raises(ValueError, match=str(expected.value)):
        to_iso(float(seconds))


@pytest.fixture
def kathmandu(monkeypatch):
    """Local zone UTC+05:45 for one test, restored afterwards."""
    monkeypatch.setenv("TZ", "Asia/Kathmandu")
    time.tzset()
    yield
    monkeypatch.undo()
    time.tzset()


def test_day_cache_ignores_the_local_zone(kathmandu):
    assert time.localtime(0).tm_min == 30  # 05:30 in 1970, the zone really is in effect
    for ts in (-1.0, 0.0, 18899.0, 86399.0, 1706745599.0, 1706745600.0):
        assert to_iso(ts) == datetime_form(ts)
        assert from_iso(to_iso(ts)) == ts
