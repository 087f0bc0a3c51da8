"""ISO-8601 UTC timestamp formatting shared by every CSV surface."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_S = 86400
# Days since the epoch that datetime can represent (years 1 to 9999).
_FIRST_DAY = (date(1, 1, 1) - _EPOCH.date()).days
_LAST_DAY = (date(9999, 12, 31) - _EPOCH.date()).days
# "YYYY-MM-DDT" per UTC day since the epoch, filled as days are met.
_DAY_PREFIX: dict[int, str] = {}


def _date_prefix(moment: datetime) -> str:
    # strftime's %Y does not zero-pad years before 1000 everywhere (glibc does not)
    return f"{moment.year:04d}-{moment.month:02d}-{moment.day:02d}T"


def to_iso(ts: float) -> str:
    """Epoch seconds to ISO-8601 UTC; second precision when integral.

    Whole seconds take the date from a per-day cache of datetime's own
    formatting and the time of day from integer arithmetic; anything else
    goes through datetime.
    """
    if float(ts).is_integer():
        day, second = divmod(int(ts), _DAY_S)
        prefix = _DAY_PREFIX.get(day)
        if prefix is None and _FIRST_DAY <= day <= _LAST_DAY:
            prefix = _DAY_PREFIX[day] = _date_prefix(_EPOCH + timedelta(days=day))
        if prefix is not None:
            hour, second = divmod(second, 3600)
            minute, second = divmod(second, 60)
            return f"{prefix}{hour:02d}:{minute:02d}:{second:02d}Z"
        moment = datetime.fromtimestamp(int(ts), tz=timezone.utc)
        return _date_prefix(moment) + moment.strftime("%H:%M:%SZ")
    moment = datetime.fromtimestamp(float(ts), tz=timezone.utc)
    return _date_prefix(moment) + moment.strftime("%H:%M:%S.%fZ")


def from_iso(text: str) -> float:
    """Inverse of to_iso; returns integral values as exact floats.

    A timestamp without a UTC offset is read as UTC, whatever the local zone.
    """
    moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    ts = moment.timestamp()
    return float(int(ts)) if ts.is_integer() else ts
