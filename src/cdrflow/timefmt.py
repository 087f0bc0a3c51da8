"""ISO-8601 UTC timestamp formatting shared by every CSV surface."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DAY_S = 86400
# Days since the epoch that datetime can represent (years 1 to 9999).
_FIRST_DAY = (date(1, 1, 1) - _EPOCH.date()).days
_LAST_DAY = (date(9999, 12, 31) - _EPOCH.date()).days
_FIRST_S = _FIRST_DAY * _DAY_S
_LAST_S = (_LAST_DAY + 1) * _DAY_S - 1
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
        datetime.fromtimestamp(int(ts), tz=timezone.utc)  # outside years 1 to 9999: raises
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


# The canonical form, to_iso's for whole seconds: "YYYY-MM-DDTHH:MM:SSZ".
_DIGITS = (0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18)
_SEPARATORS = ((4, "-"), (7, "-"), (10, "T"), (13, ":"), (16, ":"), (19, "Z"))
_MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def from_iso_block(stamps: list[str]) -> Optional[np.ndarray]:
    """from_iso of every stamp as a float64 array, or None unless all are canonical.

    Canonical is `YYYY-MM-DDTHH:MM:SSZ` in ASCII digits with a valid date
    from year 1 on and a time before 24:00:00.  The days come from the
    civil date by integer arithmetic (Hinnant's days_from_civil) on the
    characters' code points, with no datetime and so no local zone.
    """
    import numpy as np

    text = np.array(stamps, dtype=str)
    if not len(text):
        return np.empty(0, dtype=np.float64)
    if text.dtype != np.dtype("<U20"):  # some stamp is not 20 characters long
        return None
    codes = text.view(np.uint32).reshape(len(text), 20)
    for position, char in _SEPARATORS:
        if (codes[:, position] != ord(char)).any():
            return None
    d = codes[:, _DIGITS].astype(np.int64) - ord("0")
    if ((d < 0) | (d > 9)).any():
        return None
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute, second = (d[:, k] * 10 + d[:, k + 1] for k in range(4, 14, 2))
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    last_day = np.array(_MONTH_DAYS)[np.minimum(month, 12)] + (leap & (month == 2))
    valid = (
        (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= last_day)
        & (hour < 24) & (minute < 60) & (second < 60)
    )
    if not valid.all():
        return None
    y = year - (month <= 2)  # years start in March, so the leap day ends them
    era, year_of_era = y // 400, y % 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    days = era * 146097 + day_of_era - 719468
    return (days * _DAY_S + hour * 3600 + minute * 60 + second).astype(np.float64)


def to_iso_block(ts: np.ndarray) -> list[str]:
    """to_iso of every value of a float64 array.

    Whole seconds in years 1 to 9999 are formatted by numpy; a block
    with any other value goes through to_iso, with its errors.
    """
    import numpy as np

    if ((ts == np.floor(ts)) & (ts >= _FIRST_S) & (ts <= _LAST_S)).all():
        seconds = ts.astype(np.int64).astype("datetime64[s]")
        return np.datetime_as_string(seconds, unit="s", timezone="UTC").tolist()
    return list(map(to_iso, ts.tolist()))
