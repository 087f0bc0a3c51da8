"""ISO-8601 UTC timestamp formatting shared by every CSV surface."""

from __future__ import annotations

from datetime import datetime, timezone


def to_iso(ts: float) -> str:
    """Epoch seconds to ISO-8601 UTC; second precision when integral."""
    if float(ts).is_integer():
        return datetime.fromtimestamp(int(ts), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return (
        datetime.fromtimestamp(float(ts), tz=timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    )


def from_iso(text: str) -> float:
    """Inverse of to_iso; returns integral values as exact floats.

    A timestamp without a UTC offset is read as UTC, whatever the local zone.
    """
    moment = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    ts = moment.timestamp()
    return float(int(ts)) if ts.is_integer() else ts
