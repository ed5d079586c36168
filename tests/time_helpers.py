"""Test helpers for the library's one time type, int epoch microseconds.

Tests that think in calendar time build instants from aware datetimes with
``us``; ``instant`` and ``iso`` turn instants back into datetimes and RFC 3339
text for oracles. They use the standard library only, so that a fault in
``ingest.parse_timestamp`` or ``ingest.format_stamps`` cannot hide in them.
"""

from datetime import datetime, timedelta, timezone

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def us(ts: datetime) -> int:
    """Epoch microseconds of an aware datetime."""
    return (ts - EPOCH) // timedelta(microseconds=1)


def instant(epoch_us: int) -> datetime:
    """The aware UTC datetime of epoch microseconds."""
    return EPOCH + timedelta(microseconds=int(epoch_us))


def iso(epoch_us: int) -> str:
    """``datetime.isoformat`` of epoch microseconds, with ``Z`` for the UTC offset."""
    return instant(epoch_us).isoformat().replace("+00:00", "Z")
