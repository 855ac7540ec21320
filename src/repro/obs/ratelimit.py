"""One rate limiter for every periodic writer (progress lines, heartbeats).

The limiter starts at "never", so the first event is always due.  Starting
the last-event time at ``0.0`` instead would compare it against clocks such
as ``time.perf_counter()`` and ``time.monotonic()``, which on Linux count
from boot: on a host up for less than one interval the first event would be
withheld.
"""

from __future__ import annotations

import math

__all__ = ["RateLimiter"]


class RateLimiter:
    """Admits an event at most once per ``interval`` seconds of one clock.

    ``due(now)`` asks, ``mark(now)`` records that an event happened (also
    for events forced past the limiter, so they restart the interval).
    """

    __slots__ = ("interval", "_last")

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self._last = -math.inf

    def due(self, now: float) -> bool:
        return now - self._last >= self.interval

    def mark(self, now: float) -> None:
        self._last = now
