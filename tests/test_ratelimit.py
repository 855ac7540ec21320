"""Rate-limited writers emit their first event on any clock value.

``time.perf_counter()`` and ``time.monotonic()`` count from boot on Linux,
so on a freshly booted host they read small values.  These tests fake such
a clock: a limiter that started its last-event time at ``0.0`` would
withhold the first progress line, heartbeat file and service heartbeat
until the host had been up for a whole interval.
"""

from __future__ import annotations

import io
import json
import math

from repro.faultinjection import progress as progress_mod
from repro.faultinjection.outcomes import Outcome, TrialResult
from repro.faultinjection.progress import ProgressPrinter
from repro.obs import heartbeat as heartbeat_mod
from repro.obs.heartbeat import HeartbeatWriter
from repro.obs.ratelimit import RateLimiter
from repro.serve import service as service_mod
from repro.serve.service import Service, ServiceConfig

#: a clock reading from a host booted five seconds ago
_BOOT_CLOCK = 5.0


def _trial() -> TrialResult:
    return TrialResult(outcome=Outcome.MASKED, injection_cycle=1, bit=0)


def test_rate_limiter_first_event_is_always_due():
    limiter = RateLimiter(3600.0)
    assert limiter.due(0.0)
    assert limiter.due(-1.0)
    limiter.mark(_BOOT_CLOCK)
    assert not limiter.due(_BOOT_CLOCK + 1.0)
    assert limiter.due(_BOOT_CLOCK + 3600.0)
    assert RateLimiter(math.inf).due(0.0)


def test_progress_prints_first_line_on_small_clock(monkeypatch):
    monkeypatch.setattr(progress_mod.time, "perf_counter", lambda: _BOOT_CLOCK)
    stream = io.StringIO()
    printer = ProgressPrinter(total=100, stream=stream, min_interval=3600.0)
    printer(_trial())
    assert "[1/100]" in stream.getvalue()
    printer(_trial())
    assert "[2/100]" not in stream.getvalue()


def test_heartbeat_writes_first_document_on_small_clock(monkeypatch, tmp_path):
    monkeypatch.setattr(
        heartbeat_mod.time, "perf_counter", lambda: _BOOT_CLOCK
    )
    path = tmp_path / "hb.json"
    writer = HeartbeatWriter(str(path), total=10, min_interval=3600.0)
    writer.trial("Masked")
    assert json.loads(path.read_text())["trials_done"] == 1
    writer.trial("Masked")
    assert json.loads(path.read_text())["trials_done"] == 1


def test_service_heartbeat_first_write_on_small_clock(monkeypatch, tmp_path):
    monkeypatch.setattr(service_mod.time, "monotonic", lambda: 0.2)
    service = Service(ServiceConfig(root=str(tmp_path / "svc"),
                                    heartbeat_interval=3600.0))
    service.write_heartbeat()
    assert json.loads(open(service.paths.heartbeat).read())["kind"]
