"""On-disk campaign result cache.

Repeated figure/benchmark invocations re-run identical fault-injection
campaigns; since a campaign is a pure function of (module IR, scheme,
campaign config, trial count, seed), its result can be cached on disk and
reloaded bit-identically (see :meth:`CampaignResult.from_dict`).

**Key contents.**  The cache key is the sha256 of a canonical JSON document
containing:

* ``schema`` — :data:`CACHE_SCHEMA_VERSION`, bumped whenever trial semantics
  or the serialisation format change, so stale entries miss instead of
  poisoning results;
* ``ir`` — the printed IR of the *protected* module (so any change to a
  workload builder, transform pipeline, or protection knob that alters the
  emitted code changes the key);
* ``scheme`` and the workload name;
* ``config`` — every :class:`CampaignConfig` field (including the full
  nested ``SimConfig`` and ``ProtectionConfig``) *except* ``jobs``, which
  cannot affect results by construction;
* ``trials`` and ``seed``.

**Location.**  ``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``.  Set
``REPRO_CACHE=0`` to disable reads and writes; delete the directory (or any
single ``campaign-*.json`` file) to invalidate manually.

Writes are atomic (temp file + ``os.replace``), so concurrent campaigns —
including the workers of a parallel campaign on a shared filesystem — can
only ever observe complete entries.

**Integrity.**  Every entry embeds a sha256 of its canonical result payload,
verified on load.  A corrupt entry (unparsable JSON, checksum mismatch, or
an undecodable result) is *quarantined* — moved into a ``quarantine/``
subdirectory of the cache, preserving the evidence — counted in the
``cache.corrupt`` metric, and reported as a resilience event; the campaign
is then recomputed.  Entries are never silently ignored and never trusted
unverified (see ``docs/RESILIENCE.md``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..ir.printer import module_to_str
from ..obs import trace as trace_mod
from ..obs.metrics import global_registry
from .campaign import CampaignConfig
from .outcomes import CampaignResult
from .resilience import ResilienceLogger, quarantine_file

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CampaignCache",
    "cache_dir",
    "cache_enabled",
    "campaign_key",
]

#: bump on any change to trial semantics, the campaign RNG, or the
#: serialisation format — old entries then miss instead of being replayed.
#: v2: trial records gained detector/provenance fields (detector_guard,
#: detector_kind, trap_kind, function) and entries carry creation metadata.
CACHE_SCHEMA_VERSION = 2


def cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR", "")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` is set to 0/off/false/no."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in (
        "0", "off", "false", "no",
    )


def _config_fingerprint(config: CampaignConfig) -> dict:
    """JSON-safe view of every result-affecting config field.

    ``jobs`` is excluded: pre-drawn trial plans make parallel campaigns
    bit-identical to serial ones, so worker count must not fragment the
    cache.  The observability knobs (``obs_log``, ``obs_timing``) are
    excluded, as are ``snapshot_every``/``triage`` (shared-prefix execution
    is differentially verified byte-identical to from-scratch runs),
    for the same reason — logging observes trials, it cannot affect
    them — as are the resilience knobs (``checkpoint``, ``resilience``):
    recovery changes how trials get executed, never what they compute.
    The telemetry sidecar paths (``trace``, ``heartbeat``) are excluded on
    the same grounds: wall-clock spans and status files observe a campaign
    without touching its results.
    ``trials`` and ``seed`` are kept in the fingerprint *and* surfaced as
    top-level key fields for human inspection.

    ``fault_model`` IS result-affecting, so it is resolved here (explicit
    value, else ``REPRO_FAULT_MODEL``, else the default) and included — but
    only when it resolves to a non-default model, so every historical
    single-bit cache key stays valid.  Resolving inside the fingerprint
    matters: callers (e.g. the experiments cache) compute keys *before*
    ``run_campaign``'s own resolution pass, and the key must reflect the
    model that will actually run.
    """
    from .campaign import resolve_fault_model

    fields = dataclasses.asdict(config)
    for non_semantic in (
        "jobs", "obs_log", "obs_timing", "checkpoint", "resilience",
        "snapshot_every", "triage", "trace", "heartbeat",
    ):
        fields.pop(non_semantic, None)
    model = resolve_fault_model(fields.pop("fault_model", None))
    if model != "single_bit":
        fields["fault_model"] = model
    if model in ("memory_word", "chaos"):
        # The occupancy-map rework changed what these two models compute
        # (occupied-word draws replace blind probing; chaos additionally
        # gained the memory-hierarchy models in its draw set), so their old
        # cached results are stale.  Single-bit keys are untouched.
        fields["memfaults"] = 1
    return fields


def _result_digest(result_doc: Dict) -> str:
    """sha256 of the canonical JSON encoding of a result document.

    Computed over the parsed document (not raw file bytes) so the digest is
    stable across JSON round-trips: the value written at ``put`` time equals
    the value recomputed from the parsed entry at ``get`` time iff the
    payload is undamaged.
    """
    canonical = json.dumps(result_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def campaign_key(module, workload: str, scheme: str,
                 config: CampaignConfig) -> str:
    """sha256 key of one campaign (see module docstring for contents)."""
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        "ir": module_to_str(module),
        "workload": workload,
        "scheme": scheme,
        "config": _config_fingerprint(config),
        "trials": config.trials,
        "seed": config.seed,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class CampaignCache:
    """Directory of serialized :class:`CampaignResult`s keyed by sha256.

    Entries are stored wrapped as ``{"meta": {...}, "result": {...}}`` so a
    cache hit retains provenance: when it was created, by which cache schema,
    and for how many trials — surfaced as ``cache_hit`` events in the
    observability log instead of the hit being invisible.  Bare legacy
    entries (a plain result document) are still readable.
    """

    def __init__(self, root: Optional[Path] = None,
                 enabled: Optional[bool] = None) -> None:
        self.root = Path(root) if root is not None else cache_dir()
        self.enabled = cache_enabled() if enabled is None else enabled

    def _path(self, key: str) -> Path:
        return self.root / f"campaign-{key}.json"

    def get_entry(self, key: str) -> Optional[Tuple[CampaignResult, Dict]]:
        """Cached ``(result, creation meta)`` for ``key``, or None.

        Absent entries miss.  Corrupt or unreadable entries also miss — but
        loudly: the file is quarantined (moved to ``quarantine/`` inside the
        cache directory), the ``cache.corrupt`` counter is incremented, and
        a ``cache_corrupt`` resilience event is emitted, so the campaign is
        recomputed instead of the damage being silently swallowed.  Legacy
        (unwrapped or checksum-less) entries load with empty meta.
        """
        if not self.enabled:
            return None
        registry = global_registry()
        path = self._path(key)
        if not path.exists():
            registry.counter("cache.miss").inc()
            return None
        with trace_mod.current().span("cache.get", cat="cache", key=key[:16]):
            try:
                with open(path) as fh:
                    data = json.load(fh)
                if not isinstance(data, dict):
                    raise ValueError("cache entry is not a JSON object")
                if "result" in data:
                    integrity = data.get("integrity") or {}
                    stored = integrity.get("sha256")
                    if stored is not None and stored != _result_digest(
                        data["result"]
                    ):
                        raise ValueError("cache entry checksum mismatch")
                    result = CampaignResult.from_dict(data["result"])
                    meta = data.get("meta") or {}
                else:
                    result = CampaignResult.from_dict(data)
                    meta = {}
            except (OSError, ValueError, KeyError, TypeError) as err:
                self._quarantine(key, path, err)
                registry.counter("cache.miss").inc()
                return None
            registry.counter("cache.hit").inc()
            return result, meta

    def _quarantine(self, key: str, path: Path, err: Exception) -> None:
        """Move a corrupt entry aside and account for it."""
        global_registry().counter("cache.corrupt").inc()
        dest = quarantine_file(path)
        ResilienceLogger.from_env().emit(
            "cache_corrupt",
            note=f"corrupt cache entry quarantined: {path.name}",
            key=key,
            path=str(path),
            quarantined_to=dest,
            reason=str(err),
        )

    def get(self, key: str) -> Optional[CampaignResult]:
        """Cached result for ``key``, or None (corrupt entries miss)."""
        entry = self.get_entry(key)
        return entry[0] if entry is not None else None

    def put(self, key: str, result: CampaignResult) -> None:
        """Atomically persist ``result`` under ``key`` (best-effort)."""
        if not self.enabled:
            return
        now = time.time()
        result_doc = result.to_dict()
        document = {
            "meta": {
                "key": key,
                "cache_schema": CACHE_SCHEMA_VERSION,
                "created_unix": round(now, 3),
                "created_iso": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
                ),
                "workload": result.workload,
                "scheme": result.scheme,
                "trials": result.num_trials,
            },
            "result": result_doc,
            "integrity": {"sha256": _result_digest(result_doc)},
        }
        with trace_mod.current().span("cache.put", cat="cache", key=key[:16]):
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(
                    prefix=".campaign-", suffix=".tmp", dir=self.root
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        json.dump(document, fh)
                    os.replace(tmp, self._path(key))
                    global_registry().counter("cache.write").inc()
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
            except OSError:
                # A read-only or full cache directory must never fail a
                # campaign.
                pass
