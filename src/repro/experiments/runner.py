"""Shared experiment infrastructure.

All figure drivers pull their data through this module so that one expensive
artifact (a fault-injection campaign, a prepared module, a timing run) is
computed once and reused: Figures 2, 11, and 13 all come from the same
campaigns; Figure 10's static statistics come from the same prepared modules.

Trial counts honour the ``REPRO_TRIALS`` environment variable (paper: 1000
per benchmark; default here: 60, chosen so the full benchmark suite
regenerates every figure in minutes on a laptop — the margin-of-error helper
reports the resulting confidence).  ``REPRO_JOBS`` selects the worker count
for parallel campaign execution, and finished campaigns are persisted to the
on-disk cache (``REPRO_CACHE_DIR``, disable with ``REPRO_CACHE=0``) so
repeated figure/benchmark invocations skip recomputation entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..faultinjection.campaign import (
    CampaignConfig,
    PreparedWorkload,
    prepare,
    run_campaign,
)
from ..faultinjection.diskcache import CampaignCache, campaign_key
from ..faultinjection.outcomes import CampaignResult
from ..faultinjection.parallel import default_jobs
from ..faultinjection.resilience import ResiliencePolicy, checkpoint_dir_env
from ..obs import events as obs_events
from ..obs import trace as trace_mod
from ..obs.config import obs_log_path
from ..obs.metrics import global_registry
from ..profiling.profiler import collect_profiles
from ..sim.interpreter import Interpreter
from ..sim.timing import TimingModel
from ..transforms.pipeline import SchemeStats, apply_scheme
from ..workloads.base import Workload
from ..workloads.registry import BENCHMARK_NAMES, get_workload

DEFAULT_TRIALS = 60


def default_trials() -> int:
    """Trial count per (workload, scheme) campaign; REPRO_TRIALS overrides."""
    value = os.environ.get("REPRO_TRIALS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return DEFAULT_TRIALS


@dataclass
class ExperimentSettings:
    """Scope and scale of an experiment run."""

    trials: int = field(default_factory=default_trials)
    seed: int = 2014
    workloads: Tuple[str, ...] = tuple(BENCHMARK_NAMES)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    #: campaign worker processes; defaults to ``REPRO_JOBS`` (or 1)
    jobs: int = field(default_factory=default_jobs)
    #: per-trial progress callback threaded into every campaign
    on_trial: Optional[Callable] = None
    #: print a rate-limited live progress line per campaign (stderr)
    progress: bool = False
    #: structured JSONL trial event log appended to by every campaign
    #: (default: the ``REPRO_OBS`` environment variable, or off)
    obs_log: Optional[str] = field(default_factory=obs_log_path)
    #: directory for per-campaign checkpoint files, so an interrupted
    #: experiment sweep resumes mid-campaign on re-invocation (default: the
    #: ``REPRO_CHECKPOINT_DIR`` environment variable, or off).  Each campaign
    #: checkpoints to ``checkpoint-<disk_key[:16]>.json`` inside it — keyed
    #: like the disk cache, so a stale checkpoint can never leak between
    #: configurations.
    checkpoint_dir: Optional[str] = field(default_factory=checkpoint_dir_env)
    #: recovery policy threaded into every campaign (None = env defaults)
    resilience: Optional[ResiliencePolicy] = None
    #: fault model threaded into every campaign (None = the campaign's own
    #: default resolution: ``REPRO_FAULT_MODEL`` or single_bit)
    fault_model: Optional[str] = None

    def campaign_config(self) -> CampaignConfig:
        config = replace(
            self.campaign, trials=self.trials, seed=self.seed, jobs=self.jobs,
            obs_log=self.obs_log, resilience=self.resilience,
        )
        if self.fault_model is not None:
            config = replace(config, fault_model=self.fault_model)
        return config


class ExperimentCache:
    """Memoises prepared workloads, campaigns, and timing runs.

    Campaign results are additionally persisted through the on-disk
    :class:`CampaignCache`: before running trials the disk cache is checked
    (the key covers the printed module IR, scheme, config, trial count, and
    seed — see :mod:`repro.faultinjection.diskcache`), and fresh results are
    written back, so a re-invocation with unchanged code and settings loads
    every campaign instead of recomputing it.
    """

    def __init__(self, settings: Optional[ExperimentSettings] = None,
                 disk_cache: Optional[CampaignCache] = None) -> None:
        self.settings = settings or ExperimentSettings()
        self.disk_cache = disk_cache if disk_cache is not None else CampaignCache()
        self._prepared: Dict[Tuple[str, str, bool], PreparedWorkload] = {}
        self._campaigns: Dict[Tuple[str, str, bool], CampaignResult] = {}
        self._runtimes: Dict[Tuple[str, str], float] = {}

    # -- prepared modules ----------------------------------------------------------

    def prepared(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> PreparedWorkload:
        key = (name, scheme, swap_train_test)
        if key not in self._prepared:
            config = self.settings.campaign_config()
            config = replace(config, swap_train_test=swap_train_test)
            self._prepared[key] = prepare(get_workload(name), scheme, config)
        return self._prepared[key]

    # -- campaigns ---------------------------------------------------------------------

    def campaign(
        self, name: str, scheme: str, swap_train_test: bool = False
    ) -> CampaignResult:
        key = (name, scheme, swap_train_test)
        if key not in self._campaigns:
            config = self.settings.campaign_config()
            config = replace(config, swap_train_test=swap_train_test)
            prepared = self.prepared(name, scheme, swap_train_test)
            disk_key = campaign_key(prepared.module, name, scheme, config)
            entry = self.disk_cache.get_entry(disk_key)
            if entry is not None:
                result, meta = entry
                # Observability must not go dark on a cache hit: log the
                # provenance of the served result instead of the trials.
                self._emit_cache_hit(name, scheme, disk_key, meta)
            else:
                if self.settings.checkpoint_dir:
                    config = replace(
                        config,
                        checkpoint=os.path.join(
                            self.settings.checkpoint_dir,
                            f"checkpoint-{disk_key[:16]}.json",
                        ),
                    )
                on_trial = self.settings.on_trial
                printer = None
                on_recovery = None
                if on_trial is None and self.settings.progress:
                    from ..faultinjection.progress import ProgressPrinter

                    on_trial = printer = ProgressPrinter(
                        config.trials, label=f"{name}/{scheme}"
                    )
                    on_recovery = printer.note
                result = run_campaign(
                    prepared.workload, scheme, config, prepared=prepared,
                    on_trial=on_trial, on_recovery=on_recovery,
                )
                if printer is not None:
                    printer.finish()
                self.disk_cache.put(disk_key, result)
            self._campaigns[key] = result
        return self._campaigns[key]

    def _emit_cache_hit(self, name: str, scheme: str, disk_key: str,
                        meta: Dict) -> None:
        global_registry().counter("campaign.cache_hits").inc()
        obs_log = self.settings.obs_log
        if not obs_log:
            return
        with obs_events.EventLogWriter(obs_log) as writer:
            writer.emit(
                obs_events.cache_hit_event(name, scheme, disk_key, meta)
            )

    # -- timing runs (Figure 12) -----------------------------------------------------------

    def runtime_cycles(self, name: str, scheme: str) -> float:
        """Estimated out-of-order cycles of one golden run under ``scheme``.

        Reuses the prepared module of a campaign when one is memoised.
        Otherwise (``full_dup`` in a figure sweep) it prepares without
        snapshot capture and does not keep the result: a timing run reads
        no snapshots, and they would stay resident for the rest of the
        process.  A later campaign on the same pair (``summary`` under
        ``all`` runs full_dup campaigns) then prepares again, with capture.
        """
        key = (name, scheme)
        if key not in self._runtimes:
            config = self.settings.campaign_config()
            prepared = self._prepared.get((name, scheme, False))
            if prepared is None:
                prepared = prepare(
                    get_workload(name), scheme,
                    replace(config, snapshot_every=0, swap_train_test=False),
                )
            timing = TimingModel(config.sim)
            interp = Interpreter(
                prepared.module,
                config=config.sim,
                guard_mode="count",
                timing=timing,
            )
            tracer = trace_mod.activate(trace_mod.resolve_trace(config.trace))
            with tracer.span("timing_run", cat="experiment", workload=name,
                             scheme=scheme):
                prepared.workload.run(
                    prepared.module, prepared.inputs, interpreter=interp
                )
            self._runtimes[key] = timing.cycles
        return self._runtimes[key]

    def overhead(self, name: str, scheme: str) -> float:
        """Runtime overhead of ``scheme`` relative to the original binary."""
        base = self.runtime_cycles(name, "original")
        return self.runtime_cycles(name, scheme) / base - 1.0


_GLOBAL_CACHE: Optional[ExperimentCache] = None


def global_cache() -> ExperimentCache:
    """Process-wide cache shared by all figure drivers and benchmarks."""
    global _GLOBAL_CACHE
    if _GLOBAL_CACHE is None:
        _GLOBAL_CACHE = ExperimentCache()
    return _GLOBAL_CACHE


def reset_global_cache(settings: Optional[ExperimentSettings] = None) -> ExperimentCache:
    """Replace the global cache (used by tests to control scale)."""
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = ExperimentCache(settings)
    return _GLOBAL_CACHE
