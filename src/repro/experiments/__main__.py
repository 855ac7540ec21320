"""CLI entry point: ``python -m repro.experiments <experiment> [...]``."""

from __future__ import annotations

import argparse
import sys
import time

from . import crossval, false_positives, figure2, figure10, figure11, figure12
from . import recovery_analysis
from . import figure13, summary, tables
from .runner import default_trials, global_cache

EXPERIMENTS = {
    "table1": lambda cache: tables.table1_report(),
    "table2": lambda cache: tables.table2_report(),
    "figure2": lambda cache: figure2.report(cache),
    "figure10": lambda cache: figure10.report(cache),
    "figure11": lambda cache: figure11.report(cache),
    "figure12": lambda cache: figure12.report(cache),
    "figure13": lambda cache: figure13.report(cache),
    "false_positives": lambda cache: false_positives.report(cache),
    "crossval": lambda cache: crossval.report(cache),
    "recovery": lambda cache: recovery_analysis.report(cache),
    "summary": lambda cache: summary.report(cache),
}

#: order used by 'all'
_ALL_ORDER = [
    "table1", "table2", "figure2", "figure10", "figure11", "figure12",
    "figure13", "false_positives", "crossval", "recovery", "summary",
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="injection trials per benchmark/scheme "
             "(default: REPRO_TRIALS or 60; the paper used 1000)",
    )
    parser.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="comma-separated benchmark subset (default: all 13)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes per campaign; 0 means one per CPU "
             "(default: REPRO_JOBS or 1; results are bit-identical for "
             "any value)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the live per-campaign progress lines on stderr",
    )
    parser.add_argument(
        "--obs-log", metavar="PATH", default=None,
        help="append a structured JSONL trial event log for every campaign "
             "(default: REPRO_OBS or off; inspect with "
             "'python -m repro.obs report PATH')",
    )
    from ..sim.faults import CHAOS_FAULT_MODEL, CONCRETE_FAULT_MODELS

    parser.add_argument(
        "--fault-model", default=None,
        choices=list(CONCRETE_FAULT_MODELS) + [CHAOS_FAULT_MODEL],
        help="fault model injected by every campaign (default: "
             "REPRO_FAULT_MODEL or single_bit, the paper's model)",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="directory of per-campaign checkpoint files so an interrupted "
             "sweep resumes mid-campaign on re-invocation "
             "(default: REPRO_CHECKPOINT_DIR or off)",
    )
    from ..faultinjection.__main__ import (
        add_resilience_arguments,
        resolve_resilience_args,
    )

    add_resilience_arguments(parser, checkpoint_flag=False)
    args = parser.parse_args(argv)

    names = _ALL_ORDER if "all" in args.experiments else args.experiments
    from ..faultinjection.parallel import resolve_jobs
    from ..obs.config import resolve_obs_log
    from ..obs.metrics import enable_global
    from .runner import ExperimentSettings, reset_global_cache

    obs_log = resolve_obs_log(args.obs_log)
    if obs_log:
        enable_global()
    policy, _ = resolve_resilience_args(args)
    resilience_flags = (
        args.checkpoint_dir is not None
        or args.checkpoint_every is not None
        or args.max_retries is not None
        or args.on_worker_failure is not None
        or args.trial_deadline is not None
    )
    if (
        args.trials is not None
        or args.workloads is not None
        or args.jobs is not None
        or args.fault_model is not None
        or obs_log is not None
        or resilience_flags
        or not args.quiet
    ):
        from ..workloads.registry import BENCHMARK_NAMES

        workloads = tuple(BENCHMARK_NAMES)
        if args.workloads:
            workloads = tuple(w.strip() for w in args.workloads.split(","))
            unknown = set(workloads) - set(BENCHMARK_NAMES)
            if unknown:
                parser.error(f"unknown workloads: {sorted(unknown)}")
        settings_kwargs = dict(
            trials=args.trials if args.trials is not None else default_trials(),
            workloads=workloads,
            jobs=resolve_jobs(args.jobs),
            progress=not args.quiet,
            obs_log=obs_log,
            resilience=policy,
            fault_model=args.fault_model,
        )
        if args.checkpoint_dir is not None:
            settings_kwargs["checkpoint_dir"] = args.checkpoint_dir
        settings = ExperimentSettings(**settings_kwargs)
        cache = reset_global_cache(settings)
    else:
        cache = global_cache()
    print(f"[trials per campaign: {cache.settings.trials}; "
          f"workloads: {len(cache.settings.workloads)}]\n")
    for name in names:
        start = time.time()
        print(EXPERIMENTS[name](cache))
        print(f"[{name} done in {time.time() - start:.1f}s]\n")
    # Campaigns export the trace (REPRO_TRACE) as they finish; spans after
    # the last one, such as Figure 12's timing runs, land with this export.
    from ..obs import trace as trace_mod

    trace_mod.current().export()
    return 0


if __name__ == "__main__":
    sys.exit(main())
