"""One process of a benchmark workload, started by ``run.py``.

Modes:

* ``unit``  — the measured workload; with ``--trace 1`` the program's span
  tracer and metrics registry are on and every layer's public entry points
  are wrapped in timers.
* ``warm``  — figure11 of a sweep again, against the campaign cache a
  traced ``unit`` filled: every campaign is a cache hit.
* ``setup`` — only the workload's ``prepare`` calls, for the median of
  several set-ups.

The program is imported from ``<root>/src`` and driven through its public
API with its default configuration, ``jobs=1`` and no progress output.  The
process writes one JSON document to ``--out``; ``run.py`` turns the
documents into metrics and checks the results.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import LayerClock, Patches, records_digest  # noqa: E402
from workloads import SPECS, Spec  # noqa: E402

#: layers of the self-time table, in the program's module names
LAYERS = (
    "experiments", "faultinjection", "faultinjection.diskcache", "frontend",
    "profiling", "transforms", "sim", "sim.snapshot", "sim.memfaults",
    "sim.timing", "fidelity", "obs",
)


class Program:
    """The modules of the program under test, imported from ``root/src``."""

    def __init__(self, root: str) -> None:
        src = os.path.abspath(os.path.join(root, "src"))
        sys.path.insert(0, src)
        import repro

        where = os.path.abspath(repro.__file__)
        if not where.startswith(src + os.sep):
            raise SystemExit(f"repro was imported from {where}, not {src}")
        from repro.experiments import figure11, figure12, runner
        from repro.faultinjection import campaign, diskcache, outcomes
        from repro.obs import metrics, trace
        from repro.profiling import profiler
        from repro.sim import memfaults, snapshot
        from repro.transforms import pipeline
        from repro.workloads import base, registry

        self.figure11, self.figure12, self.runner = figure11, figure12, runner
        self.campaign, self.diskcache = campaign, diskcache
        self.outcomes = outcomes
        self.metrics, self.trace = metrics, trace
        self.profiler, self.pipeline = profiler, pipeline
        self.memfaults, self.snapshot = memfaults, snapshot
        self.base, self.registry = base, registry
        self.figures = {"figure11": figure11, "figure12": figure12}

    @staticmethod
    def modules():
        return [
            module for name, module in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and module is not None
        ]

    def resolved_settings(self) -> dict:
        campaign = self.campaign
        return {
            "env": {k: v for k, v in sorted(os.environ.items())
                    if k.startswith("REPRO_")},
            "fault_model_default": campaign.resolve_fault_model(None),
            "snapshot_every": self.snapshot.resolve_snapshot_every(None),
            "triage": self.snapshot.resolve_triage(None),
            "batch": campaign.resolve_batch(None),
            "jobs": 1,
            "progress": False,
        }


class Delivery:
    """When each trial result reached the caller: the gap since the previous
    ``on_trial`` callback, or since ``run_campaign`` started for a
    campaign's first trial."""

    def __init__(self) -> None:
        self.gaps_ms = []
        self._last = 0.0

    def campaign_started(self, args, kwargs) -> None:
        self._last = time.perf_counter()

    def on_trial(self, trial) -> None:
        now = time.perf_counter()
        self.gaps_ms.append((now - self._last) * 1e3)
        self._last = now


def install(prog: Program, clock: LayerClock, delivery: Delivery,
            traced: bool, prepared: list) -> Patches:
    """Wrap the program's entry points.  Always: the per-campaign calls the
    end-to-end metrics need.  Traced: every layer's public functions."""
    mods = prog.modules()
    patches = Patches(clock)
    c, runner = prog.campaign, prog.runner
    keep = (lambda result, _: prepared.append(result)) if traced else None
    patches.function(mods, c, "prepare", "prepare", "faultinjection",
                     after=keep)
    patches.function(mods, c, "run_campaign", "run_campaign",
                     "faultinjection", before=delivery.campaign_started)
    patches.method(runner.ExperimentCache, "campaign", "experiments.campaign",
                   "experiments")
    patches.method(runner.ExperimentCache, "runtime_cycles",
                   "experiments.runtime_cycles", "experiments")
    if not traced:
        return patches

    snap_recorder = prog.snapshot.SnapshotRecorder
    cache_cls = prog.diskcache.CampaignCache

    def sim_layer(args, kwargs):
        # a run with a timing model is figure 12's; a capture pass belongs
        # to snapshots, or to memfaults when it also records occupancy
        interp = kwargs.get("interpreter")
        if interp is not None and getattr(interp, "timing", None) is not None:
            return "sim.timing"
        capture = kwargs.get("capture")
        if capture is None:
            return "sim"
        return ("sim.snapshot" if isinstance(capture, snap_recorder)
                else "sim.memfaults")

    workload = prog.base.Workload
    patches.method(workload, "build_module", "build", "frontend")
    patches.method(workload, "run", "sim.run", sim_layer)
    patches.method(workload, "fidelity", "fidelity", "fidelity")
    patches.function(mods, prog.profiler, "collect_profiles", "profile",
                     "profiling")
    patches.function(mods, prog.pipeline, "apply_scheme", "apply_scheme",
                     "transforms")
    patches.function(mods, c, "run_trial", "trial", "faultinjection")
    patches.method(prog.snapshot.Snapshot, "install", "snapshot.install",
                   "sim.snapshot")
    patches.method(snap_recorder, "take", "snapshot.take", "sim.snapshot")
    occupancy = prog.memfaults.OccupancyRecorder
    patches.method(occupancy, "take", "occupancy.take", "sim.memfaults")
    patches.method(occupancy, "finalize", "occupancy.finalize",
                   "sim.memfaults")
    patches.method(cache_cls, "get_entry", "cache.get",
                   "faultinjection.diskcache")
    patches.method(cache_cls, "put", "cache.put", "faultinjection.diskcache")
    patches.function(mods, prog.diskcache, "campaign_key", "cache.key",
                     "faultinjection.diskcache")
    patches.method(prog.trace.Tracer, "export", "trace.export", "obs")
    return patches


# ---------------------------------------------------------------------------
# running one workload
# ---------------------------------------------------------------------------


def campaign_record(prog: Program, result, prepared) -> dict:
    records = [prog.outcomes.trial_to_record(t) for t in result.trials]
    return {
        "digest": records_digest(records),
        "trials": len(records),
        "quarantined": sum(
            1 for t in result.trials if t.trap_kind == "harness_timeout"
        ),
        "golden_instructions": prepared.golden_instructions,
        "counts": result.counts(),
    }


def scratch_check(prog: Program, prepared, result, config, count: int,
                  seed: int, label: str) -> list:
    """Re-run ``count`` sampled trials from cycle 0 with snapshots and
    triage off; return the plan indices whose record differs."""
    c = prog.campaign
    plans = c.draw_plans(config, prepared)
    rng = random.Random(f"{seed}:{label}")
    picked = sorted(rng.sample(range(len(plans)), min(count, len(plans))))
    scratch = replace(config, snapshot_every=0, triage=False)
    bad = []
    for i in picked:
        plan = plans[i]
        trial = c.run_trial(prepared, plan.cycle, plan.bit, plan.seed,
                            scratch, model=plan.model)
        if (prog.outcomes.trial_to_record(trial)
                != prog.outcomes.trial_to_record(result.trials[i])):
            bad.append(i)
    return bad


def run_sweep(prog: Program, spec: Spec, seed: int, mode: str,
              cache_dir: str, trace_path, delivery: Delivery,
              clock: LayerClock, measured) -> dict:
    runner, campaign = prog.runner, prog.campaign
    names = tuple(prog.registry.BENCHMARK_NAMES)
    figures = ("figure11",) if mode == "warm" else spec.figures
    clock.start()
    settings = runner.ExperimentSettings(
        trials=spec.trials, seed=seed, workloads=names,
        campaign=campaign.CampaignConfig(trace=trace_path), jobs=1,
        on_trial=delivery.on_trial, progress=False, obs_log=None,
        checkpoint_dir=None,
    )
    cache = runner.ExperimentCache(
        settings, disk_cache=prog.diskcache.CampaignCache(cache_dir)
    )
    rows = {fig: prog.figures[fig].compute(cache) for fig in figures}
    out = measured()
    out["campaigns"] = {}
    config = settings.campaign_config()
    checked = {}
    for name in names:
        for scheme in prog.figure11.SCHEMES:
            label = f"{name}/{scheme}"
            prepared = cache.prepared(name, scheme)
            result = cache.campaign(name, scheme)
            out["campaigns"][label] = campaign_record(prog, result, prepared)
            if mode == "unit":
                checked[label] = scratch_check(
                    prog, prepared, result, config, spec.check_trials, seed,
                    label,
                )
    out["scratch_mismatches"] = checked
    averages = [r for r in rows["figure11"] if r.benchmark == "average"]
    out["figure11_usdc_pct"] = {r.scheme: 100.0 * r.usdc for r in averages}
    if "figure12" in rows:
        avg = rows["figure12"][-1]
        out["figure12_overhead_pct"] = {
            s: 100.0 * getattr(avg, s) for s in prog.figure12.SCHEMES
        }
        out["runtime_cycles"] = {
            f"{name}/{scheme}": cache.runtime_cycles(name, scheme)
            for name in names
            for scheme in ("original",) + prog.figure12.SCHEMES
        }
    return out


def run_trials(prog: Program, spec: Spec, seed: int, mode: str,
               trace_path, delivery: Delivery, clock: LayerClock,
               measured) -> dict:
    campaign, registry = prog.campaign, prog.registry
    config = campaign.CampaignConfig(
        trials=spec.trials, seed=seed, jobs=1, fault_model=spec.fault_model,
        trace=trace_path,
    )
    done = []
    errors = {}
    clock.start()
    for name in spec.kernels:
        label = f"{name}/{spec.scheme}/{spec.fault_model}"
        try:
            workload = registry.get_workload(name)
            prepared = campaign.prepare(workload, spec.scheme, config)
            if mode == "setup":
                continue
            result = campaign.run_campaign(
                workload, spec.scheme, config, prepared=prepared,
                on_trial=delivery.on_trial,
            )
        except Exception:  # a failed campaign is counted, the rest still run
            errors[label] = traceback.format_exc()
            continue
        done.append((label, prepared, result))
    out = measured()
    out.update({"campaigns": {}, "errors": errors, "scratch_mismatches": {}})
    for label, prepared, result in done:
        out["campaigns"][label] = campaign_record(prog, result, prepared)
        out["scratch_mismatches"][label] = scratch_check(
            prog, prepared, result, config, spec.check_trials, seed, label,
        )
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer numbers of a traced unit
# ---------------------------------------------------------------------------


def span_totals(document) -> dict:
    totals = {}
    for event in document.get("traceEvents", []):
        if event.get("ph") == "X":
            name = event.get("name", "?")
            seconds, count = totals.get(name, (0.0, 0))
            totals[name] = (seconds + event.get("dur", 0) / 1e6, count + 1)
    return totals


def snapshot_footprint(prepared) -> tuple:
    count = nbytes = 0
    for p in prepared:
        store = getattr(p, "snapshots", None)
        for snap in getattr(store, "snapshots", ()) if store else ():
            count += 1
            for seg in getattr(snap, "segments", ()):
                nbytes += len(getattr(seg, "data", b""))
    return count, nbytes


def layer_metrics(prog: Program, clock: LayerClock, trace_path: str,
                  prepared: list) -> dict:
    tracer = prog.trace.current()
    if tracer.enabled:
        tracer.export()
    spans = span_totals(prog.trace.load_trace(trace_path))
    registry = prog.metrics.global_registry()

    def counter(name):
        return registry.counter(name).value

    def span_s(*names):
        return sum(spans.get(n, (0.0, 0))[0] for n in names)

    total, calls = clock.label_total, clock.label_calls
    executed = counter("campaign.trials")
    triaged = counter("campaign.triaged_masked")
    dead = counter("campaign.triaged_dead_memory")
    instructions = counter("sim.instructions")
    snap_count, snap_bytes = snapshot_footprint(prepared)
    m = {
        "build.s": total.get("build", 0.0),
        "build.calls": calls.get("build", 0),
        "profile.s": total.get("profile", 0.0),
        "profile.calls": calls.get("profile", 0),
        "apply_scheme.s": total.get("apply_scheme", 0.0),
        "golden.s": span_s("golden_run"),
        "sim.instructions": instructions,
        "sim.ns_per_instr": (
            1e9 * total.get("sim.run", 0.0) / instructions
            if instructions else 0.0
        ),
        "sim.compile.modules": counter("sim.compile.modules"),
        "sim.compile.cache_hits": counter("sim.compile.cache_hits"),
        "capture.s": span_s("snapshot_capture", "golden_capture",
                            "occupancy_capture"),
        "snapshot.count": snap_count,
        "snapshot.bytes": snap_bytes,
        "snapshot.restores": counter("snapshot.restores"),
        "snapshot.replay_cycles_saved":
            counter("snapshot.replay_cycles_saved"),
        "occupancy.capture.s": span_s("golden_capture", "occupancy_capture"),
        "triage.dead_memory_frac": dead / executed if executed else 0.0,
        "timing.s": clock.layer_self.get("sim.timing", 0.0),
        "timing.calls": clock.layer_calls.get("sim.timing", 0),
        "trial.s": total.get("trial", 0.0),
        "trial.calls": calls.get("trial", 0),
        "triage.masked_frac": (triaged + dead) / executed if executed else 0.0,
        "trial.restore.s": span_s("restore"),
        "trial.replay.s": span_s("replay"),
        "trial.detect.s": span_s("detect"),
        "trial.classify.s": span_s("classify"),
        "cache.get.s": total.get("cache.get", 0.0),
        "cache.key.s": total.get("cache.key", 0.0),
        "cache.hit": counter("cache.hit"),
        "cache.put.s": total.get("cache.put", 0.0),
        "cache.write": counter("cache.write"),
        "fidelity.s": total.get("fidelity", 0.0),
    }
    rows = {layer: (s, share) for layer, s, share in clock.table()}
    for layer in LAYERS + ("unattributed",):
        s, share = rows.get(layer, (0.0, 0.0))
        m[f"self.{layer}.s"] = s
        m[f"self.{layer}.pct"] = 100.0 * share
    return m


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("unit", "warm", "setup"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = SPECS[args.workload]
    prog = Program(args.root)
    traced = bool(args.trace)
    trace_path = args.out + ".trace.json" if traced else None
    if traced:
        prog.metrics.enable_global(True)
    clock = LayerClock()
    delivery = Delivery()
    prepared = []
    doc = {"mode": args.mode, "trace": args.trace,
           "settings": prog.resolved_settings()}
    patches = install(prog, clock, delivery, traced, prepared)

    def measured() -> dict:
        """End of the measured region: everything after it (result digests,
        the from-scratch check) runs unwrapped and untraced."""
        wall = clock.stop()
        patches.restore()
        out = {"wall_s": wall, "peak_rss_mb": peak_rss_mb()}
        if traced:
            out["layers"] = layer_metrics(prog, clock, trace_path, prepared)
            out["layer_table"] = clock.table()
            prog.trace.activate(None)
        return out

    try:
        if spec.kind == "sweep":
            doc.update(run_sweep(prog, spec, args.seed, args.mode,
                                 args.cache_dir, trace_path, delivery, clock,
                                 measured))
        else:
            doc.update(run_trials(prog, spec, args.seed, args.mode,
                                  trace_path, delivery, clock, measured))
    except Exception:  # reported to run.py, which fails every campaign
        doc["error"] = traceback.format_exc()
    finally:
        patches.restore()
    doc.update({
        "setup_s": clock.label_total.get("prepare", 0.0),
        "run_s": clock.label_total.get("run_campaign", 0.0),
        "gaps_ms": delivery.gaps_ms,
        "items": clock.items,
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
