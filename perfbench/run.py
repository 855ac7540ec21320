"""Benchmark of the fault-injection reproduction: paper sweeps and campaigns.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep_cold --seed 2014 \
        --seconds 1 --trace 0

Each workload (``perfbench/workloads.py``) runs in fresh processes started
from here, with every inherited ``REPRO_*`` variable cleared, a campaign
cache under ``.perfbench_tmp/`` in the checkout, ``jobs=1`` and progress
output off.  Whole measured processes repeat until ``--seconds`` have been
spent measuring and the workload's ``units`` have run; each metric is the
median over them.

``--trace 0`` prints the end-to-end metrics (host time):

* ``wall_s``        — the workload, start to end;
* ``setup_s``       — summed time in ``prepare``; the median over
  ``setup_rounds`` fresh processes for the trials workloads;
* ``trials_per_s``  — trials ÷ time inside ``run_campaign``;
* ``trial_ms_p50`` / ``trial_ms_p99`` — per-trial latency, the gap between
  ``on_trial`` callbacks.  The tail is the highest percentile up to 99 with
  at least ten samples beyond it; the percentile used and the sample count
  are in the report on stderr;
* ``peak_rss_mb``   — ``ru_maxrss`` of the measured process;
* ``ok_frac``       — campaigns that succeeded ÷ campaigns attempted, i.e.
  one minus the failed fraction (a metric the gate can compare must never
  be 0).

``--trace 1`` runs the workload once untraced and once with the program's
span tracer and metrics registry on and every layer's public entry points
wrapped in timers, and prints the per-layer metrics: per-layer counts and
times, a self-time table whose rows (``self.<layer>.s`` / ``.pct``, closed
by ``self.unattributed``) add up to the traced wall time, and the tracing
overhead ``trace.overhead_pct`` with its spread.  For a sweep it then runs
figure11 once more, in a fresh process against the cache the traced run
filled, for the cache read path (``warm.*``; 0 on the other workloads).

A campaign fails if it raises, if a trial was quarantined, if a trial
re-run from scratch (no snapshot, no triage) disagrees with it, or if its
per-trial result digest differs from the one stored in
``perfbench/expected.json`` for this seed.  Seed-independent values (golden
instruction counts, figure 12 cycle counts) are checked for every seed.
``--record`` stores this run's values for its seed instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (campaigns) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    digest_mismatches, percentile, quartiles, tail_percentile,
)
from workloads import DEFAULT_SEED, HELDOUT_SEED, SPECS  # noqa: E402

EXPECTED_PATH = os.path.join(HERE, "expected.json")
SCRATCH_DIR = ".perfbench_tmp"
#: every process of one run must finish within this many seconds
RUN_BUDGET_S = 170.0

PAPER_USDC_PCT = {"original": 3.4, "dup": 1.8, "dup_valchk": 1.2}
PAPER_OVERHEAD_PCT = {"dup": 7.6, "dup_valchk": 19.5, "full_dup": 57.0}


class BenchError(Exception):
    """A process of the benchmark failed to produce its result."""


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def child_env(scratch: str, spec) -> dict:
    """The inherited environment minus every ``REPRO_*`` variable, plus the
    settings the benchmark pins."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": os.path.join(scratch, "cache"),
        "REPRO_TRIALS": str(spec.trials),
        "REPRO_JOBS": "1",
        "TMPDIR": scratch,
        "PYTHONHASHSEED": "0",
    })
    return env


class Runner:
    """Starts the workload's processes one at a time, within the budget."""

    def __init__(self, root: str, scratch: str, spec, seed: int) -> None:
        self.root, self.scratch = root, scratch
        self.spec, self.seed = spec, seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = child_env(scratch, spec)
        self.count = 0

    def run(self, mode: str, trace: int = 0, cache_dir: str = "") -> dict:
        self.count += 1
        out = os.path.join(self.scratch, f"proc-{self.count}.json")
        cache_dir = cache_dir or os.path.join(self.scratch,
                                              f"cache-{self.count}")
        command = [
            sys.executable, os.path.join(HERE, "unit.py"),
            "--root", self.root, "--workload", self.spec.name,
            "--seed", str(self.seed), "--mode", mode, "--trace", str(trace),
            "--cache-dir", cache_dir, "--out", out,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1.0:
            raise BenchError("run budget exhausted")
        try:
            done = subprocess.run(
                command, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=sys.stderr, timeout=remaining,
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"{mode} process overran the budget") from err
        if done.returncode != 0 or not os.path.exists(out):
            raise BenchError(f"{mode} process exited {done.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check(spec, seed: int, docs: list, reference: dict, expected: dict):
    """``(attempted, failed campaign labels, problems)`` over the processes
    that ran the workload's campaigns.  ``reference`` holds the digests
    every process must reproduce (the first measured one's)."""
    labels = set()
    failed = set()
    problems = []
    golden = expected.get("golden_instructions", {})
    stored = expected.get("digests", {}).get(str(seed), {}).get(spec.name)
    for doc in docs:
        if "error" in doc:
            problems.append(f"{doc['mode']} process: {doc['error']}")
        if doc["mode"] == "setup":
            continue
        campaigns = doc.get("campaigns", {})
        labels.update(campaigns)
        for label, tb in doc.get("errors", {}).items():
            labels.add(label)
            failed.add(label)
            problems.append(f"{label} raised: {tb}")
        for label, bad in doc.get("scratch_mismatches", {}).items():
            if bad:
                failed.add(label)
                problems.append(f"{label}: trials {bad} differ when re-run "
                                f"from scratch")
        observed = {k: v["digest"] for k, v in campaigns.items()}
        for label, rec in campaigns.items():
            if rec["quarantined"] or rec["trials"] != spec.trials:
                failed.add(label)
                problems.append(f"{label}: {rec['trials']} trials, "
                                f"{rec['quarantined']} quarantined")
            key = "/".join(label.split("/")[:2])
            if key in golden and golden[key] != rec["golden_instructions"]:
                failed.add(label)
                problems.append(f"{label}: golden run retired "
                                f"{rec['golden_instructions']} instructions, "
                                f"expected {golden[key]}")
        for label in digest_mismatches(observed, stored):
            failed.add(label)
            problems.append(f"{label}: result digest differs from "
                            f"expected.json (seed {seed})")
        if reference:
            for label in digest_mismatches(observed, reference):
                failed.add(label)
                problems.append(f"{label}: result differs from the "
                                f"reference process of this run")
        cycles = expected.get("runtime_cycles", {})
        for key, value in doc.get("runtime_cycles", {}).items():
            if key in cycles and cycles[key] != value:
                problems.append(f"figure12 {key}: {value} cycles, expected "
                                f"{cycles[key]}")
    if any("error" in doc for doc in docs):
        failed = labels | failed
    attempted = max(len(labels), 1)
    if not labels:
        problems.append("no campaign completed")
    return attempted, sorted(failed), problems


def record_expected(spec, seed: int, doc: dict) -> None:
    expected = load_expected()
    expected["default_seed"] = DEFAULT_SEED
    expected["heldout_seed"] = HELDOUT_SEED
    golden = expected.setdefault("golden_instructions", {})
    for label, rec in doc["campaigns"].items():
        golden["/".join(label.split("/")[:2])] = rec["golden_instructions"]
    if "runtime_cycles" in doc:
        expected.setdefault("runtime_cycles", {}).update(doc["runtime_cycles"])
    expected.setdefault("digests", {}).setdefault(str(seed), {})[spec.name] = {
        k: v["digest"] for k, v in doc["campaigns"].items()
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"recorded seed {seed} of {spec.name} in {EXPECTED_PATH}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def unit_metrics(doc: dict) -> dict:
    gaps = doc["gaps_ms"]
    tail = tail_percentile(len(gaps))
    return {
        "wall_s": doc["wall_s"],
        "trials_per_s": len(gaps) / doc["run_s"] if doc["run_s"] else 0.0,
        "trial_ms_p50": percentile(gaps, 50.0) if gaps else 0.0,
        "trial_ms_p99": percentile(gaps, tail) if tail else 0.0,
        "peak_rss_mb": doc["peak_rss_mb"],
        "trial_samples": len(gaps),
        "tail_percentile": tail,
    }


def overhead(plain: dict, traced: dict) -> dict:
    """Tracing overhead of the traced process over the untraced one: on the
    whole wall time, and per outermost call (their spread)."""
    pct = 100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0)
    pairs = [
        100.0 * (t[1] / p[1] - 1.0)
        for p, t in zip(plain["items"], traced["items"])
        if p[0] == t[0] and p[1] > 0
    ]
    q1, _, q3 = quartiles(pairs) if pairs else (0.0, 0.0, 0.0)
    return {"trace.overhead_pct": pct, "trace.overhead_pct.iqr": q3 - q1}


def warm_metrics(warm) -> dict:
    """The cache read path, from a sweep's traced warm pass (0 elsewhere)."""
    layers = warm["layers"] if warm else {}
    return {
        "warm.wall.s": warm["wall_s"] if warm else 0.0,
        "warm.setup.s": warm["setup_s"] if warm else 0.0,
        "warm.cache.get.s": layers.get("cache.get.s", 0.0),
        "warm.cache.key.s": layers.get("cache.key.s", 0.0),
        "warm.cache.hit": layers.get("cache.hit", 0),
    }


def layer_report(traced: dict) -> str:
    lines = [f"self time per layer, traced wall {traced['wall_s']:.3f}s:"]
    total = 0.0
    for layer, seconds, share in traced["layer_table"]:
        total += share
        lines.append(f"  {layer:26s} {seconds:9.3f}s {100 * share:6.1f}%")
    lines.append(f"  {'total':26s} {'':10s} {100 * total:6.1f}%")
    return "\n".join(lines)


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def declared_units(group: str) -> dict:
    """``{metric: unit}`` of one metric group of ``BENCHMARK.json``."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench[group]}


# ---------------------------------------------------------------------------


def measure(args, spec, root: str, scratch: str) -> int:
    runner = Runner(root, scratch, spec, args.seed)
    expected = load_expected()
    setups = [runner.run("setup")
              for _ in range(spec.setup_rounds - spec.units)]
    units = []
    started = time.monotonic()
    while (len(units) < spec.units
           or time.monotonic() - started < args.seconds):
        units.append(runner.run("unit"))
    traced = []
    if args.trace:
        cache_dir = os.path.join(scratch, "traced-cache")
        traced.append(runner.run("unit", trace=1, cache_dir=cache_dir))
        if spec.kind == "sweep":
            traced.append(runner.run("warm", trace=1, cache_dir=cache_dir))

    reference = {k: v["digest"]
                 for k, v in units[0].get("campaigns", {}).items()}
    attempted, failed, problems = check(spec, args.seed,
                                        setups + units + traced, reference,
                                        expected)
    for problem in dict.fromkeys(problems):
        log(f"CHECK FAILED: {problem}")
    correct = not problems

    per_unit = [unit_metrics(d) for d in units if "error" not in d]
    report = {
        "workload": spec.name, "seed": args.seed, "units": len(units),
        "settings": units[0]["settings"],
        "setup_s_samples": [d["setup_s"] for d in setups + units],
        "trial_samples": [m["trial_samples"] for m in per_unit],
        "tail_percentile": [m["tail_percentile"] for m in per_unit],
        "campaigns": {k: v["counts"]
                      for k, v in units[0].get("campaigns", {}).items()},
    }
    for doc in units:
        if "figure11_usdc_pct" in doc:
            report["figure11_usdc_pct"] = {
                s: {"measured": v, "paper": PAPER_USDC_PCT[s]}
                for s, v in doc["figure11_usdc_pct"].items()
            }
        if "figure12_overhead_pct" in doc:
            report["figure12_overhead_pct"] = {
                s: {"measured": v, "paper": PAPER_OVERHEAD_PCT[s]}
                for s, v in doc["figure12_overhead_pct"].items()
            }
    log("report " + json.dumps(report, sort_keys=True))

    if args.record:
        if not correct:
            log("not recording: the run failed its checks")
            return 1
        record_expected(spec, args.seed, units[0])

    if not per_unit:
        log("no measured process completed")
        return 1
    if not traced:
        metrics = {
            name: statistics.median([m[name] for m in per_unit])
            for name in ("wall_s", "trials_per_s", "trial_ms_p50",
                         "trial_ms_p99", "peak_rss_mb")
        }
        metrics["setup_s"] = statistics.median(report["setup_s_samples"])
        metrics["ok_frac"] = (attempted - len(failed)) / attempted
        declared = declared_units("end_to_end")
        emit(correct, attempted, len(failed),
             {k: metrics[k] for k in declared}, declared)
    else:
        if any("error" in doc for doc in traced):
            log("traced process failed")
            return 1
        log(layer_report(traced[0]))
        metrics = dict(traced[0]["layers"])
        metrics.update(overhead(units[0], traced[0]))
        metrics.update(warm_metrics(traced[1] if len(traced) > 1 else None))
        declared = declared_units("per_layer")
        emit(correct, attempted, len(failed),
             {k: metrics[k] for k in declared}, declared)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="measure whole processes until this many "
                             "seconds have passed (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's result digests and golden "
                             "values in perfbench/expected.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        log(f"no program source under {root}/src: run from a checkout root")
        return 2
    spec = SPECS[args.workload]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(os.path.join(root, SCRATCH_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-",
                               dir=os.path.join(root, SCRATCH_DIR))
    try:
        return measure(args, spec, root, scratch)
    except BenchError as err:
        log(f"FAILED: {err}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:  # another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
