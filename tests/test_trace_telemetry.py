"""Span tracing + live telemetry: determinism differentials and unit tests.

The house invariant under test: tracing (``REPRO_TRACE``/``--trace``) and the
heartbeat (``REPRO_HEARTBEAT``/``--heartbeat``) are pure sidecars — campaign
results, the main obs JSONL log, cache keys, and checkpoints are
byte-identical with them on or off, serial or parallel.  Plus unit coverage
for the trace schema round-trip, the phase summary's self-time accounting,
heartbeat atomicity, the ``repro.obs top`` watcher, gzip event logs, and the
progress printer's EMA/ETA columns.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
from dataclasses import replace

import pytest

from repro.faultinjection.campaign import CampaignConfig, prepare, run_campaign
from repro.faultinjection.diskcache import campaign_key
from repro.faultinjection.outcomes import Outcome, TrialResult
from repro.faultinjection.progress import ProgressPrinter
from repro.faultinjection.resilience import Checkpoint, save_checkpoint
from repro.obs import events as obs_events
from repro.obs import trace as trace_mod
from repro.obs.heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    HeartbeatWriter,
    read_heartbeat,
    resolve_heartbeat,
)
from repro.obs.report import LogReport
from repro.obs.top import render_heartbeat, watch
from repro.obs.trace import (
    load_trace,
    render_summary,
    resolve_trace,
    summarize_trace,
    validate_trace,
)
from repro.workloads.registry import get_workload


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Fast path on, every telemetry/prefix env knob off, tracer reset."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    for var in ("REPRO_SNAPSHOT", "REPRO_SNAPSHOT_EVERY", "REPRO_TRIAGE",
                "REPRO_TRACE", "REPRO_HEARTBEAT", "REPRO_OBS"):
        monkeypatch.delenv(var, raising=False)
    yield
    trace_mod.activate(None)


@pytest.fixture(scope="module")
def prepared_g721():
    """One shared prepared workload for every campaign in this file."""
    os.environ["REPRO_FASTPATH"] = "1"
    for var in ("REPRO_SNAPSHOT", "REPRO_SNAPSHOT_EVERY", "REPRO_TRIAGE",
                "REPRO_TRACE"):
        os.environ.pop(var, None)
    workload = get_workload("g721dec")
    prepared = prepare(workload, "dup_valchk", _base_config())
    return prepared


def _base_config() -> CampaignConfig:
    return CampaignConfig(trials=6, seed=11, snapshot_every=0, triage=False)


def _campaign(prepared, config, log_path):
    cfg = replace(config, obs_log=str(log_path))
    result = run_campaign(prepared.workload, prepared.scheme, cfg,
                          prepared=prepared)
    return result, log_path.read_bytes()


def _trial_records(result):
    from repro.faultinjection.outcomes import trial_to_record

    return [trial_to_record(t) for t in result.trials]


# ---------------------------------------------------------------------------
# differential: tracing/heartbeat must not change anything observable
# ---------------------------------------------------------------------------


def test_trace_differential_byte_identical(tmp_path, prepared_g721):
    """Trace + heartbeat on vs off, serial and jobs=2: identical trial
    records and byte-identical main obs logs."""
    base_cfg = _base_config()
    baseline, base_log = _campaign(
        prepared_g721, base_cfg, tmp_path / "base.jsonl"
    )

    variants = {
        "traced": replace(base_cfg, trace=str(tmp_path / "t1.json")),
        "traced_jobs2": replace(
            base_cfg, jobs=2, trace=str(tmp_path / "t2.json")
        ),
        "traced_heartbeat": replace(
            base_cfg,
            trace=str(tmp_path / "t3.json"),
            heartbeat=str(tmp_path / "hb.json"),
        ),
    }
    for label, cfg in variants.items():
        result, log = _campaign(prepared_g721, cfg, tmp_path / f"{label}.jsonl")
        assert _trial_records(result) == _trial_records(baseline), label
        assert log == base_log, label
        assert os.path.exists(cfg.trace), label

    # Worker span sidecars must never outlive the export.
    leftovers = [n for n in os.listdir(tmp_path) if ".spans-" in n]
    assert leftovers == []

    # The parallel trace records spans from the parent and the workers.
    parallel = load_trace(variants["traced_jobs2"].trace)
    assert validate_trace(parallel) == []
    assert len(summarize_trace(parallel).pids) >= 2

    # The heartbeat variant left a terminal status document behind.
    heartbeat = read_heartbeat(variants["traced_heartbeat"].heartbeat)
    assert heartbeat is not None
    assert heartbeat["status"] == "done"
    assert heartbeat["trials_done"] == base_cfg.trials
    assert sum(heartbeat["outcomes"].values()) == base_cfg.trials


def test_cache_key_ignores_telemetry(prepared_g721):
    """trace/heartbeat paths must not fragment the campaign cache."""
    cfg = _base_config()
    key = campaign_key(prepared_g721.module, "g721dec", "dup_valchk", cfg)
    traced = replace(cfg, trace="/tmp/spans.json", heartbeat="/tmp/hb.json")
    assert campaign_key(
        prepared_g721.module, "g721dec", "dup_valchk", traced
    ) == key


def test_checkpoint_bytes_identical_with_tracing(tmp_path, prepared_g721):
    """A checkpoint built from a traced campaign's trials is byte-identical
    to one built from the untraced run (wall-clock never leaks in)."""
    base_cfg = _base_config()
    baseline, _ = _campaign(prepared_g721, base_cfg, tmp_path / "a.jsonl")
    traced, _ = _campaign(
        prepared_g721,
        replace(base_cfg, trace=str(tmp_path / "trace.json")),
        tmp_path / "b.jsonl",
    )
    paths = []
    for name, result in (("plain.ckpt", baseline), ("traced.ckpt", traced)):
        path = tmp_path / name
        save_checkpoint(path, Checkpoint(
            key="k", workload="g721dec", scheme="dup_valchk",
            trials=base_cfg.trials,
            completed=dict(enumerate(result.trials)),
        ))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_env_var_enables_tracing(tmp_path, prepared_g721, monkeypatch):
    trace_file = tmp_path / "env-trace.json"
    monkeypatch.setenv("REPRO_TRACE", str(trace_file))
    _campaign(prepared_g721, _base_config(), tmp_path / "log.jsonl")
    assert trace_file.exists()
    assert validate_trace(load_trace(trace_file)) == []


# ---------------------------------------------------------------------------
# trace schema round-trip + phase summary
# ---------------------------------------------------------------------------


def test_trace_schema_roundtrip_and_self_time(tmp_path, prepared_g721):
    """Exported trace validates, and per-phase self times account for >=95%
    of the campaign wall time (the telescoping property)."""
    trace_file = tmp_path / "trace.json"
    cfg = replace(_base_config(), trace=str(trace_file))
    _campaign(prepared_g721, cfg, tmp_path / "log.jsonl")

    document = load_trace(trace_file)
    assert validate_trace(document) == []
    assert document["otherData"]["schema"] == trace_mod.TRACE_SCHEMA_VERSION

    summary = summarize_trace(document)
    assert summary.campaign_wall_us > 0
    assert len(summary.campaigns) == 1
    assert summary.campaigns[0]["workload"] == "g721dec"
    assert summary.campaigns[0]["trials"] == cfg.trials
    # Every trial contributes a trial span with replay/classify children.
    assert summary.phases[("trial", "trial")]["count"] == cfg.trials
    assert ("trial", "replay") in summary.phases
    coverage = summary.in_campaign_self_us / summary.campaign_wall_us
    assert coverage >= 0.95

    rendered = render_summary(summary)
    assert "trace phase report" in rendered
    assert "per-phase self time" in rendered
    assert "critical path" in rendered


def _percentages(rendered: str, start: str, end: str):
    """Trailing ``NN.N%`` columns of the rendered lines between two
    section headings."""
    lines = rendered.split("\n")
    first = next(i for i, line in enumerate(lines) if line.startswith(start))
    out = []
    for line in lines[first + 1:]:
        if not line.strip() or line.startswith(end):
            break
        match = re.search(r"(\d+\.\d)%\)?$", line.rstrip())
        if match:
            out.append(float(match.group(1)))
    return out


def test_two_campaign_trace_shares_add_up(tmp_path):
    """A sweep-shaped trace — each campaign prepared outside its campaign
    span, both in one trace — gets shares of the trace's wall time: the
    per-phase self times and the critical-path rows each add up to at most
    100%, with preparation a row of its own."""
    path = str(tmp_path / "sweep.json")
    trace_mod.activate(path)
    for name in ("tiff2bw", "g721dec"):
        workload = get_workload(name)
        cfg = replace(_base_config(), trials=3, trace=path)
        prepared = prepare(workload, "dup_valchk", cfg)
        run_campaign(workload, "dup_valchk", cfg, prepared=prepared)

    summary = summarize_trace(load_trace(path))
    assert len(summary.campaigns) == 2
    assert summary.prepare_us > 0
    assert summary.prepare_in_campaign_us == 0  # prepared outside campaigns
    assert summary.trace_wall_us >= summary.campaign_wall_us + \
        summary.prepare_us

    rendered = render_summary(summary, top=1000)
    phases = _percentages(rendered, "per-phase self time", "accounted")
    assert len(phases) == len(summary.phases)
    assert sum(phases) <= 100.0 + 0.05 * len(phases)  # display rounding
    path_rows = _percentages(rendered, "critical path", "  replay vs")
    assert len(path_rows) == 3
    assert all(0.0 <= share <= 100.0 for share in path_rows)
    assert abs(sum(path_rows) - 100.0) <= 0.2
    assert "preparation:" in rendered


def test_figure12_timing_runs_get_a_span_and_a_critical_path_row(tmp_path):
    """Figure 12's timed golden runs run outside every campaign: each is a
    ``timing_run`` span, and the critical path gives them a row of their
    own instead of folding them into "outside campaigns"."""
    from repro.experiments import ExperimentCache, ExperimentSettings

    path = str(tmp_path / "sweep.json")
    settings = ExperimentSettings(
        trials=2, workloads=("tiff2bw",),
        campaign=replace(_base_config(), trace=path),
    )
    cache = ExperimentCache(settings)
    cache.campaign("tiff2bw", "dup")
    assert cache.overhead("tiff2bw", "dup") > 0
    trace_mod.current().export()

    document = load_trace(path)
    summary = summarize_trace(document)
    spans = [e for e in document["traceEvents"]
             if e.get("name") == "timing_run"]
    assert [(e["cat"], e["args"]["workload"], e["args"]["scheme"])
            for e in spans] == [("experiment", "tiff2bw", "original"),
                                ("experiment", "tiff2bw", "dup")]
    assert summary.timing_us == sum(e["dur"] for e in spans) > 0

    rendered = render_summary(summary, top=1000)
    assert "timing runs (figure 12):" in rendered
    path_rows = _percentages(rendered, "critical path", "  replay vs")
    assert len(path_rows) == 4
    assert abs(sum(path_rows) - 100.0) <= 0.2


def test_experiments_cli_exports_spans_after_the_last_campaign(
        tmp_path, monkeypatch, capsys):
    """``figure12`` runs no campaign, whose end would export the trace: the
    CLI exports it once the experiments are done."""
    from repro.experiments.__main__ import main

    path = tmp_path / "figure12.json"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    assert main(["figure12", "--workloads", "tiff2bw", "--quiet"]) == 0
    capsys.readouterr()
    spans = [e for e in load_trace(path)["traceEvents"]
             if e.get("name") == "timing_run"]
    assert len(spans) == 4


def test_validate_trace_flags_problems():
    assert validate_trace([]) == ["trace document is not a JSON object"]
    assert validate_trace({}) == ["traceEvents is missing or not an array"]
    assert validate_trace({"traceEvents": []}) == ["traceEvents is empty"]
    bad = {"traceEvents": [
        {"ph": "Z"},
        {"ph": "X", "name": 1, "cat": "c", "ts": 0, "pid": 0, "tid": 0},
        {"ph": "X", "name": "n", "cat": "c", "ts": 0, "pid": 0, "tid": 0},
    ]}
    problems = validate_trace(bad)
    assert any("unknown phase" in p for p in problems)
    assert any("bad 'name'" in p for p in problems)
    assert any("without int 'dur'" in p for p in problems)


def test_null_tracer_is_inert(tmp_path):
    tracer = trace_mod.activate(None)
    assert tracer is trace_mod.current()
    assert not tracer.enabled
    with tracer.span("anything", cat="x", a=1) as span:
        span.add(b=2)
    tracer.instant("mark")
    tracer.flush_sidecar()
    tracer.export()
    assert os.listdir(tmp_path) == []


def test_resolve_trace_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert resolve_trace(None) is None
    assert resolve_trace("explicit.json") == "explicit.json"
    monkeypatch.setenv("REPRO_TRACE", "from-env.json")
    assert resolve_trace(None) == "from-env.json"
    assert resolve_trace("explicit.json") == "explicit.json"
    monkeypatch.setenv("REPRO_TRACE", "off")
    assert resolve_trace(None) is None


def test_sidecar_flush_and_merge(tmp_path):
    """A (simulated) worker's sidecar folds back into the exported trace."""
    path = str(tmp_path / "trace.json")
    tracer = trace_mod.Tracer(path)
    with tracer.span("chunk", cat="chunk"):
        pass
    tracer.flush_sidecar()
    assert os.path.exists(tracer.sidecar_path())
    assert tracer.events == []

    with tracer.span("campaign", cat="campaign"):
        pass
    assert tracer.export() == path
    assert not os.path.exists(tracer.sidecar_path())
    names = {e["name"] for e in load_trace(path)["traceEvents"]}
    assert {"chunk", "campaign"} <= names


# ---------------------------------------------------------------------------
# heartbeat
# ---------------------------------------------------------------------------


def test_heartbeat_roundtrip(tmp_path):
    path = tmp_path / "hb.json"
    writer = HeartbeatWriter(str(path), workload="g721dec",
                             scheme="dup_valchk", total=10, min_interval=0.0)
    writer.begin()
    for outcome in ("Masked", "SWDetect", "Masked"):
        writer.trial(outcome)
    writer.incident()
    writer.finish("done")

    doc = read_heartbeat(path)
    assert doc["v"] == HEARTBEAT_SCHEMA_VERSION
    assert doc["workload"] == "g721dec"
    assert doc["status"] == "done"
    assert doc["trials_done"] == 3
    assert doc["trials_total"] == 10
    assert doc["outcomes"] == {"Masked": 2, "SWDetect": 1}
    assert doc["resilience_incidents"] == 1
    assert doc["pid"] == os.getpid()


def test_heartbeat_atomic_no_temp_leftovers(tmp_path):
    """Every update is a complete parseable document and the temp files of
    the atomic replace never survive."""
    path = tmp_path / "hb.json"
    writer = HeartbeatWriter(str(path), total=50, min_interval=0.0)
    for i in range(50):
        writer.trial("Masked")
        doc = json.loads(path.read_text())
        assert doc["trials_done"] == i + 1
    assert [n for n in os.listdir(tmp_path) if n != "hb.json"] == []


def test_heartbeat_rate_limit(tmp_path):
    path = tmp_path / "hb.json"
    writer = HeartbeatWriter(str(path), total=10, min_interval=3600.0)
    writer.begin()
    writer.trial("Masked")
    writer.trial("Masked")
    # Inside the interval the file still shows the forced begin() document.
    assert read_heartbeat(path)["trials_done"] == 0
    writer.finish("done")  # forced, bypasses the limiter
    assert read_heartbeat(path)["trials_done"] == 2


def test_heartbeat_missing_file_and_resolve(tmp_path, monkeypatch):
    assert read_heartbeat(tmp_path / "nope.json") is None
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    assert resolve_heartbeat(None) is None
    assert resolve_heartbeat("x.json") == "x.json"
    monkeypatch.setenv("REPRO_HEARTBEAT", "env.json")
    assert resolve_heartbeat(None) == "env.json"


# ---------------------------------------------------------------------------
# repro.obs top
# ---------------------------------------------------------------------------


def test_render_heartbeat_frame():
    doc = {
        "v": 1, "workload": "g721dec", "scheme": "dup_valchk",
        "status": "running", "trials_done": 30, "trials_total": 60,
        "outcomes": {"Masked": 20, "SWDetect": 10},
        "trials_per_sec": 100.0, "trials_per_sec_ema": 120.0,
        "eta_seconds": 75.0, "elapsed_seconds": 0.3,
        "resilience_incidents": 2, "pid": 1, "updated_unix": 1000.0,
    }
    frame = render_heartbeat(doc, now_unix=1001.0)
    assert "g721dec/dup_valchk" in frame
    assert "30/60" in frame
    assert "120.0 ema" in frame
    assert "eta 01:15" in frame
    assert "Masked=20" in frame
    assert "resilience incidents: 2" in frame
    assert "STALE" not in frame
    # A running heartbeat that stopped updating is flagged.
    assert "STALE" in render_heartbeat(doc, now_unix=1000.0 + 60)


def test_watch_once_exit_codes(tmp_path):
    missing = io.StringIO()
    assert watch(str(tmp_path / "nope.json"), once=True, stream=missing) == 1
    assert "no heartbeat" in missing.getvalue()

    path = tmp_path / "hb.json"
    HeartbeatWriter(str(path), workload="w", scheme="s", total=4).begin()
    present = io.StringIO()
    assert watch(str(path), once=True, stream=present) == 0
    assert "w/s" in present.getvalue()


def test_watch_until_done(tmp_path):
    path = tmp_path / "hb.json"
    writer = HeartbeatWriter(str(path), total=4)
    writer.finish("done")
    stream = io.StringIO()
    assert watch(str(path), interval=0.0, until_done=True, stream=stream) == 0


# ---------------------------------------------------------------------------
# gzip event logs
# ---------------------------------------------------------------------------


def _sample_events(n=5):
    return [{"event": "trial", "v": 1, "i": i} for i in range(n)]


def test_gzip_log_roundtrip_and_determinism(tmp_path):
    events = _sample_events()
    paths = []
    for name in ("a.jsonl.gz", "b.jsonl.gz"):
        path = tmp_path / name
        with obs_events.EventLogWriter(str(path)) as writer:
            for event in events:
                writer.emit(event)
        paths.append(path)
    got, skipped, truncated = obs_events.read_events_detailed(paths[0])
    assert got == events
    assert (skipped, truncated) == (0, 0)
    # mtime=0 + empty name in the gzip header: byte-deterministic output.
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_gzip_log_append_is_multi_member(tmp_path):
    path = tmp_path / "log.jsonl.gz"
    for batch in (_sample_events(2), _sample_events(3)):
        with obs_events.EventLogWriter(str(path)) as writer:
            for event in batch:
                writer.emit(event)
    got, _ = obs_events.read_events(path)
    assert len(got) == 5


def test_gzip_truncated_tail_counted(tmp_path):
    path = tmp_path / "log.jsonl.gz"
    with obs_events.EventLogWriter(str(path)) as writer:
        for event in _sample_events(2):
            writer.emit(event)
    # Second member torn mid-write (campaign killed): cut its tail off.
    intact = path.read_bytes()
    with obs_events.EventLogWriter(str(path)) as writer:
        for event in _sample_events(50):
            writer.emit(event)
    full = path.read_bytes()
    path.write_bytes(full[: len(intact) + (len(full) - len(intact)) // 2])

    got, skipped, truncated = obs_events.read_events_detailed(path)
    assert truncated == 1
    assert got[:2] == _sample_events(2)  # readable prefix survives

    report = LogReport.from_paths([str(path)])
    assert report.truncated_tails == 1
    assert "truncated log tails: 1" in report.render_text()
    assert report.to_json()["truncated_tails"] == 1


def test_plain_and_gzip_logs_read_identically(tmp_path, prepared_g721):
    """A campaign logging to ``.jsonl.gz`` decompresses to the exact bytes
    of the plain log."""
    cfg = _base_config()
    _, plain = _campaign(prepared_g721, cfg, tmp_path / "log.jsonl")
    gz_path = tmp_path / "log.jsonl.gz"
    _campaign(prepared_g721, cfg, gz_path)
    with gzip.open(gz_path, "rb") as fh:
        assert fh.read() == plain


# ---------------------------------------------------------------------------
# progress printer EMA / ETA
# ---------------------------------------------------------------------------


def _masked_trial():
    return TrialResult(outcome=Outcome.MASKED, injection_cycle=1, bit=0)


def test_progress_printer_ema_and_eta():
    stream = io.StringIO()
    printer = ProgressPrinter(10, label="demo", stream=stream,
                              min_interval=0.0)
    for _ in range(3):
        printer(_masked_trial())
    assert printer.rate_ema is not None and printer.rate_ema > 0
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 3
    assert "trials/s" in lines[-1]
    assert "ema)" in lines[-1]
    assert "eta" in lines[-1]
    assert "masked=3" in lines[-1]


def test_progress_printer_final_line_drops_eta():
    stream = io.StringIO()
    printer = ProgressPrinter(10, stream=stream, min_interval=3600.0)
    for _ in range(4):
        printer(_masked_trial())
    # First trial prints immediately; 2-4 fall inside the rate limit.
    assert len(stream.getvalue().splitlines()) == 1
    printer.finish()
    final = stream.getvalue().splitlines()[-1]
    assert "[4/10]" in final
    assert final.rstrip().endswith("(done)")
    assert "eta" not in final
    before = stream.getvalue()
    printer.finish()  # idempotent
    assert stream.getvalue() == before


def test_progress_eta_formatting():
    fmt = ProgressPrinter._fmt_eta
    assert fmt(None) == ""
    assert fmt(65) == " eta 01:05"
    assert fmt(3 * 3600 + 62) == " eta 3:01:02"
