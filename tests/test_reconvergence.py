"""Golden-reconvergence early exit: a trial whose state equals a golden
snapshot at a boundary after its injection ends there as Masked.

The exit is a pure optimisation.  These tests pin down that campaigns with
it (snapshots + triage on) are byte-identical — trial results and obs event
logs — to from-scratch runs with snapshots and triage off, for every
concrete fault model, serially and under ``jobs=2``; that the exit really
fires; and that each condition that must block it does.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.faultinjection.campaign import CampaignConfig, prepare, run_campaign
from repro.obs.events import read_events, resilience_log_path
from repro.obs.metrics import enable_global, reset_global
from repro.obs.report import LogReport
from repro.sim.compiled import compile_module
from repro.sim.faults import CONCRETE_FAULT_MODELS, InjectionPlan, InjectionRecord
from repro.sim.interpreter import Interpreter
from repro.sim.snapshot import TriageMasked
from repro.workloads.registry import get_workload

#: small fixed cadence so short golden runs get many comparison points
_EVERY = 200


@pytest.fixture(autouse=True)
def _fastpath(monkeypatch):
    """Reconvergence rides on fast-path snapshots; pin the knobs."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    for name in ("REPRO_SNAPSHOT", "REPRO_SNAPSHOT_EVERY", "REPRO_TRIAGE",
                 "REPRO_FAULT_MODEL"):
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def tiff():
    workload = get_workload("tiff2bw")
    prepared = prepare(
        workload, "dup_valchk", CampaignConfig(seed=5, snapshot_every=_EVERY)
    )
    assert prepared.snapshots is not None and len(prepared.snapshots) > 10
    return prepared


def _campaign(prepared, config, log_path):
    cfg = replace(config, obs_log=str(log_path))
    result = run_campaign(prepared.workload, prepared.scheme, cfg,
                          prepared=prepared)
    sidecar = resilience_log_path(cfg.obs_log)
    events = read_events(sidecar)[0] if os.path.exists(sidecar) else []
    sharing = [e for e in events if e["event"] == "prefix_sharing"]
    return result, log_path.read_bytes(), sharing


# ---------------------------------------------------------------------------
# differential: every concrete fault model, serial and jobs=2
# ---------------------------------------------------------------------------


def _matrix_config(model):
    return CampaignConfig(trials=60, seed=5, snapshot_every=_EVERY,
                          triage=True, fault_model=model)


@pytest.mark.parametrize("model", CONCRETE_FAULT_MODELS)
def test_reconvergence_byte_identical_for_every_model(tmp_path, tiff, model):
    cfg = _matrix_config(model)
    baseline, base_log, _ = _campaign(
        tiff, replace(cfg, snapshot_every=0, triage=False),
        tmp_path / "base.jsonl",
    )
    for label, variant in (("serial", cfg), ("jobs2", replace(cfg, jobs=2))):
        result, log, _ = _campaign(tiff, variant, tmp_path / f"{label}.jsonl")
        assert result.trials == baseline.trials, label
        assert log == base_log, label


def test_differential_matrix_is_not_vacuous(tmp_path, tiff):
    """The models above that cannot be triaged statically still reach the
    exit — so the byte-identity matrix covers reconverged trials."""
    hits = {}
    for model in ("double_bit", "stuck_at", "mem_stuck_at"):
        _, _, sharing = _campaign(
            tiff, _matrix_config(model), tmp_path / f"{model}.jsonl"
        )
        hits[model] = sharing[0]["reconverged"]
    assert all(count > 0 for count in hits.values()), hits


def test_sidecar_counter_and_report_count_reconverged(tmp_path):
    """A dense-snapshot single_bit campaign reconverges some trials; the
    count reaches the sidecar, the registry and the report, apart from
    static triage's count."""
    workload = get_workload("g721dec")
    cfg = CampaignConfig(trials=60, seed=3, snapshot_every=_EVERY,
                         triage=True)
    prepared = prepare(workload, "dup_valchk", cfg)
    registry = enable_global(True)
    try:
        before = registry.counter("campaign.reconverged").snapshot()
        triaged_before = registry.counter("campaign.triaged_masked").snapshot()
        result, _, sharing = _campaign(prepared, cfg, tmp_path / "log.jsonl")
        reconverged = registry.counter("campaign.reconverged").snapshot()
        triaged = registry.counter("campaign.triaged_masked").snapshot()
    finally:
        reset_global()
    assert len(sharing) == 1
    event = sharing[0]
    assert event["reconverged"] > 0
    assert reconverged - before == event["reconverged"]
    assert triaged - triaged_before == event["triaged_masked"]
    masked = sum(1 for t in result.trials if t.outcome.value == "Masked")
    assert event["reconverged"] + event["triaged_masked"] <= masked

    report = LogReport.from_paths([str(tmp_path / "log.jsonl")])
    assert report.to_json()["prefix_sharing"]["reconverged"] == \
        event["reconverged"]
    assert "reconverged:" in report.render_text()


# ---------------------------------------------------------------------------
# units: what the check compares and what blocks the exit
# ---------------------------------------------------------------------------


def _at_snapshot(prepared):
    """An injection interpreter whose state *is* a golden snapshot's, with
    its fault landed and the snapshot due for comparison."""
    store = prepared.snapshots
    snap = store.snapshots[len(store) // 2]
    plan = InjectionPlan(cycle=snap.cycle - 10, bit=0, seed=1)
    interp = Interpreter(prepared.module, guard_mode="detect", fastpath=True,
                         disabled_guards=set(prepared.noisy_guards))
    snap.install(interp, plan)
    interp.injection_record = InjectionRecord(plan=plan, landed=True)
    interp._golden_snaps = store.snapshots
    interp._golden_pos = store.first_from(plan.cycle)
    return interp, snap


def _exits(interp, snap, inject_cycle=-1, cb=None):
    try:
        interp._check_reconverged(
            cb if cb is not None else snap.cb, snap.idx, snap.cycle,
            inject_cycle,
        )
    except TriageMasked as masked:
        assert masked.reason == "reconverged"
        return True
    return False


def test_identical_state_exits_on_either_compiled_variant(tiff):
    interp, snap = _at_snapshot(tiff)
    assert _exits(interp, snap)
    # A trial past its injection runs the untracked variant: blocks, not
    # compiled blocks, are compared.
    untracked = compile_module(tiff.module, False, False)
    ucb = untracked.functions[interp._frames[-1].function].blocks[
        snap.cb.block
    ]
    assert ucb is not snap.cb
    interp, snap = _at_snapshot(tiff)
    assert _exits(interp, snap, cb=ucb)


def test_negative_zero_blocks_exit(tiff, monkeypatch):
    interp, snap = _at_snapshot(tiff)
    monkeypatch.setitem(snap.frame_values[-1], -1, 0.0)
    interp._frames[-1].values[-1] = 0.0
    assert snap.matches(interp, snap.cb, snap.idx)
    interp._frames[-1].values[-1] = -0.0
    assert not snap.matches(interp, snap.cb, snap.idx)
    assert not _exits(interp, snap)


def test_int_against_float_blocks_exit(tiff):
    interp, snap = _at_snapshot(tiff)
    values = interp._frames[-1].values
    key = next(k for k, v in values.items() if v.__class__ is int)
    values[key] = float(values[key])
    assert values == snap.frame_values[-1]  # equal under ==, not bit-exact
    assert not _exits(interp, snap)


def test_memory_difference_blocks_exit(tiff):
    interp, snap = _at_snapshot(tiff)
    seg = next(iter(interp.global_segments.values()))
    seg.data[0] ^= 0x01
    assert not _exits(interp, snap)


def test_pending_stuck_at_refire_blocks_exit(tiff):
    interp, snap = _at_snapshot(tiff)
    assert not _exits(interp, snap, inject_cycle=snap.cycle + 16)


def test_pending_control_fault_blocks_exit(tiff):
    interp, snap = _at_snapshot(tiff)
    interp._pending_control_fault = True
    assert not _exits(interp, snap)


def test_live_stuck_bindings_block_exit(tiff):
    interp, snap = _at_snapshot(tiff)
    seg = next(iter(interp.global_segments.values()))
    interp._stuck_mem_fault = (seg, 0, 3, 1, snap.cycle + 256)
    assert not _exits(interp, snap)
    interp, snap = _at_snapshot(tiff)
    interp._stuck_fault = (interp._frames[-1], -1, None, 3, 1,
                           snap.cycle + 256)
    assert not _exits(interp, snap)


def test_no_injection_record_blocks_exit(tiff):
    interp, snap = _at_snapshot(tiff)
    interp.injection_record = None
    assert not _exits(interp, snap)


def test_passed_snapshot_is_skipped(tiff):
    """A loop top past the due cycle skips that snapshot (no comparison)
    and schedules the next one."""
    interp, snap = _at_snapshot(tiff)
    snaps = tiff.snapshots.snapshots
    pos = snaps.index(snap)
    due = interp._check_reconverged(snap.cb, snap.idx, snap.cycle + 1, -1)
    assert due == snaps[pos + 1].cycle
    assert interp._golden_pos == pos + 1
