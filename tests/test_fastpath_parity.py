"""Differential tests: compiled fast path vs. reference interpreter.

The fast path (``src/repro/sim/compiled.py``) pre-compiles each function into
per-instruction closures and fuses straight-line runs into superblocks.  These
tests pin down that it is a pure optimisation: every observable — outputs,
instruction counts, guard tallies, fault outcomes, and the exact cycle of
every trap — must be bit-identical to the instruction-at-a-time reference
path (``Interpreter(fastpath=False)``).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.faultinjection import CampaignConfig, prepare, run_campaign
from repro.faultinjection import campaign as campaign_mod
from repro.sim.interpreter import Interpreter
from repro.workloads.registry import get_workload


def _norm(x):
    """Hashable, bit-exact view of (possibly nested) workload outputs."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dict):
        return tuple(sorted((k, _norm(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_norm(v) for v in x)
    return x


def _on_reference_loop(monkeypatch):
    """Make every interpreter the campaign layer builds (golden, capture and
    trial runs) the reference loop.  Campaigns here are serial, so no worker
    process has to inherit the patch; without the fast path the campaign
    also runs without snapshots, as from-scratch trials."""
    monkeypatch.setattr(
        campaign_mod, "Interpreter",
        functools.partial(Interpreter, fastpath=False),
    )


@pytest.mark.parametrize("name", ["tiff2bw", "g721dec"])
def test_golden_run_matches_reference(name):
    workload = get_workload(name)
    observed = {}
    for fastpath in (False, True):
        module = workload.build_module()
        interp = Interpreter(module, guard_mode="count", fastpath=fastpath)
        outputs, result = workload.run(
            module, workload.test_inputs(), interpreter=interp
        )
        observed[fastpath] = (_norm(outputs), _norm(result), interp.cycle)
    assert observed[True] == observed[False]


@pytest.mark.parametrize("scheme", ["dup", "dup_valchk"])
def test_campaign_matches_reference_bit_exact(scheme, monkeypatch):
    """Same seed, fastpath on vs. off: every TrialResult field must match.

    Dataclass equality covers outcome class, detection cycle (i.e. the exact
    re-timed trap cycle — the sharpest check on superblock trap accounting),
    fidelity metrics, and the injection plan itself.
    """
    config = CampaignConfig(trials=10, seed=5)
    workload = get_workload("tiff2bw")

    with monkeypatch.context() as patch:
        _on_reference_loop(patch)
        prepared_ref = prepare(workload, scheme, config)
        reference = run_campaign(
            workload, scheme, config, prepared=prepared_ref
        )
    assert prepared_ref.snapshots is None

    prepared_fast = prepare(workload, scheme, config)
    assert prepared_fast.snapshots is not None
    fast = run_campaign(workload, scheme, config, prepared=prepared_fast)

    assert _norm(prepared_fast.golden_outputs) == _norm(prepared_ref.golden_outputs)
    assert fast.golden_instructions == reference.golden_instructions
    assert fast.golden_guard_failures == reference.golden_guard_failures
    assert fast.trials == reference.trials


def test_obs_event_logs_match_reference_byte_exact(tmp_path, monkeypatch):
    """The fast path must report the same trial events as the reference.

    The event log derives everything from (plan, TrialResult) — including the
    new detector fields (check id/kind, trap kind, event cycle, latency) — so
    the JSONL streams of a reference-loop and a fast-path campaign must be
    byte-identical, not merely outcome-equal.
    """
    from dataclasses import replace

    config = CampaignConfig(trials=12, seed=5)
    workload = get_workload("tiff2bw")
    logs = {}
    for fastpath in (False, True):
        with monkeypatch.context() as patch:
            if not fastpath:
                _on_reference_loop(patch)
            log = tmp_path / f"fastpath{int(fastpath)}.jsonl"
            prepared = prepare(workload, "dup_valchk", config)
            run_campaign(
                workload, "dup_valchk",
                replace(config, obs_log=str(log)), prepared=prepared,
            )
        logs[fastpath] = log.read_bytes()
    assert logs[True] == logs[False]
    # and the log is not trivially empty: it carries real trial records
    assert logs[False].count(b'"event":"trial"') == config.trials


def test_compile_variants_share_one_token_and_follow_ir_mutation():
    """An injection run looks up the tracked and untracked variants from one
    structure-token walk; an in-place IR change still invalidates both."""
    from repro.ir import I32
    from repro.ir.values import Constant
    from repro.sim.compiled import compile_module, compile_variants
    from tests.conftest import build_sum_loop

    module, h = build_sum_loop()
    tracked, untracked = compile_variants(
        module, (True, False), (False, False)
    )
    assert tracked is not untracked
    assert tracked.token == untracked.token
    assert compile_module(module, False, False) is untracked

    scaled = h["body"].instructions[2]  # acc * mul_factor
    scaled.set_operand(1, Constant(I32, 5))
    rebuilt = compile_module(module, False, False)
    assert rebuilt is not untracked
    assert rebuilt.token != untracked.token
