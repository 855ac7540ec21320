"""Timing runs on the compiled fast path.

A run with a :class:`~repro.sim.timing.TimingModel` attached executes the
fast path's timed variant, whose closures report each retired instruction
to the model's issue core with constants baked in at compile time.  The
reference loop (``fastpath=False``) drives the same core through the
``observe_*`` shims and is the oracle: every estimate below must agree with
it bit for bit — cycles, retired micro-ops, cache and predictor counters.
The Figure 12 kernels' cycle counts are also pinned, so a change to both
paths at once cannot drift unseen.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faultinjection.campaign import CampaignConfig, prepare
from repro.frontend import compile_source
from repro.ir import F64, I32, Constant, IRBuilder, Module
from repro.obs.metrics import enable_global, reset_global
from repro.sim import Interpreter, SimConfig, TimingModel
from repro.sim.compiled import compile_module
from repro.sim.events import SimTrap
from repro.sim.faults import InjectionPlan
from repro.transforms import apply_scheme
from repro.workloads.registry import get_workload
from tests.conftest import build_sum_loop
from tests.test_sim_timing import build_chain, build_independent

SCHEMES = ("original", "dup", "dup_valchk", "full_dup")

#: Estimated cycles at the commit before timing runs moved to the fast path
PINNED_CYCLES = {
    "tiff2bw": (8854.0, 10590.0, 10803.0, 15183.5),
    "h264dec": (15734.0, 16655.0, 18286.0, 28072.5),
}

#: a core whose arithmetic leaves the half-cycle grid of the default one
ODD_CONFIG = SimConfig(issue_width=3, rob_entries=5, issue_queue=3,
                       miss_penalty=17, mispredict_penalty=5)


def _timed(module, fastpath, inputs=None, config=None, injection=None,
           guard_mode="count"):
    """Run ``module`` with a fresh timing model; return (model, outcome)."""
    timing = TimingModel(config)
    interp = Interpreter(module, config=config, guard_mode=guard_mode,
                         timing=timing, fastpath=fastpath)
    try:
        result = interp.run(inputs=inputs or {}, injection=injection)
        outcome = ("ok", result.return_value, result.instructions,
                   result.cycles)
    except SimTrap as trap:
        outcome = (type(trap).__name__, trap.cycle)
    return timing, outcome


def _stats(timing):
    return (
        timing.cycles, timing.retired,
        timing.dcache.hits, timing.dcache.misses,
        timing.branch_predictor.correct, timing.branch_predictor.mispredicts,
    )


def _assert_paths_agree(module, **kwargs):
    ref, ref_outcome = _timed(module, False, **kwargs)
    fast, fast_outcome = _timed(module, True, **kwargs)
    assert fast_outcome == ref_outcome
    assert _stats(fast) == _stats(ref)
    return fast


# ---------------------------------------------------------------------------
# small modules
# ---------------------------------------------------------------------------


def _straight_line(build, ret_type=I32):
    m = Module()
    fn = m.add_function("main", ret_type)
    b = IRBuilder(fn.add_block("entry"))
    ret = build(b)
    b.ret(ret if ret is not None else b.const(0))
    return m


def _issue_queue_module():
    """A long fdiv chain beside independent fadds (from the issue-queue test)."""
    def build(b):
        v = b.binop("fdiv", Constant(F64, 1.0), Constant(F64, 3.0))
        for _ in range(20):
            v = b.binop("fdiv", v, Constant(F64, 3.0))
        for _ in range(200):
            b.binop("fadd", Constant(F64, 1.0), Constant(F64, 1.0))
        return v
    return _straight_line(build, F64)


def _rob_module():
    def build(b):
        last = None
        for _ in range(100):
            last = b.binop("fdiv", Constant(F64, 1.0), Constant(F64, 3.0))
        return b.fptosi(last)
    return _straight_line(build)


def _guards_module():
    """All three guard kinds, GuardValues with one and two expected values,
    passing and failing (count mode keeps running)."""
    def build(b):
        v = b.add(b.const(1), b.const(2))
        w = b.mul(v, b.const(5))
        for i in range(20):
            b.guard_eq(v, w if i % 3 == 0 else v, guard_id=4 * i)
            b.guard_range(w, b.const(0), b.const(10 + i), guard_id=4 * i + 1)
            b.guard_values(v, [b.const(3)], guard_id=4 * i + 2)
            b.guard_values(w, [b.const(15), b.const(i)], guard_id=4 * i + 3)
            v = b.add(v, w)
        return v
    return _straight_line(build)


def _intrinsic_module():
    def build(b):
        x = b.sitofp(b.const(7))
        y = b.intrinsic("sqrt", [x])
        z = b.intrinsic("exp", [b.fdiv(y, Constant(F64, 10.0))])
        p = b.intrinsic("pow", [z, y])
        return b.fptosi(b.fadd(p, b.intrinsic("sqrt", [p])))
    return _straight_line(build)


def _call_chain_module(dependent: bool):
    """``main`` calls a callee whose result is an 8-deep fdiv chain, then
    runs 40 dependent fadds either on the call result or on a constant."""
    m = Module()
    slow = m.add_function("slow", F64, [(F64, "x")])
    b = IRBuilder(slow.add_block("entry"))
    v = slow.args[0]
    for _ in range(8):
        v = b.fdiv(v, Constant(F64, 3.0))
    b.ret(v)
    main = m.add_function("main", I32)
    b = IRBuilder(main.add_block("entry"))
    r = b.call(slow, [Constant(F64, 1.0)])
    w = r if dependent else Constant(F64, 2.0)
    for _ in range(40):
        w = b.fadd(w, Constant(F64, 1.0))
    b.ret(b.fptosi(w))
    return m


SQUARE = """
output int out[1];
int sq(int x) { return x * x; }
void main() { out[0] = sq(7); }
"""

SQUARE_LOOP = """
input int data[40];
output int out[1];
int sq(int x) { return x * x; }
int twice(int x) { return sq(x) + sq(x + 1); }
void main() {
    int s = 0;
    for (int i = 0; i < 40; i++) { s += twice(data[i]); }
    out[0] = s;
}
"""

MISPREDICT = """
output int out[1];
void main() {
    int s = 0;
    for (int i = 0; i < 100; i++) {
        if (i % 7 < 3) { s += 1; } else { s += 2; }
    }
    out[0] = s;
}
"""

CACHE_MISSES = """
input int data[512];
output int out[1];
void main() {
    int s = 0;
    for (int i = 0; i < 512; i++) { s += data[i]; }
    out[0] = s;
}
"""


def _full_dup_sum_loop():
    module, _ = build_sum_loop()
    apply_scheme(module, "full_dup")
    return module


SMALL_CASES = {
    "add_chain": (lambda: build_chain(100), None),
    "fadd_chain": (lambda: build_chain(50, "fadd", F64), None),
    "fdiv_chain": (lambda: build_chain(30, "fdiv", F64), None),
    "independent": (lambda: build_independent(200), None),
    "issue_queue": (_issue_queue_module, None),
    "rob": (_rob_module, None),
    "guards": (_guards_module, None),
    "intrinsics": (_intrinsic_module, None),
    "calls_in_loop": (lambda: compile_source(SQUARE_LOOP),
                      {"data": list(range(-20, 20))}),
    "slow_callee": (lambda: _call_chain_module(True), None),
    "mispredict": (lambda: compile_source(MISPREDICT), None),
    "cache_misses": (lambda: compile_source(CACHE_MISSES),
                     {"data": [1] * 512}),
    "sum_loop": (lambda: build_sum_loop()[0], {"src": list(range(16))}),
    "sum_loop_full_dup": (_full_dup_sum_loop, {"src": list(range(16))}),
}


@pytest.mark.parametrize("config", [None, ODD_CONFIG],
                         ids=["table2", "odd_core"])
@pytest.mark.parametrize("case", sorted(SMALL_CASES))
def test_small_modules_match_reference_loop(case, config):
    build, inputs = SMALL_CASES[case]
    _assert_paths_agree(build(), inputs=inputs, config=config)


def test_mispredicting_branch_is_exercised():
    timing = _assert_paths_agree(compile_source(MISPREDICT))
    assert timing.branch_predictor.mispredicts > 0


def test_non_void_call_times_on_both_paths():
    """A call whose result is used: the model used to raise AttributeError
    on the return (it read an attribute nothing defined)."""
    timing = _assert_paths_agree(compile_source(SQUARE))
    assert timing.cycles > 0


def test_long_latency_callee_delays_the_callers_consumer():
    """The call result is ready only when the callee's return operand is, so
    a consumer chain on it cannot overlap the callee's fdiv chain."""
    dependent = _assert_paths_agree(_call_chain_module(True))
    independent = _assert_paths_agree(_call_chain_module(False))
    cfg = SimConfig()
    chain = 8 * cfg.latencies["fdiv"]
    consumers = 40 * cfg.latencies["fadd"]
    assert dependent.cycles >= chain + consumers
    assert independent.cycles < chain + consumers
    assert dependent.cycles - independent.cycles >= chain / 2


@pytest.mark.parametrize("plan", [
    InjectionPlan(cycle=5, bit=0, seed=1),
    InjectionPlan(cycle=40, bit=3, seed=2),
    InjectionPlan(cycle=90, bit=31, seed=3),
    InjectionPlan(cycle=12, bit=0, seed=4, kind="control"),
    InjectionPlan(cycle=60, bit=0, seed=5, kind="control"),
], ids=lambda plan: f"{plan.kind}@{plan.cycle}")
def test_injection_runs_match_reference_loop(plan):
    """An injection run switches to the untracked timed variant at the
    flip; the estimate, and where a trap stops it, stay identical."""
    _assert_paths_agree(_full_dup_sum_loop(), inputs={"src": list(range(16))},
                        injection=plan, guard_mode="detect")


# ---------------------------------------------------------------------------
# Figure 12 kernels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kernels():
    config = replace(CampaignConfig(), snapshot_every=0)
    return {
        (name, scheme): prepare(get_workload(name), scheme, config)
        for name in ("tiff2bw", "h264dec", "g721dec")
        for scheme in SCHEMES
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", ["tiff2bw", "h264dec", "g721dec"])
def test_kernels_match_reference_loop(kernels, name, scheme):
    prepared = kernels[(name, scheme)]
    timing = _assert_paths_agree(prepared.module, inputs=prepared.inputs)
    if name in PINNED_CYCLES:
        assert timing.cycles == PINNED_CYCLES[name][SCHEMES.index(scheme)]


def test_default_timing_run_takes_the_fast_path(kernels, monkeypatch):
    """Non-vacuity: with the default configuration a timing run compiles a
    timed variant and is timed as a fast-path run."""
    monkeypatch.setenv("REPRO_FASTPATH", "1")
    module = build_sum_loop()[0]
    registry = enable_global(True)
    try:
        fast = registry.timer("sim.run.fastpath").count
        reference = registry.timer("sim.run.reference").count
        compiled = registry.counter("sim.compile.modules").snapshot()
        timing = TimingModel()
        result = Interpreter(module, guard_mode="count", timing=timing).run(
            inputs={"src": list(range(16))}
        )
        assert registry.timer("sim.run.fastpath").count == fast + 1
        assert registry.timer("sim.run.reference").count == reference
        assert registry.counter("sim.compile.modules").snapshot() == compiled + 1
    finally:
        reset_global()
    assert result.cycles == timing.cycles > 0


def test_untimed_closures_never_touch_the_timing_model():
    """Only the timed variant's closures read ``I.timing``; trial, golden,
    capture and profiling runs keep their code."""
    module = build_sum_loop()[0]

    def names(cm):
        out = set()
        for cf in cm.functions.values():
            for cb in cf.blocks.values():
                steps = [s for s in cb.code if s is not None]
                steps += [sb[0] for sb in cb.fused if sb is not None]
                steps += [c[0] for c in cb.phi_stages.values()]
                out.update(frozenset(s.__code__.co_names) for s in steps)
        return out

    for track, hooked in ((True, False), (False, False), (False, True)):
        assert all("timing" not in n
                   for n in names(compile_module(module, track, hooked)))
    timed = compile_module(module, False, False, TimingModel().costs)
    assert all("timing" in n for n in names(timed))
