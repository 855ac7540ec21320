"""Approximate out-of-order timing model.

Consumes the retired instruction stream from the interpreter and estimates
execution cycles for the Table II core: dependence-limited issue with a finite
issue width, a finite reorder buffer, per-opcode latencies, an L1-D cache, and
a branch predictor.

The model is a dataflow lower bound with structural constraints — the standard
"ideal fetch, finite width/ROB" approximation:

* each retired instruction issues no earlier than its operands are ready;
* no more than ``issue_width`` instructions issue per cycle (tracked as a
  monotonic front);
* an instruction cannot issue before the instruction ``rob_entries`` older
  than it has completed (ROB occupancy);
* loads add the miss penalty on an L1-D miss;
* mispredicted conditional branches stall the issue front by the mispredict
  penalty (flush + refill).

Relative runtimes between an original binary and its protected variants are
what the paper's Figure 12 reports, and those are preserved: shadow chains add
issue-bandwidth pressure (mostly hidden by the OoO window), while checks add
compare+branch work on the critical path.

Both execution paths drive the same issue core (:meth:`TimingModel.issue`
and the load/store/branch/jump/return entry points built on it).  The
compiled fast path (:mod:`repro.sim.compiled`) bakes each instruction's
:class:`CostTable` entry, operand ids and result id into its timed step
closures and calls the core directly; the reference loop reports through the
per-instruction ``observe_*`` shims, which resolve the same constants at run
time and serve as the oracle the fast path is tested against.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Tuple

from ..ir.instructions import (
    Br,
    Call,
    CondBr,
    GuardEq,
    GuardRange,
    GuardValues,
    Instruction,
    IntrinsicCall,
    Load,
    Store,
)
from .cache import BranchPredictor, SetAssociativeCache
from .config import SimConfig


class CostTable:
    """Per-instruction ``(issue slots, result latency)``, hashable by content.

    The compiled fast path keys its timed variants on this table, so two
    models with equal latency and slot tables share compiled code.
    """

    __slots__ = ("latencies", "slot_costs", "_key")

    def __init__(self, latencies, slot_costs) -> None:
        self.latencies = dict(latencies)
        self.slot_costs = dict(slot_costs)
        self._key = (tuple(sorted(self.latencies.items())),
                     tuple(sorted(self.slot_costs.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, CostTable) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def of(self, instr: Instruction) -> Tuple[int, int]:
        """Slots and latency of one retirement; a load's latency is its hit
        latency (the miss penalty is added per access)."""
        lat, slot = self.latencies, self.slot_costs
        cls = instr.__class__
        if cls is Load:
            return slot.get("load", 2), lat.get("load", 2)
        if cls is Store:
            # Stores retire through the store buffer; a miss is buffered and
            # does not stall retirement.
            return slot.get("store", 2), 1
        if cls is CondBr or cls is Br:
            return 1, 1
        if cls is Call:
            return slot.get("call", 2), 2
        if cls is IntrinsicCall:
            return slot.get("intrinsic", 4), lat.get(instr.intrinsic, 10)
        # Guards are compare+branch sequences: the branches are highly
        # predictable (they fail essentially never), so latency is 1 but
        # they consume issue bandwidth.
        if cls is GuardEq:
            return slot.get("guard_eq", 2), 1
        if cls is GuardRange:
            return slot.get("guard_range", 4), 1
        if cls is GuardValues:
            key = ("guard_values_1" if len(instr.expected) == 1
                   else "guard_values_2")
            return slot.get(key, 2), 1
        return 1, lat.get(instr.opcode, 1)


class TimingModel:
    """Online cycle estimator attached to an interpreter run."""

    def __init__(self, config: Optional[SimConfig] = None) -> None:
        self.config = config or SimConfig()
        self.dcache = SetAssociativeCache(self.config.l1d)
        self.branch_predictor = BranchPredictor()
        self.costs = CostTable(self.config.latencies, self.config.slot_costs)
        self._width = self.config.issue_width
        self._miss_penalty = self.config.miss_penalty
        self._mispredict_penalty = self.config.mispredict_penalty
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        #: completion time (cycles, float) per live SSA value id
        self.ready: dict = {}
        #: total issue-slot units consumed (the bandwidth floor is slots/width)
        self._slots = 0.0
        #: no micro-op may issue before this time (mispredict flush point)
        self._serial_gate = 0.0
        #: completion times of the last `rob_entries` instructions, and issue
        #: times of the last `issue_queue` micro-ops (scheduler window).  Both
        #: start full of zeros: an empty slot never delays an issue, since
        #: ready times are never negative.
        self._rob: deque = deque([0.0] * cfg.rob_entries)
        self._iq: deque = deque([0.0] * cfg.issue_queue)
        self._last_completion = 0.0
        self.retired = 0
        self.dcache.reset()
        self.branch_predictor.reset()

    # -- the issue core (called directly by compiled timed closures) ----------

    def issue(self, ready: float, slots: int, latency) -> float:
        """Issue a micro-op no earlier than ``ready``; returns completion time.

        The issue time is the max of four constraints:

        * operand readiness (``ready``),
        * the ROB (cannot issue before the micro-op ``rob_entries`` older
          completed) and the scheduler window (cannot issue before the
          micro-op ``issue_queue`` older issued),
        * the serial gate left behind by the last mispredict flush,
        * the aggregate bandwidth floor (total slots so far / issue width) —
          out-of-order back-filling of stall gaps is allowed, but total
          throughput never exceeds the width.
        """
        x = self._rob.popleft()
        if x > ready:
            ready = x
        x = self._iq.popleft()
        if x > ready:
            ready = x
        x = self._serial_gate
        if x > ready:
            ready = x
        x = self._slots / self._width
        if x > ready:
            ready = x
        self._slots += slots
        done = ready + latency
        self._iq.append(ready)
        self._rob.append(done)
        if done > self._last_completion:
            self._last_completion = done
        self.retired += 1
        return done

    def load(self, ready: float, address: int, slots: int, latency) -> float:
        if not self.dcache.access(address):
            latency += self._miss_penalty
        return self.issue(ready, slots, latency)

    def store(self, ready: float, address: int, slots: int) -> None:
        # A store miss still occupies the cache.
        self.dcache.access(address)
        self.issue(ready, slots, 1)

    def branch(self, ready: float, key: int, taken) -> None:
        done = self.issue(ready, 1, 1)
        if not self.branch_predictor.predict_and_update(key, taken):
            # Flush: nothing issues until the branch resolves + refill delay,
            # and the bandwidth of those dead cycles is destroyed.
            stall_until = done + self._mispredict_penalty
            if stall_until > self._serial_gate:
                self._serial_gate = stall_until
            floor_slots = stall_until * self._width
            if floor_slots > self._slots:
                self._slots = floor_slots
        elif taken:
            self._end_fetch_group()

    def jump(self) -> None:
        """Unconditional branch: 1 slot, and it ends the fetch group."""
        self.issue(0.0, 1, 1)
        self._end_fetch_group()

    def _end_fetch_group(self) -> None:
        """A taken branch ends the fetch group on a narrow front end: the
        rest of the current fetch cycle's slots are wasted.  This keeps tight
        loops throughput-bound, so duplicated work cannot hide entirely in
        front-end slack."""
        width = self._width
        self._slots = math.ceil(self._slots / width) * width

    def returned(self, call_key: int, value_ready: float) -> None:
        """A non-void call's result becomes ready once the callee's return
        operand is (never earlier than a previous return of the same call)."""
        ready = self.ready
        current = ready.get(call_key, 0.0)
        ready[call_key] = value_ready if value_ready > current else current

    # -- per-instruction shims (called by the reference loop) ------------------

    def _operands_ready(self, instr: Instruction) -> float:
        ready = 0.0
        get = self.ready.get
        for op in instr.operands:
            t = get(id(op))
            if t is not None and t > ready:
                ready = t
        return ready

    def observe(self, instr: Instruction) -> None:
        """Plain ALU/cast/compare/intrinsic/alloca retirement."""
        slots, latency = self.costs.of(instr)
        done = self.issue(self._operands_ready(instr), slots, latency)
        if instr.has_result:
            self.ready[id(instr)] = done

    def observe_load(self, instr: Load, address: int) -> None:
        slots, latency = self.costs.of(instr)
        self.ready[id(instr)] = self.load(
            self._operands_ready(instr), address, slots, latency
        )

    def observe_store(self, instr: Store, address: int) -> None:
        self.store(self._operands_ready(instr), address, self.costs.of(instr)[0])

    def observe_branch(self, instr: CondBr, taken: bool) -> None:
        self.branch(self._operands_ready(instr), id(instr), taken)

    def observe_jump(self, instr) -> None:
        self.jump()

    def observe_guard(self, instr) -> None:
        slots, latency = self.costs.of(instr)
        self.issue(self._operands_ready(instr), slots, latency)

    def observe_call(self, instr: Call) -> None:
        slots, latency = self.costs.of(instr)
        self.issue(self._operands_ready(instr), slots, latency)

    def observe_return(self, call_instr: Optional[Call],
                       ret_value_ready: float = 0.0) -> None:
        if call_instr is not None and call_instr.has_result:
            self.returned(id(call_instr), ret_value_ready)

    def value_ready_time(self, value) -> float:
        return self.ready.get(id(value), 0.0)

    def observe_phi(self, phi: Instruction, chosen_value) -> None:
        """Phis are resolved at register rename: zero issue cost, and the phi
        result becomes ready when the *selected* incoming value is."""
        self.ready[id(phi)] = self.ready.get(id(chosen_value), 0.0)

    # -- results ----------------------------------------------------------------------

    @property
    def cycles(self) -> float:
        """Total estimated cycles for everything observed so far."""
        return max(
            self._slots / self._width,
            self._last_completion,
            self._serial_gate,
        )
