"""Golden-run snapshots, fast-forward restore, and dead-flip triage.

Every injection trial re-simulates the workload from cycle 0, yet everything
before the injection cycle is fault-free and identical to the golden run.
This module removes that redundancy in three stages:

* **Snapshots.**  One instrumented golden run (``prepare`` drives it) captures
  periodic deep copies of the full interpreter state — memory segments, call
  stack and frames, the lazy register-file write log, cycle and guard
  counters — at a configurable cadence.  Each trial then restores the nearest
  snapshot *strictly before* its injection cycle and replays only the delta.
  Restore is bit-invisible by construction: the restored state is exactly the
  state a from-scratch run reaches at that cycle, so results, traps, guard
  statistics, and obs event logs stay byte-identical (differential tests
  enforce this), and campaign cache keys / checkpoint identity are untouched.

* **Dead-flip triage.**  After the deterministic register pick + flip, a
  static next-use/overwrite liveness check (:func:`value_dead_after`) can
  prove the flipped binding will never be read.  Such trials are short-
  circuited straight to Masked via :class:`TriageMasked` — skipping the whole
  post-injection run and the output comparison — which is sound because a
  provably-dead flip leaves execution identical to the golden run (which
  completed, trap-free, within any trial's instruction budget).

* **Golden reconvergence.**  The dynamic counterpart of triage: a live flip
  that is later overwritten leaves a run whose state is the golden run's
  again.  At each stored snapshot boundary after the injection cycle the
  trial compares its state with the stored :class:`Snapshot`
  (:meth:`Snapshot.matches`: resume point, frames, bit-exact frame values,
  stack pointer, memory).  Once the fault has fully landed — no stuck-at
  refire, pending control fault or live stuck binding — equal state means
  the rest of the trial is the golden suffix, so the trial ends as Masked
  via ``TriageMasked("reconverged")``.  Nothing is stored for it beyond the
  snapshots themselves.

Configuration mirrors the fast path's escape hatches:

* ``REPRO_SNAPSHOT=0`` / ``CampaignConfig.snapshot_every=0`` disables
  snapshotting (and with it reconvergence) entirely;
* ``REPRO_SNAPSHOT_EVERY=N`` / ``--snapshot-every N`` sets an explicit
  cadence; the default (:data:`AUTO`) derives one from the golden length;
* ``REPRO_TRIAGE=0`` / ``CampaignConfig.triage=False`` disables triage and
  reconvergence.
"""

from __future__ import annotations

import bisect
import math
import os
import random
from typing import Dict, List, Optional, Tuple

from ..analysis.liveness import LivenessInfo
from ..ir.basicblock import BasicBlock
from ..ir.instructions import Phi
from ..ir.values import Value
from ..obs import trace as trace_mod
from .events import GuardStats
from .memory import SEGMENT_SHIFT, SEGMENT_STRIDE, Memory, Segment
from .regfile import RegisterFile

__all__ = [
    "AUTO",
    "Snapshot",
    "SnapshotRecorder",
    "SnapshotStore",
    "TriageMasked",
    "auto_cadence",
    "resolve_snapshot_every",
    "resolve_triage",
    "value_dead_after",
]

_FALSEY = ("0", "off", "false", "no")

#: sentinel cadence: derive one from the golden instruction count
AUTO = -1

#: auto mode aims for about this many snapshots per golden run
_TARGET_SNAPSHOTS = 32
#: auto mode never snapshots more often than this (amortisation floor)
_MIN_AUTO_EVERY = 1_000
#: auto mode skips runs too short for restore to pay for the capture run
_MIN_AUTO_GOLDEN = 4_000
#: hard cap on stored snapshots (memory bound; cadence is rounded up to fit)
MAX_SNAPSHOTS = 512


class TriageMasked(Exception):
    """Injection proven dead at flip time; the trial is Masked.

    Deliberately *not* a :class:`~repro.sim.events.SimTrap`: trap handlers
    re-time and classify traps, while this is a verdict, not an event — it
    must propagate straight to the campaign layer.  ``reason`` tells the
    campaign which triage path fired: ``"register"`` for dead-flip register
    triage, ``"dead_memory"`` for occupancy-map dead-region hits,
    ``"reconverged"`` for a trial whose state equalled a golden snapshot.
    """

    def __init__(self, reason: str = "register") -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------------
# configuration resolution (mirrors REPRO_FASTPATH / resolve_obs_config)
# ---------------------------------------------------------------------------


def resolve_snapshot_every(value: Optional[int]) -> int:
    """Resolve a config cadence against the environment.

    An explicit config value (0 = off, :data:`AUTO`, or a positive cadence)
    wins; ``None`` falls back to ``REPRO_SNAPSHOT`` (falsey disables) and
    ``REPRO_SNAPSHOT_EVERY`` (explicit cadence), defaulting to :data:`AUTO`.
    """
    if value is not None:
        return value
    if os.environ.get("REPRO_SNAPSHOT", "1").strip().lower() in _FALSEY:
        return 0
    explicit = os.environ.get("REPRO_SNAPSHOT_EVERY", "").strip()
    if explicit:
        try:
            return max(0, int(explicit))
        except ValueError:
            return AUTO
    return AUTO


def resolve_triage(value: Optional[bool]) -> bool:
    """Explicit config wins; else ``REPRO_TRIAGE`` (default on)."""
    if value is not None:
        return bool(value)
    return os.environ.get("REPRO_TRIAGE", "1").strip().lower() not in _FALSEY


def auto_cadence(golden_instructions: int) -> Optional[int]:
    """Snapshot cadence for a golden run of the given length, or None when
    the run is too short for snapshotting to pay off."""
    if golden_instructions < _MIN_AUTO_GOLDEN:
        return None
    return max(_MIN_AUTO_EVERY, golden_instructions // _TARGET_SNAPSHOTS)


# ---------------------------------------------------------------------------
# dead-flip triage
# ---------------------------------------------------------------------------


def value_dead_after(
    liveness: LivenessInfo, block: BasicBlock, next_index: int, value: Value
) -> bool:
    """Will the current binding of ``value`` ever be read again?

    ``next_index`` is the position in ``block`` of the next instruction to
    execute.  The binding is *dead* (returns True) when no instruction from
    ``next_index`` onwards fetches it before it is overwritten:

    * if ``value``'s own definition sits at or after ``next_index`` in this
      block, straight-line execution re-runs it and overwrites the binding —
      only the instructions strictly before that position can read the old
      value, and block-boundary liveness is irrelevant;
    * otherwise the binding survives the block, so it is live iff some later
      instruction in the block uses it or it is live-out of the block
      (live-out folds in successor-phi edge fetches, including self-loops).

    Phi instructions never appear in the scanned range (``next_index`` is
    always past the phi prefix at every injection site) and their edge
    fetches are accounted for via live-out, but they are skipped defensively.
    Only soundness matters here: returning False (live) for a dead value
    costs a full trial run, returning True for a live one would corrupt the
    campaign — so every approximation errs towards live.
    """
    instrs = block.instructions
    limit = len(instrs)
    check_live_out = True
    if getattr(value, "parent", None) is block:
        for pos in range(next_index, limit):
            if instrs[pos] is value:
                # Re-definition ahead in this block: reads can only happen
                # before it, and the overwritten binding cannot be live-out.
                limit = pos
                check_live_out = False
                break
    for pos in range(next_index, limit):
        instr = instrs[pos]
        if instr.__class__ is Phi:
            continue
        for op in instr.operands:
            if op is value:
                return False
    if check_live_out and value in liveness.live_out.get(block, ()):
        return False
    return True


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------


def _copy_segment(seg: Segment) -> Segment:
    """Deep-copy a segment without re-zeroing its backing store."""
    clone = Segment.__new__(Segment)
    clone.name = seg.name
    clone.base = seg.base
    clone.size = seg.size
    clone.data = bytearray(seg.data)
    return clone


def _clone_frame(template, values: Dict) -> object:
    """Instantiate a frame identical to ``template`` with its own ``values``."""
    frame = template.__class__(
        template.function, template.call_instr, template.stack_mark
    )
    frame.values = values
    frame.block = template.block
    frame.prev_block = template.prev_block
    frame.index = template.index
    frame.active = template.active
    frame.ret_cb = template.ret_cb
    frame.ret_idx = template.ret_idx
    frame.ret_has_result = template.ret_has_result
    frame.ret_key = template.ret_key
    return frame


class _LazyRestoredLog(list):
    """Register-file write log seeded from a snapshot, resolved on demand.

    ``Snapshot._install`` used to rebuild the captured log eagerly: one
    fresh ``(frame, producer)`` tuple per captured entry, per trial — paid
    even by trials that never read those entries because enough post-restore
    writes had already pushed them out of the register file.  This subclass
    keeps the captured ``rf_entries`` as an *unresolved prefix*: appends
    land in the real list (the suffix), ``len`` counts both parts, and only
    operations that actually reach into the prefix (full iteration, slices
    or deletes crossing into it) materialize the per-trial tuples.  The two
    hot consumers stay lazy:

    * ``log[start:]`` in ``_materialize_regfile`` skips resolution whenever
      ``start`` lands at or past the prefix — i.e. once writes since the
      restore reach the register-file capacity;
    * ``del log[:drop]`` (the capture-time trim) drops entirely within the
      prefix by slicing the *shared* captured list — no per-trial copy.
    """

    __slots__ = ("_entries", "_frames")

    def __init__(self, rf_entries, frames) -> None:
        list.__init__(self)
        self._entries = rf_entries
        self._frames = frames

    def _pending(self) -> int:
        return len(self._entries) if self._entries is not None else 0

    def _resolve(self) -> None:
        entries = self._entries
        if entries is None:
            return
        frames = self._frames
        self._entries = self._frames = None
        self[:0] = [
            (entry if entry.__class__ is not int else frames[entry], obj)
            for entry, obj in entries
        ]

    def __len__(self) -> int:
        return self._pending() + list.__len__(self)

    def __iter__(self):
        self._resolve()
        return list.__iter__(self)

    def __getitem__(self, key):
        if isinstance(key, slice) and key.step in (None, 1) and \
                key.stop is None:
            start = key.start or 0
            pending = self._pending()
            if start >= pending:
                return list.__getitem__(self, slice(start - pending, None))
        self._resolve()
        return list.__getitem__(self, key)

    def __delitem__(self, key) -> None:
        if isinstance(key, slice) and key.step in (None, 1) and \
                key.start in (None, 0) and isinstance(key.stop, int) \
                and key.stop >= 0:
            pending = self._pending()
            if key.stop >= pending:
                self._entries = self._frames = None
                list.__delitem__(self, slice(0, key.stop - pending))
            else:
                self._entries = self._entries[key.stop:]
            return
        self._resolve()
        list.__delitem__(self, key)


class Snapshot:
    """Deep copy of one fast-path interpreter state at a loop-top boundary.

    ``cycle`` is the number of retired instructions; ``cb``/``idx`` name the
    compiled block and step index to resume at (CompiledBlock objects are
    shared module-level caches, valid in every interpreter of the same
    module).  Register-file history is stored as the lazy write log's tail:
    ``rf_base`` older writes were dropped (they can no longer occupy a slot),
    and each kept entry references either a stack frame by position or a
    shared inactive stub (the frame had already returned — by construction
    nothing ever mutates such a frame).
    """

    __slots__ = (
        "cycle", "cb", "idx", "frames", "frame_values", "rf_entries",
        "rf_base", "segments", "global_index", "global_addr", "next_index",
        "stack_sp", "stack_limit", "guard_evaluations", "guard_failures",
    )

    @classmethod
    def capture(cls, interp, cb, idx: int, cycle: int) -> "Snapshot":
        snap = cls.__new__(cls)
        snap.cycle = cycle
        snap.cb = cb
        snap.idx = idx

        frames = interp._frames
        snap.frames = [_clone_frame(f, {}) for f in frames]
        snap.frame_values = [dict(f.values) for f in frames]

        position = {id(f): i for i, f in enumerate(frames)}
        stubs: Dict[int, object] = {}
        entries: List[Tuple[object, object]] = []
        for frame, obj in interp._rf_log:
            pos = position.get(id(frame))
            if pos is None:
                stub = stubs.get(id(frame))
                if stub is None:
                    stub = _clone_frame(frame, {})
                    stub.active = False
                    stubs[id(frame)] = stub
                entries.append((stub, obj))
            else:
                entries.append((pos, obj))
        snap.rf_entries = entries
        snap.rf_base = interp._rf_base

        memory = interp.memory
        segments: List[Segment] = []
        seen: Dict[int, int] = {}
        for seg in memory._segments.values():
            if id(seg) not in seen:
                seen[id(seg)] = len(segments)
                segments.append(_copy_segment(seg))
        snap.segments = segments
        snap.global_index = [
            (name, seen[id(seg)])
            for name, seg in interp.global_segments.items()
        ]
        snap.global_addr = dict(interp._global_addr)
        snap.next_index = memory._next_index

        snap.stack_sp = interp._stack_sp
        snap.stack_limit = interp._stack_limit
        snap.guard_evaluations = interp.guard_stats.evaluations
        snap.guard_failures = dict(interp.guard_stats.failures_by_guard)
        return snap

    def install(self, interp, injection) -> Tuple[object, int, int]:
        """Load this snapshot into ``interp`` as the state of a pending-
        injection run; returns ``(cb, idx, cycle)`` to resume the loop at.

        Every mutable structure is cloned per trial (trials mutate memory,
        frames, and the write log), so a snapshot can seed any number of
        trials, concurrently across processes and serially within one.
        """
        with trace_mod.current().span(
            "restore", cat="trial", cycles=self.cycle
        ):
            return self._install(interp, injection)

    def _install(self, interp, injection) -> Tuple[object, int, int]:
        frames = [
            _clone_frame(t, dict(v))
            for t, v in zip(self.frames, self.frame_values)
        ]
        interp._frames = frames
        interp._frame = frames[-1]

        memory = Memory()
        segments = [_copy_segment(s) for s in self.segments]
        for seg in segments:
            span = (seg.size + SEGMENT_STRIDE - 1) >> SEGMENT_SHIFT
            start = seg.base >> SEGMENT_SHIFT
            for i in range(start, start + span):
                memory._segments[i] = seg
        memory._next_index = self.next_index
        interp.memory = memory
        interp._mem_locate = memory._locate
        interp._mem_store_locate = memory._locate
        interp.global_segments = {
            name: segments[i] for name, i in self.global_index
        }
        interp._global_addr = dict(self.global_addr)
        interp._stack_sp = self.stack_sp
        interp._stack_limit = self.stack_limit

        interp._rf_log = _LazyRestoredLog(self.rf_entries, frames)
        interp._rf_base = self.rf_base
        interp._regfile = RegisterFile(interp.config.phys_int_registers)
        interp._rng = random.Random(injection.seed)

        interp.cycle = self.cycle
        interp.guard_stats = GuardStats(
            evaluations=self.guard_evaluations,
            failures_by_guard=dict(self.guard_failures),
        )
        interp.injection_record = None
        interp._guard_armed = False
        interp._pending_control_fault = False
        interp._control_fault_fired = False
        interp._ret_value = None
        interp._resume_cb = None
        interp._resume_idx = 0
        interp._sbk = 0
        return self.cb, self.idx, self.cycle

    def matches(self, interp, cb, idx: int) -> bool:
        """Is ``interp``'s loop-top state at ``(cb, idx)`` this snapshot's?

        Called at the snapshot's own cycle.  Cheap fields come first so most
        mismatches return early.  Blocks are compared rather than compiled
        blocks: the snapshot holds the tracked variant, a trial past its
        injection runs the untracked one.  Frame values must be bit-exact
        (:func:`_same_values`).  The register-file log, guard counters and
        lazily synced frame indices are left out: after injection nothing
        reads them except a fault refire, which the caller rules out.
        Memory layout is fixed at set-up (no fault maps or unmaps a
        segment), so equal ``_next_index`` plus every snapshot segment found
        at its base with equal bytes means equal memory.
        """
        if idx != self.idx or cb.block is not self.cb.block:
            return False
        frames = interp._frames
        templates = self.frames
        if len(frames) != len(templates):
            return False
        for frame, t in zip(frames, templates):
            if (
                frame.function is not t.function
                or frame.block is not t.block
                or frame.call_instr is not t.call_instr
                or frame.stack_mark != t.stack_mark
                or frame.ret_idx != t.ret_idx
                or frame.ret_key != t.ret_key
                or frame.ret_has_result != t.ret_has_result
                or getattr(frame.ret_cb, "block", None)
                is not getattr(t.ret_cb, "block", None)
            ):
                return False
        if interp._stack_sp != self.stack_sp or \
                interp._stack_limit != self.stack_limit:
            return False
        for frame, values in zip(frames, self.frame_values):
            if not _same_values(frame.values, values):
                return False
        memory = interp.memory
        if memory._next_index != self.next_index or \
                interp._global_addr != self.global_addr:
            return False
        live = memory._segments
        for seg in self.segments:
            other = live.get(seg.base >> SEGMENT_SHIFT)
            if other is None or other.base != seg.base or \
                    other.data != seg.data:
                return False
        return True


def _same_values(live: Dict, golden: Dict) -> bool:
    """Bit-exact equality of two frame value maps.

    Dict ``==`` already requires the same keys and ``==`` values, but
    ``1 == 1.0`` and ``-0.0 == 0.0`` — so types must match too, and a float
    zero must match in sign.  Equal non-zero floats have equal bit patterns;
    a NaN only compares equal to itself (the identical object), which at
    worst misses an exit.
    """
    if live != golden:
        return False
    for key, value in live.items():
        ref = golden[key]
        if value.__class__ is not ref.__class__:
            return False
        if value.__class__ is float and value == 0.0 and \
                math.copysign(1.0, value) != math.copysign(1.0, ref):
            return False
    return True


class SnapshotStore:
    """Snapshots of one golden run, ordered by cycle."""

    def __init__(self) -> None:
        self.snapshots: List[Snapshot] = []
        self._cycles: List[int] = []

    def add(self, snapshot: Snapshot) -> None:
        self.snapshots.append(snapshot)
        self._cycles.append(snapshot.cycle)

    def __len__(self) -> int:
        return len(self.snapshots)

    def nearest(self, inject_cycle: int) -> Optional[Snapshot]:
        """Latest snapshot strictly before ``inject_cycle``.

        An injection at cycle C fires at the state after C-1 retired
        instructions, so a snapshot taken *at* C is already too late — the
        usable prefix ends at C-1.
        """
        pos = bisect.bisect_right(self._cycles, inject_cycle - 1)
        if pos == 0:
            return None
        return self.snapshots[pos - 1]

    def first_from(self, cycle: int) -> int:
        """Index of the first snapshot taken at or after ``cycle``."""
        return bisect.bisect_left(self._cycles, cycle)


class SnapshotRecorder:
    """Capture hook handed to a golden run (``interp.run(capture=...)``).

    The fast-path loop compares ``next_due`` against the cycle counter at
    each loop top (one integer comparison of overhead) and calls
    :meth:`take` when due.  Snapshots may land a superblock past the nominal
    cadence — harmless, since restore uses the actual stored cycle.
    """

    def __init__(self, every: int, limit: int = MAX_SNAPSHOTS) -> None:
        if every <= 0:
            raise ValueError("snapshot cadence must be positive")
        self.every = every
        self.limit = limit
        self.store = SnapshotStore()
        self.next_due = every

    def take(self, interp, cb, idx: int, cycle: int) -> int:
        """Capture now; returns the next due cycle (huge when full)."""
        with trace_mod.current().span(
            "snapshot.take", cat="prepare", cycle=cycle
        ):
            return self._take(interp, cb, idx, cycle)

    def _take(self, interp, cb, idx: int, cycle: int) -> int:
        log = interp._rf_log
        cap = interp.config.phys_int_registers
        if len(log) > cap:
            # Only the newest `cap` writes can still occupy a register slot;
            # trim the log so capture cost and snapshot size stay bounded.
            drop = len(log) - cap
            interp._rf_base += drop
            del log[:drop]
        self.store.add(Snapshot.capture(interp, cb, idx, cycle))
        if len(self.store) >= self.limit:
            self.next_due = 1 << 62
        else:
            self.next_due = cycle + self.every
        return self.next_due
