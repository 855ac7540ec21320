"""Measurement helpers of the benchmark: no import of the program under test.

* :class:`LayerClock` — a stack of timed frames.  Every wrapped call is one
  frame tagged with a *label* (the wrapped function) and a *layer* (the
  program module it belongs to).  A frame's self time is its duration minus
  the durations of the frames nested directly inside it, so the self times
  of all layers plus the clock's ``unattributed`` remainder add up to the
  measured wall time exactly.
* :class:`Patches` — installs timing wrappers around functions and methods
  and puts every original back on :meth:`Patches.restore`.
* percentile / quartile helpers and the result digests.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import statistics
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int, highest: float = 99.0) -> Optional[float]:
    """Highest percentile, at most ``highest`` and on a 0.1 grid, that
    leaves at least ten of ``count`` samples beyond it; None when even the
    median does not (fewer than 20 samples)."""
    if count < 20:
        return None
    pct = math.floor(1000.0 * (1.0 - 10.0 / count)) / 10.0
    return min(highest, pct)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def records_digest(records: Iterable[Dict]) -> str:
    """sha256 over per-trial records, in the order given (plan order)."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True, separators=(",", ":"))
                 .encode())
        h.update(b"\n")
    return h.hexdigest()


def digest_mismatches(observed: Dict[str, str],
                      expected: Optional[Dict[str, str]]) -> List[str]:
    """Campaign labels whose digest differs from the stored one.

    ``expected`` None means nothing is stored for this seed: no mismatch.
    A campaign missing on either side counts as a mismatch.
    """
    if expected is None:
        return []
    labels = set(observed) | set(expected)
    return sorted(k for k in labels if observed.get(k) != expected.get(k))


# ---------------------------------------------------------------------------
# layer clock
# ---------------------------------------------------------------------------


class LayerClock:
    """Self and inclusive time per wrapped call, nested as the calls nest.

    Single-threaded by design: the benchmark runs campaigns with ``jobs=1``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stack: List[List] = []  # [label, layer, start, child_seconds]
        self.layer_self: Dict[str, float] = {}
        self.layer_calls: Dict[str, int] = {}
        self.label_total: Dict[str, float] = {}
        self.label_calls: Dict[str, int] = {}
        #: ``(label, seconds)`` of every outermost call, in call order
        self.items: List[Tuple[str, float]] = []
        self._wall_start: Optional[float] = None
        self.wall = 0.0

    def start(self) -> None:
        self._wall_start = self._clock()

    def stop(self) -> float:
        if self._stack:
            raise RuntimeError("layer clock stopped inside a wrapped call")
        self.wall = self._clock() - self._wall_start
        return self.wall

    def push(self, label: str, layer: str) -> None:
        self._stack.append([label, layer, self._clock(), 0.0])

    def pop(self) -> float:
        label, layer, start, child = self._stack.pop()
        duration = self._clock() - start
        self.layer_self[layer] = (
            self.layer_self.get(layer, 0.0) + duration - child
        )
        self.layer_calls[layer] = self.layer_calls.get(layer, 0) + 1
        self.label_total[label] = self.label_total.get(label, 0.0) + duration
        self.label_calls[label] = self.label_calls.get(label, 0) + 1
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.items.append((label, duration))
        return duration

    def table(self) -> List[Tuple[str, float, float]]:
        """``(layer, self seconds, share of wall)`` rows, largest first,
        closed by an ``unattributed`` row so the shares add up to 1."""
        wall = self.wall or 1e-12
        rows = sorted(self.layer_self.items(), key=lambda kv: -kv[1])
        attributed = sum(s for _, s in rows)
        rows.append(("unattributed", self.wall - attributed))
        return [(layer, s, s / wall) for layer, s in rows]


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _timed(original, clock: LayerClock, label: str, layer,
           before=None, after=None):
    """``original`` wrapped in one clock frame.  ``layer`` is a name or a
    ``(args, kwargs) -> name`` picker; ``before(args, kwargs)`` runs first
    and ``after(result, seconds)`` sees each successful call."""
    pick = layer if callable(layer) else None

    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        clock.push(label, pick(args, kwargs) if pick else layer)
        try:
            result = original(*args, **kwargs)
        except BaseException:
            clock.pop()
            raise
        seconds = clock.pop()
        if after is not None:
            after(result, seconds)
        return result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", label)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


class Patches:
    """Timing wrappers installed over the program's public functions.

    :meth:`function` replaces a module-level function in *every* loaded
    module that bound it by name (``from x import f`` copies the reference),
    :meth:`method` replaces one class attribute; :meth:`restore` puts every
    original back, in reverse order.
    """

    def __init__(self, clock: LayerClock) -> None:
        self.clock = clock
        self._saved: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, modules: Iterable[object], owner, name: str,
                 label: str, layer, **hooks) -> None:
        original = getattr(owner, name)
        wrapper = _timed(original, self.clock, label, layer, **hooks)
        for module in modules:
            if module.__dict__.get(name) is original:
                self._set(module, name, wrapper)

    def method(self, cls, name: str, label: str, layer, **hooks) -> None:
        original = cls.__dict__[name]
        self._set(cls, name,
                  _timed(original, self.clock, label, layer, **hooks))

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
