"""Tests of the benchmark's own harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import types
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
import unit  # noqa: E402
from workloads import SPECS  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- wrappers --------------------------------------------------------------


def test_wrappers_time_calls_and_restore_originals():
    home = types.ModuleType("home")
    user = types.ModuleType("user")

    def work(x):
        return x + 1

    home.work = user.work = work

    class Thing:
        def method(self, x):
            return home.work(x) * 2

    original_method = Thing.__dict__["method"]
    clock = harness.LayerClock()
    with harness.Patches(clock) as patches:
        patches.function([home, user], home, "work", "work", "layer.a")
        patches.method(Thing, "method", "method", "layer.b")
        assert home.work is not work and user.work is home.work
        assert Thing().method(1) == 4
    assert home.work is work and user.work is work
    assert Thing.__dict__["method"] is original_method
    assert clock.label_calls == {"work": 1, "method": 1}
    assert set(clock.layer_self) == {"layer.a", "layer.b"}


def test_wrappers_pop_their_frame_when_the_call_raises():
    owner = types.ModuleType("owner")

    def boom():
        raise KeyError("x")

    owner.boom = boom
    clock = harness.LayerClock()
    clock.start()
    with harness.Patches(clock) as patches:
        patches.function([owner], owner, "boom", "boom", "layer")
        with pytest.raises(KeyError):
            owner.boom()
    clock.stop()  # raises if a frame leaked
    assert owner.boom is boom


def test_program_wrappers_restore_every_original():
    prog = unit.Program(ROOT)

    def attributes():
        seen = {}
        for module in prog.modules():
            for name, value in vars(module).items():
                if callable(value):
                    seen[(module.__name__, name)] = value
        for cls in (prog.base.Workload, prog.diskcache.CampaignCache,
                    prog.runner.ExperimentCache, prog.snapshot.Snapshot,
                    prog.snapshot.SnapshotRecorder,
                    prog.memfaults.OccupancyRecorder, prog.trace.Tracer):
            for name, value in vars(cls).items():
                seen[(cls.__qualname__, name)] = value
        return seen

    before = attributes()
    patches = unit.install(prog, harness.LayerClock(), unit.Delivery(),
                           traced=True, prepared=[])
    assert prog.campaign.prepare is not before[
        ("repro.faultinjection.campaign", "prepare")]
    patches.restore()
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


# -- layer table -----------------------------------------------------------


def test_layer_table_adds_up_to_the_wall_time():
    fake = FakeClock()
    clock = harness.LayerClock(fake)
    clock.start()
    fake.now = 1.0
    clock.push("outer", "faultinjection")
    fake.now = 2.0
    clock.push("inner", "sim")
    fake.now = 5.0
    clock.pop()
    fake.now = 5.5
    clock.pop()
    fake.now = 7.0
    assert clock.stop() == 7.0
    rows = {layer: (s, share) for layer, s, share in clock.table()}
    assert rows["sim"][0] == pytest.approx(3.0)
    assert rows["faultinjection"][0] == pytest.approx(1.5)
    assert rows["unattributed"][0] == pytest.approx(2.5)
    assert sum(share for _, share in rows.values()) == pytest.approx(1.0)
    assert clock.items == [("outer", 4.5)]


# -- metric names ----------------------------------------------------------


def _fake_program():
    class Registry:
        def counter(self, name):
            return SimpleNamespace(value=0)

    return SimpleNamespace(
        trace=SimpleNamespace(
            current=lambda: SimpleNamespace(enabled=False),
            load_trace=lambda path: {"traceEvents": []},
        ),
        metrics=SimpleNamespace(global_registry=Registry),
    )


def test_every_metric_name_is_valid_and_declared():
    bench = _bench()
    for group in ("end_to_end", "per_layer"):
        for metric in bench[group]:
            assert harness.METRIC_NAME.match(metric["name"]), metric["name"]
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in bench[g]]
    assert len(names) == len(set(names))

    clock = harness.LayerClock()
    clock.start()
    clock.stop()
    produced = set(unit.layer_metrics(_fake_program(), clock, "", []))
    plain = {"wall_s": 1.0, "items": [("prepare", 1.0)]}
    produced |= set(run.overhead(plain, plain)) | set(run.warm_metrics(None))
    assert produced == {m["name"] for m in bench["per_layer"]}

    doc = {"gaps_ms": [1.0] * 50, "wall_s": 1.0, "run_s": 1.0,
           "peak_rss_mb": 1.0}
    produced = set(run.unit_metrics(doc)) | {"setup_s", "ok_frac"}
    assert {m["name"] for m in bench["end_to_end"]} <= produced


def test_benchmark_json_names_every_workload():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == list(SPECS)
    assert all(w["why"] == SPECS[w["name"]].why for w in bench["workloads"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- statistics ------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (3000, 99.0), (1000, 99.0), (999, 98.9), (900, 98.8), (780, 98.7),
    (100, 90.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_tail_percentile_is_the_highest_such_percentile():
    for count in range(20, 3000, 7):
        pct = harness.tail_percentile(count)
        assert count * (100.0 - pct) / 100.0 >= 10.0 - 1e-9
        if pct < 99.0:
            assert count * (100.0 - (pct + 0.1)) / 100.0 < 10.0


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.9, 7.0]
    assert harness.quartiles(values) == tuple(
        statistics.quantiles(values, n=4)
    )
    assert harness.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


# -- correctness gate ------------------------------------------------------


def _records():
    return [
        {"outcome": "Masked", "cycle": 10, "bit": 3, "fidelity": None},
        {"outcome": "USDC", "cycle": 20, "bit": 7, "fidelity": 12.5},
    ]


def test_digest_changes_with_any_trial_field():
    records = _records()
    digest = harness.records_digest(records)
    assert harness.records_digest(_records()) == digest
    records[1]["fidelity"] = 12.25
    assert harness.records_digest(records) != digest
    assert harness.records_digest(list(reversed(_records()))) != digest


def _doc(digest, label="kmeans/dup_valchk/single_bit"):
    return {
        "mode": "unit",
        "campaigns": {label: {
            "digest": digest, "trials": SPECS["trials_regfile"].trials,
            "quarantined": 0, "golden_instructions": 5, "counts": {},
        }},
        "errors": {}, "scratch_mismatches": {label: []},
    }


def test_check_fails_a_campaign_whose_digest_changed():
    spec = SPECS["trials_regfile"]
    label = "kmeans/dup_valchk/single_bit"
    good = harness.records_digest(_records())
    expected = {"digests": {"7": {spec.name: {label: good}}}}
    attempted, failed, problems = run.check(spec, 7, [_doc(good)], {},
                                            expected)
    assert (attempted, failed, problems) == (1, [], [])

    changed = _records()
    changed[0]["outcome"] = "SWDetect"
    bad = harness.records_digest(changed)
    attempted, failed, problems = run.check(spec, 7, [_doc(bad)], {},
                                            expected)
    assert failed == [label] and problems
    # a seed without stored digests still compares against the reference
    attempted, failed, _ = run.check(spec, 8, [_doc(bad)], {label: good},
                                     expected)
    assert failed == [label]


def test_check_fails_quarantined_and_scratch_mismatched_campaigns():
    spec = SPECS["trials_regfile"]
    label = "kmeans/dup_valchk/single_bit"
    doc = _doc("d")
    doc["campaigns"][label]["quarantined"] = 1
    assert run.check(spec, 7, [doc], {}, {})[1] == [label]
    doc = _doc("d")
    doc["scratch_mismatches"][label] = [4]
    assert run.check(spec, 7, [doc], {}, {})[1] == [label]
    doc = _doc("d")
    doc["error"] = "Traceback"
    assert run.check(spec, 7, [doc], {}, {})[1] == [label]
