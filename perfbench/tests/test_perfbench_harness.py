"""Tests of the benchmark's own arithmetic and checks.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from harness.calibrate import REFERENCE_S, Calibrator  # noqa: E402
from harness.layers import PROBES, metric_units  # noqa: E402
from harness.stats import quartile_spread, tail  # noqa: E402
from harness.trace import Span, Tracer, install, restore, self_times  # noqa: E402
from harness.verify import (  # noqa: E402
    Reference,
    VerificationError,
    check_constraints,
    check_schedule,
)


# -- tail percentile ----------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    t = tail([float(i) for i in range(100)])
    assert (t.value, t.percentile, t.beyond, t.samples) == (89.0, 90.0, 10, 100)
    assert t.label() == "p90 (10 samples beyond, n=100)"


def test_tail_is_order_independent_and_counts_the_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 8  # n = 40
    t = tail(values)
    assert t.samples == 40 and t.beyond == 10
    assert t.percentile == 100.0 * 30 / 40
    assert sum(1 for v in sorted(values)[30:]) == 10
    assert t.value == sorted(values)[29]


def test_tail_at_the_smallest_sample_with_ten_beyond():
    t = tail([float(i) for i in range(21)])
    assert (t.value, t.beyond) == (10.0, 10)
    assert t.percentile == pytest.approx(100 * 11 / 21)


def test_small_samples_keep_the_tail_at_or_above_the_median():
    t = tail([float(i) for i in range(20)])
    assert (t.value, t.percentile, t.beyond) == (10.0, 55.0, 9)
    t = tail([float(i) for i in range(11)])
    assert (t.value, t.beyond, t.percentile) == (5.0, 5, pytest.approx(600 / 11))
    t = tail([4.0, 1.0, 3.0, 2.0])
    assert (t.value, t.percentile, t.beyond, t.samples) == (3.0, 75.0, 1, 4)
    t = tail([7.0])
    assert (t.value, t.percentile, t.beyond) == (7.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles(values, n=4) -> [2.75, 5.5, 8.25]
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# -- host-speed scaling --------------------------------------------------


def test_scaling_subtracts_inner_walks_and_uses_the_walks_around_the_sample():
    cal = Calibrator()
    # walks at t = 0, 1, 2, 3, 4 taking 1, 2, 2, 2, 5 reference units
    cal.starts = [0.0, 1.0, 2.0, 3.0, 4.0]
    cal.durations = [REFERENCE_S * k for k in (1, 2, 2, 2, 5)]
    # the sample [0.5, 3.5] contains the walks at 1, 2 and 3
    assert cal.net(0.5, 3.0) == pytest.approx(3.0 - 6 * REFERENCE_S)
    # ... and is scaled by the mean of those and their neighbours (at 0 and 4)
    expected = (3.0 - 6 * REFERENCE_S) / ((1 + 2 + 2 + 2 + 5) / 5)
    assert cal.scale(0.5, 3.0) == pytest.approx(expected)
    # a sample between two walks takes their mean and loses nothing
    assert cal.net(1.2, 0.5) == 0.5
    assert cal.scale(1.2, 0.5) == pytest.approx(0.5 / 2)


def test_sampling_walks_while_the_body_runs():
    import time

    cal = Calibrator()
    with cal.sampling():
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            pass
    # one walk on entry, one on exit, and one per period in between
    assert len(cal.durations) >= 3
    assert cal.starts == sorted(cal.starts)


# -- spans and self time ------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_wrapped_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    traced_middle = tracer.wrap("middle", middle)
    with tracer.span("request", request=7):
        clock.now += 0.25
        traced_middle()

    s = tracer.summary()
    assert s["leaf"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    assert s["middle"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
    assert s["request"] == {"calls": 1, "total_s": 5.75, "self_s": 0.25}
    spans = tracer.spans()
    assert [sp.name for sp in spans] == ["request", "middle", "leaf", "leaf"]
    assert [sp.parent for sp in spans] == [-1, 0, 1, 1]
    assert {sp.request for sp in spans} == {7}
    assert tracer.durations("leaf") == [2.0, 2.0]
    assert tracer.count_under(["middle"], "middle", "leaf") == 2


def test_self_time_from_a_span_list():
    spans = [
        Span("request", 0.0, 10.0, -1, 0),
        Span("solve", 1.0, 4.0, 0, 0),
        Span("solve", 5.0, 9.0, 0, 0),
        Span("delta", 2.0, 3.5, 1, 0),
        Span("delta", 6.0, 6.5, 2, 0),
        Span("delta", 7.0, 8.0, 2, 0),
    ]
    s = self_times(spans)
    assert s["request"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert s["solve"] == {"calls": 2, "total_s": 7.0, "self_s": 4.0}
    assert s["delta"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    total_self = sum(agg["self_s"] for agg in s.values())
    assert total_self == pytest.approx(10.0)


def test_excluded_walks_leave_the_span_they_interrupted():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.now += 1.0
        tracer.exclude(clock.now, 0.25)  # as if a walk ran here
        clock.now += 0.25 + 1.0

    traced = tracer.wrap("work", work)
    with tracer.span("request", request=0):
        traced()
        tracer.exclude(clock.now + 1.0, 0.5)  # after "work" closed
        clock.now += 2.0
    s = tracer.summary()
    assert s["work"]["self_s"] == pytest.approx(2.0)
    assert s["request"]["self_s"] == pytest.approx(1.5)
    assert s["calibrate"] == {"calls": 2, "total_s": 0.75, "self_s": 0.75}


def test_failed_call_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("boom", boom)()
    with tracer.span("after"):
        clock.now += 1.0
    spans = tracer.spans()
    assert [sp.parent for sp in spans] == [-1, -1]
    assert tracer.summary()["boom"]["total_s"] == 1.0


def test_every_probe_resolves_and_restores():
    import importlib

    tracer = Tracer()
    patches = install(tracer, PROBES)
    try:
        assert len(patches) == len(PROBES)
        originals = [orig for _, _, orig in patches]
    finally:
        restore(patches)
    for probe, original in zip(PROBES, originals):
        module, _, path = probe.target.partition(":")
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
        assert obj is original


def test_benchmark_json_lists_every_reported_metric():
    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metric_units()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.E2E_UNITS


# -- output verification ------------------------------------------------


@pytest.fixture(scope="module")
def solved():
    from repro.baselines import heft
    from repro.workloads import presets

    w = presets.small_workload(seed=3)
    res = heft(w, "nic")
    return w, res


def test_verification_accepts_a_returned_schedule(solved):
    from repro.schedule.backend import make_simulator, plain_schedule

    w, res = solved
    check_schedule(w, "nic", res.string.order, res.string.machines, res.makespan)
    sim = make_simulator(w, "nic")
    check_constraints(w, plain_schedule(sim.evaluate(res.string)))


def test_verification_rejects_a_wrong_makespan(solved):
    w, res = solved
    with pytest.raises(VerificationError, match="re-simulates"):
        check_schedule(
            w, "nic", res.string.order, res.string.machines, res.makespan * 0.99
        )


def test_verification_rejects_a_corrupted_schedule(solved):
    from dataclasses import replace

    from repro.schedule.backend import make_simulator, plain_schedule

    w, res = solved
    schedule = plain_schedule(make_simulator(w, "nic").evaluate(res.string))
    # start a consumer at time zero, before its input item can arrive
    last = w.graph.data_items[0].consumer
    start = list(schedule.start)
    finish = list(schedule.finish)
    finish[last] -= start[last]
    start[last] = 0.0
    corrupted = replace(schedule, start=tuple(start), finish=tuple(finish))
    with pytest.raises(VerificationError, match="violates"):
        check_constraints(w, corrupted)
    with pytest.raises(VerificationError):
        check_schedule(
            w, "nic", res.string.order, res.string.machines, res.makespan,
            schedule=corrupted,
        )


def test_verification_rejects_a_string_that_breaks_precedence(solved):
    w, res = solved
    order = list(reversed(res.string.order))
    with pytest.raises(VerificationError):
        check_schedule(w, "nic", order, res.string.machines, res.makespan)


def test_reference_mismatch_is_reported(tmp_path):
    path = tmp_path / "ref.json"
    rec = Reference(path, recording=True)
    rec.check("w", "k", {"best_makespan": 1.5, "evaluations": 10})
    rec.save()
    ref = Reference(path)
    ref.check("w", "k", {"best_makespan": 1.5, "evaluations": 10})
    with pytest.raises(VerificationError, match="evaluations"):
        ref.check("w", "k", {"best_makespan": 1.5, "evaluations": 11})
    with pytest.raises(VerificationError, match="no reference"):
        ref.check("w", "other", {})
