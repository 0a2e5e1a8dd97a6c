"""Tests for the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest figbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
import spans

sys.path.insert(0, run.SRC)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    outer = recorder.open("exec.execute_task")
    clock.now = 1.0
    child = recorder.open("backends.evaluate")
    clock.now = 2.0
    grandchild = recorder.open("san.run")
    clock.now = 5.0
    recorder.close(grandchild)
    clock.now = 6.0
    recorder.close(child)
    clock.now = 7.0
    second = recorder.open("backends.cache_put")
    clock.now = 8.0
    recorder.close(second)
    clock.now = 10.0
    recorder.close(outer)

    assert recorder.self_times() == [10.0 - 5.0 - 1.0, 5.0 - 3.0, 3.0, 1.0]
    totals = recorder.totals()
    assert totals["exec.execute_task"]["total_s"] == 10.0
    assert totals["exec.execute_task"]["self_s"] == 4.0
    assert totals["backends.evaluate"]["self_s"] == 2.0
    assert [s.parent for s in recorder.spans] == [None, 0, 1, 0]


def test_fsync_is_charged_to_the_innermost_open_span():
    recorder = spans.SpanRecorder()
    recorder.count_fsync()
    with recorder.span("exec.queue_submit"):
        recorder.count_fsync()
        with recorder.span("backends.cache_put"):
            recorder.count_fsync()
            recorder.count_fsync()
    totals = recorder.totals()
    assert recorder.unattributed_fsyncs == 1
    assert totals["exec.queue_submit"]["fsyncs"] == 1
    assert totals["backends.cache_put"]["fsyncs"] == 2


def test_operations_come_from_arguments_parents_and_scope():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    recorder.scope = "fig4a@0"

    def execute(task):
        clock.now += 1.0
        with recorder.span("backends.evaluate"):
            clock.now += 2.0

    class Task:
        index = 3

    wrapped = recorder.wrap(execute, "exec.execute_task", lambda task: task.index)
    with recorder.span("experiments.run_sweep"):
        wrapped(Task())
    assert [s.op for s in recorder.spans] == ["fig4a@0", "fig4a@0#3", "fig4a@0#3"]
    assert recorder.op_durations(point_ops=True) == {"fig4a@0#3": 3.0}
    assert recorder.op_durations(point_ops=False) == {"fig4a@0": 3.0}


def test_generator_spans_take_the_operation_of_their_item():
    clock = FakeClock()
    recorder = spans.SpanRecorder(clock)
    recorder.scope = "fig5@0"

    class Result:
        def __init__(self, index):
            self.index = index

    def drain():
        for index in (0, 1):
            clock.now += 1.0
            with recorder.span("exec.task_decode"):
                clock.now += 1.0
            yield Result(index)

    wrapped = recorder.wrap_generator(
        drain, "exec.queue_drain", lambda item: item.index
    )
    assert [r.index for r in wrapped()] == [0, 1]
    names_ops = [(s.name, s.op) for s in recorder.spans]
    assert names_ops == [
        ("exec.queue_drain", "fig5@0#0"), ("exec.task_decode", "fig5@0#0"),
        ("exec.queue_drain", "fig5@0#1"), ("exec.task_decode", "fig5@0#1"),
        ("exec.queue_drain", "fig5@0"),
    ]
    assert recorder.totals()["exec.queue_drain"]["self_s"] == 2.0


def test_instrument_restores_every_original():
    import os as os_module

    from repro.exec import task
    from repro.exec.task import EvaluationTask
    from repro.san.simulator import Simulator

    before = (
        task.execute_task, vars(EvaluationTask)["from_json_dict"],
        vars(Simulator)["run"], os_module.fsync,
    )
    with spans.instrument(spans.SpanRecorder()):
        assert task.execute_task is not before[0]
        assert isinstance(vars(EvaluationTask)["from_json_dict"], classmethod)
    after = (
        task.execute_task, vars(EvaluationTask)["from_json_dict"],
        vars(Simulator)["run"], os_module.fsync,
    )
    assert after == before


@pytest.mark.parametrize(
    "count, expected",
    [
        (1, 50.0), (19, 50.0), (20, 50.0), (40, 75.0), (60, 75.0),
        (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(1, count + 1)]
    percentile, value = run.tail_percentile(samples)
    assert percentile == expected
    beyond = sum(1 for sample in samples if sample > value)
    assert beyond >= 10 or percentile == 50.0
    assert value == samples[max(1, -(-round(percentile * 100) * count // 10000)) - 1]


def test_tail_is_taken_on_sorted_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 8  # 40 samples: the 75th is the tail
    assert run.tail_percentile(samples) == (75.0, 4.0)


def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


@pytest.mark.parametrize("workload", ["fig4a-cold", "fig4a-warm", "queue-analytical"])
@pytest.mark.parametrize("trace", [False, True])
def test_one_point_smoke_run(workload, trace):
    result = run.measure(
        workload, seed=0, seconds=0.0, trace=trace, setup_repeats=1,
        max_points=1, out=lambda line: None,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    if trace and workload != "fig4a-cold":
        assert result["metrics"]["san.run_calls"]["value"] == 0
