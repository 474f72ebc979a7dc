"""Chrome trace-event export: golden file, schema validator, live run.

The golden file freezes the exporter's output format for a hand-made
trace (stable against kernel evolution).  Regenerate it after an
*intentional* format change with::

    PYTHONPATH=src python tests/telemetry/test_chrome_trace.py
"""

import json
import pathlib

import pytest

from repro.core.events import ComponentEvent, ComponentEventType
from repro.sim.trace import TraceRecorder
from repro.telemetry.chrome import (
    CATEGORY_GROUPS,
    DRCR_TID,
    chrome_trace_dict,
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.metrics import Telemetry

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_trace.json"


def build_fixture():
    """A hand-made trace exercising every exporter feature: slices
    (incl. an implicit close by re-dispatch and a leftover at the end),
    instants with non-JSON args, and DRCR component events."""
    trace = TraceRecorder()
    trace.record(0, "timer_start", period=1_000_000)
    trace.record(1_000_000, "task_release", task="CALC00", job=0)
    trace.record(1_000_500, "dispatch", task="CALC00", cpu=0)
    trace.record(1_030_000, "preempt",
                 task="CALC00", by="DISP00", cpu=0)
    # re-dispatch on the same CPU closes CALC00's slice implicitly
    trace.record(1_030_500, "dispatch", task="DISP00", cpu=0)
    trace.record(1_090_000, "off_cpu", task="DISP00", cpu=0)
    trace.record(1_090_500, "dispatch", task="CALC00", cpu=0)
    trace.record(1_120_000, "off_cpu", task="CALC00", cpu=0)
    # record without a cpu field: routed to the task's last CPU
    trace.record(1_200_000, "deadline_miss", task="CALC00",
                 lateness=(80_000, "ns"))    # non-JSON arg -> repr()
    # a slice left open at the end of the trace
    trace.record(2_000_000, "dispatch", task="CALC00", cpu=1)
    trace.record(2_500_000, "task_fault", task="CALC00", cpu=1)

    events = [
        ComponentEvent(500_000, ComponentEventType.REGISTERED, "CALC00"),
        ComponentEvent(600_000, ComponentEventType.ADMISSION_REJECTED,
                       "DISP00", reason="utilization cap"),
    ]

    telemetry = Telemetry()
    telemetry.registry("rtos").counter("dispatches_total").inc(3)
    telemetry.registry("rtos").histogram("dispatch_latency_ns",
                                         bounds=(0, 1000)).observe(500)
    return trace, events, telemetry


def test_golden_file():
    trace, events, telemetry = build_fixture()
    document = chrome_trace_dict(trace, events, telemetry)
    golden = json.loads(GOLDEN_PATH.read_text())
    # compare via JSON round-trip so tuples/lists etc. normalise
    assert json.loads(json.dumps(document)) == golden


def test_golden_file_is_valid():
    assert validate_chrome_trace(json.loads(GOLDEN_PATH.read_text())) > 0


def test_slices_measure_task_occupancy():
    trace, events, _ = build_fixture()
    slices = [e for e in chrome_trace_events(trace, events)
              if e["ph"] == "X"]
    by_start = sorted(slices, key=lambda e: e["ts"])
    names = [e["name"] for e in by_start]
    assert names == ["CALC00", "DISP00", "CALC00", "CALC00"]
    # preempted CALC00 slice: dispatch 1_000_500 -> re-dispatch 1_030_500
    assert by_start[0]["ts"] == pytest.approx(1000.5)
    assert by_start[0]["dur"] == pytest.approx(30.0)
    # leftover slice closes at the last trace timestamp
    assert by_start[-1]["ts"] == pytest.approx(2000.0)
    assert by_start[-1]["dur"] == pytest.approx(500.0)


def test_instants_carry_fields_and_categories():
    trace, events, _ = build_fixture()
    instants = [e for e in chrome_trace_events(trace, events)
                if e["ph"] == "i"]
    miss = next(e for e in instants if e["name"] == "deadline_miss")
    assert miss["cat"] == CATEGORY_GROUPS["deadline_miss"]
    assert miss["tid"] == 0          # routed to CALC00's last CPU
    assert isinstance(miss["args"]["lateness"], str)   # repr() fallback
    rejected = next(e for e in instants
                    if e["name"] == "admission_rejected")
    assert rejected["tid"] == DRCR_TID
    assert rejected["args"]["reason"] == "utilization cap"


def test_export_writes_valid_json(tmp_path):
    trace, events, telemetry = build_fixture()
    path = tmp_path / "trace.json"
    document = export_chrome_trace(trace, path, component_events=events,
                                   telemetry=telemetry)
    on_disk = json.loads(path.read_text())
    assert validate_chrome_trace(on_disk) == len(document["traceEvents"])
    assert on_disk["otherData"]["metrics"]["rtos"][
        "dispatches_total"]["value"] == 3


def test_live_platform_export_validates(tmp_path):
    # end-to-end: a real kernel run must produce a schema-valid trace
    from repro.platform import build_platform
    from repro.rtos.requests import Compute, WaitPeriod
    from repro.rtos.task import TaskType

    def body(task):
        while True:
            yield WaitPeriod()
            yield Compute(100_000)

    platform = build_platform(seed=42)
    platform.sim.trace.scheduling = True     # the slices need dispatches
    platform.start_timer(1_000_000)
    task = platform.kernel.create_task(
        "T1", body, 2, task_type=TaskType.PERIODIC,
        period_ns=1_000_000)
    platform.kernel.start_task(task)
    platform.run_for(20_000_000)
    document = platform.export_trace(tmp_path / "live.json")
    assert validate_chrome_trace(
        json.loads((tmp_path / "live.json").read_text())) \
        == len(document["traceEvents"])
    assert any(e["ph"] == "X" for e in document["traceEvents"])


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["traceEvents"].append({"ph": "i"}), "name"),
    (lambda d: d["traceEvents"].append(
        {"name": "x", "ph": "Q", "pid": 0, "tid": 0, "ts": 1}), "phase"),
    (lambda d: d["traceEvents"].append(
        {"name": "x", "ph": "i", "pid": 0, "tid": "a", "ts": 1}), "tid"),
    (lambda d: d["traceEvents"].append(
        {"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": -1}), "ts"),
    (lambda d: d["traceEvents"].append(
        {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1}), "dur"),
    (lambda d: d["traceEvents"].append(
        {"name": "x", "ph": "i", "pid": 0, "tid": 0, "ts": 1,
         "args": []}), "args"),
    (lambda d: d.pop("traceEvents"), "traceEvents"),
])
def test_validator_rejects_malformed_events(mutate, message):
    trace, events, telemetry = build_fixture()
    document = json.loads(json.dumps(
        chrome_trace_dict(trace, events, telemetry)))
    mutate(document)
    with pytest.raises(ValueError, match=message):
        validate_chrome_trace(document)


def test_validator_rejects_non_dict():
    with pytest.raises(ValueError):
        validate_chrome_trace([])


if __name__ == "__main__":          # golden-file regeneration hook
    trace, events, telemetry = build_fixture()
    document = chrome_trace_dict(trace, events, telemetry)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(json.loads(json.dumps(document)), indent=2,
                   sort_keys=True) + "\n")
    print("wrote %s (%d events)" % (GOLDEN_PATH,
                                    len(document["traceEvents"])))
