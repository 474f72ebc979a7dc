"""Telemetry integration: counters must agree with the event/trace log.

Replays the section 4.3 dynamicity scenario (Display depends on
Calculation's outport) with a customized resolving service that first
rejects and later accepts, then cross-checks every admission counter
against the DRCR event log and every kernel counter against the
structured trace.  Also exercises the CLI surface end to end.
"""

import json
import subprocess
import sys

import pytest

from repro.core import (
    RESOLVING_SERVICE_INTERFACE,
    ComponentEventType,
    ComponentState,
    Decision,
    ResolvingService,
)
from repro.core.lifecycle import state_metric_name
from repro.sim.engine import MSEC

from conftest import deploy, make_descriptor_xml

CALC_XML = make_descriptor_xml(
    "CALC00", cpuusage=0.03, frequency=1000, priority=2,
    outports=[("LATDAT", "RTAI.SHM", "Integer", 4)])
DISP_XML = make_descriptor_xml(
    "DISP00", cpuusage=0.01, frequency=250, priority=3,
    inports=[("LATDAT", "RTAI.SHM", "Integer", 4)])


class GatedResolvingService(ResolvingService):
    """External customized service: vetoes DISP00 until opened."""

    name = "external gate"          # space: exercises sanitisation

    def __init__(self):
        self.open = False

    def admit(self, candidate, view):
        if candidate.name == "DISP00" and not self.open:
            return Decision.no("gate closed")
        return Decision.yes("gate open")


class TestDynamicityScenarioCounters:

    @pytest.fixture
    def scenario(self, platform):
        # the kernel-counter cross-check reads per-job records
        platform.sim.trace.scheduling = True
        gate = GatedResolvingService()
        platform.framework.registry.register(
            RESOLVING_SERVICE_INTERFACE, gate)
        deploy(platform, CALC_XML, "scenario.calc")
        deploy(platform, DISP_XML, "scenario.display")   # gate closed
        platform.run_for(50 * MSEC)
        gate.open = True
        # disable/enable is the management-surface way to force a
        # reconfiguration pass after an external condition changes
        platform.drcr.disable_component("DISP00")
        platform.drcr.enable_component("DISP00")
        platform.run_for(50 * MSEC)
        return platform

    def test_admission_counters_match_event_log(self, scenario):
        drcr = scenario.drcr
        metrics = scenario.telemetry.registry("drcr")
        events = drcr.events

        # the state narrative: display rejected, then admitted
        rejected = events.of_type(ComponentEventType.ADMISSION_REJECTED)
        assert [e.component for e in rejected] == ["DISP00"]
        assert drcr.component_state("DISP00") is ComponentState.ACTIVE

        # every full acceptance increments admissions_total
        assert metrics.get("admissions_total").value == \
            len(events.of_type(ComponentEventType.SATISFIED))
        # events are deduped by reason; counters count every attempt
        assert metrics.get("admission_rejections_total").value >= \
            len(rejected) >= 1
        # each rejection is attributed to the vetoing service
        gate_counter = metrics.get("rejected_by.external_gate")
        assert gate_counter is not None
        assert gate_counter.value == \
            metrics.get("admission_rejections_total").value

    def test_event_counters_match_event_log(self, scenario):
        metrics = scenario.telemetry.registry("drcr")
        for event_type in ComponentEventType:
            counted = metrics.get("events_%s_total" % event_type.value)
            logged = len(scenario.drcr.events.of_type(event_type))
            assert (counted.value if counted else 0) == logged, \
                event_type

    def test_state_gauges_match_registry(self, scenario):
        metrics = scenario.telemetry.registry("drcr")
        for state in ComponentState:
            gauge = metrics.get(state_metric_name(state))
            assert gauge is not None, state
            assert gauge.value == \
                len(scenario.drcr.registry.in_state(state)), state

    def test_kernel_counters_match_trace(self, scenario):
        trace = scenario.sim.trace
        metrics = scenario.telemetry.registry("rtos")
        assert metrics.get("dispatches_total").value == \
            len(trace.by_category("dispatch"))
        assert metrics.get("deadline_misses_total").value == \
            len(trace.by_category("deadline_miss"))
        assert metrics.get("preemptions_total").value == \
            len(trace.by_category("preempt"))
        # every dispatch eventually leaves the CPU
        assert len(trace.by_category("off_cpu")) <= \
            metrics.get("dispatches_total").value
        # the latency histogram saw every periodic release
        assert metrics.get("dispatch_latency_ns").count == \
            metrics.get("releases_total").value

    def test_report_includes_metrics_section(self, scenario):
        from repro.core.inspection import system_report
        report = system_report(scenario.drcr)
        assert "metrics:" in report
        assert "drcr.admissions_total" in report
        assert "metrics" not in system_report(scenario.drcr,
                                              include_metrics=False)


class TestCliSurface:

    def test_trace_and_metrics_flags(self, tmp_path):
        trace_path = tmp_path / "out.json"
        metrics_path = tmp_path / "metrics.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro",
             "--trace", str(trace_path),
             "--metrics", str(metrics_path)],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr

        from repro.telemetry.chrome import validate_chrome_trace
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) > 0
        assert document["otherData"]["metrics"]["rtos"][
            "dispatches_total"]["value"] > 0

        metrics = json.loads(metrics_path.read_text())
        assert metrics["version"] == 1
        assert metrics["enabled"] is True
        assert metrics["subsystems"]["sim"]["events_total"]["value"] > 0

    def test_trace_flag_opts_in_to_scheduling_records(self, tmp_path,
                                                      capsys):
        from repro.__main__ import main
        from repro.telemetry.chrome import validate_chrome_trace
        trace_path = tmp_path / "out.json"
        main(["--seconds", "1", "--trace", str(trace_path)])
        assert "wrote Chrome trace" in capsys.readouterr().out
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) \
            == len(document["traceEvents"])
        slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert slices
        assert {e["name"] for e in document["traceEvents"]
                if e["ph"] == "i"} >= {"dispatch", "off_cpu"}

    def test_no_telemetry_flag(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--no-telemetry",
             "--metrics", str(metrics_path)],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "telemetry disabled" in result.stdout
        metrics = json.loads(metrics_path.read_text())
        assert metrics["enabled"] is False
        assert metrics["subsystems"] == {}
