"""Self-tests of the benchmark's per-layer attribution.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The sensitivity test patches one extra kernel call into
``RTKernel._do_resched`` at run time (``src/`` is not edited) and checks
that the per-layer counts see exactly that call on ``node_steady`` and
nothing of it on the workloads that should not move.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from measure import HostClock, LayerProfile, SpanRecorder  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402

from repro.rtos.kernel import RTKernel  # noqa: E402


#: Per-layer metrics read off the host clock besides the
#: ``*.self_share`` ones (everything else is a count or a
#: simulated-time figure and must repeat exactly).
HOST_TIMED = {
    "osgi.lookup_p50_us", "osgi.lookup_tail_us", "core.deploy_p50_ms",
    "core.undeploy_p50_ms", "lint.check_deploy_p50_ms",
    "lint.check_deploy_tail_ms", "cluster.deploy_self_p50_ms",
    "trace.overhead_ratio"}


def _traced(workload, seed=3):
    """One traced round: ``(per-layer metrics, layer call counts)``."""
    profile = LayerProfile()
    recorder = SpanRecorder()
    measured = run.run_round(SCENARIOS[workload], seed, recorder,
                             HostClock(), profile)
    profile.fold()
    assert measured["problems"] == []
    metrics = run.per_layer_metrics(measured, profile, recorder, 1.0,
                                    0.0)
    return metrics, profile.calls, measured


def test_injected_resched_call_moves_only_rtos_calls(monkeypatch):
    before = {workload: _traced(workload) for workload in SCENARIOS}

    original = RTKernel._do_resched

    def do_resched_with_extra_call(self, cpu):
        self.exists("EXTRA0")  # one extra rtos-layer call per resched
        return original(self, cpu)

    monkeypatch.setattr(RTKernel, "_do_resched",
                        do_resched_with_extra_call)
    after = {workload: _traced(workload) for workload in SCENARIOS}

    steady_before, calls_before, round_before = before["node_steady"]
    steady_after, calls_after, round_after = after["node_steady"]
    # The simulation itself is untouched ...
    assert round_after["result"] == round_before["result"]
    # ... and every resched (one wrapper call each, in the bench layer)
    # adds exactly one rtos call.
    reschedules = calls_after["bench"] - calls_before["bench"]
    assert reschedules > 1000
    assert calls_after["rtos"] - calls_before["rtos"] == reschedules
    events = round_before["events"]
    assert abs(steady_after["rtos.calls_per_event"]
               - steady_before["rtos.calls_per_event"]
               - reschedules / events) < 1e-12
    for layer in ("sim", "telemetry", "hybrid", "monitor", "core"):
        assert calls_after.get(layer) == calls_before.get(layer), layer

    # Workloads whose mechanism is elsewhere do not move.
    assert after["node_churn"][0]["osgi.calls_per_op"] \
        == before["node_churn"][0]["osgi.calls_per_op"]
    assert after["cluster_ops"][0]["lint.calls_per_op"] \
        == before["cluster_ops"][0]["lint.calls_per_op"]


def test_same_seed_repeats_exactly_across_processes():
    """Two traced runs of one seed in separate processes report the
    same per-layer counts and simulated-time metrics."""
    reports = []
    for _ in range(2):
        output = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             "node_steady", "--seed", "5", "--seconds", "1",
             "--trace", "1"],
            capture_output=True, text=True, check=True, timeout=170)
        report, result = [json.loads(line) for line
                          in output.stdout.strip().splitlines()[-2:]]
        assert result["correct"], report["problems"]
        counted = {name: metric["value"]
                   for name, metric in result["metrics"].items()
                   if not name.endswith(".self_share")
                   and name not in HOST_TIMED}
        reports.append((report["layer_calls"], report["heappops"],
                        report["events"], counted))
    assert reports[0] == reports[1]
