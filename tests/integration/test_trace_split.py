"""The trace log's split: always-on records vs opt-in scheduling records.

By default the kernel records decisions (task lifecycle, IPC objects,
faults, deadline misses, overruns) but not its per-job scheduling
records, so a steady fleet's log stops growing once the fleet is up;
a reader that needs the per-job records opts in on the recorder
(``sim.trace.scheduling``).
"""

from repro.platform import build_platform
from repro.rtos.requests import Compute, WaitPeriod
from repro.rtos.task import TaskType
from repro.sim.engine import MSEC, SEC, USEC
from repro.sim.trace import SCHEDULING_CATEGORIES


def start_periodic(kernel, name, period_ns, wcet_ns, priority):
    def body(task):
        while True:
            yield WaitPeriod()
            yield Compute(wcet_ns)

    task = kernel.create_task(name, body, priority,
                              task_type=TaskType.PERIODIC,
                              period_ns=period_ns)
    kernel.start_task(task)
    return task


def dispatches(platform):
    return platform.telemetry.registry("rtos").get(
        "dispatches_total").value


def test_always_on_log_stops_growing_with_sim_time():
    platform = build_platform(seed=5)
    platform.start_timer(1 * MSEC)
    for index in range(50):
        start_periodic(platform.kernel, "F%05d" % index,
                       (1 + index % 10) * MSEC, 10 * USEC, index)
    platform.run_for(2 * SEC)
    length, dispatched = len(platform.sim.trace), dispatches(platform)
    platform.run_for(2 * SEC)
    assert dispatches(platform) > dispatched + 10_000
    assert len(platform.sim.trace) == length
    assert not platform.sim.trace.categories() & SCHEDULING_CATEGORIES


def test_deadline_miss_recorded_by_default():
    platform = build_platform(seed=5)
    platform.start_timer(1 * MSEC)
    start_periodic(platform.kernel, "LATE00", 1 * MSEC, 1500 * USEC, 1)
    platform.run_for(20 * MSEC)
    misses = platform.telemetry.registry("rtos").get(
        "deadline_misses_total").value
    assert misses > 0
    assert len(platform.sim.trace.by_category("deadline_miss")) == misses
