"""Kernel corner cases not covered elsewhere."""

import pytest

from repro.rtos.errors import TaskStateError
from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import NullLatencyModel
from repro.rtos.requests import Compute, Receive, Send, Sleep, \
    WaitPeriod
from repro.rtos.task import TaskState, TaskType
from repro.sim.engine import MSEC, USEC, Simulator
from repro.sim.trace import SCHEDULING_CATEGORIES


class TestRequestValidation:
    def test_negative_compute_rejected(self):
        with pytest.raises(ValueError):
            Compute(-1)

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            Sleep(-5)

    def test_zero_compute_is_free(self, sim, kernel):
        steps = []

        def body(task):
            yield Compute(0)
            steps.append(kernel.now)
            yield Compute(0)
            steps.append(kernel.now)

        task = kernel.create_task("ZERO00", body, 1,
                                  task_type=TaskType.APERIODIC)
        kernel.start_task(task)
        sim.run_for(1 * MSEC)
        assert steps == [0, 0]
        assert task.stats.cpu_time_ns == 0

    def test_unknown_request_faults_task(self, sim, kernel):
        def body(task):
            yield "not a request"

        task = kernel.create_task("WEIRD0", body, 1,
                                  task_type=TaskType.APERIODIC)
        kernel.start_task(task)
        sim.run_for(1 * MSEC)
        assert task.state is TaskState.FAULTED
        assert isinstance(task.fault, TypeError)

    def test_wait_period_on_aperiodic_faults(self, sim, kernel):
        def body(task):
            yield WaitPeriod()

        task = kernel.create_task("APWP00", body, 1,
                                  task_type=TaskType.APERIODIC)
        kernel.start_task(task)
        sim.run_for(1 * MSEC)
        assert task.state is TaskState.FAULTED
        assert isinstance(task.fault, TaskStateError)


class TestSchedulingCorners:
    def test_zero_sleep_resumes_same_instant(self, sim, kernel):
        times = []

        def body(task):
            times.append(kernel.now)
            yield Sleep(0)
            times.append(kernel.now)

        task = kernel.create_task("SLEEP0", body, 1,
                                  task_type=TaskType.APERIODIC)
        kernel.start_task(task)
        sim.run_for(1 * MSEC)
        assert times == [0, 0]
        assert task.state is TaskState.DORMANT

    def test_preemption_at_exact_completion_boundary(self, sim, kernel):
        # Low finishes exactly when high releases: the cancelled
        # completion must be replayed on redispatch, not lost.
        kernel.start_timer(1 * MSEC)

        def low_body(task):
            while True:
                yield WaitPeriod()
                # Exactly one period minus overheads of high's work.
                yield Compute(1 * MSEC
                              - kernel.config.irq_entry_ns
                              - kernel.config.dispatch_cost_ns)

        def high_body(task):
            while True:
                yield WaitPeriod()
                yield Compute(10 * USEC)

        low = kernel.create_task("LOWX00", low_body, 5,
                                 task_type=TaskType.PERIODIC,
                                 period_ns=2 * MSEC)
        high = kernel.create_task("HIGHX0", high_body, 1,
                                  task_type=TaskType.PERIODIC,
                                  period_ns=1 * MSEC)
        kernel.start_task(low)
        kernel.start_task(high)
        sim.run_for(100 * MSEC)
        assert high.stats.deadline_misses == 0
        assert low.stats.completions >= 48

    def test_many_tasks_same_instant_release(self, sim, kernel):
        kernel.start_timer(1 * MSEC)
        tasks = []
        for index in range(20):
            def body(task):
                while True:
                    yield WaitPeriod()
                    yield Compute(10 * USEC)

            task = kernel.create_task("MANY%02d" % index, body,
                                      priority=index,
                                      task_type=TaskType.PERIODIC,
                                      period_ns=1 * MSEC,
                                      collect_latency=True)
            kernel.start_task(task)
            tasks.append(task)
        sim.run_for(100 * MSEC)
        for task in tasks:
            assert task.stats.deadline_misses == 0
        # The lowest-priority task queues behind all 19 others.
        assert tasks[-1].stats.latency.minimum \
            > tasks[0].stats.latency.maximum

    def test_task_sending_to_own_mailbox(self, sim, kernel):
        box = kernel.mailbox("SELF00", capacity=4)
        echoes = []

        def body(task):
            delivered = yield Send(box, "ping")
            assert delivered
            message = yield Receive(box, blocking=False)
            echoes.append(message)

        task = kernel.create_task("ECHO00", body, 1,
                                  task_type=TaskType.APERIODIC)
        kernel.start_task(task)
        sim.run_for(1 * MSEC)
        assert echoes == ["ping"]

    def test_start_twice_rejected(self, sim, kernel):
        def body(task):
            yield Sleep(10 * MSEC)

        task = kernel.create_task("TWICE0", body, 1,
                                  task_type=TaskType.APERIODIC)
        kernel.start_task(task)
        with pytest.raises(TaskStateError):
            kernel.start_task(task)

    @staticmethod
    def _run_periodic(sim):
        kernel = RTKernel(sim, KernelConfig(
            latency_model=NullLatencyModel()))
        kernel.start_timer(1 * MSEC)

        def body(task):
            while True:
                yield WaitPeriod()
                yield Compute(100 * USEC)

        task = kernel.create_task("QUIET0", body, 1,
                                  task_type=TaskType.PERIODIC,
                                  period_ns=1 * MSEC)
        kernel.start_task(task)
        sim.run_for(10 * MSEC)
        return kernel

    def test_scheduling_records_are_opt_in(self):
        sim = Simulator(seed=1)
        kernel = self._run_periodic(sim)
        assert kernel.lookup("QUIET0").stats.activations > 0
        assert not sim.trace.categories() & SCHEDULING_CATEGORIES
        assert sim.trace.by_category("task_start")
        opted_in = Simulator(seed=1)
        opted_in.trace.scheduling = True
        self._run_periodic(opted_in)
        assert opted_in.trace.categories() >= {
            "release", "dispatch", "period_resume", "off_cpu"}
        # opting in adds the per-job records and changes nothing else
        assert [r for r in opted_in.trace
                if r.category not in SCHEDULING_CATEGORIES] \
            == list(sim.trace)

    def test_trace_can_be_disabled(self):
        sim = Simulator(seed=1)
        sim.trace.scheduling = True
        sim.trace.disable()
        self._run_periodic(sim)
        assert len(sim.trace) == 0
