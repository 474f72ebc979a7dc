"""Regression tests: firing order through ``Simulator.run``.

``run`` and ``step`` drain the same heap of ``(when, priority, seq,
event)`` entries (see the engine module docstring).  The FIFO contract
must hold however the events got there: events at the same ``(time,
priority)`` fire in schedule order, whether they were scheduled before
the run (the backlog), pushed mid-run by a callback, or a mix of both,
and ``run`` must fire exactly the order the one-event ``step()`` API
would.
"""

from repro.sim.engine import Simulator
from repro.sim.events import (
    PRIORITY_INTERRUPT,
    PRIORITY_LATE,
)


class TestBacklogFifo:
    def test_same_time_same_priority_fires_in_schedule_order(self):
        sim = Simulator(seed=1)
        fired = []
        for index in range(50):
            sim.schedule_at(10, fired.append, index)
        sim.run()
        assert fired == list(range(50))

    def test_priority_breaks_ties_before_fifo(self):
        sim = Simulator(seed=1)
        fired = []
        sim.schedule_at(10, fired.append, "late",
                        priority=PRIORITY_LATE)
        sim.schedule_at(10, fired.append, "normal-0")
        sim.schedule_at(10, fired.append, "irq",
                        priority=PRIORITY_INTERRUPT)
        sim.schedule_at(10, fired.append, "normal-1")
        sim.run()
        assert fired == ["irq", "normal-0", "normal-1", "late"]

    def test_interleaved_times_sort_stably(self):
        # Schedule out of time order; same-time events keep their
        # relative schedule order.
        sim = Simulator(seed=1)
        fired = []
        for index, when in enumerate([30, 10, 30, 10, 20, 10]):
            sim.schedule_at(when, fired.append, (when, index))
        sim.run()
        assert fired == [(10, 1), (10, 3), (10, 5), (20, 4),
                         (30, 0), (30, 2)]


class TestMidRunFifo:
    def test_mid_run_push_at_current_time_fires_after_backlog_peers(self):
        # A callback schedules more work for the *same* timestamp the
        # drain is currently consuming.  The mid-run event has a later
        # sequence number than every backlog event at that timestamp,
        # so FIFO says it fires after them.
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule_at(10, fired.append, "mid-run")

        sim.schedule_at(10, spawner)
        for index in range(3):
            sim.schedule_at(10, fired.append, "backlog-%d" % index)
        sim.run()
        assert fired == ["spawner", "backlog-0", "backlog-1",
                         "backlog-2", "mid-run"]

    def test_mid_run_interrupt_preempts_backlog_at_same_time(self):
        # ...unless the mid-run push carries a stronger priority.
        sim = Simulator(seed=1)
        fired = []

        def spawner():
            fired.append("spawner")
            sim.schedule_interrupt(sim.now, fired.append, "irq")

        sim.schedule_at(10, spawner)
        sim.schedule_at(10, fired.append, "backlog")
        sim.run()
        assert fired == ["spawner", "irq", "backlog"]

    def test_run_matches_step_order_exactly(self):
        # Differential check: run() and the one-event step() must
        # fire the identical sequence for a workload mixing backlog
        # ties, mid-run pushes and the three priority bands.
        def build(record):
            sim = Simulator(seed=1)

            def chain(tag, hops):
                record.append((sim.now, tag))
                if hops:
                    sim.schedule(7, chain, tag, hops - 1)
                    sim.schedule(7, record.append, (sim.now, tag + "+"))

            for index in range(4):
                sim.schedule_at(5, chain, "c%d" % index, 3)
                sim.schedule_at(5, record.append, (5, "p%d" % index),
                                priority=PRIORITY_LATE)
                sim.schedule_at(12, record.append, (12, "q%d" % index),
                                priority=PRIORITY_INTERRUPT)
            return sim

        via_run, via_step = [], []
        build(via_run).run()
        stepper = build(via_step)
        while stepper.step():
            pass
        assert via_run == via_step
        assert via_run  # the workload actually fired something
