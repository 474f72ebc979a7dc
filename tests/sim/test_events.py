"""Unit tests for scheduled events and the simulator's event queue."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import EventAlreadyCancelledError
from repro.sim.events import (
    PRIORITY_INTERRUPT,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
)


def _noop():
    pass


def _recorder(sim):
    """Schedule-at helper whose events append their label when fired."""
    fired = []

    def at(when, label, **kwargs):
        return sim.schedule_at(when, fired.append, label, label=label,
                               **kwargs)

    return at, fired


class TestEventQueueOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        at, fired = _recorder(sim)
        at(30, "c")
        at(10, "a")
        at(20, "b")
        while sim.step():
            pass
        assert fired == ["a", "b", "c"]

    def test_same_time_orders_by_priority(self):
        sim = Simulator()
        at, fired = _recorder(sim)
        at(10, "late", priority=PRIORITY_LATE)
        at(10, "irq", priority=PRIORITY_INTERRUPT)
        at(10, "normal", priority=PRIORITY_NORMAL)
        while sim.step():
            pass
        assert fired == ["irq", "normal", "late"]

    def test_same_time_same_priority_is_fifo(self):
        sim = Simulator()
        at, fired = _recorder(sim)
        for i in range(5):
            at(10, str(i))
        while sim.step():
            pass
        assert fired == list("01234")

    def test_pop_empty_returns_none(self):
        # Popping an empty queue is step() on a simulator with no events:
        # nothing fires and the clock stays put.
        sim = Simulator()
        assert sim.step() is False
        assert sim.now == 0 and sim.processed_events == 0

    def test_peek_time_empty_returns_none(self):
        # A queue holding only a cancelled entry has no earliest live
        # event: nothing is pending, step() fires nothing, and run()
        # leaves the clock where it was.
        sim = Simulator()
        sim.schedule_at(5, _noop).cancel()
        assert sim.pending_events == 0
        assert sim.step() is False
        assert sim.run() == 0
        assert sim.now == 0 and sim.processed_events == 0

    def test_step_fires_earliest_live_event(self):
        sim = Simulator()
        early = sim.schedule_at(5, _noop)
        sim.schedule_at(10, _noop)
        early.cancel()
        assert sim.step() is True
        assert sim.now == 10


class TestEventCancellation:
    def test_cancelled_event_is_skipped(self):
        sim = Simulator()
        at, fired = _recorder(sim)
        at(10, "keep")
        at(5, "drop").cancel()
        sim.run()
        assert fired == ["keep"]
        assert sim.processed_events == 1

    def test_len_counts_live_events_only(self):
        sim = Simulator()
        events = [sim.schedule_at(i, _noop) for i in range(4)]
        assert sim.pending_events == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending_events == 2
        sim.step()
        assert sim.pending_events == 1

    def test_double_cancel_raises(self):
        sim = Simulator()
        event = sim.schedule_at(1, _noop)
        event.cancel()
        with pytest.raises(EventAlreadyCancelledError):
            event.cancel()

    def test_cancel_if_pending_is_idempotent(self):
        sim = Simulator()
        event = sim.schedule_at(1, _noop)
        assert event.cancel_if_pending() is True
        assert event.cancel_if_pending() is False
        assert sim.pending_events == 0

    def test_cancel_fired_event_raises(self):
        sim = Simulator()
        event = sim.schedule_at(1, _noop)
        assert sim.step()
        assert event.fired
        with pytest.raises(EventAlreadyCancelledError):
            event.cancel()
        assert sim.pending_events == 0

    def test_state_properties(self):
        sim = Simulator()
        event = sim.schedule_at(1, _noop)
        assert event.pending and not event.cancelled and not event.fired
        event.cancel()
        assert event.cancelled and not event.pending and not event.fired
        fired = sim.schedule_at(2, _noop)
        sim.run()
        assert fired.fired and not fired.pending and not fired.cancelled

    def test_clear_empties_queue(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule_at(i, _noop)
        sim.reset()
        assert sim.pending_events == 0
        assert sim.step() is False

    def test_bool_reflects_liveness(self):
        sim = Simulator()
        assert not sim.pending_events
        event = sim.schedule_at(1, _noop)
        assert sim.pending_events
        event.cancel()
        assert not sim.pending_events


class TestCancelAfterReset:
    """An event that outlived a reset() must not touch the live count."""

    def test_cancel_after_plain_reset(self):
        sim = Simulator()
        stale = [sim.schedule_at(i, _noop) for i in range(3)]
        sim.reset()
        for event in stale:
            event.cancel()
        assert sim.pending_events == 0
        sim.schedule_at(1, _noop)
        assert sim.pending_events == 1

    def test_cancel_after_reset_inside_run(self):
        sim = Simulator()
        stale = []

        def resetter():
            sim.reset()
            stale[0].cancel()

        sim.schedule_at(5, resetter)
        stale.extend(sim.schedule_at(when, _noop) for when in (10, 20))
        sim.run()
        stale[1].cancel()
        assert sim.pending_events == 0
        assert sim.processed_events == 0
        assert not any(event.fired for event in stale)
        sim.schedule_at(1, _noop)
        assert sim.pending_events == 1
