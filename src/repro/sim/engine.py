"""The discrete-event simulator.

Time is an integer number of **nanoseconds** throughout the repository;
this matches the resolution RTAI reports scheduling latency in (the paper's
Table 1 is in nanoseconds) and avoids floating-point drift in long runs.

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
The simulator owns the event heap: a list of ``(when, priority, seq,
event)`` tuples (see :mod:`repro.sim.events`), its sequence counter and
its live-event count.  :meth:`Simulator.run` is one peek/``heappop``
loop over that heap -- bound check, skip cancelled entries, fire -- and
folds the per-event ``sim.events_total`` increment into one batched add
per run window.  The scheduling entry points (:meth:`schedule`,
:meth:`schedule_at`, :meth:`schedule_interrupt`, :meth:`call_soon`)
delegate to one shared ``_push`` that builds the heap entry and the
:class:`Event` record inline.  :meth:`step` fires one event off the
same heap; both paths fire events in the identical ``(time, priority,
seq)`` order.
"""

from heapq import heappop as _heappop
from heapq import heappush as _heappush

from repro.sim.errors import SchedulingInPastError, SimulationLimitError
from repro.sim.events import (
    PRIORITY_INTERRUPT,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    Event,
)
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.metrics import Telemetry

_new_event = Event.__new__

#: One microsecond / millisecond / second in simulation ticks.
USEC = 1000
MSEC = 1000 * USEC
SEC = 1000 * MSEC


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the named random streams.  Two simulators built
        with the same seed and fed the same schedule produce identical
        traces.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationLimitError`
        after this many events, catching accidental infinite loops in
        kernel code (a stuck periodic timer, for instance).
    telemetry:
        The platform-wide :class:`~repro.telemetry.metrics.Telemetry`.
        The simulator owns it (every other subsystem reaches it via
        ``sim.telemetry``); pass ``Telemetry(enabled=False)`` to turn
        all metric collection off.
    """

    def __init__(self, seed=0, max_events=50_000_000, telemetry=None):
        self._now = 0
        # Heap of (when, priority, seq, event) tuples; cancelled events
        # stay in it until they reach the head.
        self._heap = []
        self._seq = 0
        self._live = 0
        self._rng = RandomStreams(seed)
        self._trace = TraceRecorder()
        self._max_events = max_events
        self._processed = 0
        self._running = False
        self._telemetry = telemetry if telemetry is not None \
            else Telemetry()
        registry = self._telemetry.registry("sim")
        self._m_events = registry.counter("events_total")
        self._m_windows = registry.counter("run_windows_total")
        self._m_pending = registry.gauge("pending_events")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def now(self):
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def rng(self):
        """The simulator's :class:`~repro.sim.rng.RandomStreams`."""
        return self._rng

    @property
    def trace(self):
        """The simulator's :class:`~repro.sim.trace.TraceRecorder`."""
        return self._trace

    @property
    def telemetry(self):
        """The platform-wide :class:`~repro.telemetry.metrics.Telemetry`."""
        return self._telemetry

    @property
    def pending_events(self):
        """Number of live (not cancelled, not fired) events."""
        return self._live

    @property
    def processed_events(self):
        """Number of events whose callbacks have run so far."""
        return self._processed

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    # Each entry point builds its heap entry inline (single frame) --
    # see the module performance notes.
    def _push(self, when, priority, callback, args, label):
        seq = self._seq
        self._seq = seq + 1
        event = _new_event(Event)
        event.when = when
        event.priority = priority
        event.seq = seq
        event.callback = callback
        event.args = args
        event.label = label
        event._sim = self
        event._cancelled = False
        event._fired = False
        _heappush(self._heap, (when, priority, seq, event))
        self._live += 1
        return event

    def schedule(self, delay, callback, *args, priority=PRIORITY_NORMAL,
                 label=""):
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        when = self._now + delay
        if when < self._now:
            raise SchedulingInPastError(self._now, when)
        return self._push(when, priority, callback, args, label)

    def schedule_at(self, when, callback, *args, priority=PRIORITY_NORMAL,
                    label=""):
        """Schedule ``callback(*args)`` at absolute time ``when`` ns."""
        if when < self._now:
            raise SchedulingInPastError(self._now, when)
        return self._push(when, priority, callback, args, label)

    def schedule_interrupt(self, when, callback, *args, label=""):
        """Schedule a hardware-priority event at absolute time ``when``."""
        if when < self._now:
            raise SchedulingInPastError(self._now, when)
        return self._push(when, PRIORITY_INTERRUPT, callback, args, label)

    def call_soon(self, callback, *args, label=""):
        """Run ``callback`` at the current instant, after pending
        same-instant events of lower or equal priority already queued."""
        return self._push(self._now, PRIORITY_LATE, callback, args, label)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self):
        """Fire the single earliest event.

        Returns ``True`` if an event fired, ``False`` if no live event
        was pending.
        """
        heap = self._heap
        while heap:
            when, _priority, _seq, event = _heappop(heap)
            if event._cancelled:
                continue
            self._live -= 1
            self._now = when
            event._fired = True
            self._processed += 1
            self._m_events.inc()
            if self._processed > self._max_events:
                raise SimulationLimitError(
                    "exceeded max_events=%d at t=%d ns" %
                    (self._max_events, self._now))
            event.callback(*event.args)
            return True
        return False

    def run(self, until=None):
        """Run until the queue drains or time reaches ``until`` (ns).

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier, so back-to-back ``run``
        windows tile the timeline seamlessly.
        """
        self._running = True
        self._m_windows.inc()
        # Hot loop (module performance notes).  reset() clears the heap
        # in place, so a reset from inside a callback ends the loop.
        heap = self._heap
        heappop = _heappop
        bound = float("inf") if until is None else until
        max_events = self._max_events
        fired = 0
        try:
            while self._running and heap:
                entry = heap[0]
                if entry[0] > bound:
                    break
                heappop(heap)
                event = entry[3]
                if event._cancelled:
                    continue
                self._live -= 1
                self._now = entry[0]
                event._fired = True
                fired += 1
                self._processed += 1
                if self._processed > max_events:
                    raise SimulationLimitError(
                        "exceeded max_events=%d at t=%d ns" %
                        (max_events, self._now))
                event.callback(*event.args)
        finally:
            self._running = False
            if fired:
                self._m_events.inc(fired)
            self._m_pending.set(self._live)
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_for(self, duration):
        """Run for ``duration`` ns of simulated time from now."""
        return self.run(until=self._now + duration)

    def stop(self):
        """Request that a :meth:`run` in progress return after the current
        event (usable from inside event callbacks)."""
        self._running = False

    def reset(self):
        """Drop all pending events and rewind the clock to zero.

        Random streams are *not* reseeded; build a fresh simulator for a
        statistically independent run.
        """
        for entry in self._heap:
            entry[3]._sim = None
        self._heap.clear()
        self._live = 0
        self._trace.clear()
        self._now = 0
        self._processed = 0
        self._running = False
        self._m_pending.set(0)
