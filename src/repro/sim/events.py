"""Cancellable scheduled events.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering of same-time, same-priority events deterministic (FIFO in
scheduling order), which keeps every simulation run bit-reproducible for a
given seed.

Performance notes (see docs/PERFORMANCE.md)
-------------------------------------------
The simulator's heap stores ``(when, priority, seq, event)`` **tuples**,
not the :class:`Event` objects themselves.  Tuple comparison is a single
C-level operation, whereas comparing ``Event`` objects would call
``__lt__`` in Python for every sift step -- which profiling showed was
the single largest cost of the whole simulator.  ``seq`` is unique, so
the comparison never reaches the trailing event object, and the event
class needs no ordering methods at all.  The heap, the sequence counter
and the live count belong to :class:`repro.sim.engine.Simulator`; an
event keeps a back-reference to its simulator only so that cancelling
it can keep that live count exact.
"""

from repro.sim.errors import EventAlreadyCancelledError

#: Default event priority.  Lower values fire first at equal timestamps.
PRIORITY_NORMAL = 100
#: Priority used for hardware-level events (timer interrupts) that must be
#: observed before any same-instant software action.
PRIORITY_INTERRUPT = 0
#: Priority used for bookkeeping that must run after all same-instant work.
PRIORITY_LATE = 1000


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`
    and its siblings; user code only cancels them or inspects their
    state.  Cancelled events stay in the simulator's heap and are
    skipped when they reach its head (lazy deletion), which keeps
    :meth:`cancel` cheap for the very frequent "cancel pending
    preemption/completion" pattern in the RT kernel.
    """

    __slots__ = ("when", "priority", "seq", "callback", "args", "label",
                 "_sim", "_cancelled", "_fired")

    @property
    def cancelled(self):
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self):
        """Whether the event's callback has already run."""
        return self._fired

    @property
    def pending(self):
        """Whether the event is still waiting to fire."""
        return not (self._cancelled or self._fired)

    def cancel(self):
        """Cancel the event.

        Cancelling an event that already fired or was already cancelled
        raises :class:`EventAlreadyCancelledError`; silently ignoring the
        second cancel would hide lifecycle bugs in the kernel code built on
        top of the simulator.
        """
        if self._cancelled or self._fired:
            raise EventAlreadyCancelledError(
                "event %r already %s" %
                (self.label, "cancelled" if self._cancelled else "fired"))
        self._mark_cancelled()

    def cancel_if_pending(self):
        """Cancel the event if it is still pending; return whether it was."""
        if self.pending:
            self._mark_cancelled()
            return True
        return False

    def _mark_cancelled(self):
        self._cancelled = True
        if self._sim is not None:
            self._sim._live -= 1

    def __repr__(self):
        state = ("cancelled" if self._cancelled
                 else "fired" if self._fired else "pending")
        return "Event(t=%d, prio=%d, label=%r, %s)" % (
            self.when, self.priority, self.label, state)
