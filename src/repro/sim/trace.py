"""Structured trace recording.

The kernel, the DRCR runtime and the benchmarks all append typed records
to a :class:`TraceRecorder`.  Tests assert on exact record sequences
(for example the admit/deactivate order of the paper's section 4.3
dynamicity scenario), so records are plain, comparable data.

Two kinds of record
-------------------
Most categories are **always on**: kernel lifecycle, IPC-object,
fault, ``deadline_miss`` and overrun records, and every DRCR, cluster,
monitor, hybrid and fault-injection record.  They mark decisions, not
jobs, so the log grows with what happens to the system rather than
with simulated time.

The kernel's per-job scheduling records -- the
:data:`SCHEDULING_CATEGORIES` written on every release, dispatch,
preemption, block and wake -- are **opt-in**: the kernel builds them
only while :attr:`TraceRecorder.scheduling` is true.  A reader that
needs them (the Chrome exporter's occupancy slices, a test counting
dispatches) sets ``sim.trace.scheduling = True`` before the run it
observes; ``python -m repro --trace PATH`` does so right after building
the platform.  :meth:`TraceRecorder.disable` still turns every record
off, opted-in or not.
"""

#: The kernel's per-job categories, recorded only while
#: :attr:`TraceRecorder.scheduling` is set.
SCHEDULING_CATEGORIES = frozenset({
    "release", "dispatch", "period_resume", "preempt", "off_cpu",
    "block", "wake"})

#: Field names a record cannot carry: they would collide with its slots.
RESERVED_FIELDS = frozenset({"time", "category", "fields"})


class TraceRecord:
    """One trace record: a timestamp, a category, and free-form fields.

    Fields are read as attributes (``record.task``), so a field may not
    be named after a slot (:data:`RESERVED_FIELDS`).
    """

    __slots__ = ("time", "category", "fields")

    def __init__(self, time, category, /, **fields):
        if not RESERVED_FIELDS.isdisjoint(fields):
            raise ValueError(
                "trace field name(s) %s are reserved"
                % ", ".join(sorted(RESERVED_FIELDS.intersection(fields))))
        self.time = time
        self.category = category
        self.fields = fields

    def __getattr__(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __eq__(self, other):
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return (self.time == other.time
                and self.category == other.category
                and self.fields == other.fields)

    def __repr__(self):
        parts = ", ".join(
            "%s=%r" % (key, value) for key, value in self.fields.items())
        return "TraceRecord(t=%d, %s, %s)" % (self.time, self.category,
                                              parts)


class TraceRecorder:
    """Append-only list of :class:`TraceRecord` with category filters."""

    def __init__(self):
        self._records = []
        self._enabled = True
        #: Whether the kernel records its per-job
        #: :data:`SCHEDULING_CATEGORIES` (default off; see the module
        #: docstring).  A plain attribute: the kernel tests it on every
        #: job.
        self.scheduling = False

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    @property
    def enabled(self):
        """Whether :meth:`record` currently stores anything."""
        return self._enabled

    def disable(self):
        """Stop recording (records already stored are kept)."""
        self._enabled = False

    def enable(self):
        """Resume recording."""
        self._enabled = True

    def record(self, time, category, /, **fields):
        """Append one record (no-op while disabled)."""
        if self._enabled:
            self._records.append(TraceRecord(time, category, **fields))

    def by_category(self, category):
        """Return all records with the given category, in order."""
        return [r for r in self._records if r.category == category]

    def categories(self):
        """Return the set of categories seen so far."""
        return {r.category for r in self._records}

    def last(self, category=None):
        """Return the most recent record (optionally of a category)."""
        if category is None:
            return self._records[-1] if self._records else None
        for record in reversed(self._records):
            if record.category == category:
                return record
        return None

    def clear(self):
        """Drop all stored records."""
        self._records.clear()
