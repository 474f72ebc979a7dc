"""Chrome trace-event export of the simulator's structured trace.

The :class:`~repro.sim.trace.TraceRecorder` records what the kernel and
the DRCR do; this module converts those typed records into the
`Trace Event Format`_ consumed by ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_, so an operator can *see* a run:
one timeline row per CPU with an execution slice per task occupancy,
instant markers for every kernel event, and a dedicated DRCR row for
lifecycle decisions.

The occupancy slices are built from the kernel's per-job scheduling
records (:data:`~repro.sim.trace.SCHEDULING_CATEGORIES`), which the
kernel records only for a reader that opted in
(``sim.trace.scheduling = True`` before the run; ``python -m repro
--trace PATH`` does it).  Without the opt-in the export is still valid
but carries only the always-on records: lifecycle, IPC objects,
faults, deadline misses, overruns and the DRCR's decisions.

Mapping
-------
* each simulated CPU becomes a thread (``tid = cpu``) of process 0;
* a ``dispatch`` record opens a **duration slice** (``"ph": "X"``)
  named after the task; the matching ``off_cpu`` record closes it, so
  slice widths are exact task occupancy, including preemption;
* every trace record additionally becomes an **instant event**
  (``"ph": "i"``) carrying its fields as ``args``, grouped under a
  category (see :data:`CATEGORY_GROUPS`) so event classes can be
  toggled in the viewer;
* DRCR component events (when passed) land on a synthetic "DRCR"
  thread (``tid =`` :data:`DRCR_TID`).

Timestamps: simulation time is integer nanoseconds; the trace-event
``ts`` field is microseconds, so values are divided by 1000 and may be
fractional (the format allows it; ``displayTimeUnit`` is set to "ns").

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

import json
import math

#: tid used for the synthetic DRCR decision row.
DRCR_TID = 1000

#: Trace-record categories grouped for the viewer's category filter.
CATEGORY_GROUPS = {
    "dispatch": "kernel.sched", "preempt": "kernel.sched",
    "off_cpu": "kernel.sched", "priority_change": "kernel.sched",
    "release": "kernel.release", "overrun": "kernel.release",
    "period_resume": "kernel.release",
    "task_release": "kernel.release",
    "task_release_overrun": "kernel.release",
    "release_while_suspended": "kernel.release",
    "sporadic_throttle": "kernel.release",
    "deadline_miss": "kernel.deadline",
    "block": "kernel.ipc", "wake": "kernel.ipc",
    "shm_alloc": "kernel.ipc", "shm_free": "kernel.ipc",
    "mbx_init": "kernel.ipc", "sem_init": "kernel.ipc",
    "res_sem_init": "kernel.ipc", "fifo_create": "kernel.ipc",
    "obj_free": "kernel.ipc",
    "task_create": "kernel.task", "task_start": "kernel.task",
    "task_end": "kernel.task", "task_delete": "kernel.task",
    "task_suspend": "kernel.task", "task_resume": "kernel.task",
    "task_self_suspend": "kernel.task", "task_fault": "kernel.task",
    "timer_start": "kernel.timer", "timer_stop": "kernel.timer",
    "load_register": "kernel.linux", "load_unregister": "kernel.linux",
    "watchdog": "kernel.watchdog",
    "placement": "drcr", "component": "drcr",
    "fault_inject": "faults",
    "quarantine": "drcr.recovery",
    "quarantine_release": "drcr.recovery",
    "descriptor_error": "drcr.recovery",
    "resolver_error": "drcr.recovery",
    "deactivation_error": "drcr.recovery",
    "command_retry": "hybrid.recovery",
    "command_retry_giveup": "hybrid.recovery",
}

#: Phases this exporter emits (also what the validator accepts).
_PHASES = frozenset({"X", "i", "M", "C"})


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def _metadata(name, tid, label):
    return {"name": name, "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": label}}


def chrome_trace_events(trace, component_events=None):
    """Convert trace records (and optional DRCR events) to a list of
    trace-event dicts.

    ``trace`` is any iterable of :class:`~repro.sim.trace.TraceRecord`;
    ``component_events`` an optional iterable of
    :class:`~repro.core.events.ComponentEvent`.
    """
    events = [_metadata("process_name", 0, "repro platform")]
    named_tids = set()
    running = {}        # cpu -> (task name, start ns)
    task_cpu = {}       # task name -> last dispatched cpu
    last_time = 0

    def name_tid(tid, label):
        if tid not in named_tids:
            named_tids.add(tid)
            events.append(_metadata("thread_name", tid, label))

    def close_slice(cpu, end_ns):
        task, start_ns = running.pop(cpu)
        events.append({
            "name": task, "cat": "kernel.exec", "ph": "X",
            "ts": start_ns / 1000.0, "dur": (end_ns - start_ns) / 1000.0,
            "pid": 0, "tid": cpu, "args": {},
        })

    for record in trace:
        fields = record.fields
        category = record.category
        last_time = record.time
        cpu = fields.get("cpu")
        if category == "dispatch":
            if cpu in running:
                close_slice(cpu, record.time)
            running[cpu] = (fields["task"], record.time)
            task_cpu[fields["task"]] = cpu
            name_tid(cpu, "CPU %d" % cpu)
        elif category == "off_cpu":
            if cpu in running and running[cpu][0] == fields["task"]:
                close_slice(cpu, record.time)
        tid = cpu if cpu is not None \
            else task_cpu.get(fields.get("task"), 0)
        name_tid(tid, "CPU %d" % tid)
        events.append({
            "name": category,
            "cat": CATEGORY_GROUPS.get(category, "kernel.other"),
            "ph": "i", "s": "t",
            "ts": record.time / 1000.0,
            "pid": 0, "tid": tid,
            "args": {key: _jsonable(value)
                     for key, value in fields.items()},
        })
    for cpu in list(running):
        close_slice(cpu, last_time)

    if component_events is not None:
        for event in component_events:
            name_tid(DRCR_TID, "DRCR")
            events.append({
                "name": event.event_type.value, "cat": "drcr",
                "ph": "i", "s": "t",
                "ts": event.time / 1000.0,
                "pid": 0, "tid": DRCR_TID,
                "args": {"component": event.component,
                         "reason": event.reason},
            })
    return events


def chrome_trace_dict(trace, component_events=None, telemetry=None):
    """The full JSON-object form of the trace (``traceEvents`` plus
    metadata); ``telemetry`` metrics, when given, ride along under
    ``otherData`` so one file carries the whole observation."""
    document = {
        "traceEvents": chrome_trace_events(trace, component_events),
        "displayTimeUnit": "ns",
        "otherData": {"producer": "repro.telemetry.chrome"},
    }
    if telemetry is not None:
        document["otherData"]["metrics"] = telemetry.as_dict()
    return document


def export_chrome_trace(trace, path, component_events=None,
                        telemetry=None, indent=None):
    """Write the trace as Chrome trace-event JSON to ``path``.

    Returns the exported document (handy for assertions).
    """
    document = chrome_trace_dict(trace, component_events, telemetry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=indent)
        handle.write("\n")
    return document


def validate_chrome_trace(document):
    """Validate a document against the trace-event schema subset this
    exporter emits.  Raises :class:`ValueError` on the first violation;
    returns the number of events otherwise.

    Checked: JSON-object form with a ``traceEvents`` list; every event
    has a string ``name``, a known ``ph``, integer ``pid``/``tid``, a
    finite non-negative ``ts`` (except ``"M"`` metadata, where ``ts``
    is optional), a finite non-negative ``dur`` on complete events
    (``"X"``), and a dict ``args``; the whole document must survive a
    ``json.dumps`` round trip.
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object, got %s"
                         % type(document).__name__)
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for index, event in enumerate(events):
        where = "traceEvents[%d]" % index
        if not isinstance(event, dict):
            raise ValueError("%s: not an object" % where)
        if not isinstance(event.get("name"), str):
            raise ValueError("%s: missing string 'name'" % where)
        phase = event.get("ph")
        if phase not in _PHASES:
            raise ValueError("%s: unknown phase %r" % (where, phase))
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError("%s: missing integer %r" % (where, key))
        if phase != "M" or "ts" in event:
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool) \
                    or not math.isfinite(ts) or ts < 0:
                raise ValueError("%s: bad ts %r" % (where, ts))
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) \
                    or not math.isfinite(dur) or dur < 0:
                raise ValueError("%s: bad dur %r" % (where, dur))
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError("%s: args must be an object" % where)
    try:
        json.dumps(document)
    except (TypeError, ValueError) as error:
        raise ValueError("document is not JSON-serializable: %s" % error)
    return len(events)
