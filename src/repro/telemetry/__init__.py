"""Unified telemetry: metrics, trace export, operator observability.

The paper's DRCR owns a *global view* of every deployed real-time
contract; this package is the global view of the **platform itself** --
what the reproduction can observe about its own behaviour, unified
behind one object and two export formats.  On the paper's testbed this
role was played by RTAI's ``/proc/rtai`` counters and LTTng-style
kernel tracing; here both are first-class (see DESIGN.md §2 and
``docs/OBSERVABILITY.md`` for the full metric/trace reference).

Three pieces:

* :mod:`repro.telemetry.metrics` -- :class:`Telemetry`, the per-platform
  switchboard handing out per-subsystem :class:`MetricsRegistry`
  instances of :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  instruments.  The simulator owns the ``Telemetry``; the kernel, the
  DRCR and the hybrid bridges reach it through ``sim.telemetry`` and
  cache their instruments at construction time, so hot-path updates are
  single attribute operations.  ``Telemetry(enabled=False)`` is the one
  switch that turns the whole layer into no-ops.
* :mod:`repro.telemetry.chrome` -- converts the simulator's
  :class:`~repro.sim.trace.TraceRecorder` records (plus DRCR component
  events) into Chrome trace-event JSON loadable in ``chrome://tracing``
  or Perfetto: per-CPU execution slices, instant markers for every
  kernel event, a DRCR decision row.
* :mod:`repro.telemetry.export` -- flat metrics dumps (JSON and the
  text block appended to ``system_report``).

Quick use::

    >>> from repro import build_platform
    >>> platform = build_platform(seed=1)
    >>> platform.sim.trace.scheduling = True   # per-job records for the trace
    >>> # ... deploy components, run ...
    >>> platform.telemetry.aggregate()["rtos.dispatches_total"].value
    0
    >>> platform.export_trace("out.json")     # open in chrome://tracing
    >>> platform.export_metrics("metrics.json")

or from the command line::

    python -m repro --trace out.json --metrics metrics.json
"""

from repro.telemetry.chrome import (
    chrome_trace_dict,
    chrome_trace_events,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.telemetry.export import (
    format_metrics,
    metrics_dict,
    write_metrics_json,
)
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    Telemetry,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BOUNDS_NS",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "Telemetry",
    "chrome_trace_dict",
    "chrome_trace_events",
    "export_chrome_trace",
    "format_metrics",
    "metrics_dict",
    "validate_chrome_trace",
    "write_metrics_json",
]
