"""Discrete-event simulation core.

This package provides the deterministic, nanosecond-resolution simulation
substrate on which the RTAI-like real-time kernel (:mod:`repro.rtos`) runs.
It contains:

* :class:`~repro.sim.engine.Simulator` -- the event loop and the event
  heap it drains,
* :class:`~repro.sim.events.Event` -- cancellable scheduled callbacks
  ordered by (time, priority, sequence),
* :class:`~repro.sim.rng.RandomStreams` -- named, independently seeded
  random streams so that adding a new source of randomness never perturbs
  existing ones,
* :class:`~repro.sim.trace.TraceRecorder` -- structured trace records,
* :class:`~repro.sim.stats.RunningStats` and
  :class:`~repro.sim.stats.SampleSeries` -- statistics used by the
  benchmark harness (including AVEDEV as reported in the paper's Table 1).
"""

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError, SchedulingInPastError
from repro.sim.events import Event
from repro.sim.rng import RandomStreams
from repro.sim.stats import RunningStats, SampleSeries, summarize
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "RandomStreams",
    "RunningStats",
    "SampleSeries",
    "SchedulingInPastError",
    "SimulationError",
    "Simulator",
    "TraceRecord",
    "TraceRecorder",
    "summarize",
]
