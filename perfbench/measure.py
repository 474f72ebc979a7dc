"""Host-time measurement, percentiles, spans and per-layer profiling.

Everything here is benchmark-side: spans are opened by the benchmark
around public calls into the program, and the profile is folded into
layers by source path.  Nothing in ``src/`` is instrumented.
"""

import cProfile
import heapq
import math
import pstats
import time
from contextlib import contextmanager

#: Seconds one reference loop takes on the reference host (Intel Xeon,
#: 2 vCPU sandbox, CPython 3.11, fast host-speed mode).  Host times
#: are reported as ``raw * REFERENCE_NOMINAL_S / reference_loop_time``:
#: what they would read on that host in that mode.  Changing this
#: constant rescales every host-time metric, so it is fixed.
REFERENCE_NOMINAL_S = 0.0009

#: Timed work between two reference-loop checkpoints.  The host's speed
#: also wanders at sub-second scale; one short loop every ~10 ms tracks
#: it better than longer, rarer checkpoints (and costs ~9% of a run).
CHECKPOINT_EVERY_S = 0.01


class _RefNode:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt

    def bump(self, amount):
        self.value += amount
        return self.value


def reference_loop(rounds=1000):
    """A fixed pure-Python workload shaped like the simulator's hot
    path: small-object allocation, method calls, attribute access, dict
    updates and a binary heap.  Its duration is the host-speed probe."""
    heap = []
    table = {}
    head = None
    acc = 0
    for index in range(rounds):
        head = _RefNode(index & 63, index, head)
        acc += head.bump(3)
        table[head.key] = table.get(head.key, 0) + 1
        heapq.heappush(heap, (acc & 1023, index))
        if len(heap) > 32:
            acc ^= heapq.heappop(heap)[0]
    return acc


class Sample:
    """One timed interval: raw seconds, and reference-host seconds once
    the checkpoint after it has been taken."""

    __slots__ = ("raw_s", "normalised_s")

    def __init__(self, raw_s):
        self.raw_s = raw_s
        self.normalised_s = None


class HostClock:
    """Times intervals in reference-host seconds.

    A checkpoint times the reference loop.  Every interval is divided by
    the mean loop time of the checkpoints just before and just after it
    (taken every :data:`CHECKPOINT_EVERY_S` of timed work), which
    cancels the host's speed modes: the ratio holds while the absolute
    time swings.  A sample's ``normalised_s`` is set at the next
    checkpoint, so call :meth:`checkpoint` before reading it."""

    def __init__(self):
        self._ref_s = None
        self._pending = []
        self._since_checkpoint = 0.0

    def checkpoint(self):
        """Time the reference loop and normalise the samples taken since
        the previous checkpoint."""
        start = time.perf_counter()
        reference_loop()
        ref = time.perf_counter() - start
        bracket = ref if self._ref_s is None else (self._ref_s + ref) / 2
        for sample in self._pending:
            sample.normalised_s = sample.raw_s * REFERENCE_NOMINAL_S \
                / bracket
        self._pending = []
        self._ref_s = ref
        self._since_checkpoint = 0.0

    def maybe_checkpoint(self):
        """Take a checkpoint when the last one is stale."""
        if self._ref_s is None \
                or self._since_checkpoint >= CHECKPOINT_EVERY_S:
            self.checkpoint()

    def timed(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, Sample)``."""
        self.maybe_checkpoint()
        start = time.perf_counter()
        result = fn(*args)
        sample = Sample(time.perf_counter() - start)
        self._since_checkpoint += sample.raw_s
        self._pending.append(sample)
        return result, sample


def percentile(values, q):
    """Linear-interpolated percentile of ``values``, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(count):
    """The highest of :data:`TAIL_PERCENTILES` with at least ten of
    ``count`` samples beyond it (50 when there are fewer than 20)."""
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def tail(values):
    """``(value, percentile, samples)`` for the tail of ``values``."""
    q = tail_percentile(len(values))
    return percentile(values, q), q, len(values)


def median(values):
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Span:
    __slots__ = ("name", "start", "end", "parent", "children_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.children_s = 0.0

    @property
    def duration_s(self):
        return self.end - self.start

    @property
    def self_s(self):
        """Duration minus the time covered by child spans."""
        return self.duration_s - self.children_s

    def as_dict(self, index):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": index.get(id(self.parent)),
                "self_s": self.self_s}


class SpanRecorder:
    """In-memory spans (name, start, end, parent), written at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.children_s += record.duration_s
            self.spans.append(record)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def as_list(self):
        index = {id(span): position
                 for position, span in enumerate(self.spans)}
        return [span.as_dict(index) for span in self.spans]


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """The untraced run's recorder: spans cost one call and record
    nothing."""

    _NULL = _NullSpan()

    def span(self, name):
        return self._NULL

    def wrap(self, name, fn):
        return fn


# ----------------------------------------------------------------------
# profile folding
# ----------------------------------------------------------------------
#: The program's layers: the ``src/repro`` packages.
LAYERS = ("sim", "rtos", "telemetry", "hybrid", "monitor", "osgi",
          "core", "lint", "cluster", "adapt", "analysis", "faults")


def classify(filename):
    """Layer of one profiled function, from its source path."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/src/repro/")
    if marker >= 0:
        rest = path[marker + len("/src/repro/"):]
        package = rest.split("/", 1)[0]
        if package in LAYERS:
            return package
        return "repro"          # platform.py, workloads.py, __init__
    if "/perfbench/" in path:
        return "bench"
    return "other"              # stdlib and builtins


class LayerProfile:
    """cProfile folded by layer: self time (summed ``tottime``) and
    call counts (summed ``ncalls``) per layer, plus the builtin
    ``heappop`` count the simulator's event queue pays per event.

    Builtins (C functions such as ``heappush`` or ``dict.get``) have no
    source file; their time is charged to the layer of each caller, by
    the caller's own share of it, and their calls are not counted.

    :meth:`enable`/:meth:`disable` bracket each profiled operation;
    :meth:`fold` folds everything recorded."""

    def __init__(self):
        self._profiler = cProfile.Profile()
        self.self_s = {}
        self.calls = {}
        self.heappops = 0

    def enable(self):
        self._profiler.enable()

    def disable(self):
        self._profiler.disable()

    def fold(self):
        stats = pstats.Stats(self._profiler).stats
        for (filename, _line, func), data in stats.items():
            if func == "<built-in method _heapq.heappop>":
                self.heappops += data[1]
            if filename == "~":
                for (caller_file, _l, _f), edge in data[4].items():
                    layer = classify(caller_file)
                    self.self_s[layer] = self.self_s.get(layer, 0.0) \
                        + edge[2]
                continue
            layer = classify(filename)
            self.self_s[layer] = self.self_s.get(layer, 0.0) + data[2]
            self.calls[layer] = self.calls.get(layer, 0) + data[1]
        return self

    def share(self, layer):
        total = sum(self.self_s.values())
        return self.self_s.get(layer, 0.0) / total if total else 0.0
