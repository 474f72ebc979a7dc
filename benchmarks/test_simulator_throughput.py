"""Simulator performance: how fast the substrate itself runs.

Not a paper artifact, but table stakes for anyone adopting the library:
how much simulated time one wall-clock second buys, as the task
population grows.  Also guards against accidental complexity
regressions in the kernel's hot path (the event loop, dispatch,
release chain).

The ladder (see docs/PERFORMANCE.md for the methodology):

* **drain** -- a pre-scheduled backlog consumed by ``Simulator.run``
  with no further scheduling: the event loop in isolation.
* **raw_dispatch** -- self-rescheduling callback chains: one schedule +
  one fire per event, no kernel, the simulator's scheduling hot path.
* **fleet N** -- the original kernel workload: N periodic RTAI tasks
  in WaitPeriod/Compute loops over a 2 s simulated window, with
  telemetry enabled; plus a telemetry-disabled row at the largest
  fleet exercising the null-instrument fast path.

Results land in ``BENCH_throughput.json`` together with speedup factors
against the recorded pre-overhaul (seed) rates; CI uploads the document
and ``check_scaling_guardrail.py`` compares it against the committed
baseline so the overhaul can never silently regress.
"""

import json
import time
from pathlib import Path

import pytest

from repro.rtos.kernel import KernelConfig, RTKernel
from repro.rtos.latency import NullLatencyModel
from repro.rtos.requests import Compute, WaitPeriod
from repro.rtos.task import TaskType
from repro.sim.engine import MSEC, SEC, Simulator
from repro.telemetry.metrics import Telemetry

TASK_COUNTS = (1, 10, 50)
WINDOW = 2 * SEC
DRAIN_EVENTS = 200_000
RAW_CHAINS = 64
RAW_WINDOW = 6 * MSEC  # 64 chains x 6000 one-us steps = 384k events
#: Timed repetitions per workload; the best rate is reported (the
#: others absorb allocator and cache warmup noise).
REPEATS = 3

RESULT_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_throughput.json"

#: Pre-overhaul (seed, commit 975549e) rates in events/s, best of
#: three, measured on the machine that recorded the first throughput
#: baseline (a faster host than the current baseline's).
#: Machine-dependent -- the recorded ``speedup_vs_seed`` factors are
#: only meaningful on comparable hardware, which is why the pytest
#: assertions below use a same-process shape ratio and conservative
#: absolute floors instead.  Re-measure per docs/PERFORMANCE.md when
#: re-baselining.
SEED_RATES = {
    "drain": 252_900.0,
    "raw_dispatch": 346_500.0,
    "fleet_1": 210_400.0,
    "fleet_10": 149_500.0,
    "fleet_50": 134_400.0,
    "fleet_50_no_telemetry": 122_300.0,
}


def _best(run_once):
    """Run a workload REPEATS times; return the best-rate row."""
    best = None
    for _ in range(REPEATS):
        row = run_once()
        if best is None or row["events_per_s"] > best["events_per_s"]:
            best = row
    return best


def run_population(count, telemetry_enabled=True):
    """The kernel fleet workload (unchanged since the seed)."""
    sim = Simulator(seed=1,
                    telemetry=Telemetry(enabled=telemetry_enabled))
    kernel = RTKernel(sim, KernelConfig(
        latency_model=NullLatencyModel()))
    kernel.start_timer(1 * MSEC)
    for index in range(count):
        period = (1 + index % 10) * MSEC
        wcet = period // (2 * count)

        def body(task, wcet=wcet):
            while True:
                yield WaitPeriod()
                yield Compute(wcet)

        task = kernel.create_task("T%05d" % index, body,
                                  priority=index,
                                  task_type=TaskType.PERIODIC,
                                  period_ns=period)
        kernel.start_task(task)
    start = time.perf_counter()
    sim.run_for(WINDOW)
    elapsed = time.perf_counter() - start
    return {
        "workload": "fleet_%d%s" % (count,
                                    "" if telemetry_enabled
                                    else "_no_telemetry"),
        "tasks": count,
        "events": sim.processed_events,
        "wall_s": elapsed,
        "events_per_s": sim.processed_events / elapsed,
        "sim_per_wall": WINDOW / 1e9 / elapsed,
    }


def run_raw_dispatch():
    """Self-rescheduling chains: one schedule + one fire per event."""
    sim = Simulator(seed=1, max_events=10_000_000)

    def tick(index):
        sim.schedule(1000, tick, index)

    for index in range(RAW_CHAINS):
        sim.schedule(index, tick, index)
    start = time.perf_counter()
    sim.run_for(RAW_WINDOW)
    elapsed = time.perf_counter() - start
    return {
        "workload": "raw_dispatch",
        "events": sim.processed_events,
        "wall_s": elapsed,
        "events_per_s": sim.processed_events / elapsed,
    }


def run_drain():
    """Drain a pre-scheduled backlog (scheduling cost excluded)."""
    sim = Simulator(seed=1, max_events=10_000_000)

    def noop():
        pass

    for when in range(DRAIN_EVENTS):
        sim.schedule_at(when, noop)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert sim.processed_events == DRAIN_EVENTS
    return {
        "workload": "drain",
        "events": sim.processed_events,
        "wall_s": elapsed,
        "events_per_s": sim.processed_events / elapsed,
    }


def run_ladder():
    """Run every workload; return (rows, derived summary)."""
    rows = [
        _best(run_drain),
        _best(run_raw_dispatch),
    ]
    for count in TASK_COUNTS:
        rows.append(_best(lambda count=count: run_population(count)))
    rows.append(_best(
        lambda: run_population(TASK_COUNTS[-1], telemetry_enabled=False)))

    rates = {row["workload"]: row["events_per_s"] for row in rows}
    summary = {
        "fleet_overhead_growth":
            rates["fleet_%d" % TASK_COUNTS[0]]
            / rates["fleet_%d" % TASK_COUNTS[-1]],
        "speedup_vs_seed": {
            name: rates[name] / seed
            for name, seed in SEED_RATES.items() if name in rates
        },
    }
    return rows, summary


@pytest.mark.benchmark(group="simulator")
def test_simulator_throughput_ladder(benchmark):
    rows, summary = benchmark.pedantic(run_ladder, rounds=1,
                                       iterations=1)

    print("\nsimulator throughput ladder:")
    print("%-24s %10s %9s %14s" % ("workload", "events", "wall[s]",
                                   "events/s"))
    for row in rows:
        print("%-24s %10d %9.3f %14.0f"
              % (row["workload"], row["events"], row["wall_s"],
                 row["events_per_s"]))
    for name, factor in sorted(summary["speedup_vs_seed"].items()):
        print("speedup vs seed %-22s %6.2fx" % (name, factor))

    document = {
        "benchmark": "throughput",
        "task_counts": list(TASK_COUNTS),
        "drain_events": DRAIN_EVENTS,
        "rows": rows,
        "seed_rates": SEED_RATES,
        **summary,
    }
    RESULT_PATH.write_text(json.dumps(document, indent=2,
                                      sort_keys=True) + "\n")
    benchmark.extra_info["summary"] = summary

    rates = {row["workload"]: row["events_per_s"] for row in rows}
    # Per-event overhead must not blow up as the fleet grows.
    assert summary["fleet_overhead_growth"] < 3.0
    # Conservative absolute floors (CI machines vary widely).
    assert rates["drain"] > 200_000
    assert rates["raw_dispatch"] > 100_000
    for count in TASK_COUNTS:
        assert rates["fleet_%d" % count] > 20_000
    # Event count scales with the task population, not worse.
    fleet_rows = {row.get("tasks"): row for row in rows
                  if row["workload"].startswith("fleet_")
                  and not row["workload"].endswith("telemetry")}
    assert fleet_rows[TASK_COUNTS[-1]]["events"] \
        < fleet_rows[TASK_COUNTS[0]]["events"] * TASK_COUNTS[-1] * 3
