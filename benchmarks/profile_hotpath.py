#!/usr/bin/env python3
"""Profile the simulator/kernel hot paths and attribute the cost.

The attribution companion to ``test_simulator_throughput.py``: runs the
same workloads under ``cProfile`` and folds the per-function totals into
a **per-subsystem table** (sim / rtos / telemetry / osgi / workload), so
a speed regression can be blamed on a layer rather than hunted through
a flat profile.  See docs/PERFORMANCE.md for how the table is read.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py
    PYTHONPATH=src python benchmarks/profile_hotpath.py \
        --workload fleet --tasks 50 --top 15
    PYTHONPATH=src python benchmarks/profile_hotpath.py \
        --scale 0.1 --output profile_hotpath.json   # CI smoke

``--scale`` shrinks every workload proportionally (CI smoke uses 0.1);
``--output`` writes the tables as JSON for artifact upload.
"""

import argparse
import cProfile
import io
import json
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_simulator_throughput import (  # noqa: E402
    run_drain,
    run_population,
    run_raw_dispatch,
)

#: Module-path fragment -> subsystem label, first match wins.
SUBSYSTEMS = (
    ("repro/sim/", "sim"),
    ("repro/rtos/", "rtos"),
    ("repro/telemetry/", "telemetry"),
    ("repro/osgi/", "osgi"),
    ("repro/", "repro-other"),
)


def classify(filename):
    path = filename.replace("\\", "/")
    for fragment, label in SUBSYSTEMS:
        if fragment in path:
            return label
    if "test_simulator_throughput" in path or "profile_hotpath" in path:
        return "workload"
    return "stdlib/other"


WORKLOADS = {
    "drain": lambda scale: run_drain(),
    "raw": lambda scale: run_raw_dispatch(),
    "fleet": None,  # handled specially (needs the task count)
}


def profile_workload(name, runner):
    """Run ``runner`` under cProfile; return (row, subsystem table)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    row = runner()
    profiler.disable()
    wall = time.perf_counter() - start

    totals = {}
    calls = {}
    stats = pstats.Stats(profiler)
    for (filename, _line, _func), data in stats.stats.items():
        label = classify(filename)
        totals[label] = totals.get(label, 0.0) + data[2]  # tottime
        calls[label] = calls.get(label, 0) + data[1]      # ncalls
    table = [
        {
            "subsystem": label,
            "tottime_s": round(tottime, 4),
            "share": round(tottime / max(wall, 1e-9), 4),
            "calls": calls[label],
        }
        for label, tottime in sorted(totals.items(),
                                     key=lambda item: -item[1])
    ]
    row = dict(row)
    row["profiled_wall_s"] = wall
    # The profiler taxes every call, so this rate is only comparable
    # to other *profiled* rates -- never to the throughput benchmark.
    row["profiled_events_per_s"] = row["events"] / wall
    return row, table


def hot_functions(name, runner, top):
    """Flat top-N function listing for one workload."""
    profiler = cProfile.Profile()
    profiler.enable()
    runner()
    profiler.disable()
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream) \
        .sort_stats("tottime").print_stats(top)
    return stream.getvalue()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="all",
                        choices=("all", "drain", "raw", "fleet"))
    parser.add_argument("--tasks", type=int, default=50,
                        help="fleet size for the fleet workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink workloads by this factor (CI smoke)")
    parser.add_argument("--top", type=int, default=0,
                        help="also print the top-N hottest functions")
    parser.add_argument("--output", default=None,
                        help="write the tables to this JSON file")
    args = parser.parse_args(argv)

    if args.scale != 1.0:
        import test_simulator_throughput as bench
        bench.DRAIN_EVENTS = max(int(bench.DRAIN_EVENTS * args.scale),
                                 1000)
        bench.RAW_WINDOW = max(int(bench.RAW_WINDOW * args.scale),
                               1_000_000)
        bench.WINDOW = max(int(bench.WINDOW * args.scale), 100_000_000)

    selected = {}
    if args.workload in ("all", "drain"):
        selected["drain"] = run_drain
    if args.workload in ("all", "raw"):
        selected["raw"] = run_raw_dispatch
    if args.workload in ("all", "fleet"):
        selected["fleet"] = lambda: run_population(args.tasks)

    report = {"scale": args.scale, "workloads": {}}
    for name, runner in selected.items():
        row, table = profile_workload(name, runner)
        report["workloads"][name] = {"run": row, "subsystems": table}
        print("\n== %s: %d events, %.3f s profiled (%.0f ev/s "
              "under profiler) =="
              % (name, row["events"], row["profiled_wall_s"],
                 row["profiled_events_per_s"]))
        print("%-14s %10s %8s %12s" % ("subsystem", "tottime[s]",
                                       "share", "calls"))
        for entry in table:
            print("%-14s %10.3f %7.1f%% %12d"
                  % (entry["subsystem"], entry["tottime_s"],
                     100 * entry["share"], entry["calls"]))
        if args.top:
            print(hot_functions(name, runner, args.top))

    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
        print("\nwrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
