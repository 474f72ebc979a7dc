#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload node_steady --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` re-runs the same workload under ``cProfile`` with spans
around every public call and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it is a
detailed report, also written under ``.perfbench/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

from measure import (
    HostClock,
    LayerProfile,
    NullRecorder,
    SpanRecorder,
    median,
    tail,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Minimum measured (post-warm-up) rounds of an untraced run: three,
#: so that the per-op median over rounds rejects a one-round outlier.
MIN_ROUNDS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _counters(snapshot):
    """``{"subsystem.name": value}`` of a telemetry snapshot's counters."""
    flat = {}
    for subsystem, instruments in snapshot.items():
        for name, data in instruments.items():
            if data.get("type") == "counter":
                flat["%s.%s" % (subsystem, name)] = data["value"]
    return flat


def run_round(cls, seed, recorder, clock, profile=None):
    """Build, drive and check one round of a workload.

    Returns a dict with the normalised set-up time, each op's
    ``(kind, raw_s, normalised_s)``, the problems found (failed post-
    conditions, exceptions, broken invariants), the simulated-time
    result and the telemetry counters' change over the op phase."""
    scenario = cls(seed, recorder)
    # The cyclic collector is paused for the round and run once, timed,
    # after the last op: left on, its full passes land on seed-dependent
    # ops and swing a round's host time by several percent.
    gc.disable()
    clock.checkpoint()
    setup = []
    for step in scenario.setup_steps():
        _result, sample = clock.timed(step)
        setup.append(sample)
    clock.checkpoint()
    samples = []
    problems = []
    failed = 0
    try:
        sim = scenario.sim
        sim_start = sim.now
        events_start = sim.processed_events
        before = _counters(sim.telemetry.as_dict())
        for kind, op in scenario.ops():
            found = []
            sample = None
            try:
                clock.maybe_checkpoint()
                if profile is not None:
                    profile.enable()
                try:
                    check, sample = clock.timed(op)
                finally:
                    if profile is not None:
                        profile.disable()
                if check is not None:
                    found = check()
            except Exception as error:  # an op that raised has failed
                found = ["%s raised %r" % (kind, error)]
            if found:
                failed += 1
                problems.extend(found[:3])
            samples.append((kind, sample))
        _result, collect = clock.timed(gc.collect)
        clock.checkpoint()
        invariant_problems = scenario.invariants()
        result = scenario.result()
        after = _counters(result["telemetry"])
    finally:
        scenario.teardown()
        gc.enable()
        gc.collect()
    problems.extend(invariant_problems)
    return {
        "setup_raw_s": sum(sample.raw_s for sample in setup),
        "setup_s": sum(sample.normalised_s for sample in setup),
        "ops": [(kind, sample.raw_s, sample.normalised_s)
                if sample is not None else (kind, 0.0, 0.0)
                for kind, sample in samples],
        "gc_s": collect.normalised_s,
        "failed": failed + (1 if invariant_problems else 0),
        "problems": problems,
        "result": result,
        "sim_s": (result["sim_ns"] - sim_start) / 1e9,
        "events": result["events"] - events_start,
        "delta": {key: value - before.get(key, 0)
                  for key, value in after.items()},
    }


def _same(a, b):
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _tally(rounds):
    """``(attempted, failed, problems)`` over ``rounds``; a round whose
    simulated-time result differs from the first round's is a failure."""
    reference = rounds[0]["result"]
    attempted = failed = 0
    problems = []
    for index, measured in enumerate(rounds):
        attempted += len(measured["ops"])
        failed += measured["failed"]
        problems.extend(measured["problems"])
        if not _same(measured["result"], reference):
            failed += 1
            problems.append("round %d result differs from round 0 "
                            "for the same seed" % index)
    return attempted, failed, problems


def measure_untraced(cls, seed, seconds):
    """Warm-up round, then measured rounds until ``seconds`` of
    measurement (at least :data:`MIN_ROUNDS`).  Every round must
    reproduce the warm-up round's simulated-time result exactly."""
    clock = HostClock()
    recorder = NullRecorder()
    warmup = run_round(cls, seed, recorder, clock)
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS \
            or time.perf_counter() - started < seconds:
        rounds.append(run_round(cls, seed, recorder, clock))
    attempted, failed, problems = _tally([warmup] + rounds)

    # Every round repeats the same ops on the same simulated state, so
    # op i's host time is taken as its median over the measured rounds:
    # a host hiccup during one round does not reach the percentiles.
    op_norm = [median(times) for times in zip(
        *[[norm for _kind, _raw, norm in measured["ops"]]
          for measured in rounds])]
    op_raw = [median(times) for times in zip(
        *[[raw for _kind, raw, _norm in measured["ops"]]
          for measured in rounds])]
    host_s = sum(op_norm) + median([m["gc_s"] for m in rounds])
    sim_s = rounds[0]["sim_s"]
    setups = [measured["setup_s"] for measured in rounds]
    tail_ms, tail_q, tail_n = tail([value * 1e3 for value in op_norm])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024.0
    metrics = {
        "sim_s_per_host_s": (sim_s / host_s, "s/s"),
        "setup_s": (median(setups), "s"),
        "ops_per_s": (len(op_norm) / host_s, "ops/s"),
        "op_p50_ms": (median(op_norm) * 1e3, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "rounds": len(rounds),
        "ops_per_round": len(warmup["ops"]),
        "op_tail_percentile": tail_q,
        "op_tail_samples": tail_n,
        "op_samples_per_op": len(rounds),
        "raw_op_p50_ms": median(op_raw) * 1e3,
        "raw_setup_s": median([m["setup_raw_s"] for m in rounds]),
        "setup_samples_s": setups,
        "failed_op_ratio": failed / attempted,
        "sim_metrics": warmup["result"].get("sim_metrics", {}),
        "events_per_round": warmup["events"],
        "problems": problems[:20],
    }
    return metrics, report, attempted, failed


def _spans_ms(recorder, *names, self_time=False):
    return [(span.self_s if self_time else span.duration_s) * 1e3
            for span in recorder.spans if span.name in names]


def per_layer_metrics(traced, profile, recorder, untraced_raw_s,
                      failed_op_ratio):
    """Every per-layer metric of ``BENCHMARK.json`` from one traced
    round (0 where the workload does not exercise that layer)."""
    events = traced["events"] or 1
    n_ops = len(traced["ops"]) or 1
    sim_s = traced["sim_s"] or 1.0
    delta = traced["delta"]
    calls = profile.calls

    def d(name):
        return delta.get(name, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lookups_us = [value * 1e3 for value in
                  _spans_ms(recorder, "osgi.get_reference",
                            "osgi.get_references")]
    checks_ms = _spans_ms(recorder, "plan_guard.check_deploy")
    traced_raw_s = sum(raw for _kind, raw, _norm in traced["ops"])
    sim_metrics = traced["result"].get("sim_metrics", {})
    metrics = {
        "sim.self_share": profile.share("sim"),
        "sim.calls_per_event": calls.get("sim", 0) / events,
        "sim.events_per_sim_s": events / sim_s,
        "sim.heappop_per_event": profile.heappops / events,
        "rtos.self_share": profile.share("rtos"),
        "rtos.calls_per_event": calls.get("rtos", 0) / events,
        "rtos.dispatches_per_sim_s": d("rtos.dispatches_total") / sim_s,
        "rtos.preemptions_per_sim_s":
            d("rtos.preemptions_total") / sim_s,
        "telemetry.self_share": profile.share("telemetry"),
        "telemetry.calls_per_event": calls.get("telemetry", 0) / events,
        "hybrid.self_share": profile.share("hybrid"),
        "hybrid.calls_per_event": calls.get("hybrid", 0) / events,
        "hybrid.calls_per_op": calls.get("hybrid", 0) / n_ops,
        "monitor.self_share": profile.share("monitor"),
        "monitor.checks": d("contracts.checks_total"),
        "monitor.violations": d("contracts.violations_total"),
        "osgi.self_share": profile.share("osgi"),
        "osgi.calls_per_op": calls.get("osgi", 0) / n_ops,
        "osgi.lookup_p50_us": median(lookups_us),
        "osgi.lookup_tail_us": tail(lookups_us)[0],
        "osgi.filter_cache_hit_ratio": ratio(
            d("osgi.filter_cache_hits_total"),
            d("osgi.filter_cache_hits_total")
            + d("osgi.filter_cache_misses_total")),
        "core.self_share": profile.share("core"),
        "core.calls_per_op": calls.get("core", 0) / n_ops,
        "core.deploy_p50_ms": median(_spans_ms(recorder, "core.deploy")),
        "core.undeploy_p50_ms":
            median(_spans_ms(recorder, "core.undeploy")),
        "core.admission_reject_ratio": ratio(
            d("drcr.admission_rejections_total"),
            d("drcr.admissions_total")
            + d("drcr.admission_rejections_total")),
        "core.reconfig_skip_ratio": ratio(
            d("drcr.reconfiguration_passes_total")
            - d("drcr.full_sweep_passes_total"),
            d("drcr.reconfiguration_passes_total")),
        "lint.self_share": profile.share("lint"),
        "lint.calls_per_op": calls.get("lint", 0) / n_ops,
        "lint.check_deploy_p50_ms": median(checks_ms),
        "lint.check_deploy_tail_ms": tail(checks_ms)[0],
        "cluster.self_share": profile.share("cluster"),
        "cluster.calls_per_event": calls.get("cluster", 0) / events,
        "cluster.messages_per_sim_s":
            d("cluster.messages_sent_total") / sim_s,
        "cluster.message_drop_ratio": ratio(
            d("cluster.messages_dropped_total"),
            d("cluster.messages_sent_total")),
        "cluster.deploy_self_p50_ms": median(
            _spans_ms(recorder, "cluster.deploy", self_time=True)),
        "adapt.self_share": profile.share("adapt"),
        "adapt.epochs": d("adapt.epochs_total"),
        "adapt.rules_fired": d("adapt.rules_fired_total"),
        "adapt.action_fail_ratio": ratio(
            d("adapt.action_errors_total"),
            d("adapt.actions_executed_total")
            + d("adapt.action_errors_total")),
        "trace.overhead_ratio": ratio(traced_raw_s, untraced_raw_s),
        "failed_op_ratio": failed_op_ratio,
    }
    for name in ("deadline_miss_ratio", "dispatch_latency_p50_us",
                 "dispatch_latency_p99_us", "migration_p50_ms",
                 "failover_ms"):
        metrics[name] = sim_metrics.get(name, 0.0)
    return metrics


#: Units of the per-layer metrics (by suffix, then by exact name).
_UNITS = (("_share", "share"), ("_ratio", "ratio"),
          ("_per_event", "calls/event"), ("_per_op", "calls/op"),
          ("_per_sim_s", "1/sim_s"), ("_us", "us"), ("_ms", "ms"))


#: Per-layer metrics read off the simulated clock, not the host's.
_SIM_TIME_UNITS = {"dispatch_latency_p50_us": "sim_us",
                   "dispatch_latency_p99_us": "sim_us",
                   "migration_p50_ms": "sim_ms", "failover_ms": "sim_ms"}


def _unit(name):
    if name in _SIM_TIME_UNITS:
        return _SIM_TIME_UNITS[name]
    if name in ("monitor.checks", "monitor.violations", "adapt.epochs",
                "adapt.rules_fired"):
        return "count"
    if name == "sim.heappop_per_event":
        return "calls/event"
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def measure_traced(cls, seed):
    """One untraced warm-up and one untraced measured round, then two
    traced rounds.  Both traced rounds must reproduce the untraced
    simulated-time result and each other's per-layer call counts."""
    clock = HostClock()
    rounds = [run_round(cls, seed, NullRecorder(), clock)]
    rounds.append(run_round(cls, seed, NullRecorder(), clock))
    traced = []
    for _ in range(2):
        recorder = SpanRecorder()
        profile = LayerProfile()
        measured = run_round(cls, seed, recorder, clock, profile)
        traced.append((measured, profile.fold(), recorder))
        rounds.append(measured)

    attempted, failed, problems = _tally(rounds)
    (_, first_profile, _), (last, profile, recorder) = traced
    if first_profile.calls != profile.calls \
            or first_profile.heappops != profile.heappops:
        failed += 1
        problems.append("per-layer call counts differ between two "
                        "traced rounds of the same seed")
    untraced_raw_s = sum(raw for _kind, raw, _norm in rounds[1]["ops"])
    values = per_layer_metrics(last, profile, recorder, untraced_raw_s,
                               failed / attempted)
    report = {
        "layer_calls": dict(sorted(profile.calls.items())),
        "layer_self_s": dict(sorted(profile.self_s.items())),
        "heappops": profile.heappops,
        "events": last["events"],
        "problems": problems[:20],
    }
    spans = recorder.as_list()
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    return metrics, report, attempted, failed, spans


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from scenarios import SCENARIOS
    except ImportError as error:
        print("perfbench: cannot import the program from %s: %s"
              % (ROOT / "src", error), file=sys.stderr)
        return 2
    cls = SCENARIOS.get(args.workload)
    if cls is None:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(sorted(SCENARIOS))),
              file=sys.stderr)
        return 2
    spans = None
    if args.trace:
        metrics, report, attempted, failed, spans = measure_traced(
            cls, args.seed)
    else:
        metrics, report, attempted, failed = measure_untraced(
            cls, args.seed, args.seconds)
    report.update({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace})
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    document = dict(report, metrics={k: v for k, (v, _u)
                                     in metrics.items()})
    if spans is not None:
        document["spans"] = spans
    (OUT_DIR / (stem + ".json")).write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
