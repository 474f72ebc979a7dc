#!/usr/bin/env python3
"""Scaling guardrails: fail if a benchmark regressed >2x.

Usage::

    python benchmarks/check_scaling_guardrail.py \
        BENCH_scaling_drcr.json benchmarks/baselines/BENCH_scaling_drcr.json
    python benchmarks/check_scaling_guardrail.py \
        BENCH_cluster.json benchmarks/baselines/BENCH_cluster.json
    python benchmarks/check_scaling_guardrail.py \
        BENCH_throughput.json benchmarks/baselines/BENCH_throughput.json

Compares a fresh benchmark document against the committed baseline;
the document's ``benchmark`` field picks the check set.
Machine-independent shape ratios carry the regression signal:

* A3 (``scaling_drcr``): ``marginal_growth_per_fleet_growth`` (the
  ~O(affected) promise), ``incremental_speedup_at_max`` (incremental
  vs full sweep on the same machine/process), and the absolute
  ``marginal_deploy_ms`` at the largest fleet when both runs used the
  same ladder (CI baseline is recorded on the CI ladder, so this check
  is live there).
* C3 (``cluster``): ``max_failover_over_deadline`` (failover must stay
  detection-dominated) and ``migration_latency_spread`` (moving one
  component must not scale with the fleet) -- both simulated-time, so
  any drift is a protocol change, not machine noise -- plus the
  absolute ``migration_latency_ms`` at the largest fleet on matching
  ladders.  The ``gossip`` section adds membership traffic shape:
  ``growth_exponent`` is hard-capped below 2.0 (sub-quadratic, the
  SWIM promise) and, with baseline, bounded relatively along with
  ``nlogn_fit_ratio`` (the O(n log n) envelope) and the absolute
  per-interval message count at the largest fleet on matching ladders.
* Plan lint (``lint``): ``growth_exponent`` of a full six-family
  ``lint_plan`` pass across the component ladder is hard-capped below
  2.0 (the DRT6xx analyzers must stay sub-quadratic -- the PlanGuard
  runs them on the deploy path) and, with baseline, bounded relatively
  along with the absolute lint time at the largest plan on matching
  ladders.
* C6b (``contracts``): ``overhead_at_max`` (monitored vs bare run of
  the identical fleet in one process) is hard-capped below 2x and,
  with baseline, bounded relatively along with ``overhead_growth``
  (the ratio must not itself grow with the fleet) and the absolute
  monitored wall clock at the largest fleet on matching ladders.
* Engine speed (``throughput``): ``fleet_overhead_growth`` (per-event
  overhead across the fleet ladder, both legs measured in one process,
  so machine-independent) and the absolute events/s of every ladder
  row -- each must stay within ``TOLERANCE`` of the committed baseline.

A metric regresses when it is more than ``TOLERANCE`` (2x) worse than
the baseline.  Exit status 1 on any regression.
"""

import json
import sys

TOLERANCE = 2.0


def load(path):
    with open(path) as handle:
        return json.load(handle)


def check_drcr(current, baseline, check_at_most):
    check_at_most(
        "marginal_growth_per_fleet_growth",
        current["marginal_growth_per_fleet_growth"],
        TOLERANCE * baseline["marginal_growth_per_fleet_growth"])
    # Speedup shrinking by >2x counts as the same class of regression.
    check_at_most(
        "1 / incremental_speedup_at_max",
        1.0 / max(current["incremental_speedup_at_max"], 1e-9),
        TOLERANCE / max(baseline["incremental_speedup_at_max"], 1e-9))
    if current["fleet_sizes"] == baseline["fleet_sizes"]:
        check_at_most(
            "marginal_deploy_ms at max fleet",
            current["rows"][-1]["marginal_deploy_ms"],
            TOLERANCE * baseline["rows"][-1]["marginal_deploy_ms"])
    else:
        print("fleet ladders differ (%s vs %s): skipping the absolute "
              "marginal-deploy comparison"
              % (current["fleet_sizes"], baseline["fleet_sizes"]))


def check_cluster(current, baseline, check_at_most):
    check_at_most(
        "max_failover_over_deadline",
        current["max_failover_over_deadline"],
        TOLERANCE * baseline["max_failover_over_deadline"])
    check_at_most(
        "migration_latency_spread",
        current["migration_latency_spread"],
        TOLERANCE * baseline["migration_latency_spread"])
    if current["fleet_sizes"] == baseline["fleet_sizes"]:
        check_at_most(
            "migration_latency_ms at max fleet",
            current["rows"][-1]["migration_latency_ms"],
            TOLERANCE * baseline["rows"][-1]["migration_latency_ms"])
    else:
        print("fleet ladders differ (%s vs %s): skipping the absolute "
              "migration-latency comparison"
              % (current["fleet_sizes"], baseline["fleet_sizes"]))
    gossip = current.get("gossip")
    if gossip is None:
        print("no gossip section in the current document: skipping "
              "the gossip traffic checks")
        return
    # Hard cap regardless of baseline: membership traffic going
    # quadratic is exactly the regression the SWIM protocol exists to
    # prevent (exponent ~1.0 when healthy, 2.0 for a full mesh).
    check_at_most("gossip growth_exponent (hard cap)",
                  gossip["growth_exponent"], 2.0)
    reference = baseline.get("gossip")
    if reference is None:
        print("baseline has no gossip section: skipping the relative "
              "gossip comparisons")
        return
    check_at_most(
        "gossip growth_exponent",
        gossip["growth_exponent"],
        TOLERANCE * reference["growth_exponent"])
    check_at_most(
        "gossip nlogn_fit_ratio",
        gossip["nlogn_fit_ratio"],
        TOLERANCE * reference["nlogn_fit_ratio"])
    if gossip["node_sizes"] == reference["node_sizes"]:
        check_at_most(
            "gossip messages_per_interval at max nodes",
            gossip["rows"][-1]["messages_per_interval"],
            TOLERANCE
            * reference["rows"][-1]["messages_per_interval"])
    else:
        print("gossip ladders differ (%s vs %s): skipping the "
              "absolute traffic comparison"
              % (gossip["node_sizes"], reference["node_sizes"]))


def check_throughput(current, baseline, check_at_most):
    # Both legs of the growth ratio come from the same process, so the
    # comparison survives machine changes.
    check_at_most(
        "fleet_overhead_growth",
        current["fleet_overhead_growth"],
        TOLERANCE * baseline["fleet_overhead_growth"])
    baseline_rates = {row["workload"]: row["events_per_s"]
                      for row in baseline["rows"]}
    for row in current["rows"]:
        reference = baseline_rates.get(row["workload"])
        if reference is None:
            print("no baseline row for workload %r: skipping"
                  % row["workload"])
            continue
        # Rates are "bigger is better": bound the slowdown factor.
        check_at_most(
            "slowdown [%s]" % row["workload"],
            reference / max(row["events_per_s"], 1e-9),
            TOLERANCE)


def check_lint(current, baseline, check_at_most):
    # Hard cap regardless of baseline: the DRT6xx pass going
    # quadratic is exactly what would make plan-gated deployment
    # stop scaling.
    check_at_most("plan lint growth_exponent (hard cap)",
                  current["growth_exponent"], 2.0)
    # Small ladders time noisily, so floor the relative reference:
    # a healthy run sits around 1.0 (linear).
    check_at_most(
        "plan lint growth_exponent",
        current["growth_exponent"],
        TOLERANCE * max(baseline["growth_exponent"], 0.5))
    if current["component_sizes"] == baseline["component_sizes"]:
        check_at_most(
            "plan lint_ms at max components",
            current["rows"][-1]["lint_ms"],
            TOLERANCE * baseline["rows"][-1]["lint_ms"])
    else:
        print("component ladders differ (%s vs %s): skipping the "
              "absolute lint-time comparison"
              % (current["component_sizes"],
                 baseline["component_sizes"]))


def check_contracts(current, baseline, check_at_most):
    # Hard cap regardless of baseline: distribution checking that
    # doubles the cost of simulation would never be left on in a real
    # deployment (both legs of the ratio come from one process, so
    # the cap is machine-independent).
    check_at_most("monitor overhead_at_max (hard cap)",
                  current["overhead_at_max"], 2.0)
    # Ratios near 1.0 time noisily on small ladders: floor the
    # relative references at the break-even ratio.
    check_at_most(
        "monitor overhead_at_max",
        current["overhead_at_max"],
        TOLERANCE * max(baseline["overhead_at_max"], 1.0))
    check_at_most(
        "monitor overhead_growth",
        current["overhead_growth"],
        TOLERANCE * max(baseline["overhead_growth"], 1.0))
    if current["fleet_sizes"] == baseline["fleet_sizes"]:
        check_at_most(
            "monitored_s at max fleet",
            current["rows"][-1]["monitored_s"],
            TOLERANCE * baseline["rows"][-1]["monitored_s"])
    else:
        print("fleet ladders differ (%s vs %s): skipping the absolute "
              "monitored-run comparison"
              % (current["fleet_sizes"], baseline["fleet_sizes"]))


CHECKS = {
    "scaling_drcr": check_drcr,
    "cluster": check_cluster,
    "lint": check_lint,
    "throughput": check_throughput,
    "contracts": check_contracts,
}


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    current = load(argv[1])
    baseline = load(argv[2])
    kind = current.get("benchmark", "scaling_drcr")
    if kind != baseline.get("benchmark", "scaling_drcr"):
        print("benchmark kinds differ: %r vs %r"
              % (kind, baseline.get("benchmark")))
        return 2
    if kind not in CHECKS:
        print("no guardrail for benchmark %r" % (kind,))
        return 2
    failures = []

    def check_at_most(label, value, limit):
        verdict = "ok" if value <= limit else "REGRESSED"
        print("%-42s %10.3f (limit %10.3f)  %s"
              % (label, value, limit, verdict))
        if value > limit:
            failures.append(label)

    CHECKS[kind](current, baseline, check_at_most)

    if failures:
        print("guardrail FAILED: %s regressed more than %.0fx vs the "
              "committed baseline" % (", ".join(failures), TOLERANCE))
        return 1
    print("guardrail passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
