#!/usr/bin/env python3
"""The Set-Top Box scenario again -- but the policy is a JSON file.

``examples/adaptive_settopbox.py`` phase 2 keeps the overloaded box
alive with *imperative* adaptation: a hand-written ``pressure()``
callback polls task statistics and an ``ImportanceShedding`` rule
object decides what to suspend.  This example reaches the same end
state with zero policy code -- the policy is two declarative rules in
``examples/settopbox.rules.json``, evaluated by the
:class:`~repro.adapt.controller.AdaptationController` loop:

  imperative (adaptive_settopbox.py)   declarative (this example)
  ----------------------------------   --------------------------------
  def pressure(statuses):              "when": {"param":
      for status in statuses:              "deadline_miss_rate",
          stats = status["task"]...        "op": ">", "value": 0.02,
          if misses grew: return True      "for_epochs": 2}
  ImportanceShedding(pressure)         "then": [{"action":
      .apply() -> suspend victim           "shed_lowest_priority"}]
  manager.poll() every 250 ms          "cooldown_ns": 200000000
  (caller owns the cadence)            (controller owns the cadence)
  re-arm logic: hand-absorbed          "clear": {"op": "<=",
  misses after each shed                   "value": 0.005}

The two paths rank victims differently.  ``ImportanceShedding`` suspends
the active component with the lowest ``importance`` property, while
``shed_lowest_priority`` disables the admitted component with the
largest contract priority *number*
(``repro.faults.recovery.shed_order_key``).  They pick the same victims
here only because the box declares both orders consistently
(importance 10/5/3/1 on priorities 1/2/3/4): EPG000 goes first, then
REC000, and the decoder never misses a frame.

Because the policy is data, drtlint can audit it before it ever runs:

    python -m repro lint --family DRT5 examples/

Run:  python examples/adaptive_rules.py
"""

import os

from repro import build_platform
from repro.adapt import AdaptationController, JsonRuleProvider
from repro.core import AlwaysAcceptPolicy
from repro.sim.engine import MSEC, SEC

from adaptive_settopbox import (  # the very same box
    DECODE_XML,
    EPG_XML,
    OSD_XML,
    REC_XML,
    deploy,
    states,
)

RULES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "settopbox.rules.json")


def main():
    print("== declarative set-top box: policy from %s =="
          % os.path.basename(RULES_PATH))
    platform = build_platform(seed=31,
                              internal_policy=AlwaysAcceptPolicy())
    platform.start_timer(1 * MSEC)
    deploy(platform, "DECODE", DECODE_XML)
    deploy(platform, "OSD000", OSD_XML)
    deploy(platform, "EPG000", EPG_XML)
    deploy(platform, "REC000", REC_XML)  # demand now 1.10: overload
    print("all four deployed:",
          states(platform, "DECODE", "OSD000", "EPG000", "REC000"))

    provider = JsonRuleProvider(RULES_PATH)
    print("rules loaded: %s"
          % ", ".join(rule.name for rule in provider.rules()))
    controller = AdaptationController(platform, epoch_ns=50 * MSEC)
    # Registered through OSGi, exactly like a management bundle would:
    # unregistering the provider at run time withdraws the policy.
    registration = provider.register(platform.framework)
    controller.start()

    platform.run_for(3 * SEC)
    print("after adaptation:",
          states(platform, "DECODE", "OSD000", "EPG000", "REC000"))
    for entry in controller.history:
        print("  %6.2f s  %-16s %s"
              % (entry["at_ns"] / SEC, entry["rule"],
                 entry["outcome"]))
    decode_task = platform.kernel.lookup("DECODE")
    print("decoder misses:", decode_task.stats.deadline_misses)
    adapt = platform.telemetry.registry("adapt")
    print("epochs=%d fired=%d suppressed=%d"
          % (adapt.counter("epochs_total").value,
             adapt.counter("rules_fired_total").value,
             adapt.counter("rules_suppressed_total").value))

    registration.unregister()
    controller.stop()
    platform.shutdown()


if __name__ == "__main__":
    main()
