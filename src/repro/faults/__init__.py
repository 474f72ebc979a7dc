"""``repro.faults``: deterministic fault injection + recovery policies.

The subsystem has four parts:

* :mod:`~repro.faults.plan` -- the declarative :class:`FaultPlan`
  schema (what to inject, on whom, when);
* :mod:`~repro.faults.injectors` -- one injector per
  :class:`FaultKind`, perturbing real product code paths;
* :mod:`~repro.faults.recovery` -- the recovery policies the faults
  exercise (backoff retry, quarantine/re-admission, graceful
  degradation);
* :mod:`~repro.faults.engine` -- the :class:`FaultEngine` that arms a
  plan against a live platform and records what happened.

See ``docs/FAULT_INJECTION.md`` for the full reference and a worked
chaos experiment.
"""

from repro.faults.engine import FaultEngine
from repro.faults.injectors import ResolverTimeoutError
from repro.faults.plan import (
    FaultInjectionError,
    FaultKind,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    example_plan,
    load_plan,
)
from repro.faults.recovery import (
    BackoffPolicy,
    GracefulDegradationService,
    QuarantinePolicy,
    shed_lowest_priority,
    shed_order_key,
)

__all__ = [
    "BackoffPolicy",
    "FaultEngine",
    "FaultInjectionError",
    "FaultKind",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "GracefulDegradationService",
    "QuarantinePolicy",
    "ResolverTimeoutError",
    "example_plan",
    "load_plan",
    "shed_lowest_priority",
    "shed_order_key",
]
